"""Independent routes to quantities that have a faster production route.

Each function here recomputes a quantity by the paper's slow definition,
sharing as little code as it can with the production route, so that a test
can compare the two exhaustively at small n:

- dominance and whole dominated diagrams, which production replaces by
  per-column data: `column_dominates`, `dominates`, `enumerate_dominated`,
  `restrict_remove`, `removed_boxes` and the row monomial of a whole
  diagram (`row_monomial`);
- S_w by divided differences (`schubert_divdiff`), S_w(1) by reduced words
  (`macdonald_oracle`) or as a coefficient sum (`evaluate_all_ones`), and
  coefficients of S_w by counting dominated diagrams
  (`coefficient_by_counting`);
- c_w by its defining recursion (`cw_recursive`), the alternating sum term
  by term through subwords and relabelled variables
  (`alternating_sum`, `substitute_variables`), and the lemma counts
  `restricted_diagram_count` and `bv_count`;
- the per-mask route to the tables over the masks of w: perm(v) of every
  subword by bitmask ranks (`subword_patterns`), one signed term per mask
  and a superset-sum transform (`alternating_sums`, `superset_sums`);
- coefficients of the dual character as span ranks over whole diagrams
  (`chi_coefficient`, `determinant_product`);
- the diagram sum over whole dominated diagrams
  (`dominated_sum_by_enumeration`);
- purple boxes and purple families over whole dominated diagrams
  (`purple_boxes_bruteforce`, `purple_family_by_enumeration`), and the
  subtraction check of one whole member (`verify_theorem_gen`);
- pattern occurrences by brute force (`pattern_count`), and the subword
  poset (`inverse`, `swap_positions`, `flatten`, `is_subword`,
  `subwords_between`, `substitution_indices`, `all_subwords`).

A permutation is its one-line tuple and a word its tuple of letters, as in
the engine; nothing here checks again that a tuple it was given or built is
a permutation or a word.

The errors these routes raise (`NotASubwordError`, `LetterNotInWordError`,
`LengthGuardError`, `UnmappedVariableError`, `NotInFamilyError`) are
defined here too.

No claim and no production module imports this one; a test enforces that.
Only `cli` imports it, to print an oracle on request, and `__init__`, whose
`clear_caches` empties its memos.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .diagrams import Diagram, _column_dominated_sets, rothe
from .errors import PatternViolationError, SchubpatError
from .permwords import avoids, one_line
from .polyx import (
    add, exponent_key, monomial_key, mul, nonnegative_after_subtracting, sub, to_json, unpack
)
from .purple import PurpleFamily
from .schubert import principal_specialization, schubert_polynomial
from .weylchar import _det, _span_rank


class NotASubwordError(SchubpatError):
    """Raised when an operation requires u <= v in the subword order."""


class LetterNotInWordError(SchubpatError):
    """Raised when a word contains a letter that is not a value of the permutation."""


class LengthGuardError(SchubpatError):
    """Raised when a reduced-word enumeration is refused as too long."""


class UnmappedVariableError(SchubpatError):
    """Raised when a variable substitution does not cover every variable present."""


class NotInFamilyError(SchubpatError):
    """Raised when a diagram is not a member of the requested purple family."""


# -- whole dominated diagrams ------------------------------------------------


def column_dominates(R: Iterable[int], S: Iterable[int]) -> bool:
    """R <= S: equal sizes and k-th least of R <= k-th least of S for all k."""
    r, s = sorted(R), sorted(S)
    return len(r) == len(s) and all(a <= b for a, b in zip(r, s))


def dominates(C: Diagram, D: Diagram) -> bool:
    """C <= D columnwise."""
    if C.n != D.n:
        raise ValueError(f"size mismatch: {C.n} vs {D.n}")
    return all(column_dominates(c, d) for c, d in zip(C.columns, D.columns))


def enumerate_dominated(D: Diagram) -> Iterator[Diagram]:
    """Stream every C <= D exactly once (cartesian product over columns)."""
    per_column = [_column_dominated_sets(d) for d in D.columns]
    for choice in itertools.product(*per_column):
        yield Diagram(D.n, choice)


def restrict_remove(D: Diagram, k: int, l: int) -> Diagram:
    """Remove every box in row k or column l."""
    return Diagram.of(D.n, (b for b in D.boxes if b[0] != k and b[1] != l))


def removed_boxes(D: Diagram, k: int, l: int) -> Diagram:
    """The seed of a single removal: the boxes of D in row k or column l."""
    return Diagram.of(D.n, (b for b in D.boxes if b[0] == k or b[1] == l))


def row_monomial(D: Diagram) -> int:
    """The key of x^D: one factor x_i per box of D in row i."""
    return monomial_key(i for c in D.columns for i in c)


# -- permutations and the subword poset --------------------------------------


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """w^{-1}: the positions 1..n sorted by the value w has there."""
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def swap_positions(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Exchange the entries at positions i and i+1 (right action of s_i)."""
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def flatten(v: tuple[int, ...]) -> tuple[int, ...]:
    """perm(v): replace the smallest letter by 1, the next by 2, and so on."""
    rank = {a: r for r, a in enumerate(sorted(v), start=1)}
    return tuple(rank[a] for a in v)


def is_subword(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True iff u occurs as a (not necessarily contiguous) subsequence of v."""
    it = iter(v)
    return all(a in it for a in u)


def subwords_between(u: tuple[int, ...], w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All words v with u <= v <= word(w), each once.

    Since the letters of w are distinct, these are the restrictions of
    word(w) to the letter subsets containing the letters of u; ordered by
    the bitmask of kept positions of w, ascending.  The order comes for free:
    optional positions map to positions of w increasingly, so the kept mask
    grows with the loop's mask.
    """
    if not is_subword(u, w):
        raise NotASubwordError(f"{one_line(u)} is not a subword of {one_line(w)}")
    required = set(u)
    optional = [i for i in range(len(w)) if w[i] not in required]
    out = []
    for mask in range(1 << len(optional)):
        drop = {optional[t] for t in range(len(optional)) if not (mask >> t) & 1}
        out.append(tuple(a for i, a in enumerate(w) if i not in drop))
    return out


def substitution_indices(w: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(w^{-1}(v(1)), ..., w^{-1}(v(|v|))); strictly increasing for v <= word(w)."""
    winv = inverse(w)
    values = set(w)
    for a in v:
        if a not in values:
            raise LetterNotInWordError(f"letter {a} does not occur in {one_line(w)}")
    if not is_subword(v, w):
        raise NotASubwordError(f"{one_line(v)} is not a subword of {one_line(w)}")
    out = tuple(winv[a - 1] for a in v)
    assert all(out[i] < out[i + 1] for i in range(len(out) - 1)), "indices must ascend"
    return out


def all_subwords(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All subwords of word(w), the empty word included."""
    return subwords_between((), w)


# -- Schubert polynomials and their specialization ---------------------------


def divided_difference(p: dict[int, int], i: int) -> dict[int, int]:
    """(p - p with x_i and x_{i+1} exchanged) / (x_i - x_{i+1}), term by term.

    With a, b the exponents of x_i, x_{i+1} in a term, lo <= hi the two
    sorted, (x_i^a x_{i+1}^b - x_i^b x_{i+1}^a) / (x_i - x_{i+1}) is the sum
    of x_i^(lo+hi-1-e) x_{i+1}^e over lo <= e < hi, negated when a < b.
    """
    terms: dict[int, int] = {}
    for key, coef in p.items():
        exps = [*unpack(key)]
        exps += [0] * (i + 1 - len(exps))
        a, b = exps[i - 1], exps[i]
        lo, hi, c = (b, a, coef) if a > b else (a, b, -coef)
        for e in range(lo, hi):
            exps[i - 1], exps[i] = lo + hi - 1 - e, e
            k = exponent_key(exps)
            terms[k] = terms.get(k, 0) + c
    return {k: c for k, c in terms.items() if c}


def schubert_divdiff(w: tuple[int, ...]) -> dict[int, int]:
    """The Schubert polynomial of w via divided differences: the oracle of the transition route.

    Walks up to the longest element of S_n, x_1^(n-1) x_2^(n-2) ... x_(n-1),
    along first ascents; not memoized.
    """
    i = next((i for i in range(1, len(w)) if w[i - 1] < w[i]), None)
    if i is None:
        return {exponent_key(range(len(w) - 1, 0, -1)): 1}
    return divided_difference(schubert_divdiff(swap_positions(w, i)), i)


def evaluate_all_ones(p: dict[int, int]) -> int:
    """p at x = 1: the sum of its coefficients."""
    return sum(p.values())


def dominated_sum_by_enumeration(D: Diagram) -> dict[int, int]:
    """Sum of x^C over C <= D, one dominated diagram at a time."""
    terms: dict[int, int] = {}
    for C in enumerate_dominated(D):
        key = monomial_key(i for (i, _) in C.boxes)
        terms[key] = terms.get(key, 0) + 1
    return terms


def coefficient_by_counting(w: tuple[int, ...], m: int) -> int:
    """#{C <= D(w) : x^C = m}, m a key; equals the Schubert coefficient for avoiders."""
    if not avoids(w):
        raise PatternViolationError(f"{one_line(w)} contains 1432 or 1423")
    return sum(1 for C in enumerate_dominated(rothe(w)) if row_monomial(C) == m)


def reduced_words(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All reduced words a_1 ... a_l with w = s_{a_1} ... s_{a_l}."""
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    if not descents:
        yield ()
        return
    for i in descents:
        for r in reduced_words(swap_positions(w, i)):
            yield r + (i,)


def macdonald_oracle(w: tuple[int, ...], max_length: int = 12) -> int:
    """Principal specialization via the reduced-word summation identity.

    Enumerates every reduced word of w and returns (sum of letter
    products) / l!; the division is always exact.
    """
    length = sum(1 for a, b in itertools.combinations(w, 2) if a > b)
    if length > max_length:
        raise LengthGuardError(f"inversion count {length} exceeds guard {max_length}")
    total = sum(math.prod(word) for word in reduced_words(w))
    value, rem = divmod(total, math.factorial(length))
    assert rem == 0, "reduced-word sum must be divisible by l!"
    return value


# -- alternating sums and the coefficients c_w -------------------------------


def restrict_keep(D: Diagram, K: Iterable[int], L: Iterable[int]) -> Diagram:
    """Keep only boxes in rows K and columns L; same grid, no reindexing."""
    ks, ls = set(K), set(L)
    return Diagram.of(D.n, (b for b in D.boxes if b[0] in ks and b[1] in ls))


def hat_v(C: Diagram, w: tuple[int, ...], v: tuple[int, ...]) -> Diagram:
    """Restriction of C to the rows and columns corresponding to the subword v."""
    if not is_subword(v, w):
        raise NotASubwordError(f"{one_line(v)} is not a subword of {one_line(w)}")
    return restrict_keep(C, substitution_indices(w, v), v)


def m_monomial(w: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The key of x over the boxes of D(w) outside the restriction to v's rows/columns."""
    D = rothe(w)
    return row_monomial(Diagram.of(D.n, D.boxes - hat_v(D, w, v).boxes))


def substitute_variables(p: dict[int, int], sigma: Mapping[int, int]) -> dict[int, int]:
    """Relabel the variables of p by the injective map sigma; coefficients unchanged."""
    used = {i for key in p for i, e in enumerate(unpack(key), start=1) if e}
    missing = used - set(sigma)
    if missing:
        raise UnmappedVariableError(f"substitution does not map variables {sorted(missing)}")
    image = [sigma[v] for v in used]
    if len(set(image)) != len(image):
        raise ValueError("substitution map must be injective on the variables present")
    if min(image, default=1) < 1:
        raise ValueError(f"variable index must be >= 1, got {min(image)}")
    size, terms = max(image, default=0), {}
    for key, c in p.items():
        exps = [0] * size
        for i, e in enumerate(unpack(key), start=1):
            if e:
                exps[sigma[i] - 1] = e
        terms[exponent_key(exps)] = c
    return terms


def substituted_schubert(w: tuple[int, ...], v: tuple[int, ...]) -> dict[int, int]:
    """S_{perm(v)} with its i-th variable sent to x at w^{-1}(v(i))."""
    indices = substitution_indices(w, v)
    p = schubert_polynomial(flatten(v))
    return substitute_variables(p, dict(enumerate(indices, start=1)))


@dataclass(frozen=True)
class SumTerm:
    v: tuple[int, ...]
    sign: int
    monomial: int  # a key
    schubert: dict[int, int]


@dataclass(frozen=True)
class AlternatingSumResult:
    w: tuple[int, ...]
    u: tuple[int, ...]
    total: dict[int, int]
    per_term: tuple[SumTerm, ...]

    def to_json(self) -> dict:
        n = len(self.w)
        ms = [unpack(t.monomial) for t in self.per_term]
        return {
            "w": one_line(self.w),
            "u": one_line(self.u),
            "sum": to_json(self.total, n),
            "terms": [
                {
                    "v": one_line(t.v),
                    "sign": t.sign,
                    "M": [*m] + [0] * (n - len(m)),
                    "schubert": to_json(t.schubert, n),
                }
                for t, m in zip(self.per_term, ms)
            ],
        }


def alternating_sum(w: tuple[int, ...], u: tuple[int, ...]) -> AlternatingSumResult:
    """The signed sum of M_{w,v} * substituted Schubert over u <= v <= word(w)."""
    total: dict[int, int] = {}
    terms: list[SumTerm] = []
    for v in subwords_between(u, w):
        sign = 1 if (len(w) - len(v)) % 2 == 0 else -1
        m = m_monomial(w, v)
        s = substituted_schubert(w, v)
        total = add(total, mul(s, {m: sign}))
        terms.append(SumTerm(v, sign, m, s))
    return AlternatingSumResult(w, u, total, tuple(terms))


def restricted_diagram_count(w: tuple[int, ...], v: tuple[int, ...], m: int) -> int:
    """#{C <= hat(D(w))_v with x^C = m, m a key, and boxes only in v's rows}."""
    if not avoids(w):
        raise PatternViolationError(f"{one_line(w)} contains 1432 or 1423")
    K = set(substitution_indices(w, v))
    Dv = hat_v(rothe(w), w, v)
    count = 0
    for C in enumerate_dominated(Dv):
        if row_monomial(C) == m and all(i in K for (i, _) in C.boxes):
            count += 1
    return count


def bv_count(w: tuple[int, ...], u: tuple[int, ...], m: int) -> int:
    """|B_w minus the union of B_v over codimension-one v|, by enumeration; m is a key.

    B_v collects the diagrams C <= D(w) with x^C = m whose boxes outside
    the v-restriction are exactly the boxes of D(w) outside its own
    v-restriction.
    """
    if not avoids(w):
        raise PatternViolationError(f"{one_line(w)} contains 1432 or 1423")
    D = rothe(w)
    between = subwords_between(u, w)
    codim_one = [v for v in between if len(v) == len(w) - 1]

    def in_bv(C: Diagram, v: tuple[int, ...]) -> bool:
        return C.boxes - hat_v(C, w, v).boxes == D.boxes - hat_v(D, w, v).boxes

    count = 0
    for C in enumerate_dominated(D):
        if row_monomial(C) != m:
            continue
        if not any(in_bv(C, v) for v in codim_one):
            count += 1
    return count


@functools.cache  # keyed by the number of positions
def _mask_positions(n: int) -> tuple[tuple[int, ...], ...]:
    """The kept positions (0-indexed) of every mask over n positions."""
    return tuple(tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n))


def subword_patterns(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """perm(v) for every subword v of word(w), indexed by the mask of kept positions.

    w is given by its one-line notation `values`; bit i of a mask keeps
    position i + 1.  The letter at position i ranks among the kept letters
    by the kept positions j whose letter is smaller, read off a bitmask.
    """
    n = len(values)
    below = [sum(1 << j for j in range(n) if values[j] < a) for a in values]
    return [
        tuple([(mask & below[i]).bit_count() + 1 for i in kept])
        for mask, kept in enumerate(_mask_positions(n))
    ]


def superset_sums(g: list[dict[int, int]]) -> list[dict[int, int]]:
    """Replace g[mask] by the sum of g over all supersets of mask, in place; return g.

    g has 2^n polynomials indexed by position masks: n * 2^(n-1) additions.
    With g[v] the signed term of the subword v, g[u] becomes the alternating
    sum over all v >= u.
    """
    size = len(g)
    b = 1
    while b < size:
        for mask in range(size):
            if not mask & b:
                g[mask] = add(g[mask], g[mask | b])
        b <<= 1
    return g


def alternating_sums(values: tuple[int, ...]) -> list[dict[int, int]]:
    """The alternating sum A(w, u) for every subword u of word(w), indexed by mask.

    Equals `oracles.alternating_sum(w, u).total` for u the subword at
    mask.  The term of each subword v is built once: (-1)^(n - |v|) *
    M_{w,v} * S_{perm(v)}(x_{w^{-1} v}), where w^{-1} v is the kept
    positions and M_{w,v} is x over the boxes (i, j) of D(w) whose row i
    or column j is not kept (row i is position i, column j the position
    of letter j).  `superset_sums` then adds the terms of all v >= u.
    """
    n = len(values)
    where = {a: p for p, a in enumerate(values)}
    # A box lies in the kept rows and columns iff its mask bits are all kept.
    boxes = [(i, 1 << (i - 1) | 1 << where[j]) for (i, j) in rothe(values).boxes]
    patterns = subword_patterns(values)
    terms = []
    for mask, kept in enumerate(_mask_positions(n)):
        m = list(unpack(monomial_key(i for (i, bits) in boxes if mask & bits != bits)))
        m += [0] * (n - len(m))
        sign = 1 if (n - len(kept)) % 2 == 0 else -1
        term = {}
        # Variable t of S_{perm(v)} becomes x at the t-th kept position.
        for key, c in schubert_polynomial(patterns[mask]).items():
            exps = m[:]
            for i, e in zip(kept, unpack(key)):
                exps[i] += e
            term[exponent_key(exps)] = sign * c
        terms.append(term)
    return superset_sums(terms)


def cw_recursive(w: tuple[int, ...]) -> int:
    """c_w by the defining recursion: S_w(1) minus c over all proper subwords (memoized)."""
    return _cw_recursive(w)


@functools.cache  # keyed by the one-line notation
def _cw_recursive(w: tuple[int, ...]) -> int:
    total = principal_specialization(w)
    # c of the empty permutation is 1 and accounts for the classical -1.
    for v in all_subwords(w):
        if len(v) == len(w):
            continue
        total -= _cw_recursive(flatten(v)) if v else 1
    return total


# -- dual characters over whole diagrams -------------------------------------


def determinant_product(C: Diagram, D: Diagram) -> dict[int, int]:
    """Product over columns j of det(Y^{C_j}_{D_j})."""
    result = {0: 1}
    for cj, dj in zip(C.columns, D.columns):
        if not cj and not dj:
            continue
        if not column_dominates(cj, dj):
            return {}
        result = mul(result, _det(tuple(cj), tuple(dj)))
    return result


def chi_coefficient(D: Diagram, m: int) -> int:
    """Coefficient of the key m in the dual character of D's flagged Weyl module."""
    matching = [C for C in enumerate_dominated(D) if row_monomial(C) == m]
    return _span_rank([determinant_product(C, D) for C in matching])


# -- purple boxes and families -----------------------------------------------


def purple_boxes_bruteforce(D: Diagram, k: int, l: int) -> frozenset[tuple[int, int]]:
    """Whole-diagram oracle for purple_boxes; use only on small diagrams."""
    Dhat = restrict_remove(D, k, l)
    reachable: set[tuple[int, int]] = set()
    restricted: set[tuple[int, int]] = set()
    for C in enumerate_dominated(D):
        reachable.update(C.boxes)
        Chat = restrict_remove(C, k, l)
        if dominates(Chat, Dhat):
            restricted.update(Chat.boxes)
    return frozenset(reachable - restricted)


def purple_family_by_enumeration(
    D: Diagram, k: int, l: int
) -> tuple[frozenset[tuple[int, int]], frozenset[Diagram], frozenset[int]]:
    """(purple boxes, members, monomial keys) of the purple family, over whole diagrams.

    The members are the C <= the seed that lie inside the purple boxes.
    """
    boxes = purple_boxes_bruteforce(D, k, l)
    members = frozenset(C for C in enumerate_dominated(removed_boxes(D, k, l)) if C.boxes <= boxes)
    return boxes, members, frozenset(map(row_monomial, members))


def verify_theorem_gen(
    family: PurpleFamily, K: Diagram, chi_D: dict[int, int], chi_hat_k: dict[int, int]
) -> tuple[bool, dict[int, int] | None]:
    """Check chi_D - x^K * chi_hat_k has no negative term, for K in the family.

    chi_D is the dual character of the family's diagram D, and chi_hat_k that
    of restrict_remove(D, k, l) with x_k = 0 substituted.  The whole-diagram
    form of `thm4.1`'s check, which reads each member's row monomial off the
    family's per-column product instead; the difference is returned with the
    verdict when the check fails.
    """
    if K not in family.members:
        raise NotInFamilyError(f"{K} is not a member of the purple family of {family.D}")
    m = row_monomial(K)
    if nonnegative_after_subtracting(chi_D, m, chi_hat_k):
        return True, None
    return False, sub(chi_D, mul(chi_hat_k, {m: 1}))


# -- patterns ----------------------------------------------------------------


def pattern_count(u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Number of occurrences of u as a pattern in w."""
    if len(u) > len(w):
        return 0
    count = 0
    for letters in itertools.combinations(w, len(u)):
        rank = {a: r for r, a in enumerate(sorted(letters), start=1)}
        if tuple(rank[a] for a in letters) == u:
            count += 1
    return count
