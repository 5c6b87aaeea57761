"""Alternating pattern expansions and the pattern-expansion coefficients c_w.

The central object is the signed sum over subwords v between u and w of
M_{w,v} * S_{perm(v)} evaluated in the variables picked out by w^{-1};
it is nonnegative whenever w avoids 1432 and 1423.  `alternating_sums` is
the production route: one term per position mask of w and a superset-sum
transform for every u at once.  Its oracle, `oracles.alternating_sum`,
builds the sum term by term through `Word` subwords (and is the per-term
output of the CLI).

At x = 1 the sums are integers, and every table over the masks of w is
copied from the tables of its n one-letter deletions: a mask that drops
position i is a mask of w without position i.  `alternating_specializations`
(the subject of `conj5.1`) and `pattern_coefficients` (c of the pattern at
every mask, the subject of `identity`) do a few slice operations per
deletion, memoized on the deletions only.  c_w itself is
`cw_inclusion_exclusion`, entry 0 of the alternating table.  Its
independent routes are the recursion, `oracles.cw_recursive`, which walks
`Word` subwords and `flatten`, and the counting (`cw_augmentation`, the
subject of `thm1.2`), which builds no diagram: it decides augmentations
column by column (`diagrams.restricts`).
"""
from __future__ import annotations

import functools
from collections import Counter
from operator import sub

from .diagrams import _column_dominated_sets, restricts, rothe
from .errors import PatternViolationError
from .permwords import Permutation, avoids, without_position
from .polyx import Monomial, Polynomial, exponent_key, monomial_key
from .schubert import principal_specialization, schubert_polynomial, schubert_skipping


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


def superset_sums(g: list) -> list:
    """Replace g[mask] by the sum of g over all supersets of mask, in place; return g.

    g has 2^n entries indexed by position masks, ints or polynomials alike
    (only `+` is used): n * 2^(n-1) additions.  With g[v] the signed term of
    the subword v, g[u] becomes the alternating sum over all v >= u.
    """
    size = len(g)
    b = 1
    while b < size:
        for mask in range(size):
            if not mask & b:
                g[mask] = g[mask] + g[mask | b]
        b <<= 1
    return g


def alternating_specializations(values: tuple[int, ...]) -> list[int]:
    """A(w, u) at x = 1 for every subword u of word(w), indexed by mask (not memoized).

    g[u] is the sum over v >= u of (-1)^(n - |v|) * S_{perm(v)}(1), and
    g[full] = S_w(1).  A mask u that drops position i is g[u + 2^i] (the v
    that keep i) less the table of w without position i at u squeezed (the
    v that drop it).  Taking i the lowest clear bit of u, the masks
    lo::2^(i+1), lo = 2^i - 1, squeeze to lo::2^i; filling i from n - 1 down
    sets g[u + 2^i] before g[u].
    """
    n = len(values)
    g = [0] * (1 << n)
    g[-1] = principal_specialization(values)
    for i in reversed(range(n)):
        lo, bit = (1 << i) - 1, 1 << i
        deleted = _alternating(without_position(values, i))
        g[lo :: 2 * bit] = map(sub, g[lo + bit :: 2 * bit], deleted[lo::bit])
    return g


def pattern_coefficients(values: tuple[int, ...]) -> list[int]:
    """c_{perm(v)} for every subword v of word(w), indexed by mask (not memoized).

    A mask that drops position i is a mask of w without position i: with i
    its lowest clear bit, the masks lo::2^(i+1) copy that table at lo::2^i.
    The full mask is c_w.  The specialization identity says the table sums
    to S_w(1).
    """
    n = len(values)
    t = [0] * (1 << n)
    for i in range(n):
        lo, bit = (1 << i) - 1, 1 << i
        t[lo :: 2 * bit] = _coefficients(without_position(values, i))[lo::bit]
    t[-1] = cw_inclusion_exclusion(values)
    return t


def cw_inclusion_exclusion(w: Permutation | tuple[int, ...]) -> int:
    """c_w, the signed sum of S_{perm(v)}(1) over every subword v of word(w).

    w may also be given as its one-line notation, a plain tuple.  This is
    g[0] of `alternating_specializations`, read down the chain of masks
    2^i - 1: g[2^i - 1] = g[2^(i+1) - 1] less entry 2^i - 1 of the table of
    w without position i.
    """
    values = w.values if isinstance(w, Permutation) else w
    return principal_specialization(values) - sum(
        _alternating(without_position(values, i))[(1 << i) - 1] for i in range(len(values))
    )


# The tables of the one-letter deletions, keyed by their one-line notation.  A
# run to max_n holds them for S_<=max_n-1 only; the lists are never mutated.
@functools.cache
def _alternating(values: tuple[int, ...]) -> list[int]:
    return alternating_specializations(values)


@functools.cache
def _coefficients(values: tuple[int, ...]) -> list[int]:
    return pattern_coefficients(values)


def alternating_sums(values: tuple[int, ...]) -> list[Polynomial]:
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
    boxes = [(i, 1 << (i - 1) | 1 << where[j]) for (i, j) in rothe(Permutation(values)).boxes]
    patterns = subword_patterns(values)
    terms = []
    for mask, kept in enumerate(_mask_positions(n)):
        m = list(monomial_key(i for (i, bits) in boxes if mask & bits != bits))
        m += [0] * (n - len(m))
        sign = 1 if (n - len(kept)) % 2 == 0 else -1
        term = {}
        # Variable t of S_{perm(v)} becomes x at the t-th kept position.
        for key, c in schubert_polynomial(patterns[mask]).key_terms.items():
            exps = m[:]
            for i, e in zip(kept, key):
                exps[i] += e
            term[exponent_key(exps)] = sign * c
        terms.append(Polynomial.from_keys(term))
    return superset_sums(terms)


def cw_augmentation(w: Permutation) -> int:
    """c_w as the number of C <= D(w) that are augmentations for no removed pair (k, w_k).

    C is one for (k, l) when its column l is D's and every other column
    `restricts` to D's at row k.  So each column c allows a mask of pairs,
    and the count runs over the columns on a Counter of AND-of-masks; the
    non-augmentations end on mask 0.
    """
    if not avoids(w):
        raise PatternViolationError(f"{w} contains 1432 or 1423")
    n, winv = w.n, w.inverse()
    counts = Counter({(1 << n) - 1: 1})
    for j, d in enumerate(rothe(w).columns(), start=1):
        if not d:
            continue  # an empty column allows every pair
        k_j = winv(j)  # the pair whose removed column is j
        column_masks = Counter(
            sum(
                1 << (k - 1)
                for k in range(1, n + 1)
                if (c == d if k == k_j else restricts(c, d, k))
            )
            for c in _column_dominated_sets(d)
        )
        new_counts: Counter[int] = Counter()
        for mask, count in counts.items():
            for column_mask, ways in column_masks.items():
                new_counts[mask & column_mask] += count * ways
        counts = new_counts
    return counts[0]


def single_step_monomial(sigma: Permutation, k: int) -> Monomial:
    """x over the boxes of D(sigma) in row k or column sigma_k.

    Row k holds one box per later entry below sigma_k, and column sigma_k
    one box in row i per earlier entry sigma_i above sigma_k.
    """
    values, s = sigma.values, sigma(k)
    exps = [int(a > s) for a in values[: k - 1]]
    exps.append(sum(a < s for a in values[k:]))
    return Monomial.from_key(exponent_key(exps))


def verify_single_step(sigma: Permutation, k: int) -> tuple[bool, Polynomial | None]:
    """Check S_sigma - M * S_pi(x_1,...,skip x_k,...,x_n) has no negative term.

    pi is the pattern of sigma at the positions other than k.  The difference
    is built, and returned with the verdict, only when the check fails.
    """
    m = single_step_monomial(sigma, k)
    s_sigma, sub = schubert_polynomial(sigma), schubert_skipping(sigma, k)
    if s_sigma.nonnegative_after_subtracting(m, sub):
        return True, None
    return False, s_sigma - sub * m

