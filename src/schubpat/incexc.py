"""Alternating pattern expansions and the pattern-expansion coefficients c_w.

The central object is the signed sum over subwords v between u and w of
M_{w,v} * S_{perm(v)} evaluated in the variables picked out by w^{-1};
it is nonnegative whenever w avoids 1432 and 1423.  Every table over the
masks of w is built from the tables of its n one-letter deletions: a mask
that drops position i is a mask of w without position i.
`alternating_polynomials` (the subject of `thm1.1`) is A(w, u) for every u
at once: the full mask is S_w, and a mask whose lowest clear bit is i is
the mask with i kept less M_i times the deletion's entry with x_{i+1}
skipped.  At x = 1 the sums are integers: `alternating_specializations`
(the subject of `conj5.1`) does a few slice operations per deletion, and
`chain_sums` (the subject of `identity`) keeps n + 1 entries of that table
and of the sums of c over the masks, one from each deletion.  All three
are memoized on the deletions only; an entry of the polynomial table is a
term dict (`polyx`), the full mask's being the memo's S_w itself, so a
caller changes no table it reads.  Their oracles are the per-mask route,
one term per subword and a superset-sum transform (`oracles.alternating_sums`),
and the term-by-term sum over the subwords themselves (`oracles.alternating_sum`,
the per-term output of the CLI).  Every function here takes w as its
one-line notation, a plain tuple.

`verify_single_step` (the subject of `thm1.0`) decides one row of the
polynomial table, S_w - M_k * S_pi skipping x_k, by lookups in S_w, without
building it.

c_w itself is `cw_inclusion_exclusion`, h[0] of `chain_sums`.
Its independent routes are the recursion, `oracles.cw_recursive`, which
walks the subwords of w and `oracles.flatten`, and the counting
(`cw_augmentation`, the subject of `thm1.2`), which builds no diagram: it
decides augmentations column by column on row k alone (`diagrams.restricts`).
"""
from __future__ import annotations

import functools
from collections import Counter
from operator import sub

from .diagrams import _column_dominated_sets, restricts, rothe
from .errors import PatternViolationError
from .permwords import avoids, one_line, without_position
from .polyx import monomial_key, nonnegative_after_subtracting, skip_variable
from .schubert import principal_specialization, schubert_polynomial, schubert_skipping


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


def chain_sums(values: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The chains (h, s) of w, n + 1 entries each, from its deletions' chains (not memoized).

    h[j] is entry 2^j - 1 of `alternating_specializations`, the mask that
    keeps positions 1..j: h[n] = S_w(1), and that mask's lowest clear bit is
    j, so h[j] = h[j + 1] less h[j] of w without position j.  c_w is h[0].
    s[j] is the sum of c_{perm(v)} over the masks v that keep positions
    1..j: s[n] = c_w, and the masks that also drop j are, bit j squeezed
    out, those of w without position j that keep 1..j, pattern for pattern,
    so s[j] = s[j + 1] plus s[j] of that deletion.  The specialization
    identity says that s[0], c summed over every subword, is S_w(1).
    """
    n = len(values)
    h, s = [principal_specialization(values)] * (n + 1), [0] * (n + 1)
    for j in reversed(range(n)):
        deleted_h, deleted_s = _chain_sums(without_position(values, j))
        h[j] = h[j + 1] - deleted_h[j]
        s[j] = s[j + 1] + deleted_s[j]
    return h, [t + h[0] for t in s]


def cw_inclusion_exclusion(values: tuple[int, ...]) -> int:
    """c_w, the signed sum of S_{perm(v)}(1) over every subword v of word(w)."""
    return chain_sums(values)[0][0]


# The tables and chains of the one-letter deletions, keyed by their one-line
# notation.  A run to max_n holds those of S_<=max_n-1 only; none is mutated.
@functools.cache
def _alternating(values: tuple[int, ...]) -> list[int]:
    return alternating_specializations(values)


@functools.cache
def _chain_sums(values: tuple[int, ...]) -> tuple[list[int], list[int]]:
    return chain_sums(values)


def alternating_polynomials(values: tuple[int, ...]) -> list[dict[int, int]]:
    """The alternating sum A(w, u) for every subword u of word(w), indexed by mask (not memoized).

    Entry u equals `oracles.alternating_sum(w, u).total`; the full mask is
    S_w.  The term of a subword v that drops position i is minus M_i times
    its term in w without position i, whose variables are sent past x_{i+1}
    (`polyx.skip_variable`); M_i, of key `single_step_monomial(w, i + 1)`,
    is x over the boxes of D(w) in row i + 1 or column w_{i+1}.  So, with i
    the lowest clear bit of u, A(w, u) is A(w, u + 2^i) (the v that keep i)
    less M_i times the deletion's entry at u squeezed (the v that drop it).
    The masks lo::2^(i+1), lo = 2^i - 1, are filled from i = n - 1 down, as in
    `alternating_specializations`.  Row full - 2^i is `thm1.0`'s difference
    S_w - M_i * S_pi(x_1, ..., skip x_{i+1}, ..., x_n).
    """
    n = len(values)
    g: list[dict[int, int]] = [{}] * (1 << n)
    g[-1] = schubert_polynomial(values)
    for i in reversed(range(n)):
        lo, bit, k = (1 << i) - 1, 1 << i, i + 1
        m = single_step_monomial(values, k)
        deleted = _polynomials(without_position(values, i))[lo::bit]
        rows = []
        for kept, dropped in zip(g[lo + bit :: 2 * bit], deleted):
            terms = dict(kept)
            get = terms.get
            for key, c in dropped.items():
                key = m + skip_variable(key, k)
                c = get(key, 0) - c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
            rows.append(terms)
        g[lo :: 2 * bit] = rows
    return g


# The polynomial tables of the one-letter deletions, as above; deletions of
# avoiders are avoiders, so a `thm1.1` run holds only avoiders' tables.
@functools.cache
def _polynomials(values: tuple[int, ...]) -> list[dict[int, int]]:
    return alternating_polynomials(values)


def cw_augmentation(values: tuple[int, ...]) -> int:
    """c_w as the number of C <= D(w) that are augmentations for no removed pair (k, w_k).

    C is one for (k, l) when its column l is D's and every other column
    `restricts` to D's at row k: holds row k exactly when D's does.  So
    each column c allows a mask of pairs, and the count runs over the
    columns on a Counter of AND-of-masks; the non-augmentations end on mask 0.
    """
    if not avoids(values):
        raise PatternViolationError(f"{one_line(values)} contains 1432 or 1423")
    n = len(values)
    counts = Counter({(1 << n) - 1: 1})
    for j, d in enumerate(rothe(values).columns, start=1):
        if not d:
            continue  # an empty column allows every pair
        k_j = values.index(j) + 1  # the pair whose removed column is j
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


def single_step_monomial(sigma: tuple[int, ...], k: int) -> int:
    """The key of x over the boxes of D(sigma) in row k or column sigma_k.

    Row k holds one box per later entry below sigma_k, and column sigma_k
    one box in row i per earlier entry sigma_i above sigma_k.
    """
    s = sigma[k - 1]
    column = monomial_key(i for i, a in enumerate(sigma[: k - 1], start=1) if a > s)
    return column + sum(a < s for a in sigma[k:]) * monomial_key((k,))


def verify_single_step(sigma: tuple[int, ...], k: int) -> bool:
    """Whether S_sigma - M * S_pi(x_1,...,skip x_k,...,x_n) has no negative term, without building it.

    pi is the pattern of sigma at the positions other than k, and M is x^m for
    m = `single_step_monomial(sigma, k)`.
    """
    m = single_step_monomial(sigma, k)
    return nonnegative_after_subtracting(schubert_polynomial(sigma), m, schubert_skipping(sigma, k))

