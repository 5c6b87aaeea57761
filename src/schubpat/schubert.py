"""Schubert polynomials by the transition equation.

The production route is the Lascoux-Schuetzenberger transition equation on
term dicts (`schubert_polynomial`): S_w is the memo's dict from exponent
keys to coefficients, the same dict for every caller.  S_w(1) runs the same
recursion on integers.  Every function takes w as its one-line notation, a
plain tuple, which is also the memo key.  The diagram sum
`diagrams.dominated_sum(rothe(w))`, a product over the columns of D(w),
equals S_w exactly when w avoids 1432 and 1423: that is `thm2.7`.  The
oracles live in `oracles`: divided differences (`schubert_divdiff`, also at
1), the reduced-word identity (`macdonald_oracle`) and the diagram sum over
whole dominated diagrams (`dominated_sum_by_enumeration`).
"""
from __future__ import annotations

import functools

from .permwords import without_position
from .polyx import monomial_key, skip_variable


def _transition(key: tuple[int, ...]) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """(r, v, children) of the transition equation at the last descent of w.

    key is w's one-line notation, not the identity.  With r the last descent
    of w (0-indexed here), s the largest j > r with w(j) < w(r) and
    v = w t_{rs}, the children are the v t_{ir} over the i < r with
    v(i) < v(r) and no v(j) strictly between them for i < j < r; then
    S_w = x_{r+1} S_v + the sum of S_u over the children u.
    """
    n = len(key)
    r = n - 2
    while key[r] < key[r + 1]:
        r -= 1
    wr = key[r]
    s = n - 1
    while key[s] > wr:
        s -= 1
    v = list(key)
    v[r], v[s] = v[s], wr
    vr = v[r]
    children = []
    # Scanning leftwards, lo is the largest value below v(r) seen so far.
    lo = 0
    for i in range(r - 1, -1, -1):
        vi = v[i]
        if lo < vi < vr:
            lo = vi
            v[i], v[r] = vr, vi
            children.append(tuple(v))
            v[i], v[r] = vi, vr
    return r, tuple(v), children


def schubert_polynomial(values: tuple[int, ...]) -> dict[int, int]:
    """S_w by the Lascoux-Schuetzenberger transition equation (memoized)."""
    return _schubert(values)


@functools.cache  # keyed by the one-line notation as given
def _schubert(values: tuple[int, ...]) -> dict[int, int]:
    """The recursion of `_transition`, on exponent keys.

    x_{r+1} S_v adds x_{r+1}'s key to every key of S_v, and the children
    add in with no cancellation.  Trailing fixed points are stripped on a
    miss.
    """
    n = len(values)
    while n and values[n - 1] == n:
        n -= 1
    if n < len(values):
        return _schubert(values[:n])
    if not values:
        return {0: 1}
    r, v, children = _transition(values)
    x_key = monomial_key((r + 1,))
    terms = {k + x_key: c for k, c in _schubert(v).items()}
    for u in children:
        for k, c in _schubert(u).items():
            terms[k] = terms.get(k, 0) + c
    return terms


def schubert_skipping(sigma: tuple[int, ...], k: int) -> dict[int, int]:
    """S_pi(x_1, ..., x_{k-1}, x_{k+1}, ..., x_n), pi the pattern of sigma without position k.

    The single-removal polynomial.  pi is sigma's one-line notation without
    entry k, each entry above sigma_k lowered by one.  Variable i of S_pi
    becomes x_i below k and x_{i+1} from k on (`polyx.skip_variable`).
    """
    pi = without_position(sigma, k - 1)
    return {skip_variable(key, k): c for key, c in schubert_polynomial(pi).items()}


def principal_specialization(values: tuple[int, ...]) -> int:
    """S_w(1,...,1), w in one-line notation (memoized)."""
    return _spec(values)


@functools.cache  # keyed by the one-line notation as given
def _spec(values: tuple[int, ...]) -> int:
    """The transition equation at x = 1 (see `_transition`).

    S_w(1) = S_v(1) + the sum of S_u(1) over the children u.  Trailing fixed
    points are stripped on a miss.
    """
    n = len(values)
    while n and values[n - 1] == n:
        n -= 1
    if n < len(values):
        return _spec(values[:n])
    if not values:
        return 1
    _, v, children = _transition(values)
    return _spec(v) + sum(map(_spec, children))
