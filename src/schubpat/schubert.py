"""Schubert polynomials by divided differences and by diagram sums.

The divided-difference route works for every permutation; the diagram-sum
route requires the permutation to avoid 1432 and 1423, where both agree.
The principal specialization S_w(1) is an integer computation by the
transition recursion; the divided-difference polynomial evaluated at 1
and the reduced-word identity (`macdonald_oracle`) are its oracles.
"""
from __future__ import annotations

import math
from typing import Callable, Iterator

from .diagrams import enumerate_dominated, rothe, row_monomial
from .errors import LengthGuardError, PatternViolationError
from .permwords import Permutation, avoids, flatten, remove_position
from .polyx import Monomial, Polynomial


def divided_difference(p: Polynomial, i: int) -> Polynomial:
    """(p - p with x_i and x_{i+1} exchanged) / (x_i - x_{i+1}), exactly.

    The quotient is computed by synthetic division in x_i; a nonzero
    remainder means the numerator was not antisymmetric in x_i, x_{i+1}
    and signals an internal bug.
    """
    variables = p.variables() | {i, i + 1}
    swap = {v: v for v in variables}
    swap[i], swap[i + 1] = i + 1, i
    g = p - p.substitute_variables(swap)
    if not g:
        return Polynomial.zero()

    # Split g by the exponent of x_i: g = sum_k c_k * x_i^k.
    coeffs: dict[int, Polynomial] = {}
    for mon, coef in g.terms():
        k = mon.exponent(i)
        rest = mon / Monomial({i: k})
        coeffs[k] = coeffs.get(k, Polynomial.zero()) + Polynomial.from_monomial(rest, coef)
    d = max(coeffs)
    xi1 = Polynomial.variable(i + 1)
    # Horner division by (x_i - x_{i+1}): q_{k-1} = c_k + x_{i+1} * q_k.
    q: dict[int, Polynomial] = {}
    carry = Polynomial.zero()
    for k in range(d, 0, -1):
        qk = coeffs.get(k, Polynomial.zero()) + xi1 * carry
        q[k - 1] = qk
        carry = qk
    remainder = coeffs.get(0, Polynomial.zero()) + xi1 * carry
    if remainder:
        raise ArithmeticError(f"divided difference left a remainder: {remainder}")
    result = Polynomial.zero()
    for k, poly in q.items():
        result = result + poly * Monomial({i: k})
    return result


def _longest_element_polynomial(n: int) -> Polynomial:
    return Polynomial.from_monomial(Monomial({i: n - i for i in range(1, n)}))


def _compute_schubert(w: Permutation, pick_ascent: Callable[[list[int]], int]) -> Polynomial:
    """Walk up to the longest element along ascents chosen by pick_ascent."""
    ascents = w.ascents()
    if not ascents:
        return _longest_element_polynomial(w.n)
    i = pick_ascent(ascents)
    return divided_difference(_compute_schubert(w.swap_positions(i), pick_ascent), i)


_schubert_cache: dict[tuple[int, ...], Polynomial] = {}


def schubert_divdiff(w: Permutation) -> Polynomial:
    """The Schubert polynomial of w via divided differences (memoized).

    Trailing fixed points of w are stripped first; the polynomial is
    unchanged by them.
    """
    w = w.strip_trailing_fixed_points()
    key = w.values
    cached = _schubert_cache.get(key)
    if cached is not None:
        return cached
    if not key:
        result = Polynomial.constant(1)
    else:
        ascents = w.ascents()
        if not ascents:
            result = _longest_element_polynomial(w.n)
        else:
            i = ascents[0]
            result = divided_difference(schubert_divdiff(w.swap_positions(i)), i)
    _schubert_cache[key] = result
    return result


def schubert_skipping(sigma: Permutation, k: int) -> Polynomial:
    """S_pi(x_1, ..., x_{k-1}, x_{k+1}, ..., x_n), pi the pattern of sigma without position k.

    The single-removal polynomial: variable i of S_pi becomes x_i below k
    and x_{i+1} from k on.
    """
    pi = flatten(remove_position(sigma, k))
    return schubert_divdiff(pi).substitute_variables(
        {i: (i if i < k else i + 1) for i in range(1, sigma.n)}
    )


def schubert_divdiff_alt(w: Permutation) -> Polynomial:
    """Same polynomial via the last-ascent walk; used to test independence."""
    w = w.strip_trailing_fixed_points()
    if not w.values:
        return Polynomial.constant(1)
    return _compute_schubert(w, lambda ascents: ascents[-1])


def schubert_diagram(w: Permutation) -> Polynomial:
    """Sum of x^C over all C <= D(w); valid for 1432/1423-avoiding w."""
    if not avoids(w):
        raise PatternViolationError(f"{w} contains 1432 or 1423")
    return diagram_sum(w)


def diagram_sum(w: Permutation) -> Polynomial:
    """Sum of x^C over C <= D(w) with no avoidance check (for testing both
    directions of the characterization)."""
    terms: dict[Monomial, int] = {}
    for C in enumerate_dominated(rothe(w)):
        m = row_monomial(C)
        terms[m] = terms.get(m, 0) + 1
    return Polynomial(terms)


def coefficient_by_counting(w: Permutation, m: Monomial) -> int:
    """#{C <= D(w) : x^C = m}; equals the Schubert coefficient for avoiders."""
    if not avoids(w):
        raise PatternViolationError(f"{w} contains 1432 or 1423")
    return sum(1 for C in enumerate_dominated(rothe(w)) if row_monomial(C) == m)


_spec_cache: dict[tuple[int, ...], int] = {}


def principal_specialization(w: Permutation | tuple[int, ...]) -> int:
    """S_w(1,...,1), for w or its one-line notation as a plain tuple (memoized).

    Computed by the transition recursion at x = 1: with r the last descent
    of w, s the largest j > r with w(j) < w(r) and v = w t_{rs},
    S_w(1) = S_v(1) + sum of S_{v t_{ir}}(1) over the i < r with
    v(i) < v(r) and no v(j) strictly between them for i < j < r.
    """
    values = w.values if isinstance(w, Permutation) else w
    n = len(values)
    while n and values[n - 1] == n:
        n -= 1
    key = values[:n]
    cached = _spec_cache.get(key)
    if cached is not None:
        return cached
    if not key:
        result = 1
    else:
        r = n - 2  # 0-indexed positions from here on
        while key[r] < key[r + 1]:
            r -= 1
        wr = key[r]
        s = n - 1
        while key[s] > wr:
            s -= 1
        v = list(key)
        v[r], v[s] = v[s], wr
        result = principal_specialization(tuple(v))
        vr = v[r]
        # Scanning leftwards, lo is the largest value below v(r) seen so far.
        lo = 0
        for i in range(r - 1, -1, -1):
            vi = v[i]
            if lo < vi < vr:
                lo = vi
                v[i], v[r] = vr, vi
                result += principal_specialization(tuple(v))
                v[i], v[r] = vi, vr
    _spec_cache[key] = result
    return result


def reduced_words(w: Permutation) -> Iterator[tuple[int, ...]]:
    """All reduced words a_1 ... a_l with w = s_{a_1} ... s_{a_l}."""
    descents = w.descents()
    if not descents:
        yield ()
        return
    for i in descents:
        for r in reduced_words(w.swap_positions(i)):
            yield r + (i,)


def macdonald_oracle(w: Permutation, max_length: int = 12) -> int:
    """Principal specialization via the reduced-word summation identity.

    Enumerates every reduced word of w and returns (sum of letter
    products) / l!; the division is always exact.
    """
    length = w.inversions()
    if length > max_length:
        raise LengthGuardError(f"inversion count {length} exceeds guard {max_length}")
    total = sum(math.prod(word) for word in reduced_words(w))
    value, rem = divmod(total, math.factorial(length))
    assert rem == 0, "reduced-word sum must be divisible by l!"
    return value


def clear_caches() -> None:
    _schubert_cache.clear()
    _spec_cache.clear()
