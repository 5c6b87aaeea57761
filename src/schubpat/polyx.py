"""Sparse multivariate polynomials with exact integer (Python int) coefficients.

Variables are indexed by positive integers: x_1, x_2, ...; the y_ij of the
determinant computations share the engine through :func:`pair_index`.
A polynomial is its term dict, from exponent keys to nonzero coefficients:
`{}` is 0 and `{0: 1}` is 1.  The key of a monomial is one int that packs
its exponents in digits of W bits: the sum of e_i * 2^(W(i-1)) over its
variables i.  Bit W - 1 of every digit is a guard, clear in every key,
because every exponent is below 2^(W-1): an exponent of a polynomial built
from an input of size n counts the boxes in one row of an n x n diagram, or
the y_ij of one column's determinant, so it is at most n, and the CLI
refuses n above `diagrams.MAX_N`.  So equal monomials have equal keys, a
product of monomials is the sum of their keys, and a quotient is a
difference that borrows into no guard bit (`key_quotient`).  Inside the
engine a monomial is its key; `unpack` gives its exponent tuple where a term
leaves the engine, and `_canonical`, the one order on monomials, sorts on
it.  `monomial_text` is where a key becomes text, and `polynomial_text`
where a polynomial does.  The functions here take and return term dicts;
each builds a new dict and changes none it is given.  The caller owns the
invariants above, and changes no dict it did not build: the memos hand out
theirs.
"""
from __future__ import annotations

import json
from typing import Iterable

W = 11  # bits per exponent digit, the top one a guard: exponents are below 2^(W-1)
_DIGIT = (1 << W) - 1
# The guard bit of the digit of each of x_1 .. x_N, N = 2^(W-1), every x variable an input
# has: (2^(WN) - 1) / (2^W - 1) holds a 1 in each of the N digits.
_GUARDS = ((1 << W * (1 << (W - 1))) - 1) // _DIGIT << (W - 1)


def pair_index(i: int, j: int) -> int:
    """Encode the pair (i, j), i <= j, as a single variable index.

    Triangular pairing: (1,1)->1, (1,2)->2, (2,2)->3, (1,3)->4, ...
    Independent of any ambient matrix size.
    """
    if not (1 <= i <= j):
        raise ValueError(f"pair_index requires 1 <= i <= j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def monomial_key(variables: Iterable[int]) -> int:
    """The key of the product of the given variables (indices >= 1, unchecked)."""
    return sum(1 << W * (v - 1) for v in variables)


def exponent_key(exps: Iterable[int]) -> int:
    """The key of a dense exponent sequence, entry i - 1 for variable i."""
    key = 0
    for i, e in enumerate(exps):
        if not 0 <= e < 1 << (W - 1):
            raise ValueError(f"exponent {e} of variable {i + 1} is outside 0..{(1 << (W - 1)) - 1}")
        key += e << W * i
    return key


def unpack(key: int) -> tuple[int, ...]:
    """The exponents of a key, entry i - 1 for variable i, without trailing zeros."""
    exps = []
    while key:
        exps.append(key & _DIGIT)
        key >>= W
    return tuple(exps)


def skip_variable(key: int, k: int) -> int:
    """The key with variable i sent to x_i below k and to x_{i+1} from k on.

    The digits of variables k and up move one digit up; a key of variables
    below k is unchanged.
    """
    low = key & ((1 << W * (k - 1)) - 1)
    return low + ((key - low) << W)


def key_quotient(m: int, d: int) -> int | None:
    """The key of m / d, or None when d does not divide m; m has variables up to x_{2^(W-1)}.

    d divides m exactly when m - d borrows from no digit: the digit of the
    lowest variable whose exponent in d exceeds that in m borrows.  A digit
    that borrows ends between 2^(W-1) and 2^W - 1, so its guard bit is set;
    one that does not ends below 2^(W-1).  A borrow out of the top digit
    makes the difference negative.
    """
    if m > _GUARDS:
        raise ValueError(f"key_quotient reads the guards of x_1 .. x_{1 << (W - 1)} only")
    q = m - d
    return None if q < 0 or q & _GUARDS else q


def _order(key: int) -> tuple[int, tuple[int, ...]]:
    exps = unpack(key)
    return -sum(exps), exps


def _canonical(keys: Iterable[int]) -> list[int]:
    """Keys in canonical order: by degree, then with the lower variable's higher exponent first.

    So x_1^2 precedes x_1x_2 precedes x_2^2.  Two exponent tuples of one
    degree differ before either ends (`unpack` leaves no trailing zeros), so
    the second rule is their descending lexicographic order.
    """
    return sorted(keys, key=_order, reverse=True)


def monomial_text(key: int) -> str:
    """The text of a monomial: its factors x_i or x_i^e by variable, joined by '*'; '1' for key 0."""
    factors = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in enumerate(unpack(key), start=1) if e]
    return "*".join(factors) or "1"


def _plus(p: dict[int, int], q: dict[int, int], sign: int) -> dict[int, int]:
    terms = dict(p)
    for key, coef in q.items():
        c = terms.get(key, 0) + sign * coef
        if c:
            terms[key] = c
        else:
            del terms[key]
    return terms


def add(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """p + q."""
    return _plus(p, q, 1)


def sub(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """p - q."""
    return _plus(p, q, -1)


def mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """p * q: the product of two monomials is the sum of their keys."""
    terms: dict[int, int] = {}
    get = terms.get
    for a, ca in p.items():
        for b, cb in q.items():
            key = a + b
            c = get(key, 0) + ca * cb
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def nonnegative_after_subtracting(s: dict[int, int], m: int, t: dict[int, int]) -> bool:
    """Whether s - x^m * t has no negative coefficient, without building it; m is a key.

    s must have no negative coefficient, so this is s[m * u] >= t[u] for
    every u in t.  Every caller passes an S_sigma or a dual character: the
    transition equation only adds terms, and a dual character's
    coefficients are ranks.
    """
    get = s.get
    for u, c in t.items():
        if get(m + u, 0) < c:
            return False
    return True


def first_negative(p: dict[int, int]) -> tuple[int, int] | None:
    """The first (key, coefficient) term of p in canonical order whose coefficient is negative."""
    negative = [key for key, coef in p.items() if coef < 0]
    if not negative:
        return None
    key = _canonical(negative)[0]
    return key, p[key]


def polynomial_text(p: dict[int, int]) -> str:
    """The terms of p in canonical order, as `-3 + x1 - 2*x2^2`; '0' for no term."""
    out = ""
    for key in _canonical(p):
        coef = p[key]
        c = abs(coef)
        mon = monomial_text(key)
        text = str(c) if not key else mon if c == 1 else f"{c}*{mon}"
        sign = "-" if coef < 0 else "+"
        out += (f" {sign} " if out else "-" * (coef < 0)) + text
    return out or "0"


def to_json(p: dict[int, int], nvars: int) -> dict:
    """`{"vars": nvars, "terms": [{"exp": [...], "coef": "c"}, ...]}`, terms in canonical order."""
    terms = []
    for key in _canonical(p):
        exps = unpack(key)
        if len(exps) > nvars:
            raise ValueError(f"variable {len(exps)} is beyond nvars {nvars}")
        terms.append({"exp": [*exps] + [0] * (nvars - len(exps)), "coef": str(p[key])})
    return {"vars": nvars, "terms": terms}


def dumps(p: dict[int, int], nvars: int) -> str:
    return json.dumps(to_json(p, nvars), separators=(",", ":"))


def x(i: int) -> dict[int, int]:
    """Shorthand for the variable x_i as a polynomial."""
    return {monomial_key((i,)): 1}
