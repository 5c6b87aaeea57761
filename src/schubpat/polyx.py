"""Sparse multivariate polynomials with exact integer (Python int) coefficients.

Variables are indexed by positive integers: x_1, x_2, ...; the y_ij of the
determinant computations share the engine through :func:`pair_index`.
A polynomial is a dict from exponent keys to nonzero coefficients.  The key
of a monomial is one int that packs its exponents in digits of W bits: the
sum of e_i * 2^(W(i-1)) over its variables i.  Bit W - 1 of every digit is a
guard, clear in every key, because every exponent is below 2^(W-1): an
exponent of a polynomial built from an input of size n counts the boxes in
one row of an n x n diagram, or the y_ij of one column's determinant, so it
is at most n, and the CLI refuses n above `diagrams.MAX_N`.  So equal
monomials have equal keys, a product of monomials is the sum of their keys,
and a quotient is a difference that borrows into no guard bit
(`key_quotient`).  Inside the engine a monomial is its key; `unpack` gives
its exponent tuple where a term leaves the engine, and `_canonical`, the one
order on monomials, sorts on it.  `monomial_text` is where a key becomes
text.  `Polynomial(key_terms)` takes canonical data as is: the caller owns
the invariants above.
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator

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


class Polynomial:
    """Map from monomial keys to nonzero integer coefficients."""

    __slots__ = ("key_terms",)

    def __init__(self, key_terms: dict[int, int]):
        self.key_terms = key_terms  # canonical, taken as is; immutable by convention

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({0: c} if c else {})

    def terms(self) -> Iterator[tuple[int, int]]:
        """(key, coefficient) pairs in canonical (graded lexicographic) order."""
        for key in _canonical(self.key_terms):
            yield key, self.key_terms[key]

    def __bool__(self) -> bool:
        return bool(self.key_terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.key_terms == other.key_terms

    def __hash__(self) -> int:
        return hash(frozenset(self.key_terms.items()))

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        terms = dict(self.key_terms)
        for key, coef in other.key_terms.items():
            c = terms.get(key, 0) + sign * coef
            if c:
                terms[key] = c
            else:
                del terms[key]
        return Polynomial(terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict[int, int] = {}
        get = terms.get
        for a, ca in self.key_terms.items():
            for b, cb in other.key_terms.items():
                key = a + b
                c = get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return Polynomial(terms)

    def nonnegative_after_subtracting(self, m: int, t: "Polynomial") -> bool:
        """Whether self - x^m * t has no negative coefficient, without building it; m is a key.

        self must have no negative coefficient, so this is self[m * u] >= t[u]
        for every u in t.  Every caller passes an S_sigma or a dual character:
        the transition equation only adds terms, and a dual character's
        coefficients are ranks.
        """
        get = self.key_terms.get
        for u, c in t.key_terms.items():
            if get(m + u, 0) < c:
                return False
        return True

    def is_nonnegative(self) -> tuple[bool, tuple[int, int] | None]:
        """True iff no coefficient is negative; else the first negative term in canonical order."""
        negative = [key for key, coef in self.key_terms.items() if coef < 0]
        if not negative:
            return True, None
        key = _canonical(negative)[0]
        return False, (key, self.key_terms[key])

    def variables(self) -> set[int]:
        return {i for key in self.key_terms for i, e in enumerate(unpack(key), start=1) if e}

    # -- serialization ---------------------------------------------------

    def to_json(self, nvars: int) -> dict:
        terms = []
        for key in _canonical(self.key_terms):
            exps = unpack(key)
            if len(exps) > nvars:
                raise ValueError(f"variable {len(exps)} is beyond nvars {nvars}")
            terms.append({"exp": [*exps] + [0] * (nvars - len(exps)), "coef": str(self.key_terms[key])})
        return {"vars": nvars, "terms": terms}

    def dumps(self, nvars: int) -> str:
        return json.dumps(self.to_json(nvars), separators=(",", ":"))

    def __str__(self) -> str:
        out = ""
        for key, coef in self.terms():
            c = abs(coef)
            mon = monomial_text(key)
            text = str(c) if not key else mon if c == 1 else f"{c}*{mon}"
            sign = "-" if coef < 0 else "+"
            out += (f" {sign} " if out else "-" * (coef < 0)) + text
        return out or "0"

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"


def x(i: int) -> Polynomial:
    """Shorthand for the variable x_i as a polynomial."""
    return Polynomial({1 << W * (i - 1): 1})
