"""Sparse multivariate polynomials with exact integer (Python int) coefficients.

Variables are indexed by positive integers: x_1, x_2, ...; the y_ij of the
determinant computations share the engine through :func:`pair_index`.
A polynomial is a dict from exponent keys to nonzero coefficients.  The key
of a monomial is its dense exponent tuple, entry i - 1 for variable i, with
no trailing zeros, so equal monomials have equal keys and a product of
monomials is the entrywise sum of their keys.  Inside the engine a monomial
is its key, and `_canonical` is the one order on monomials.  `Monomial`
wraps a key only where a term leaves the engine (`terms()`, witnesses and
text).  Both constructors, `Monomial(key)` and `Polynomial(key_terms)`, take
canonical data as is: the caller owns the invariants above.
"""
from __future__ import annotations

import json
from operator import add, le, sub
from typing import Iterable, Iterator


def pair_index(i: int, j: int) -> int:
    """Encode the pair (i, j), i <= j, as a single variable index.

    Triangular pairing: (1,1)->1, (1,2)->2, (2,2)->3, (1,3)->4, ...
    Independent of any ambient matrix size.
    """
    if not (1 <= i <= j):
        raise ValueError(f"pair_index requires 1 <= i <= j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def monomial_key(variables: Iterable[int]) -> tuple[int, ...]:
    """The key of the product of the given variables (indices >= 1, unchecked)."""
    exps: list[int] = []
    for v in variables:
        if v > len(exps):
            exps.extend([0] * (v - len(exps)))
        exps[v - 1] += 1
    return tuple(exps)


def exponent_key(exps: list[int]) -> tuple[int, ...]:
    """The key of a dense exponent list: the list without its trailing zeros."""
    n = len(exps)
    while n and not exps[n - 1]:
        n -= 1
    return tuple(exps[:n])


def skip_variable(key: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The key with variable i sent to x_i below k and to x_{i+1} from k on.

    A 0 is inserted at entry k - 1 of a key that reaches it; a shorter key
    is unchanged.
    """
    return key[: k - 1] + (0,) + key[k - 1 :] if len(key) >= k else key


def _mul_keys(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b) :]


def key_quotient(m: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, ...] | None:
    """The key of m / d, or None when d does not divide m."""
    if len(d) > len(m) or not all(map(le, d, m)):
        return None
    return exponent_key(list(map(sub, m, d)) + list(m[len(d) :]))


def _canonical(keys: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Keys in canonical order: by degree, then with the lower variable's higher exponent first.

    So x_1^2 precedes x_1x_2 precedes x_2^2.  Two keys of one degree differ
    before either ends (a key has no trailing zeros), so the second rule is
    the descending lexicographic order of the keys.
    """
    return sorted(keys, key=lambda k: (-sum(k), k), reverse=True)


class Monomial:
    """A power product of indexed variables: an immutable wrapper of one exponent key."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, ...]):
        self.key = key  # canonical, taken as is; immutable by convention

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __bool__(self) -> bool:
        return bool(self.key)

    def __str__(self) -> str:
        factors = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in enumerate(self.key, start=1) if e]
        return "*".join(factors) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self.key!r})"


class Polynomial:
    """Map from monomial keys to nonzero integer coefficients."""

    __slots__ = ("key_terms",)

    def __init__(self, key_terms: dict[tuple[int, ...], int]):
        self.key_terms = key_terms  # canonical, taken as is; immutable by convention

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({(): c} if c else {})

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical (graded lexicographic) order."""
        for key in _canonical(self.key_terms):
            yield Monomial(key), self.key_terms[key]

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

    def __mul__(self, other: "Polynomial | Monomial") -> "Polynomial":
        if isinstance(other, Monomial):
            other = Polynomial({other.key: 1})
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        for a, ca in self.key_terms.items():
            la = len(a)
            for b, cb in other.key_terms.items():
                lb = len(b)
                key = tuple(map(add, a, b)) + (a[lb:] if la > lb else b[la:])
                c = get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return Polynomial(terms)

    def nonnegative_after_subtracting(self, m: tuple[int, ...], t: "Polynomial") -> bool:
        """Whether self - x^m * t has no negative coefficient, without building it; m is a key.

        self must have no negative coefficient, so this is self[m * u] >= t[u]
        for every u in t.  Every caller passes an S_sigma or a dual character:
        the transition equation only adds terms, and a dual character's
        coefficients are ranks.
        """
        get, lm = self.key_terms.get, len(m)
        for u, c in t.key_terms.items():
            # The key of m * u, as `_mul_keys` builds it.
            lu = len(u)
            if get(tuple(map(add, m, u)) + (m[lu:] if lm > lu else u[lm:]), 0) < c:
                return False
        return True

    def is_nonnegative(self) -> tuple[bool, tuple[Monomial, int] | None]:
        """True iff no coefficient is negative; else the first negative term in canonical order."""
        negative = [key for key, coef in self.key_terms.items() if coef < 0]
        if not negative:
            return True, None
        key = _canonical(negative)[0]
        return False, (Monomial(key), self.key_terms[key])

    def variables(self) -> set[int]:
        return {i for key in self.key_terms for i, e in enumerate(key, start=1) if e}

    # -- serialization ---------------------------------------------------

    def to_json(self, nvars: int) -> dict:
        terms = []
        for key in _canonical(self.key_terms):
            if len(key) > nvars:
                raise ValueError(f"variable {len(key)} is beyond nvars {nvars}")
            exp = list(key) + [0] * (nvars - len(key))
            terms.append({"exp": exp, "coef": str(self.key_terms[key])})
        return {"vars": nvars, "terms": terms}

    def dumps(self, nvars: int) -> str:
        return json.dumps(self.to_json(nvars), separators=(",", ":"))

    def __str__(self) -> str:
        out = ""
        for mon, coef in self.terms():
            c = abs(coef)
            text = str(c) if not mon else str(mon) if c == 1 else f"{c}*{mon}"
            sign = "-" if coef < 0 else "+"
            out += (f" {sign} " if out else "-" * (coef < 0)) + text
        return out or "0"

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"


def x(i: int) -> Polynomial:
    """Shorthand for the variable x_i as a polynomial."""
    return Polynomial({(0,) * (i - 1) + (1,): 1})
