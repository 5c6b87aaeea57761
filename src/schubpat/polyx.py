"""Sparse multivariate polynomials with exact integer (Python int) coefficients.

Variables are indexed by positive integers: x_1, x_2, ...; the y_ij of the
determinant computations share the engine through :func:`pair_index`.
A polynomial is a dict from exponent keys to nonzero coefficients.  The key
of a monomial is its dense exponent tuple, entry i - 1 for variable i, with
no trailing zeros, so equal monomials have equal keys and a product of
monomials is the entrywise sum of their keys.  Arithmetic works on keys;
`Monomial` wraps one where a term leaves the engine (`terms()`, `support()`,
witnesses, text and JSON), and canonical order and validation happen there.
"""
from __future__ import annotations

import json
from operator import add, le, sub
from typing import Iterable, Iterator, Mapping


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


def _canonical(keys: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Keys in `Monomial.sort_key` order: two keys of one degree differ before either ends."""
    return sorted(keys, key=lambda k: (-sum(k), k), reverse=True)


class Monomial:
    """A power product of indexed variables: an immutable wrapper of one exponent key."""

    __slots__ = ("key",)

    def __init__(self, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        dense: list[int] = []
        for var, exp in items:
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp}")
            if exp:
                if var > len(dense):
                    dense.extend([0] * (var - len(dense)))
                dense[var - 1] += exp
        self.key: tuple[int, ...] = tuple(dense)  # immutable by convention

    @classmethod
    def from_key(cls, key: tuple[int, ...]) -> "Monomial":
        """The monomial of a canonical key, taken as is."""
        m = cls.__new__(cls)
        m.key = key
        return m

    @classmethod
    def of(cls, *variables: int) -> "Monomial":
        """Product of the given variables, e.g. Monomial.of(1, 3) == x_1*x_3."""
        return cls((v, 1) for v in variables)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The (variable, exponent) pairs with a positive exponent, by variable."""
        return tuple((i, e) for i, e in enumerate(self.key, start=1) if e)

    def degree(self) -> int:
        return sum(self.key)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial.from_key(_mul_keys(self.key, other.key))

    def divides(self, other: "Monomial") -> bool:
        return len(self.key) <= len(other.key) and all(map(le, self.key, other.key))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        exps = list(map(sub, self.key, other.key)) + list(self.key[len(other.key) :])
        return Monomial.from_key(exponent_key(exps))

    def sort_key(self) -> tuple:
        # Graded order, then lexicographic with lower variable index and
        # higher exponent first (so x_1^2 precedes x_1x_2 precedes x_2^2).
        return (self.degree(), tuple(-e for e in self.key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __bool__(self) -> bool:
        return bool(self.key)

    def format(self, name: str = "x") -> str:
        if not self.key:
            return "1"
        return "*".join(f"{name}{v}" if e == 1 else f"{name}{v}^{e}" for v, e in self.exps)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


class Polynomial:
    """Map from monomial keys to nonzero integer coefficients."""

    __slots__ = ("key_terms",)  # the dict from keys to coefficients; immutable by convention

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[tuple[int, ...], int] = {}
        for mon, coef in items:
            key = mon.key
            c = merged.get(key, 0) + coef
            if c:
                merged[key] = c
            elif key in merged:
                del merged[key]
        self.key_terms = merged

    @classmethod
    def from_keys(cls, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """The polynomial of a dict from canonical keys to nonzero ints, taken as is."""
        p = cls.__new__(cls)
        p.key_terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls.from_keys({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls.from_keys({(): c} if c else {})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        return cls({Monomial.of(i): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coef: int = 1) -> "Polynomial":
        return cls({m: coef})

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical (graded lexicographic) order."""
        for key in _canonical(self.key_terms):
            yield Monomial.from_key(key), self.key_terms[key]

    def coefficient(self, m: Monomial) -> int:
        return self.key_terms.get(m.key, 0)

    def support(self) -> set[Monomial]:
        return {Monomial.from_key(key) for key in self.key_terms}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.key_terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self.key_terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.key_terms == Polynomial.constant(other).key_terms
        return isinstance(other, Polynomial) and self.key_terms == other.key_terms

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int.
        if self.key_terms.keys() <= {()}:
            return hash(self.key_terms.get((), 0))
        return hash(frozenset(self.key_terms.items()))

    def _plus(self, other: "Polynomial | int", sign: int) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        terms = dict(self.key_terms)
        for key, coef in other.key_terms.items():
            c = terms.get(key, 0) + sign * coef
            if c:
                terms[key] = c
            else:
                del terms[key]
        return Polynomial.from_keys(terms)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_keys({k: -c for k, c in self.key_terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | Monomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial.from_keys({k: c * other for k, c in self.key_terms.items()})
        if isinstance(other, Monomial):
            other = Polynomial.from_monomial(other)
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
        return Polynomial.from_keys(terms)

    __rmul__ = __mul__

    def nonnegative_after_subtracting(self, m: Monomial, t: "Polynomial") -> bool:
        """Whether self - m * t has no negative coefficient, without building it.

        self must have no negative coefficient, so this is self[m * u] >= t[u]
        for every u in t.  Every caller passes an S_sigma or a dual character:
        the transition equation only adds terms, and a dual character's
        coefficients are ranks.
        """
        get, mk = self.key_terms.get, m.key
        lm = len(mk)
        for u, c in t.key_terms.items():
            # The key of m * u, as `_mul_keys` builds it.
            lu = len(u)
            if get(tuple(map(add, mk, u)) + (mk[lu:] if lm > lu else u[lm:]), 0) < c:
                return False
        return True

    def is_nonnegative(self) -> tuple[bool, tuple[Monomial, int] | None]:
        """True iff no coefficient is negative; else the first negative term in canonical order."""
        negative = [key for key, coef in self.key_terms.items() if coef < 0]
        if not negative:
            return True, None
        key = _canonical(negative)[0]
        return False, (Monomial.from_key(key), self.key_terms[key])

    def variables(self) -> set[int]:
        return {i for key in self.key_terms for i, e in enumerate(key, start=1) if e}

    # -- serialization ---------------------------------------------------

    def to_json(self, nvars: int | None = None) -> dict:
        n = nvars if nvars is not None else max(self.variables(), default=0)
        terms = []
        for key in _canonical(self.key_terms):
            if len(key) > n:
                raise ValueError(f"variable {len(key)} is beyond nvars {n}")
            exp = list(key) + [0] * (n - len(key))
            terms.append({"exp": exp, "coef": str(self.key_terms[key])})
        return {"vars": n, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        return cls(
            {Monomial(dict(enumerate(t["exp"], start=1))): int(t["coef"]) for t in data["terms"]}
        )

    def dumps(self, nvars: int | None = None) -> str:
        return json.dumps(self.to_json(nvars), separators=(",", ":"))

    @classmethod
    def loads(cls, s: str) -> "Polynomial":
        return cls.from_json(json.loads(s))

    def format(self, name: str = "x") -> str:
        out = ""
        for mon, coef in self.terms():
            c = abs(coef)
            text = str(c) if not mon else mon.format(name) if c == 1 else f"{c}*{mon.format(name)}"
            sign = "-" if coef < 0 else "+"
            out += (f" {sign} " if out else "-" * (coef < 0)) + text
        return out or "0"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial<{self.format()}>"


def x(i: int) -> Polynomial:
    """Shorthand for the variable x_i as a polynomial."""
    return Polynomial.variable(i)
