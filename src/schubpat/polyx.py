"""Sparse multivariate polynomials with exact integer coefficients.

Variables are indexed by positive integers: x_1, x_2, ...  A second,
pair-indexed family (used for the upper-triangular determinant
computations) shares the same engine through the pairing in
:func:`pair_index`.

Monomials and polynomials are immutable; all arithmetic returns new
objects.  Coefficients are Python ints, so everything is exact.
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping


def pair_index(i: int, j: int) -> int:
    """Encode the pair (i, j), i <= j, as a single variable index.

    Triangular pairing: (1,1)->1, (1,2)->2, (2,2)->3, (1,3)->4, ...
    Independent of any ambient matrix size.
    """
    if not (1 <= i <= j):
        raise ValueError(f"pair_index requires 1 <= i <= j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def unpair_index(k: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    j = 1
    while j * (j + 1) // 2 < k:
        j += 1
    i = k - j * (j - 1) // 2
    return i, j


class Monomial:
    """A power product of indexed variables, stored as sorted (var, exp) pairs."""

    __slots__ = ("_exps",)

    def __init__(self, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # The dict test first skips typing.Mapping's slower subclass check.
        items = exps.items() if isinstance(exps, dict) or isinstance(exps, Mapping) else exps
        merged: dict[int, int] = {}
        for var, exp in items:
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp}")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        self._exps: tuple[tuple[int, int], ...] = tuple(sorted(merged.items()))

    @classmethod
    def of(cls, *variables: int) -> "Monomial":
        """Product of the given variables, e.g. Monomial.of(1, 3) == x_1*x_3."""
        exps: dict[int, int] = {}
        for v in variables:
            exps[v] = exps.get(v, 0) + 1
        return cls(exps)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        return self._exps

    def exponent(self, var: int) -> int:
        for v, e in self._exps:
            if v == var:
                return e
        return 0

    def degree(self) -> int:
        return sum(e for _, e in self._exps)

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self._exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._exps:
            exps[v] = exps.get(v, 0) + e
        return Monomial(exps)

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(v) >= e for v, e in self._exps)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        exps = dict(self._exps)
        for v, e in other._exps:
            exps[v] -= e
        return Monomial(exps)

    def rename(self, sigma: Mapping[int, int]) -> "Monomial":
        return Monomial({sigma[v]: e for v, e in self._exps})

    def sort_key(self) -> tuple:
        # Graded order, then lexicographic with lower variable index and
        # higher exponent first (so x_1^2 precedes x_1x_2 precedes x_2^2).
        return (self.degree(), tuple((v, -e) for v, e in self._exps))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def __bool__(self) -> bool:
        return bool(self._exps)

    def format(self, name: str = "x") -> str:
        if not self._exps:
            return "1"
        parts = []
        for v, e in self._exps:
            parts.append(f"{name}{v}" if e == 1 else f"{name}{v}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Monomial({self._exps!r})"


ONE = Monomial()


class Polynomial:
    """Map from monomials to nonzero integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, dict) or isinstance(terms, Mapping) else terms
        merged: dict[Monomial, int] = {}
        for mon, coef in items:
            c = merged.get(mon, 0) + coef
            if c:
                merged[mon] = c
            elif mon in merged:
                del merged[mon]
        self._terms = merged

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({ONE: c})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        return cls({Monomial.of(i): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coef: int = 1) -> "Polynomial":
        return cls({m: coef})

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical (graded lexicographic) order."""
        for mon in sorted(self._terms, key=Monomial.sort_key):
            yield mon, self._terms[mon]

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(m, 0)

    def support(self) -> set[Monomial]:
        return set(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree() for m in self._terms}
        return len(degrees) <= 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == (Polynomial.constant(other))._terms
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        terms = dict(self._terms)
        for mon, coef in other._terms.items():
            c = terms.get(mon, 0) + coef
            if c:
                terms[mon] = c
            elif mon in terms:
                del terms[mon]
        p = Polynomial.__new__(Polynomial)
        p._terms = terms
        return p

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | Monomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            p = Polynomial.__new__(Polynomial)
            p._terms = {m: c * other for m, c in self._terms.items()}
            return p
        if isinstance(other, Monomial):
            other = Polynomial.from_monomial(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mon = m1 * m2
                c = terms.get(mon, 0) + c1 * c2
                if c:
                    terms[mon] = c
                elif mon in terms:
                    del terms[mon]
        p = Polynomial.__new__(Polynomial)
        p._terms = terms
        return p

    __rmul__ = __mul__

    def substitute_zero(self, k: int) -> "Polynomial":
        """Set x_k = 0: drop every term with a positive exponent on k."""
        p = Polynomial.__new__(Polynomial)
        p._terms = {m: c for m, c in self._terms.items() if m.exponent(k) == 0}
        return p

    def substitute_variables(self, sigma: Mapping[int, int]) -> "Polynomial":
        """Relabel variables by the injective map sigma; coefficients unchanged."""
        from .errors import UnmappedVariableError

        used = {v for m in self._terms for v in m.variables()}
        missing = used - set(sigma)
        if missing:
            raise UnmappedVariableError(f"substitution does not map variables {sorted(missing)}")
        image = [sigma[v] for v in used]
        if len(set(image)) != len(image):
            raise ValueError("substitution map must be injective on the variables present")
        return Polynomial({m.rename(sigma): c for m, c in self._terms.items()})

    def evaluate_all_ones(self) -> int:
        return sum(self._terms.values())

    def is_nonnegative(self) -> tuple[bool, tuple[Monomial, int] | None]:
        """True iff no coefficient is negative; else the first negative term in canonical order."""
        if not any(coef < 0 for coef in self._terms.values()):
            return True, None
        return next((False, (mon, coef)) for mon, coef in self.terms() if coef < 0)

    def variables(self) -> set[int]:
        return {v for m in self._terms for v in m.variables()}

    # -- serialization ---------------------------------------------------

    def to_json(self, nvars: int | None = None) -> dict:
        n = nvars if nvars is not None else max(self.variables(), default=0)
        terms = []
        for mon, coef in self.terms():
            exp = [0] * n
            for v, e in mon.exps:
                exp[v - 1] = e
            terms.append({"exp": exp, "coef": str(coef)})
        return {"vars": n, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        terms = {}
        for t in data["terms"]:
            mon = Monomial({i + 1: e for i, e in enumerate(t["exp"]) if e})
            terms[mon] = int(t["coef"])
        return cls(terms)

    def dumps(self, nvars: int | None = None) -> str:
        return json.dumps(self.to_json(nvars), separators=(",", ":"))

    @classmethod
    def loads(cls, s: str) -> "Polynomial":
        return cls.from_json(json.loads(s))

    def format(self, name: str = "x") -> str:
        if not self._terms:
            return "0"
        parts = []
        for mon, coef in self.terms():
            if not mon:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mon.format(name))
            elif coef == -1:
                parts.append(f"-{mon.format(name)}")
            else:
                parts.append(f"{coef}*{mon.format(name)}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial<{self.format()}>"


def x(i: int) -> Polynomial:
    """Shorthand for the variable x_i as a polynomial."""
    return Polynomial.variable(i)
