"""Dual characters of flagged Weyl modules, computed exactly.

The module attached to a diagram D is spanned by products over the
columns j of determinants det(Y^{C_j}_{D_j}), where Y is the generic
upper-triangular matrix and C ranges over the diagrams dominated by D.
The coefficient of a monomial m in the dual character equals the rank of
the span of the products whose diagrams have row monomial m.

y_{ij} variables live in the shared polynomial engine through the pair
index (i, j) -> polyx.pair_index(i, j).
"""
from __future__ import annotations

import functools
import itertools

from .diagrams import (
    Diagram,
    _column_dominated_sets,
    column_dominates,
    count_dominated,
    enumerate_dominated,
    row_monomial,
)
from .errors import BudgetExceededError
from .linalg import integer_rank
from .polyx import Monomial, Polynomial, monomial_key, pair_index

DEFAULT_BUDGET = 10**6


def y_determinant(rows, cols) -> Polynomial:
    """det of the submatrix of Y with the given rows and columns.

    Zero unless the row set dominates the column set elementwise; the
    expansion is exact, by cofactors along the first column, memoized on
    the (rows, cols) pair.
    """
    r, c = tuple(sorted(rows)), tuple(sorted(cols))
    if len(r) != len(c):
        raise ValueError(f"size mismatch: rows {r} vs columns {c}")
    return _det(r, c)


@functools.cache  # keyed by the (rows, cols) pair
def _det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    if not rows:
        return Polynomial.constant(1)
    # Entry (i, j) of Y is y_{ij} when i <= j and 0 below the diagonal.
    result = Polynomial.zero()
    c0 = cols[0]
    for t, r in enumerate(rows):
        if r > c0:
            break
        sign = -1 if t % 2 else 1
        minor = _det(rows[:t] + rows[t + 1 :], cols[1:])
        result = result + minor * Polynomial.from_keys({monomial_key((pair_index(r, c0),)): sign})
    return result


def determinant_product(C: Diagram, D: Diagram) -> Polynomial:
    """Product over columns j of det(Y^{C_j}_{D_j})."""
    result = Polynomial.constant(1)
    for cj, dj in zip(C.columns(), D.columns()):
        if not cj and not dj:
            continue
        if not column_dominates(cj, dj):
            return Polynomial.zero()
        result = result * _det(tuple(cj), tuple(dj))
    return result


def _span_rank(polys: list[dict[tuple[int, ...], int]]) -> int:
    """Rank of the span of polynomials given by their key terms."""
    # The rank does not depend on the order of the matrix columns.
    columns: dict[tuple[int, ...], int] = {}
    for p in polys:
        for key in p:
            if key not in columns:
                columns[key] = len(columns)
    matrix = []
    for p in polys:
        row = [0] * len(columns)
        for key, coef in p.items():
            row[columns[key]] = coef
        matrix.append(row)
    return integer_rank(matrix)


def chi_coefficient(D: Diagram, m: Monomial) -> int:
    """Coefficient of m in the dual character of D's flagged Weyl module."""
    matching = [C for C in enumerate_dominated(D) if row_monomial(C) == m]
    return _span_rank([determinant_product(C, D).key_terms for C in matching])


def chi(D: Diagram, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """The full dual character; refuses when the dominated count is too big.

    Memoized on the multiset of D's nonempty columns (see `_chi_by_rank`).
    The budget is checked before the lookup, so a memo hit never skips a
    refusal.
    """
    total = count_dominated(D)
    if total > budget:
        raise BudgetExceededError(f"{total} dominated diagrams exceed budget {budget}")
    return _chi_by_rank(tuple(sorted(c for c in D.columns() if c)))


@functools.cache  # keyed by the sorted tuple of a diagram's nonempty columns
def _chi_by_rank(columns: tuple[tuple[int, ...], ...]) -> Polynomial:
    """The dual character of a diagram with these nonempty columns, one span rank per row monomial.

    Enumeration, the row monomial and the determinant product all factor
    over columns, each factor depending only on the pair (C_j, D_j), so
    permuting D's columns or dropping an empty one is a bijection of
    dominated diagrams that keeps every monomial and product, hence every
    span rank.  A dominated diagram is one choice of a dominated set per
    column; no `Diagram` is built.
    """
    groups: dict[tuple[int, ...], list[dict[tuple[int, ...], int]]] = {}
    for choice in itertools.product(*map(_column_dominated_sets, columns)):
        product = Polynomial.constant(1)
        for c, d in zip(choice, columns):
            product = product * _det(c, d)
        groups.setdefault(monomial_key(i for c in choice for i in c), []).append(product.key_terms)
    terms: dict[tuple[int, ...], int] = {}
    for key, polys in groups.items():
        coef = _span_rank(polys)
        if coef:
            terms[key] = coef
    return Polynomial.from_keys(terms)
