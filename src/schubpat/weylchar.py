"""Dual characters of flagged Weyl modules, computed exactly.

The module attached to a diagram D is spanned by products over the
columns j of determinants det(Y^{C_j}_{D_j}), where Y is the generic
upper-triangular matrix and C ranges over the diagrams dominated by D.
The coefficient of a monomial m in the dual character equals the rank of
the span of the products whose diagrams have row monomial m.

y_{ij} variables live in the shared polynomial engine through the pair
index (i, j) -> polyx.pair_index(i, j).

`chi` factors the computation over columns.  Its oracle, in `oracles`,
enumerates whole dominated diagrams and multiplies their determinant
products (`chi_coefficient`, `determinant_product`).
"""
from __future__ import annotations

import functools
import itertools

from .diagrams import Diagram, _column_dominated_sets, count_dominated
from .errors import BudgetExceededError
from .linalg import integer_rank
from .polyx import add, monomial_key, mul, pair_index

DEFAULT_BUDGET = 10**6


@functools.cache  # keyed by the (rows, cols) pair
def _det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
    """det of the submatrix of Y with these sorted rows and equally many sorted columns.

    Zero unless the row set dominates the column set elementwise; the
    expansion is exact, by cofactors along the first column.
    """
    if not rows:
        return {0: 1}
    # Entry (i, j) of Y is y_{ij} when i <= j and 0 below the diagonal.
    result: dict[int, int] = {}
    c0 = cols[0]
    for t, r in enumerate(rows):
        if r > c0:
            break
        sign = -1 if t % 2 else 1
        minor = _det(rows[:t] + rows[t + 1 :], cols[1:])
        result = add(result, mul(minor, {monomial_key((pair_index(r, c0),)): sign}))
    return result


def _span_rank(polys: list[dict[int, int]]) -> int:
    """Rank of the span of these polynomials."""
    # The rank does not depend on the order of the matrix columns.
    columns: dict[int, int] = {}
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


def chi(D: Diagram, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """The full dual character; refuses when the dominated count is too big.

    Memoized on the multiset of D's nonempty columns (see `_chi_by_rank`).
    The budget is checked before the lookup, so a memo hit never skips a
    refusal.
    """
    total = count_dominated(D)
    if total > budget:
        raise BudgetExceededError(f"{total} dominated diagrams exceed budget {budget}")
    return _chi_by_rank(tuple(sorted(c for c in D.columns if c)))


@functools.cache  # keyed by the sorted tuple of a diagram's nonempty columns
def _chi_by_rank(columns: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """The dual character of a diagram with these nonempty columns, one span rank per row monomial.

    Enumeration, the row monomial and the determinant product all factor
    over columns, each factor depending only on the pair (C_j, D_j), so
    permuting D's columns or dropping an empty one is a bijection of
    dominated diagrams that keeps every monomial and product, hence every
    span rank.  A dominated diagram is one choice of a dominated set per
    column; no `Diagram` is built.
    """
    groups: dict[int, list[dict[int, int]]] = {}
    for choice in itertools.product(*map(_column_dominated_sets, columns)):
        product = {0: 1}
        for c, d in zip(choice, columns):
            product = mul(product, _det(c, d))
        groups.setdefault(monomial_key(i for c in choice for i in c), []).append(product)
    terms: dict[int, int] = {}
    for key, polys in groups.items():
        coef = _span_rank(polys)
        if coef:
            terms[key] = coef
    return terms
