"""Dual characters of flagged Weyl modules, computed exactly.

The module attached to a diagram D is spanned by products over the
columns j of determinants det(Y^{C_j}_{D_j}), where Y is the generic
upper-triangular matrix and C ranges over the diagrams dominated by D.
The coefficient of a monomial m in the dual character equals the rank of
the span of the products whose diagrams have row monomial m.

y_{ij} is the variable polyx.pair_index(i, j) of the shared engine; a
determinant is its Leibniz sum, built in one forward pass over its columns.

`chi` factors the computation over columns, in one forward pass over
them.  Its oracle, in `oracles`, enumerates whole dominated diagrams and
multiplies their determinant products (`chi_coefficient`,
`determinant_product`).
"""
from __future__ import annotations

import functools

from .diagrams import Diagram, _column_dominated_sets, count_dominated
from .errors import BudgetExceededError
from .linalg import integer_rank
from .polyx import add, monomial_key, mul, pair_index

DEFAULT_BUDGET = 10**6


@functools.cache  # keyed by the (rows, cols) pair
def _det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
    """det of the submatrix of Y with these sorted rows and equally many sorted columns.

    Zero unless the row set dominates the column set elementwise.  Column
    c places a row r <= c (Y is upper triangular) not placed yet; partial
    sums are keyed by the mask of the placed positions of `rows`, and
    placing position t adds one inversion per placed position after t.
    """
    partial = {0: {0: 1}}
    for c in cols:
        step: dict[int, dict[int, int]] = {}
        for used, poly in partial.items():
            for t, r in enumerate(rows):
                if r <= c and not used >> t & 1:
                    sign = -1 if (used >> t).bit_count() % 2 else 1
                    term = mul(poly, {monomial_key((pair_index(r, c),)): sign})
                    step[used | 1 << t] = add(step.get(used | 1 << t, {}), term)
        partial = step
    return partial.get((1 << len(rows)) - 1, {})


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
    """The full dual character: one span rank per row monomial.

    Refuses when D has more dominated diagrams than `budget`.  A dominated
    diagram is one choice of a dominated set per column, and its row
    monomial and determinant product are products over columns of factors
    that depend only on the pair (C_j, D_j).  So permuting D's columns or
    dropping an empty one is a bijection of dominated diagrams that keeps
    every monomial and product, hence every span rank: the pass takes the
    nonempty columns in sorted order.  It extends each (row key, product)
    pair by every dominated set of the next column, so each prefix product
    is built once, and no `Diagram` is built.
    """
    total = count_dominated(D)
    if total > budget:
        raise BudgetExceededError(f"{total} dominated diagrams exceed budget {budget}")
    pairs = [(0, {0: 1})]
    for d in sorted(c for c in D.columns if c):
        column = [(monomial_key(c), _det(c, d)) for c in _column_dominated_sets(d)]
        pairs = [(key + k, mul(product, det)) for key, product in pairs for k, det in column]
    groups: dict[int, list[dict[int, int]]] = {}
    for key, product in pairs:
        groups.setdefault(key, []).append(product)
    terms: dict[int, int] = {}
    for key, polys in groups.items():
        coef = _span_rank(polys)
        if coef:
            terms[key] = coef
    return terms
