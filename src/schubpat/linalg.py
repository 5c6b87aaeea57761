"""Exact rank of integer matrices.

Fraction-free (Bareiss) elimination over Python ints gives the rank over
the rationals with no rounding.
"""
from __future__ import annotations


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix given as a row list."""
    if not rows or not rows[0]:
        return 0
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    rank = 0
    col = 0
    prev = 1
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[col]
            for c in range(col, ncols):
                row[c] = (prow[col] * row[c] - f * prow[c]) // prev
        prev = prow[col]
        rank += 1
        col += 1
    return rank
