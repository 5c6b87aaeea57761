"""Box diagrams in [n] x [n], Rothe diagrams and the dominance order.

A diagram is a set of boxes (i, j) with 1 <= i, j <= n, stored as its
columns: column j is the sorted tuple of row indices occupied in that
column, and the box set is derived.  Restriction never reindexes: a
removed row or column stays in place, empty.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .polyx import monomial_key, mul

# The largest n of a diagram or permutation the CLI reads (`Diagram.from_json`, `cli._parse`).
# The work on a diagram grows with n, whatever its boxes, and every exponent of a
# polynomial built from it is at most n, below the 2^(W-1) that `polyx.W` bits hold.
MAX_N = 1000


@dataclass(frozen=True)
class Diagram:
    """A finite box set in [n] x [n] as its columns.

    `columns[j - 1]` is the sorted tuple of the rows of column j.  The
    constructor takes canonical columns as is; `Diagram.of` is the route
    from boxes, and checks their range.
    """

    n: int
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, n: int, boxes: Iterable[tuple[int, int]]) -> "Diagram":
        """The diagram of these boxes, in any order and with repeats."""
        cols: list[set[int]] = [set() for _ in range(n)]
        for (i, j) in boxes:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"box {(i, j)} outside [{n}] x [{n}]")
            cols[j - 1].add(i)
        return cls(n, tuple(tuple(sorted(c)) for c in cols))

    @functools.cached_property  # built once per diagram; the fields stay frozen
    def boxes(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for j, c in enumerate(self.columns, start=1) for i in c)

    def box_list(self) -> list[tuple[int, int]]:
        """Boxes sorted row-major; the canonical serialization order."""
        return sorted(self.boxes)

    def __len__(self) -> int:
        return sum(map(len, self.columns))

    def to_json(self) -> dict:
        return {"n": self.n, "boxes": [list(b) for b in self.box_list()]}

    @classmethod
    def from_json(cls, data: dict) -> "Diagram":
        """The diagram of `{"n": n, "boxes": [[i, j], ...]}`; other value types are a ValueError."""
        n, boxes = data["n"], [tuple(b) for b in data["boxes"]]
        # type(.) is int: a bool or a float that json reads is no size or index.
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}, got {n}")
        for b in boxes:
            if len(b) != 2 or any(type(v) is not int for v in b):
                raise ValueError(f"box {list(b)!r} is not a pair of integers")
        return cls.of(n, boxes)

    def __str__(self) -> str:
        return "{" + ", ".join(f"({i},{j})" for (i, j) in self.box_list()) + "}"


def rothe(values: tuple[int, ...]) -> Diagram:
    """The inversion diagram {(i,j) : i < w^{-1}(j) and j < w(i)} of w in one-line notation.

    Column a holds the positions left of a's position whose value is larger than a.
    """
    columns: list[tuple[int, ...]] = [()] * len(values)
    for p, a in enumerate(values):
        columns[a - 1] = tuple([i for i in range(1, p + 1) if values[i - 1] > a])
    return Diagram(len(values), tuple(columns))


def restricts(c: tuple[int, ...], d: tuple[int, ...], k: int) -> bool:
    """The single-removal test of a column but l: c less row k <= d less row k.

    It needs c <= d (equal sizes, c_t <= d_t for every t); then it is whether
    c holds row k exactly when d does.  If k is in neither, c less k = c and
    d less k = d; if in exactly one, the sizes differ.  If in both, say
    c_p = k = d_q, then c_q <= d_q = k = c_p gives q <= p: for t < q the
    entries compare as before; for q <= t < p, c_t <= d_t < d_{t+1}; for
    t >= p, c_{t+1} <= d_{t+1}.
    """
    return (k in c) == (k in d)


@functools.cache  # keyed by a column, a subset of [n]: at most 2^n entries
def _column_dominated_sets(d: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing tuples c with c_t <= d_t, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(t: int, lo: int, acc: list[int]):
        if t == len(d):
            out.append(tuple(acc))
            return
        for c in range(lo + 1, d[t] + 1):
            acc.append(c)
            rec(t + 1, c, acc)
            acc.pop()

    rec(0, 0, [])
    return tuple(out)


def count_dominated(D: Diagram) -> int:
    """The number of C <= D, without materializing any."""
    total = 1
    for d in D.columns:
        total *= _count_column(d)
    return total


def dominated_sum(D: Diagram) -> dict[int, int]:
    """The sum of x^C over all C <= D, as a product over columns of D.

    A dominated diagram is one independent choice of a set c <= D_j per
    column j, and x^C is the product of the x^c, so the sum factors into
    the column sums of x^c over `_column_dominated_sets(D_j)`.
    """
    total = {0: 1}
    for d in D.columns:
        if d:
            total = mul(total, {monomial_key(c): 1 for c in _column_dominated_sets(d)})
    return total


def _count_column(d: tuple[int, ...]) -> int:
    """The chains c_1 < ... < c_m with c_t <= d_t, counted by prefix sums over t.

    After step t, ends[v] is the number of chains c_1 < ... < c_t with
    c_t = v; entry 0 stands for the empty chain before step 1.
    """
    ends = [1]
    for bound in d:
        ends = [0, *itertools.accumulate(ends + [0] * (bound - len(ends)))]
    return sum(ends)

