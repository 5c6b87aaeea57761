"""Purple boxes, purple families and single-removal monomial factors.

For a diagram D and a removed row k / column l, the purple boxes are the
positions reachable in some dominated diagram but never in the row/column
restriction of one; the purple family is the dominance down-set of the
removed-box seed inside the purple boxes.  The row monomial of any family
member is a valid factor in front of the restricted character.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .diagrams import Diagram, _column_dominated_sets, restricts, rothe
from .polyx import _canonical, key_quotient, monomial_key, nonnegative_after_subtracting, unpack
from .schubert import schubert_polynomial, schubert_skipping


def _purple_rows(d: tuple[int, ...], k: int, is_l: bool) -> frozenset[int]:
    """The purple rows of a nonempty column d of D: hit by some c <= d, by no restricted one.

    A restricted one is c less row k, for c <= d that holds row k exactly
    when d does (`restricts`); column l restricts to nothing.
    """
    subsets = _column_dominated_sets(d)
    reachable = {i for c in subsets for i in c}
    restricted = set() if is_l else {i for c in subsets if restricts(c, d, k) for i in c if i != k}
    return frozenset(reachable - restricted)


@functools.cache  # keyed by (column of D, k, whether it is column l): at most n * 2^(n+1) entries
def _purple_sets(
    d: tuple[int, ...], k: int, is_l: bool
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The sets c <= seed inside the purple rows of a column d of D that holds a seed box.

    Returned with the key of x^c for each set, in the same order.  The seed
    is d itself for column l and row k alone in any other column.
    """
    rows = _purple_rows(d, k, is_l)
    seed = d if is_l else (k,)
    sets = tuple(c for c in _column_dominated_sets(seed) if rows.issuperset(c))
    return sets, tuple(map(monomial_key, sets))


def purple_boxes(D: Diagram, k: int, l: int) -> frozenset[tuple[int, int]]:
    """Boxes hit by some dominated diagram but by no row/column-restricted one.

    Both conditions decompose columnwise: on every other column a
    dominated diagram can keep D's own column, which restricts to itself.
    So the purple boxes are the union of the purple rows of D's columns.
    """
    return frozenset(
        (i, j) for j, d in enumerate(D.columns, start=1) if d for i in _purple_rows(d, k, j == l)
    )


@dataclass(frozen=True)
class PurpleFamily:
    """The purple family of (D, k, l) as a product over the seed's columns.

    `columns` holds, for each nonempty column j of the seed, the triple
    (j, the sets c <= seed_j inside the purple rows of column j, the key of
    x^c for each); a member is one such set per column.  `boxes`,
    `members` and `row_keys` are derived.
    """

    D: Diagram
    k: int
    l: int
    columns: tuple[tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]], ...]

    @property
    def boxes(self) -> frozenset[tuple[int, int]]:
        return purple_boxes(self.D, self.k, self.l)

    def choices(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Every member as its rows, one set per entry of `columns`."""
        return itertools.product(*(sets for _, sets, _ in self.columns))

    def member(self, choice: tuple[tuple[int, ...], ...]) -> Diagram:
        """The diagram of one of `choices()`."""
        rows = dict(zip((j for j, _, _ in self.columns), choice))
        return Diagram(self.D.n, tuple(rows.get(j, ()) for j in range(1, self.D.n + 1)))

    def row_keys(self) -> list[int]:
        """The key of x^K for every member K, in the order of `choices()`."""
        keys = [0]
        for _, _, column in self.columns:
            keys = [a + b for a in keys for b in column]
        return keys

    @property
    def members(self) -> frozenset[Diagram]:
        return frozenset(map(self.member, self.choices()))

    def to_json(self) -> dict:
        return {
            "D": self.D.to_json(),
            "k": self.k,
            "l": self.l,
            "purple_boxes": [list(b) for b in sorted(self.boxes)],
            "members": [m.to_json() for m in sorted(self.members, key=Diagram.box_list)],
            "monomials": [
                [*exps] + [0] * (self.D.n - len(exps))
                for exps in map(unpack, _canonical(set(self.row_keys())))
            ],
        }


def purple_family(D: Diagram, k: int, l: int) -> PurpleFamily:
    """The down-closure of the removed-box seed within the purple boxes.

    The defining closure descends one dominance step at a time; since
    dominance is transitive that reachable set is exactly the down-set of
    the seed.  Dominance and the purple boxes are both columnwise, so it
    is a product over the seed's columns: column l of D, and row k alone
    in every other column of D that holds it.  The seed lies inside the
    purple boxes, so it is a member.  Each column's sets and their keys are
    memoized (`_purple_sets`), so the family is a product of lookups.
    """
    columns = tuple(
        (j, *_purple_sets(d, k, j == l))
        for j, d in enumerate(D.columns, start=1)
        if k in d or (j == l and d)
    )
    return PurpleFamily(D, k, l, columns)


@dataclass(frozen=True)
class MonomialCharacterization:
    """The working, purple and extra monomials of (sigma, k), as exponent keys."""

    sigma: tuple[int, ...]
    k: int
    working: frozenset[int]
    from_purple: frozenset[int]
    extra: frozenset[int]


def characterize_monomials(sigma: tuple[int, ...]) -> tuple[MonomialCharacterization, ...]:
    """For every position k, all monomials M with S_sigma - M * S_pi(skip x_k) nonnegative.

    Entry k - 1 is position k's; pi is the single-removal pattern at
    position k.  A working M must send every monomial of the substituted
    S_pi into the support of S_sigma, so the candidates are the exact
    quotients of support monomials by any one fixed monomial of the
    substituted S_pi: a provably complete superset, taken as keys.  No
    degree test is needed: S_sigma is homogeneous of degree l(sigma), so
    every quotient has the degree of sigma's seed.  D(sigma) and S_sigma
    are built once for all k.
    """
    D = rothe(sigma)
    s_sigma = schubert_polynomial(sigma)
    results = []
    for k, l in enumerate(sigma, start=1):
        family = purple_family(D, k, l)
        sub = schubert_skipping(sigma, k)
        from_purple = frozenset(family.row_keys())
        mu0 = next(iter(sub))
        quotients = (key_quotient(m, mu0) for m in s_sigma)
        working = frozenset(
            q for q in quotients if q is not None and nonnegative_after_subtracting(s_sigma, q, sub)
        )
        extra = working - from_purple
        results.append(MonomialCharacterization(sigma, k, working, from_purple, extra))
    return tuple(results)
