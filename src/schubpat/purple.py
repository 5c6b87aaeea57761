"""Purple boxes, purple families and single-removal monomial factors.

For a diagram D and a removed row k / column l, the purple boxes are the
positions reachable in some dominated diagram but never in the row/column
restriction of one; the purple family is the dominance down-set of the
removed-box seed inside the purple boxes.  The row monomial of any family
member is a valid factor in front of the restricted character.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    Diagram,
    _column_dominated_sets,
    column_dominates,
    enumerate_dominated,
    removed_boxes,
    rothe,
    row_monomial,
)
from .errors import NotInFamilyError
from .permwords import Permutation
from .polyx import Monomial, Polynomial
from .schubert import schubert_polynomial, schubert_skipping


def purple_boxes(D: Diagram, k: int, l: int) -> frozenset[tuple[int, int]]:
    """Boxes hit by some dominated diagram but by no row/column-restricted one.

    Both conditions decompose columnwise: on every other column a
    dominated diagram can keep D's own column, which restricts to itself.
    """
    out: set[tuple[int, int]] = set()
    for j in range(1, D.n + 1):
        dj = D.column(j)
        if not dj:
            continue
        subsets = _column_dominated_sets(dj)
        reachable = {i for S in subsets for i in S}
        if j == l:
            # boxes of column l never survive the restriction
            out.update((i, j) for i in reachable)
            continue
        k_in_d = k in dj
        dj_hat = tuple(i for i in dj if i != k)
        restricted_reachable: set[int] = set()
        for S in subsets:
            if (k in S) != k_in_d:
                continue
            s_hat = tuple(i for i in S if i != k)
            if column_dominates(s_hat, dj_hat):
                restricted_reachable.update(s_hat)
        out.update((i, j) for i in reachable if i not in restricted_reachable)
    return frozenset(out)


@dataclass(frozen=True)
class PurpleFamily:
    D: Diagram
    k: int
    l: int
    boxes: frozenset[tuple[int, int]]
    members: frozenset[Diagram]
    monomials: frozenset[Monomial]

    @property
    def seed(self) -> Diagram:
        return removed_boxes(self.D, self.k, self.l)

    def to_json(self) -> dict:
        return {
            "D": self.D.to_json(),
            "k": self.k,
            "l": self.l,
            "purple_boxes": [list(b) for b in sorted(self.boxes)],
            "members": [m.to_json() for m in sorted(self.members, key=Diagram.box_list)],
            "monomials": [
                Polynomial.from_monomial(m).to_json(self.D.n)["terms"][0]["exp"]
                for m in sorted(self.monomials, key=Monomial.sort_key)
            ],
        }


def purple_family(D: Diagram, k: int, l: int) -> PurpleFamily:
    """The down-closure of the removed-box seed within the purple boxes.

    The defining closure descends one dominance step at a time; since
    dominance is transitive that reachable set is exactly the down-set of
    the seed, which is what gets enumerated here.
    """
    boxes = purple_boxes(D, k, l)
    seed = removed_boxes(D, k, l)
    members = {seed}
    for K in enumerate_dominated(seed):
        if K.boxes <= boxes:
            members.add(K)
    monomials = frozenset(row_monomial(K) for K in members)
    return PurpleFamily(D, k, l, boxes, frozenset(members), monomials)


def verify_theorem_gen(
    family: PurpleFamily, K: Diagram, chi_D: Polynomial, chi_hat_k: Polynomial
) -> tuple[bool, Polynomial | None]:
    """Check chi_D - x^K * chi_hat_k has no negative term, for K in the family.

    chi_D is the dual character of the family's diagram D, and chi_hat_k that
    of restrict_remove(D, k, l) with x_k = 0 substituted; the caller builds
    both once per family and passes them for every member.  For D = D(sigma)
    and l = sigma(k) these are S_sigma and S_pi skipping x_k
    (schubert_skipping).  The difference is built, and returned with the
    verdict, only when the check fails.
    """
    if K not in family.members:
        raise NotInFamilyError(f"{K} is not a member of the purple family of {family.D}")
    m = row_monomial(K)
    if chi_D.nonnegative_after_subtracting(m, chi_hat_k):
        return True, None
    return False, chi_D - chi_hat_k * m


@dataclass(frozen=True)
class MonomialCharacterization:
    sigma: Permutation
    k: int
    working: frozenset[Monomial]
    from_purple: frozenset[Monomial]
    extra: frozenset[Monomial]


def characterize_monomials(sigma: Permutation, k: int) -> MonomialCharacterization:
    """All monomials M with S_sigma - M * S_pi(skip x_k) nonnegative.

    pi is the single-removal pattern at position k.  A working M must
    send every monomial of the substituted S_pi into the support of
    S_sigma, so the candidates are the exact quotients of support
    monomials by one fixed monomial of the substituted S_pi; that set is
    a provably complete superset.
    """
    D = rothe(sigma)
    l = sigma(k)
    family = purple_family(D, k, l)
    s_sigma = schubert_polynomial(sigma)
    sub = schubert_skipping(sigma, k)
    degree = len(family.seed)
    mu0 = min(sub.support(), key=Monomial.sort_key, default=Monomial())
    candidates = {
        m / mu0
        for m in s_sigma.support()
        if mu0.divides(m) and m.degree() - mu0.degree() == degree
    }
    candidates |= family.monomials
    working = set()
    for M in candidates:
        if s_sigma.nonnegative_after_subtracting(M, sub):
            working.add(M)
    return MonomialCharacterization(
        sigma,
        k,
        frozenset(working),
        frozenset(family.monomials),
        frozenset(working - family.monomials),
    )
