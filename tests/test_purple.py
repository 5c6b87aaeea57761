import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from schubpat.diagrams import Diagram, rothe
from schubpat.oracles import (
    NotInFamilyError,
    purple_boxes_bruteforce,
    purple_family_by_enumeration,
    removed_boxes,
    restrict_remove,
    verify_theorem_gen,
)
from schubpat.permwords import avoids
from schubpat.polyx import key_quotient, monomial_key, nonnegative_after_subtracting, unpack
from schubpat.purple import characterize_monomials, purple_boxes, purple_family
from schubpat.schubert import schubert_polynomial, schubert_skipping
from schubpat.weylchar import chi


# A diagram in [n] x [n] with a removed row k and column l, each anywhere in 1..n.
removals = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.frozensets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n).map(
            lambda b: Diagram.of(n, b)
        ),
        st.integers(1, n),
        st.integers(1, n),
    )
)


def _frozen(*boxes):
    return frozenset(boxes)


def _at_zero(p: dict[int, int], k: int) -> dict[int, int]:
    """p with x_k = 0: the terms without x_k."""
    return {key: c for key, c in p.items() if not (unpack(key) + (0,) * k)[k - 1]}


def has_northwest_property(D: Diagram) -> bool:
    """Whether (r,c') and (r',c) with r<r', c<c' always force (r,c)."""
    boxes = D.boxes
    for (r, cp) in boxes:
        for (rp, c) in boxes:
            if r < rp and c < cp and (r, c) not in boxes:
                return False
    return True


def test_purple_boxes_single_column_example():
    D = rothe((1, 5, 2, 4, 3))
    assert D == Diagram.of(5, [(2, 2), (2, 3), (2, 4), (4, 3)])
    assert purple_boxes(D, 5, 3) == _frozen((1, 3), (2, 3), (3, 3), (4, 3))


def test_purple_boxes_two_column_example():
    D = rothe((1, 5, 2, 4, 3))
    assert purple_boxes(D, 4, 4) == _frozen((1, 4), (2, 4), (3, 3), (4, 3))


def test_purple_family_single_column_example():
    D = rothe((1, 5, 2, 4, 3))
    family = purple_family(D, 5, 3)
    assert removed_boxes(D, 5, 3) == Diagram.of(5, [(2, 3), (4, 3)])
    got = {K.boxes for K in family.members}
    assert got == {
        _frozen((2, 3), (4, 3)),
        _frozen((1, 3), (4, 3)),
        _frozen((2, 3), (3, 3)),
        _frozen((1, 3), (3, 3)),
        _frozen((1, 3), (2, 3)),
    }
    assert frozenset(family.row_keys()) == {
        monomial_key([2, 4]),
        monomial_key([1, 4]),
        monomial_key([2, 3]),
        monomial_key([1, 3]),
        monomial_key([1, 2]),
    }


def test_purple_family_two_column_example():
    D = rothe((1, 5, 2, 4, 3))
    family = purple_family(D, 4, 4)
    got = {K.boxes for K in family.members}
    assert got == {
        _frozen((2, 4), (4, 3)),
        _frozen((1, 4), (4, 3)),
        _frozen((2, 4), (3, 3)),
        _frozen((1, 4), (3, 3)),
    }
    assert frozenset(family.row_keys()) == {
        monomial_key([2, 4]),
        monomial_key([1, 4]),
        monomial_key([2, 3]),
        monomial_key([1, 3]),
    }


@pytest.mark.parametrize("n", range(1, 5))
def test_purple_boxes_against_bruteforce(n):
    for w in itertools.permutations(range(1, n + 1)):
        D = rothe(w)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                assert purple_boxes(D, k, l) == purple_boxes_bruteforce(D, k, l)


def test_purple_boxes_bruteforce_on_non_rothe():
    D = Diagram.of(3, [(1, 1), (1, 2), (2, 1), (2, 2)])
    for k, l in itertools.product(range(1, 4), repeat=2):
        assert purple_boxes(D, k, l) == purple_boxes_bruteforce(D, k, l)


@pytest.mark.parametrize("n", range(2, 6))
def test_seed_always_in_family(n):
    for w in itertools.permutations(range(1, n + 1)):
        D = rothe(w)
        for k in range(1, n + 1):
            family = purple_family(D, k, w[k - 1])
            assert removed_boxes(D, k, w[k - 1]) in family.members
            assert all(K.boxes <= family.boxes for K in family.members)


@given(removals)
def test_seed_lies_inside_the_purple_boxes(removal):
    # Row k is purple in every column of D holding it, and column l is purple
    # wherever a dominated set reaches: so the seed is a member of the product.
    D, k, l = removal
    family, seed = purple_family(D, k, l), removed_boxes(D, k, l)
    assert seed.boxes <= family.boxes
    assert seed in family.members


@pytest.mark.parametrize("n", range(1, 7))
def test_purple_family_matches_enumeration_on_rothe_diagrams(n):
    for w in itertools.permutations(range(1, n + 1)):
        D = rothe(w)
        for k in range(1, n + 1):
            family = purple_family(D, k, w[k - 1])
            expected = purple_family_by_enumeration(D, k, w[k - 1])
            assert (family.boxes, family.members, frozenset(family.row_keys())) == expected, (w, k)


@given(removals)
def test_purple_family_matches_enumeration_off_rothe_diagrams(removal):
    D, k, l = removal
    assume(D not in {rothe(w) for w in itertools.permutations(range(1, D.n + 1))})
    family = purple_family(D, k, l)
    expected = purple_family_by_enumeration(D, k, l)
    assert (family.boxes, family.members, frozenset(family.row_keys())) == expected
    assert purple_boxes(D, k, l) == family.boxes


def test_verify_theorem_gen_on_family_members():
    D = rothe((1, 5, 2, 4, 3))
    for k, l in [(5, 3), (4, 4)]:
        family = purple_family(D, k, l)
        chi_D = chi(D)
        chi_hat_k = _at_zero(chi(restrict_remove(D, k, l)), k)
        for K in family.members:
            ok, _ = verify_theorem_gen(family, K, chi_D, chi_hat_k)
            assert ok, (k, l, K)


def test_verify_theorem_gen_rejects_non_members():
    D = rothe((1, 5, 2, 4, 3))
    family = purple_family(D, 5, 3)
    chi_D = chi(D)
    chi_hat_k = _at_zero(chi(restrict_remove(D, 5, 3)), 5)
    with pytest.raises(NotInFamilyError):
        verify_theorem_gen(family, Diagram.of(5, [(1, 1)]), chi_D, chi_hat_k)


def test_verify_theorem_gen_on_random_northwest_diagrams():
    rng = random.Random(17)
    grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    checked = 0
    while checked < 60:
        boxes = rng.sample(grid, rng.randint(1, 6))
        D = Diagram.of(4, boxes)
        if not has_northwest_property(D):
            continue
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        family = purple_family(D, k, l)
        chi_D = chi(D)
        chi_hat_k = _at_zero(chi(restrict_remove(D, k, l)), k)
        for K in family.members:
            ok, diff = verify_theorem_gen(family, K, chi_D, chi_hat_k)
            assert ok, (D, k, l, K, diff)
        checked += 1


def test_characterize_single_column_example():
    # every working monomial comes from the family here
    result = characterize_monomials((1, 5, 2, 4, 3))[4]
    assert result.working == result.from_purple
    assert not result.extra
    assert result.working == {
        monomial_key([2, 4]),
        monomial_key([1, 4]),
        monomial_key([2, 3]),
        monomial_key([1, 3]),
        monomial_key([1, 2]),
    }


def test_characterize_two_column_example():
    # here x_1 x_2 works even though it is outside the family
    result = characterize_monomials((1, 5, 2, 4, 3))[3]
    assert result.from_purple == {
        monomial_key([2, 4]),
        monomial_key([1, 4]),
        monomial_key([2, 3]),
        monomial_key([1, 3]),
    }
    assert monomial_key([1, 2]) in result.extra
    assert result.from_purple <= result.working


@pytest.mark.parametrize("n", range(2, 5))
def test_characterize_family_monomials_always_work(n):
    for w in itertools.permutations(range(1, n + 1)):
        results = characterize_monomials(w)
        assert [result.k for result in results] == list(range(1, n + 1))
        for result in results:
            assert result.from_purple <= result.working
            if avoids(w):
                assert len(result.working) >= 1


@pytest.mark.parametrize("n", range(1, 6))
def test_working_monomials_do_not_depend_on_the_fixed_term(n):
    # Any term mu of the substituted S_pi gives the candidates m / mu over the support of S_sigma.
    for w in itertools.permutations(range(1, n + 1)):
        s_sigma = schubert_polynomial(w)
        for result in characterize_monomials(w):
            sub = schubert_skipping(w, result.k)
            for mu in sub:
                quotients = {key_quotient(m, mu) for m in s_sigma} - {None}
                working = {q for q in quotients if nonnegative_after_subtracting(s_sigma, q, sub)}
                assert working == result.working, (w, result.k, mu)
