import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schubpat.diagrams import Diagram, dominated_sum, rothe
from schubpat.errors import BudgetExceededError
from schubpat.linalg import integer_rank
from schubpat.oracles import (
    chi_coefficient,
    determinant_product,
    enumerate_dominated,
    restrict_remove,
    row_monomial,
    schubert_divdiff,
)
from schubpat.permwords import avoids
from schubpat.polyx import exponent_key, first_negative, monomial_key, mul, pair_index, sub, unpack, x
from schubpat.weylchar import _det, chi

# Every Rothe diagram of S_<=5, by building it.
ROTHE = {rothe(w) for n in range(6) for w in itertools.permutations(range(1, n + 1))}


def y(i, j):
    return x(pair_index(i, j))


def test_y_determinant_examples():
    assert _det((1,), (3,)) == y(1, 3)
    assert _det((1, 2), (2, 3)) == sub(mul(y(1, 2), y(2, 3)), mul(y(1, 3), y(2, 2)))
    # a row below its column index kills the determinant
    assert _det((2,), (1,)) == {}
    assert _det((2, 3), (1, 3)) == {}
    assert _det((), ()) == {0: 1}


def test_y_determinant_against_permanent_expansion():
    # full 3x3 upper-triangular determinant expanded by hand
    got = _det((1, 2, 3), (1, 2, 3))
    assert got == mul(mul(y(1, 1), y(2, 2)), y(3, 3))
    got = _det((1, 2), (2, 4))
    assert got == sub(mul(y(1, 2), y(2, 4)), mul(y(1, 4), y(2, 2)))


def test_y_determinant_is_the_leibniz_sum_on_every_minor_of_six():
    # Every (rows, cols) pair of equal-size subsets of [6], one term per bijection.
    subsets = [c for m in range(7) for c in itertools.combinations(range(1, 7), m)]
    pairs = [(r, c) for r in subsets for c in subsets if len(r) == len(c)]
    assert len(pairs) == 924
    for rows, cols in pairs:
        expected = {}
        for sigma in itertools.permutations(range(len(rows))):
            if all(rows[s] <= c for s, c in zip(sigma, cols)):
                sign = (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
                key = monomial_key(pair_index(rows[s], c) for s, c in zip(sigma, cols))
                expected[key] = expected.get(key, 0) + sign
        expected = {k: v for k, v in expected.items() if v}
        assert _det(rows, cols) == expected, (rows, cols)
        assert bool(expected) == all(r <= c for r, c in zip(rows, cols)), (rows, cols)


def test_determinant_product_examples():
    D = Diagram.of(4, [(2, 2), (3, 2)])
    C = Diagram.of(4, [(1, 2), (3, 2)])
    assert determinant_product(C, D) == _det((1, 3), (2, 3))
    # non-dominating columns give zero
    bad = Diagram.of(4, [(3, 2), (4, 2)])
    assert determinant_product(bad, D) == {}
    assert determinant_product(Diagram.of(4, []), Diagram.of(4, [])) == {0: 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_chi_of_rothe_is_schubert(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert chi(rothe(w)) == schubert_divdiff(w)


def test_chi_of_rothe_is_schubert_some_s5():
    rng = random.Random(11)
    pool = list(itertools.permutations(range(1, 6)))
    for w in rng.sample(pool, 20):
        assert chi(rothe(w)) == schubert_divdiff(w)


def test_chi_coefficient_examples():
    D = rothe((2, 1, 4, 3))
    assert chi_coefficient(D, exponent_key([2])) == 1
    assert chi_coefficient(D, monomial_key([1, 3])) == 1
    assert chi_coefficient(D, monomial_key([2, 3])) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_chi_equals_dominated_count_for_avoiders(n):
    for w in itertools.permutations(range(1, n + 1)):
        if avoids(w):
            assert chi(rothe(w)) == dominated_sum(rothe(w))


def test_rank_deficiency_at_1432():
    w = (1, 4, 3, 2)
    D = rothe(w)
    assert chi(D) == schubert_divdiff(w)
    assert chi(D) != dominated_sum(D)
    m = monomial_key([1, 2, 3])
    matching = [C for C in enumerate_dominated(D) if row_monomial(C) == m]
    assert len(matching) > chi_coefficient(D, m)


def test_chi_support_is_dominated_and_bounded():
    for w in [(1, 4, 3, 2), (2, 1, 4, 3), (1, 4, 2, 3), (3, 5, 1, 4, 2)]:
        D = rothe(w)
        counts = {}
        for C in enumerate_dominated(D):
            counts[row_monomial(C)] = counts.get(row_monomial(C), 0) + 1
        for mon, coef in chi(D).items():
            assert 1 <= coef <= counts[mon]


def test_chi_on_non_rothe_diagram():
    # a northwest diagram that is not any Rothe diagram
    D = Diagram.of(3, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert D not in ROTHE
    p = chi(D)
    assert first_negative(p) is None
    assert {sum(unpack(key)) for key in p} == {4}
    assert p[exponent_key([2, 2])] == 1


def test_chi_budget():
    D = rothe((3, 5, 1, 4, 2))
    with pytest.raises(BudgetExceededError):
        chi(D, budget=3)


# -- the column order of chi -----------------------------------------------


def _move_columns(D, n, target):
    """D's column j moved to column target[j - 1] of an n x n grid."""
    return Diagram.of(n, [(i, target[j - 1]) for (i, j) in D.boxes])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=7),
            st.integers(0, 2).flatmap(lambda e: st.permutations(range(1, n + e + 1))),
        )
    )
)
def test_chi_ignores_column_order_and_empty_columns(case):
    n, boxes, target = case
    D = Diagram.of(n, boxes)
    moved = _move_columns(D, len(target), target)
    assert chi(moved) == chi(D)


def test_column_choice_route_equals_the_diagram_route():
    """chi by column choices equals chi_coefficient on D for every row monomial.

    Over every restricted diagram of S_<=5 that is not a Rothe diagram.  The
    Diagram route enumerates C <= D and multiplies `determinant_product`, so
    it shares neither the column choices nor the forward pass with `chi`.
    """
    diagrams = {
        restrict_remove(rothe(w), k, w[k - 1])
        for n in range(6)
        for w in itertools.permutations(range(1, n + 1))
        for k in range(1, n + 1)
    }
    diagrams = [D for D in diagrams if D not in ROTHE]
    assert len(diagrams) == 184
    for D in diagrams:
        p = chi(D)
        monomials = {row_monomial(C) for C in enumerate_dominated(D)}
        assert set(p) <= monomials, D
        for m in monomials:
            assert p.get(m, 0) == chi_coefficient(D, m), (D, m)


# -- exact rank ----------------------------------------------------------


def _rank_oracle(rows):
    m = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def matrices(draw):
    """Up to 8 x 8, entries small or up to 10^6 in size; some rows combine earlier ones."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.integers(-9, 9) | st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    combine = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    for i in range(1, r):
        if combine[i]:
            coefs = draw(st.lists(entries, min_size=i, max_size=i))
            rows[i] = [sum(a * row[j] for a, row in zip(coefs, rows)) for j in range(c)]
    return rows


@settings(max_examples=300)
@given(matrices())
def test_integer_rank_matches_fraction_oracle(m):
    assert integer_rank(m) == _rank_oracle(m)


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_shuffle(m, rng):
    shuffled = list(m)
    rng.shuffle(shuffled)
    assert integer_rank(shuffled) == integer_rank(m)


def test_rank_edge_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
