import itertools

import pytest
from hypothesis import given, settings, strategies as st

from schubpat import cli
from schubpat.diagrams import Diagram, count_dominated, dominated_sum, rothe
from schubpat.oracles import (
    LengthGuardError,
    coefficient_by_counting,
    divided_difference,
    dominated_sum_by_enumeration,
    evaluate_all_ones,
    flatten,
    macdonald_oracle,
    pattern_count,
    reduced_words,
    restrict_remove,
    schubert_divdiff,
    substitute_variables,
)
from schubpat.permwords import avoids
from schubpat.polyx import add, exponent_key, first_negative, monomial_key, mul, sub, unpack, x
from schubpat.schubert import principal_specialization, schubert_polynomial, schubert_skipping
from schubpat.weylchar import chi

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)

diagrams = st.integers(1, 4).flatmap(
    lambda n: st.frozensets(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n
    ).map(lambda b: Diagram.of(n, b))
)


def _at_zero(p: dict[int, int], k: int) -> dict[int, int]:
    """p with x_k = 0: the terms without x_k."""
    return {key: c for key, c in p.items() if not (unpack(key) + (0,) * k)[k - 1]}


@pytest.mark.parametrize("n", range(1, 7))
def test_schubert_skipping_is_the_restricted_character(n):
    # The restricted Rothe diagram's character by exact rank, not by divided differences.
    for w in itertools.permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            got = schubert_skipping(w, k)
            assert _at_zero(got, k) == got  # no term holds x_k
            assert got == _at_zero(chi(restrict_remove(rothe(w), k, w[k - 1])), k), (w, k)


@pytest.mark.parametrize("n", range(1, 8))
def test_schubert_skipping_inserts_what_relabelling_gives(n):
    # pi by flatten on the word without letter k, its variables relabelled by substitution.
    for w in itertools.permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            pi = flatten(w[: k - 1] + w[k:])
            relabel = {i: i if i < k else i + 1 for i in range(1, n)}
            relabelled = substitute_variables(schubert_polynomial(pi), relabel)
            assert schubert_skipping(w, k) == relabelled


def test_divided_difference_examples():
    # d_1 (x_1^2 x_2) = x_1 x_2
    assert divided_difference(mul(mul(x(1), x(1)), x(2)), 1) == mul(x(1), x(2))
    assert divided_difference(x(1), 1) == {0: 1}
    assert divided_difference(mul(x(1), x(2)), 1) == {}
    assert divided_difference(x(3), 1) == {}


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_divided_difference_is_twisted_derivation(i, j, a, b):
    # d_i(fg) = d_i(f) g + (s_i f) d_i(g)
    f = {monomial_key([j] * a): 1}
    g = add({monomial_key([i] * b): 1}, x(j))
    swap = {v: v for v in range(1, 5)}
    swap[i], swap[i + 1] = i + 1, i
    lhs = divided_difference(mul(f, g), i)
    rhs = add(
        mul(divided_difference(f, i), g), mul(substitute_variables(f, swap), divided_difference(g, i))
    )
    assert lhs == rhs


def test_schubert_worked_examples():
    assert schubert_divdiff((2, 1, 4, 3)) == (
        add(add(mul(x(1), x(1)), mul(x(1), x(2))), mul(x(1), x(3)))
    )
    assert schubert_divdiff((1, 3, 4, 2)) == (
        add(add(mul(x(1), x(2)), mul(x(1), x(3))), mul(x(2), x(3)))
    )
    assert schubert_divdiff((1, 3, 2)) == add(x(1), x(2))
    assert schubert_divdiff((2, 1)) == x(1)
    assert schubert_divdiff((1, 2, 3, 4)) == {0: 1}
    assert schubert_divdiff(()) == {0: 1}


def test_schubert_longest_element():
    w0 = (4, 3, 2, 1)
    assert schubert_divdiff(w0) == {exponent_key([3, 2, 1]): 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_ascent_walks_agree(n):
    # The transition equation (down from the last descent) against divided
    # differences (up along first ascents): the two walks share no step.
    for w in itertools.permutations(range(1, n + 1)):
        assert schubert_polynomial(w) == schubert_divdiff(w), w
        assert schubert_polynomial(w) is schubert_polynomial(w)


def test_schubert_polynomials_have_positive_coefficients():
    # `polyx.nonnegative_after_subtracting` takes S_sigma as a minuend
    # with no negative coefficient.
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert min(schubert_polynomial(w).values()) > 0, w


def test_transition_schubert_polynomials_are_homogeneous_of_degree_length():
    # So every working monomial of `characterize_monomials` has one degree, and it tests none.
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            degrees = {sum(unpack(key)) for key in schubert_polynomial(w)}
            assert degrees == {sum(a > b for a, b in itertools.combinations(w, 2))}, w


@pytest.mark.parametrize("n", range(1, 6))
def test_diagram_sum_matches_divdiff_on_avoiders(n):
    for w in itertools.permutations(range(1, n + 1)):
        if avoids(w):
            assert dominated_sum(rothe(w)) == schubert_divdiff(w)


def test_schubert_diagram_rejects_forbidden_patterns(capsys):
    # `schubert --method diagram` prints the diagram sum only where it is S_w.
    for w in ("1432", "15243"):
        assert cli.main(["schubert", w, "--method", "diagram"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"pattern violation: {w} contains 1432 or 1423\n")


@pytest.mark.parametrize("n", range(1, 7))
def test_diagram_sum_matches_enumeration(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert dominated_sum(rothe(w)) == dominated_sum_by_enumeration(rothe(w)), w


@given(diagrams)
def test_dominated_sum_matches_enumeration_on_any_diagram(D):
    assert dominated_sum(D) == dominated_sum_by_enumeration(D)
    assert evaluate_all_ones(dominated_sum(D)) == count_dominated(D)


def test_count_certificate_decides_as_the_full_comparison():
    # thm2.7 rules equality out when count_dominated(D(w)) != S_w(1).  On S_<=7
    # that verdict is the full comparison's, and it decides every non-avoider.
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            s_w = schubert_polynomial(w)
            certified = count_dominated(rothe(w)) == evaluate_all_ones(s_w)
            assert certified == (dominated_sum(rothe(w)) == s_w) == avoids(w), w


def test_diagram_sum_overcounts_on_1432():
    w = (1, 4, 3, 2)
    s, d = schubert_divdiff(w), dominated_sum(rothe(w))
    assert s != d
    # the diagram sum dominates coefficientwise and strictly somewhere
    assert first_negative(sub(d, s)) is None
    assert evaluate_all_ones(d) > evaluate_all_ones(s)


def test_coefficient_by_counting():
    w = (2, 1, 4, 3)
    assert coefficient_by_counting(w, exponent_key([2])) == 1
    assert coefficient_by_counting(w, monomial_key([1, 3])) == 1
    assert coefficient_by_counting(w, monomial_key([2, 3])) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_schubert_coefficients_nonnegative_and_homogeneous(n):
    for w in itertools.permutations(range(1, n + 1)):
        p = schubert_divdiff(w)
        assert first_negative(p) is None
        assert {sum(unpack(key)) for key in p} == {sum(a > b for a, b in itertools.combinations(w, 2))}


def test_reduced_words_examples():
    assert set(reduced_words((3, 2, 1))) == {(1, 2, 1), (2, 1, 2)}
    assert list(reduced_words((1, 2, 3))) == [()]
    assert set(reduced_words((1, 3, 4, 2))) == {(2, 3)}


@pytest.mark.parametrize("n", range(1, 6))
def test_macdonald_oracle_matches_specialization(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert macdonald_oracle(w) == principal_specialization(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_transition_specialization_matches_divdiff(n):
    # The divided-difference polynomial shares no code with the recursion.
    for w in itertools.permutations(range(1, n + 1)):
        assert principal_specialization(w) == evaluate_all_ones(schubert_divdiff(w))


def test_specialization_of_plain_tuples_ignores_trailing_fixed_points():
    assert principal_specialization(()) == 1
    assert principal_specialization((1, 2, 3)) == 1
    assert principal_specialization((2, 1, 3, 4)) == principal_specialization((2, 1)) == 1
    w = (1, 4, 3, 2, 5)
    assert principal_specialization(w) == principal_specialization((1, 4, 3, 2)) == 5


def test_macdonald_length_guard():
    with pytest.raises(LengthGuardError):
        macdonald_oracle((6, 5, 4, 3, 2, 1), max_length=12)


@pytest.mark.parametrize("n", range(1, 7))
def test_specialization_lower_bound(n):
    # S_w(1,...,1) >= 1 + (# of 132 patterns) + (# of 1432 patterns)
    p132 = (1, 3, 2)
    p1432 = (1, 4, 3, 2)
    for w in itertools.permutations(range(1, n + 1)):
        bound = 1 + pattern_count(p132, w) + pattern_count(p1432, w)
        assert principal_specialization(w) >= bound


@given(st.integers(1, 5).flatmap(perms), st.integers(1, 7))
def test_schubert_stable_under_embedding(w, pad):
    embedded = w + tuple(range(len(w) + 1, len(w) + pad % 3 + 1))
    assert schubert_divdiff(embedded) == schubert_divdiff(w)
    assert schubert_polynomial(embedded) == schubert_polynomial(w)


def test_degree_equals_diagram_size():
    for w in itertools.permutations(range(1, 6)):
        assert max(sum(unpack(key)) for key in schubert_divdiff(w)) == len(rothe(w))
