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
from schubpat.permwords import Permutation, Word, all_permutations, avoids
from schubpat.polyx import Monomial, Polynomial, x
from schubpat.schubert import principal_specialization, schubert_polynomial, schubert_skipping
from schubpat.weylchar import chi

perms = lambda n: st.permutations(list(range(1, n + 1))).map(lambda v: Permutation(tuple(v)))

diagrams = st.integers(1, 4).flatmap(
    lambda n: st.frozensets(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n
    ).map(lambda b: Diagram(n, b))
)


def _at_zero(p: Polynomial, k: int) -> Polynomial:
    """p with x_k = 0: the terms without x_k."""
    return Polynomial({m: c for m, c in p.terms() if k not in dict(m.exps)})


@pytest.mark.parametrize("n", range(1, 7))
def test_schubert_skipping_is_the_restricted_character(n):
    # The restricted Rothe diagram's character by exact rank, not by divided differences.
    for w in all_permutations(n):
        for k in range(1, n + 1):
            got = schubert_skipping(w.values, k)
            assert k not in got.variables()
            assert got == _at_zero(chi(restrict_remove(rothe(w.values), k, w(k))), k), (w, k)


@pytest.mark.parametrize("n", range(1, 8))
def test_schubert_skipping_inserts_what_relabelling_gives(n):
    # pi by flatten on the word without letter k, its variables relabelled by substitution.
    for w in all_permutations(n):
        for k in range(1, n + 1):
            pi = flatten(Word(w.values[: k - 1] + w.values[k:]))
            relabel = {i: i if i < k else i + 1 for i in range(1, n)}
            relabelled = substitute_variables(schubert_polynomial(pi.values), relabel)
            assert schubert_skipping(w.values, k) == relabelled


def test_divided_difference_examples():
    # d_1 (x_1^2 x_2) = x_1 x_2
    assert divided_difference(x(1) * x(1) * x(2), 1) == x(1) * x(2)
    assert divided_difference(x(1), 1) == Polynomial.constant(1)
    assert divided_difference(x(1) * x(2), 1) == Polynomial.zero()
    assert divided_difference(x(3), 1) == Polynomial.zero()


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_divided_difference_is_twisted_derivation(i, j, a, b):
    # d_i(fg) = d_i(f) g + (s_i f) d_i(g)
    f = Polynomial.from_monomial(Monomial({j: a}))
    g = Polynomial.from_monomial(Monomial({i: b})) + x(j)
    swap = {v: v for v in range(1, 5)}
    swap[i], swap[i + 1] = i + 1, i
    lhs = divided_difference(f * g, i)
    rhs = divided_difference(f, i) * g + substitute_variables(f, swap) * divided_difference(g, i)
    assert lhs == rhs


def test_schubert_worked_examples():
    assert schubert_divdiff(Permutation.from_string("2143")) == (
        x(1) * x(1) + x(1) * x(2) + x(1) * x(3)
    )
    assert schubert_divdiff(Permutation.from_string("1342")) == (
        x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    )
    assert schubert_divdiff(Permutation.from_string("132")) == x(1) + x(2)
    assert schubert_divdiff(Permutation.from_string("21")) == x(1)
    assert schubert_divdiff(Permutation.from_string("1234")) == Polynomial.constant(1)
    assert schubert_divdiff(Permutation(())) == Polynomial.constant(1)


def test_schubert_longest_element():
    w0 = Permutation.from_string("4321")
    assert schubert_divdiff(w0) == Polynomial.from_monomial(Monomial({1: 3, 2: 2, 3: 1}))


@pytest.mark.parametrize("n", range(1, 7))
def test_ascent_walks_agree(n):
    # The transition equation (down from the last descent) against divided
    # differences (up along first ascents): the two walks share no step.
    for w in all_permutations(n):
        assert schubert_polynomial(w.values) == schubert_divdiff(w), w
        assert schubert_polynomial(w.values) is schubert_polynomial(w.values)


def test_schubert_polynomials_have_positive_coefficients():
    # `Polynomial.nonnegative_after_subtracting` takes S_sigma as a minuend
    # with no negative coefficient.
    for n in range(1, 8):
        for w in all_permutations(n):
            assert min(schubert_polynomial(w.values).key_terms.values()) > 0, w


@pytest.mark.parametrize("n", range(1, 6))
def test_diagram_sum_matches_divdiff_on_avoiders(n):
    for w in all_permutations(n):
        if avoids(w.values):
            assert dominated_sum(rothe(w.values)) == schubert_divdiff(w)


def test_schubert_diagram_rejects_forbidden_patterns(capsys):
    # `schubert --method diagram` prints the diagram sum only where it is S_w.
    for w in ("1432", "15243"):
        assert cli.main(["schubert", w, "--method", "diagram"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"pattern violation: {w} contains 1432 or 1423\n")


@pytest.mark.parametrize("n", range(1, 7))
def test_diagram_sum_matches_enumeration(n):
    for w in all_permutations(n):
        assert dominated_sum(rothe(w.values)) == dominated_sum_by_enumeration(rothe(w.values)), w


@given(diagrams)
def test_dominated_sum_matches_enumeration_on_any_diagram(D):
    assert dominated_sum(D) == dominated_sum_by_enumeration(D)
    assert evaluate_all_ones(dominated_sum(D)) == count_dominated(D)


def test_count_certificate_decides_as_the_full_comparison():
    # thm2.7 rules equality out when count_dominated(D(w)) != S_w(1).  On S_<=7
    # that verdict is the full comparison's, and it decides every non-avoider.
    for n in range(1, 8):
        for w in all_permutations(n):
            s_w = schubert_polynomial(w.values)
            certified = count_dominated(rothe(w.values)) == evaluate_all_ones(s_w)
            assert certified == (dominated_sum(rothe(w.values)) == s_w) == avoids(w.values), w


def test_diagram_sum_overcounts_on_1432():
    w = Permutation.from_string("1432")
    s, d = schubert_divdiff(w), dominated_sum(rothe(w.values))
    assert s != d
    # the diagram sum dominates coefficientwise and strictly somewhere
    assert (d - s).is_nonnegative()[0]
    assert evaluate_all_ones(d) > evaluate_all_ones(s)


def test_coefficient_by_counting():
    w = Permutation.from_string("2143")
    assert coefficient_by_counting(w, Monomial({1: 2})) == 1
    assert coefficient_by_counting(w, Monomial.of(1, 3)) == 1
    assert coefficient_by_counting(w, Monomial.of(2, 3)) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_schubert_coefficients_nonnegative_and_homogeneous(n):
    for w in all_permutations(n):
        p = schubert_divdiff(w)
        assert p.is_nonnegative()[0]
        assert {m.degree() for m in p.support()} == {w.inversions()}


def test_reduced_words_examples():
    assert set(reduced_words(Permutation.from_string("321"))) == {(1, 2, 1), (2, 1, 2)}
    assert list(reduced_words(Permutation.from_string("123"))) == [()]
    assert set(reduced_words(Permutation.from_string("1342"))) == {(2, 3)}


@pytest.mark.parametrize("n", range(1, 6))
def test_macdonald_oracle_matches_specialization(n):
    for w in all_permutations(n):
        assert macdonald_oracle(w) == principal_specialization(w.values)


@pytest.mark.parametrize("n", range(1, 7))
def test_transition_specialization_matches_divdiff(n):
    # The divided-difference polynomial shares no code with the recursion.
    for w in all_permutations(n):
        assert principal_specialization(w.values) == evaluate_all_ones(schubert_divdiff(w))


def test_specialization_of_plain_tuples_ignores_trailing_fixed_points():
    assert principal_specialization(()) == 1
    assert principal_specialization((1, 2, 3)) == 1
    assert principal_specialization((2, 1, 3, 4)) == principal_specialization((2, 1)) == 1
    w = Permutation.from_string("14325")
    assert principal_specialization(w.values) == principal_specialization((1, 4, 3, 2)) == 5


def test_macdonald_length_guard():
    with pytest.raises(LengthGuardError):
        macdonald_oracle(Permutation.from_string("654321"), max_length=12)


@pytest.mark.parametrize("n", range(1, 7))
def test_specialization_lower_bound(n):
    # S_w(1,...,1) >= 1 + (# of 132 patterns) + (# of 1432 patterns)
    p132 = Permutation.from_string("132")
    p1432 = Permutation.from_string("1432")
    for w in all_permutations(n):
        bound = 1 + pattern_count(p132, w) + pattern_count(p1432, w)
        assert principal_specialization(w.values) >= bound


@given(st.integers(1, 5).flatmap(perms), st.integers(1, 7))
def test_schubert_stable_under_embedding(w, pad):
    embedded = Permutation(w.values + tuple(range(w.n + 1, w.n + pad % 3 + 1)))
    assert schubert_divdiff(embedded) == schubert_divdiff(w)
    assert schubert_polynomial(embedded.values) == schubert_polynomial(w.values)


def test_degree_equals_diagram_size():
    for w in all_permutations(5):
        assert schubert_divdiff(w).degree() == len(rothe(w.values))
