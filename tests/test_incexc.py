import random

import pytest

import schubpat
from schubpat import incexc
from schubpat.diagrams import Diagram, rothe, row_monomial
from schubpat.errors import PatternViolationError
from schubpat.incexc import (
    alternating_polynomials,
    alternating_specializations,
    cw_augmentation,
    cw_inclusion_exclusion,
    pattern_coefficients,
    single_step_monomial,
    verify_single_step,
)
from schubpat.oracles import (
    all_subwords,
    alternating_sum,
    alternating_sums,
    bv_count,
    cw_recursive,
    dominates,
    enumerate_dominated,
    evaluate_all_ones,
    flatten,
    m_monomial,
    removed_boxes,
    restrict_remove,
    restricted_diagram_count,
    substituted_schubert,
    subword_patterns,
    superset_sums,
)
from schubpat.permwords import Permutation, Word, all_permutations, avoids
from schubpat.polyx import Monomial, Polynomial, x
from schubpat.schubert import principal_specialization, schubert_polynomial, schubert_skipping


def test_m_monomial_examples():
    w = Permutation.from_string("2143")
    # D(2143) = {(1,1), (3,3)}; restricting to v = 43 keeps (3,3) only
    assert m_monomial(w, Word.of(4, 3)) == Monomial.of(1)
    assert m_monomial(w, w.word()) == Monomial()
    assert m_monomial(w, Word()) == Monomial.of(1, 3)
    w = Permutation.from_string("1342")
    assert m_monomial(w, Word.of(4, 2)) == Monomial.of(2)


def test_substituted_schubert_examples():
    w = Permutation.from_string("2143")
    # perm(43) = 21, S_21 = x_1, substituted at index w^{-1}(4) = 3
    assert substituted_schubert(w, Word.of(4, 3)) == x(3)
    assert substituted_schubert(w, Word.of(1, 4, 3)) == x(2) + x(3)
    assert substituted_schubert(w, w.word()) == (
        x(1) * x(1) + x(1) * x(2) + x(1) * x(3)
    )
    assert substituted_schubert(w, Word()) == Polynomial.constant(1)


def test_alternating_sum_worked_examples():
    # w = 2143, u = 43 collapses to zero
    r = alternating_sum(Permutation.from_string("2143"), Word.of(4, 3))
    assert r.total == Polynomial.zero()
    assert len(r.per_term) == 4
    # w = 1342, u = 42 leaves the single monomial x_1 x_3
    r = alternating_sum(Permutation.from_string("1342"), Word.of(4, 2))
    assert r.total == x(1) * x(3)
    # u = word(w) is the Schubert polynomial itself
    w = Permutation.from_string("1342")
    r = alternating_sum(w, w.word())
    assert r.total == x(1) * x(2) + x(1) * x(3) + x(2) * x(3)


def test_alternating_sum_term_count():
    w = Permutation.from_string("21534")
    u = Word.of(5, 3)
    r = alternating_sum(w, u)
    assert len(r.per_term) == 2 ** (len(w) - len(u))
    assert sum(t.sign for t in r.per_term) in range(-8, 9)


@pytest.mark.parametrize("n", range(2, 6))
def test_alternating_sum_nonnegative_for_avoiders(n):
    rng = random.Random(5)
    ws = [w for w in all_permutations(n) if avoids(w.values)]
    for w in ws:
        subs = all_subwords(w)
        picks = subs if len(subs) <= 8 else rng.sample(subs, 8)
        for u in picks:
            ok, witness = alternating_sum(w, u).total.is_nonnegative()
            assert ok, (str(w), str(u), witness)


def test_alternating_sum_can_go_negative_without_avoidance():
    found = False
    for w in all_permutations(4):
        if avoids(w.values):
            continue
        for u in all_subwords(w):
            if not alternating_sum(w, u).total.is_nonnegative()[0]:
                found = True
                break
        if found:
            break
    assert found


@pytest.mark.parametrize("n", range(2, 6))
def test_alternating_sum_homogeneous_terms(n):
    # every summand M_{w,v} * S_{perm(v)} has total degree |D(w)|
    rng = random.Random(9)
    pool = list(all_permutations(n))
    ws = rng.sample(pool, min(10, len(pool)))
    for w in ws:
        target = w.inversions()
        r = alternating_sum(w, Word())
        for t in r.per_term:
            product = t.schubert * Polynomial.from_monomial(t.monomial)
            if product:
                assert {m.degree() for m in product.support()} == {target}


def _subword_at(w: Permutation, mask: int) -> Word:
    return Word(tuple(a for i, a in enumerate(w.values) if mask >> i & 1))


@pytest.mark.parametrize("n", range(0, 6))
def test_alternating_sums_match_the_oracle_exhaustively(n):
    # Every w, avoider or not, and every u: the mask table against the Word route.
    for w in all_permutations(n):
        sums = alternating_sums(w.values)
        assert len(sums) == 2**n
        for mask, total in enumerate(sums):
            assert total == alternating_sum(w, _subword_at(w, mask)).total


@pytest.mark.parametrize("n", range(0, 7))
def test_alternating_sums_at_ones_match_the_integer_transform(n):
    # At x = 1 both polynomial tables are the conj5.1 table, reached by integers only.
    for w in all_permutations(n):
        ones = [evaluate_all_ones(p) for p in alternating_sums(w.values)]
        assert ones == alternating_specializations(w.values)
        assert [evaluate_all_ones(p) for p in alternating_polynomials(w.values)] == ones


@pytest.mark.parametrize("n", range(0, 7))
def test_deletion_polynomial_tables_match_the_per_mask_route(n):
    # Every w, avoider or not: the production table against the per-mask oracle.
    for w in all_permutations(n):
        assert alternating_polynomials(w.values) == alternating_sums(w.values), w


@pytest.mark.parametrize("n", range(1, 6))
def test_row_without_one_position_is_the_single_step_difference(n):
    # Row full - 2^i is thm1.0's S_w - M * S_pi(skip x_{i+1}) at k = i + 1.
    for w in all_permutations(n):
        table = alternating_polynomials(w.values)
        for i in range(n):
            k = i + 1
            expected = schubert_polynomial(w.values) - (
                schubert_skipping(w.values, k) * single_step_monomial(w.values, k)
            )
            assert table[-1 - (1 << i)] == expected, (w, k)


def per_mask_alternating(values):
    """The table by one lookup per mask: superset sums of the signed S_{perm(v)}(1)."""
    n = len(values)
    return superset_sums([
        principal_specialization(p) * (-1) ** (n - len(p)) for p in subword_patterns(values)
    ])


@pytest.mark.parametrize("n", range(0, 7))
def test_deletion_tables_match_the_per_mask_route(n):
    for w in all_permutations(n):
        g = alternating_specializations(w.values)
        assert g == per_mask_alternating(w.values)
        assert cw_inclusion_exclusion(w.values) == g[0]
        assert pattern_coefficients(w.values) == [
            per_mask_alternating(p)[0] for p in subword_patterns(w.values)
        ]


@pytest.mark.parametrize("n", range(0, 7))
def test_pattern_coefficients_match_the_recursion(n):
    for w in all_permutations(n):
        for mask, c in enumerate(pattern_coefficients(w.values)):
            assert c == cw_recursive(flatten(_subword_at(w, mask))), (w, mask)


@pytest.mark.parametrize("n", range(0, 5))
def test_superset_sums_by_brute_force(n):
    rng = random.Random(n)
    g = [rng.randrange(-9, 10) for _ in range(1 << n)]
    expected = [sum(g[v] for v in range(1 << n) if v & u == u) for u in range(1 << n)]
    assert superset_sums(list(g)) == expected


def test_cw_examples():
    assert cw_inclusion_exclusion((1, 3, 4, 2)) == 0
    assert cw_inclusion_exclusion((1, 2, 4, 5, 3)) == 1
    assert cw_inclusion_exclusion((1, 3, 2)) == 1
    assert cw_inclusion_exclusion((1, 2, 3)) == 0
    assert cw_inclusion_exclusion((1, 4, 3, 2)) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_cw_methods_agree(n):
    for w in all_permutations(n):
        ie = cw_inclusion_exclusion(w.values)
        assert cw_recursive(w) == ie
        if avoids(w.values):
            assert cw_augmentation(w.values) == ie
            assert ie >= 0


@pytest.mark.parametrize("n", range(0, 6))
def test_subword_patterns_flatten_the_subwords_in_mask_order(n):
    # The integer kernel against the Word-level subwords and flatten.
    for w in all_permutations(n):
        patterns = subword_patterns(w.values)
        assert len(patterns) == 2**n
        for mask, p in enumerate(patterns):
            v = Word(tuple(w(i + 1) for i in range(n) if mask >> i & 1))
            assert p == flatten(v).values


def test_alternating_specializations_examples():
    assert alternating_specializations(()) == [1]
    # masks of 21: (), 2, 1, 21; g[u] sums (-1)^(2 - |v|) S_v(1) over v >= u
    assert alternating_specializations((2, 1)) == [0, 0, 0, 1]
    assert pattern_coefficients((2, 1)) == [1, 0, 0, 0]
    g = alternating_specializations((1, 4, 3, 2))
    assert g[0] == cw_inclusion_exclusion((1, 4, 3, 2)) == 1
    assert sum(pattern_coefficients((1, 4, 3, 2))) == principal_specialization((1, 4, 3, 2)) == 5


def test_clear_caches_reaches_the_deletion_memos():
    assert pattern_coefficients((1, 4, 3, 2))[-1] == 1
    assert alternating_polynomials((1, 4, 3, 2))[-1] == schubert_polynomial((1, 4, 3, 2))
    memos = (incexc._alternating, incexc._coefficients, incexc._polynomials)
    assert all(memo.cache_info().currsize for memo in memos)
    schubpat.clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_cw_augmentation_requires_avoidance():
    with pytest.raises(PatternViolationError):
        cw_augmentation((1, 4, 3, 2))


def test_cw_vanishes_with_fixed_last_point():
    for w in all_permutations(4):
        embedded = Permutation(w.values + (5,))
        assert cw_inclusion_exclusion(embedded.values) == 0
        assert cw_recursive(embedded) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_cw_sums_to_specialization(n):
    for w in all_permutations(n):
        total = sum(
            cw_inclusion_exclusion(flatten(v).values) if len(v) else 1
            for v in all_subwords(w)
        )
        assert total == principal_specialization(w.values)


def is_augmentation(C: Diagram, D: Diagram, k: int, l: int) -> bool:
    """The definition: C has D's boxes in row k and column l, and the rest of C <= the rest of D."""
    return removed_boxes(C, k, l) == removed_boxes(D, k, l) and dominates(
        restrict_remove(C, k, l), restrict_remove(D, k, l)
    )


def non_augmentations(w: Permutation) -> list[Diagram]:
    """The C <= D(w) that are augmentations for no removed pair (k, w_k), over whole diagrams."""
    D = rothe(w.values)
    return [
        C
        for C in enumerate_dominated(D)
        if not any(is_augmentation(C, D, k, w(k)) for k in range(1, w.n + 1))
    ]


def test_is_augmentation_examples():
    w = Permutation.from_string("12453")
    D = rothe(w.values)  # {(3,3), (4,3)}
    # the seed for (k, l) = (5, 3) is the whole of D
    assert is_augmentation(D, D, 5, 3)
    C = Diagram.of(5, [(1, 3), (2, 3)])
    assert not any(is_augmentation(C, D, k, w(k)) for k in range(1, 6))
    assert is_augmentation(Diagram.of(5, [(3, 3), (1, 3)]), D, 2, 2)


def test_cw_augmentation_census():
    # 6 diagrams dominated by D(12453), exactly one is never an augmentation
    w = Permutation.from_string("12453")
    assert non_augmentations(w) == [Diagram.of(5, [(1, 3), (2, 3)])]
    assert cw_augmentation(w.values) == 1


@pytest.mark.parametrize("n", range(0, 7))
def test_cw_augmentation_counts_the_definition(n):
    # The column-by-column count against whole diagrams, on every avoider of S_n.
    for w in all_permutations(n):
        if avoids(w.values):
            assert cw_augmentation(w.values) == len(non_augmentations(w)), w


@pytest.mark.parametrize("n", range(6, 8))
def test_cw_augmentation_equals_inclusion_exclusion(n):
    # n <= 5 is in test_cw_methods_agree.
    for w in all_permutations(n):
        if avoids(w.values):
            assert cw_augmentation(w.values) == cw_inclusion_exclusion(w.values), w


def test_restricted_diagram_count_matches_coefficient():
    rng = random.Random(3)
    ws = [w for w in all_permutations(4) if avoids(w.values)]
    for w in ws:
        for v in all_subwords(w):
            if not len(v):
                continue
            s = substituted_schubert(w, v)
            mons = list(s.support())
            for m in rng.sample(mons, min(3, len(mons))):
                assert restricted_diagram_count(w, v, m) == s.coefficient(m)


def test_bv_count_matches_alternating_sum_coefficient():
    rng = random.Random(13)
    for w in [p for p in all_permutations(4) if avoids(p.values)]:
        subs = all_subwords(w)
        for u in rng.sample(subs, min(4, len(subs))):
            total = alternating_sum(w, u).total
            for m in total.support():
                assert bv_count(w, u, m) == total.coefficient(m)
            absent = Monomial({w.n: w.n})
            assert bv_count(w, u, absent) == 0 == total.coefficient(absent)


@pytest.mark.parametrize("n", range(1, 8))
def test_single_step_monomial_is_the_seed_monomial(n):
    for sigma in all_permutations(n):
        D = rothe(sigma.values)
        for k in range(1, n + 1):
            seed = removed_boxes(D, k, sigma(k))
            assert single_step_monomial(sigma.values, k) == row_monomial(seed)


def test_single_step_monomial():
    sigma = Permutation.from_string("2143")
    assert single_step_monomial(sigma.values, 1) == Monomial.of(1)
    assert single_step_monomial(sigma.values, 3) == Monomial.of(3)
    # (1,1) sits in column sigma(2) = 1
    assert single_step_monomial(sigma.values, 2) == Monomial.of(1)
    assert single_step_monomial((1, 2, 3), 2) == Monomial()


@pytest.mark.parametrize("n", range(2, 6))
def test_verify_single_step(n):
    for w in all_permutations(n):
        for k in range(1, n + 1):
            ok, diff = verify_single_step(w.values, k)
            assert ok, (str(w), k, diff)
