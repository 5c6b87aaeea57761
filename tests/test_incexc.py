import itertools
import random

import pytest

import schubpat
from schubpat import incexc
from schubpat.diagrams import Diagram, rothe
from schubpat.errors import PatternViolationError
from schubpat.incexc import (
    alternating_polynomials,
    alternating_specializations,
    chain_sums,
    cw_augmentation,
    cw_inclusion_exclusion,
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
    inverse,
    m_monomial,
    removed_boxes,
    restrict_remove,
    restricted_diagram_count,
    row_monomial,
    substituted_schubert,
    subword_patterns,
    superset_sums,
)
from schubpat.permwords import avoids
from schubpat.polyx import _canonical, add, first_negative, monomial_key, mul, sub, unpack, x
from schubpat.schubert import principal_specialization, schubert_polynomial, schubert_skipping


def test_m_monomial_examples():
    w = (2, 1, 4, 3)
    # D(2143) = {(1,1), (3,3)}; restricting to v = 43 keeps (3,3) only
    assert m_monomial(w, (4, 3)) == monomial_key([1])
    assert m_monomial(w, w) == 0
    assert m_monomial(w, ()) == monomial_key([1, 3])
    w = (1, 3, 4, 2)
    assert m_monomial(w, (4, 2)) == monomial_key([2])


def test_substituted_schubert_examples():
    w = (2, 1, 4, 3)
    # perm(43) = 21, S_21 = x_1, substituted at index w^{-1}(4) = 3
    assert substituted_schubert(w, (4, 3)) == x(3)
    assert substituted_schubert(w, (1, 4, 3)) == add(x(2), x(3))
    assert substituted_schubert(w, w) == (
        add(add(mul(x(1), x(1)), mul(x(1), x(2))), mul(x(1), x(3)))
    )
    assert substituted_schubert(w, ()) == {0: 1}


def test_alternating_sum_worked_examples():
    # w = 2143, u = 43 collapses to zero
    r = alternating_sum((2, 1, 4, 3), (4, 3))
    assert r.total == {}
    assert len(r.per_term) == 4
    # w = 1342, u = 42 leaves the single monomial x_1 x_3
    r = alternating_sum((1, 3, 4, 2), (4, 2))
    assert r.total == mul(x(1), x(3))
    # u = word(w) is the Schubert polynomial itself
    w = (1, 3, 4, 2)
    r = alternating_sum(w, w)
    assert r.total == add(add(mul(x(1), x(2)), mul(x(1), x(3))), mul(x(2), x(3)))


def test_alternating_sum_term_count():
    w = (2, 1, 5, 3, 4)
    u = (5, 3)
    r = alternating_sum(w, u)
    assert len(r.per_term) == 2 ** (len(w) - len(u))
    assert sum(t.sign for t in r.per_term) in range(-8, 9)


@pytest.mark.parametrize("n", range(2, 6))
def test_alternating_sum_nonnegative_for_avoiders(n):
    rng = random.Random(5)
    ws = [w for w in itertools.permutations(range(1, n + 1)) if avoids(w)]
    for w in ws:
        subs = all_subwords(w)
        picks = subs if len(subs) <= 8 else rng.sample(subs, 8)
        for u in picks:
            witness = first_negative(alternating_sum(w, u).total)
            assert witness is None, (w, u, witness)


def test_alternating_sum_can_go_negative_without_avoidance():
    found = False
    for w in itertools.permutations(range(1, 5)):
        if avoids(w):
            continue
        for u in all_subwords(w):
            if first_negative(alternating_sum(w, u).total):
                found = True
                break
        if found:
            break
    assert found


@pytest.mark.parametrize("n", range(2, 6))
def test_alternating_sum_homogeneous_terms(n):
    # every summand M_{w,v} * S_{perm(v)} has total degree |D(w)|
    rng = random.Random(9)
    pool = list(itertools.permutations(range(1, n + 1)))
    ws = rng.sample(pool, min(10, len(pool)))
    for w in ws:
        target = sum(a > b for a, b in itertools.combinations(w, 2))
        r = alternating_sum(w, ())
        for t in r.per_term:
            product = mul(t.schubert, {t.monomial: 1})
            if product:
                assert {sum(unpack(key)) for key in product} == {target}


def _subword_at(w: tuple[int, ...], mask: int) -> tuple[int, ...]:
    return tuple(a for i, a in enumerate(w) if mask >> i & 1)


@pytest.mark.parametrize("n", range(0, 6))
def test_alternating_sums_match_the_oracle_exhaustively(n):
    # Every w, avoider or not, and every u: the mask table against the term-by-term route.
    for w in itertools.permutations(range(1, n + 1)):
        sums = alternating_sums(w)
        assert len(sums) == 2**n
        for mask, total in enumerate(sums):
            assert total == alternating_sum(w, _subword_at(w, mask)).total


@pytest.mark.parametrize("n", range(0, 7))
def test_alternating_sums_at_ones_match_the_integer_transform(n):
    # At x = 1 both polynomial tables are the conj5.1 table, reached by integers only.
    for w in itertools.permutations(range(1, n + 1)):
        ones = [evaluate_all_ones(p) for p in alternating_sums(w)]
        assert ones == alternating_specializations(w)
        assert [evaluate_all_ones(p) for p in alternating_polynomials(w)] == ones


@pytest.mark.parametrize("n", range(0, 7))
def test_deletion_polynomial_tables_match_the_per_mask_route(n):
    # Every w, avoider or not: the production table against the per-mask oracle.
    for w in itertools.permutations(range(1, n + 1)):
        assert alternating_polynomials(w) == alternating_sums(w), w


@pytest.mark.parametrize("n", range(1, 6))
def test_row_without_one_position_is_the_single_step_difference(n):
    # Row full - 2^i is thm1.0's S_w - M * S_pi(skip x_{i+1}) at k = i + 1.
    for w in itertools.permutations(range(1, n + 1)):
        table = alternating_polynomials(w)
        for i in range(n):
            k = i + 1
            m = single_step_monomial(w, k)
            expected = sub(schubert_polynomial(w), mul(schubert_skipping(w, k), {m: 1}))
            assert table[-1 - (1 << i)] == expected, (w, k)


def _constant(c: int) -> dict[int, int]:
    return {0: c} if c else {}


def per_mask_alternating(values):
    """The table by one lookup per mask: superset sums of the signed S_{perm(v)}(1)."""
    n = len(values)
    terms = [
        _constant(principal_specialization(p) * (-1) ** (n - len(p))) for p in subword_patterns(values)
    ]
    return [evaluate_all_ones(p) for p in superset_sums(terms)]


def _keeping_first(j: int, n: int) -> list[int]:
    """The masks of S_n that keep positions 1..j."""
    low = (1 << j) - 1
    return [mask for mask in range(1 << n) if mask & low == low]


@pytest.mark.parametrize("n", range(0, 7))
def test_deletion_tables_match_the_per_mask_route(n):
    for w in itertools.permutations(range(1, n + 1)):
        g = alternating_specializations(w)
        oracle = per_mask_alternating(w)
        assert g == oracle
        assert cw_inclusion_exclusion(w) == g[0]
        # The chains against the per-mask route, which shares no code with them.
        h, s = chain_sums(w)
        c = [per_mask_alternating(p)[0] for p in subword_patterns(w)]
        assert h == [oracle[(1 << j) - 1] for j in range(n + 1)], w
        assert s == [sum(c[mask] for mask in _keeping_first(j, n)) for j in range(n + 1)], w


def _inverse_masks(w: tuple[int, ...]) -> list[int]:
    """For each mask Q of w^{-1}, the mask P of the positions of w that hold the values in Q.

    Position j of w^{-1} is value j + 1 of w, so bit j of Q is the bit of
    that value's position in w.
    """
    where = inverse(w)
    masks = [0] * (1 << len(w))
    for q in range(1, 1 << len(w)):
        low = (q & -q).bit_length() - 1
        masks[q] = masks[q & (q - 1)] | 1 << (where[low] - 1)
    return masks


def _reindexes(tables: dict, n: int) -> None:
    """Entry Q of the table of w^{-1} is entry P of w's, for every w of S_n."""
    for w in itertools.permutations(range(1, n + 1)):
        table, inverse_table = tables[w], tables[inverse(w)]
        assert inverse_table == [table[p] for p in _inverse_masks(w)], w


@pytest.mark.parametrize("build", [alternating_specializations])
def test_x1_tables_of_the_inverse_are_reindexed(build):
    # Why conj5.1 shares a verdict between w and w^{-1}: min, the full mask
    # S_w(1), and c_w at the empty mask all carry over.
    for n in range(0, 8):
        _reindexes({w: build(w) for w in itertools.permutations(range(1, n + 1))}, n)


def test_c_and_its_subword_sum_are_those_of_the_inverse():
    # Why identity shares a verdict between w and w^{-1}: the patterns of
    # w^{-1} are the inverses of w's, so c_{u^{-1}} = c_u on S_<=7 carries
    # the sum over every subword over with it.
    for n in range(0, 8):
        for w in itertools.permutations(range(1, n + 1)):
            (h, s), (h_inv, s_inv) = chain_sums(w), chain_sums(inverse(w))
            assert (h_inv[0], h_inv[-1], s_inv[0]) == (h[0], h[-1], s[0]), w


@pytest.mark.parametrize("n", range(0, 6))
def test_the_oracle_tables_at_ones_reindex_under_the_inverse(n):
    # The same rule on the per-mask route, which shares no table code with production.
    ones = {
        w: [evaluate_all_ones(p) for p in alternating_sums(w)]
        for w in itertools.permutations(range(1, n + 1))
    }
    _reindexes(ones, n)


@pytest.mark.parametrize("n", range(0, 7))
def test_pattern_coefficients_match_the_recursion(n):
    # The chains against c of every pattern by the recursion.  Every pattern
    # of S_<=6 is itself a w of S_<=6, so its own c is checked here too.
    for w in itertools.permutations(range(1, n + 1)):
        c = [cw_recursive(flatten(_subword_at(w, mask))) for mask in range(1 << n)]
        h, s = chain_sums(w)
        assert h[0] == c[-1], w
        assert s == [sum(c[mask] for mask in _keeping_first(j, n)) for j in range(n + 1)], w


@pytest.mark.parametrize("n", range(0, 5))
def test_superset_sums_by_brute_force(n):
    rng = random.Random(n)
    g = [rng.randrange(-9, 10) for _ in range(1 << n)]
    expected = [sum(g[v] for v in range(1 << n) if v & u == u) for u in range(1 << n)]
    assert superset_sums(list(map(_constant, g))) == list(map(_constant, expected))


def test_cw_examples():
    assert cw_inclusion_exclusion((1, 3, 4, 2)) == 0
    assert cw_inclusion_exclusion((1, 2, 4, 5, 3)) == 1
    assert cw_inclusion_exclusion((1, 3, 2)) == 1
    assert cw_inclusion_exclusion((1, 2, 3)) == 0
    assert cw_inclusion_exclusion((1, 4, 3, 2)) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_cw_methods_agree(n):
    for w in itertools.permutations(range(1, n + 1)):
        ie = cw_inclusion_exclusion(w)
        assert cw_recursive(w) == ie
        if avoids(w):
            assert cw_augmentation(w) == ie
            assert ie >= 0


@pytest.mark.parametrize("n", range(0, 6))
def test_subword_patterns_flatten_the_subwords_in_mask_order(n):
    # The integer kernel against the subwords themselves and flatten.
    for w in itertools.permutations(range(1, n + 1)):
        patterns = subword_patterns(w)
        assert len(patterns) == 2**n
        for mask, p in enumerate(patterns):
            v = tuple(w[i] for i in range(n) if mask >> i & 1)
            assert p == flatten(v)


def test_alternating_specializations_examples():
    assert alternating_specializations(()) == [1]
    # masks of 21: (), 2, 1, 21; g[u] sums (-1)^(2 - |v|) S_v(1) over v >= u
    assert alternating_specializations((2, 1)) == [0, 0, 0, 1]
    # c over the masks of 21 is [1, 0, 0, 0]: s sums it over the masks that keep 1..j.
    assert chain_sums((2, 1)) == ([0, 0, 1], [1, 0, 0])
    g = alternating_specializations((1, 4, 3, 2))
    assert g[0] == cw_inclusion_exclusion((1, 4, 3, 2)) == 1
    assert chain_sums((1, 4, 3, 2))[1][0] == principal_specialization((1, 4, 3, 2)) == 5


def test_clear_caches_reaches_the_deletion_memos():
    assert chain_sums((1, 4, 3, 2))[1][-1] == 1
    assert alternating_specializations((1, 4, 3, 2))[0] == 1
    assert alternating_polynomials((1, 4, 3, 2))[-1] == schubert_polynomial((1, 4, 3, 2))
    memos = (incexc._alternating, incexc._chain_sums, incexc._polynomials)
    assert all(memo.cache_info().currsize for memo in memos)
    schubpat.clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_cw_augmentation_requires_avoidance():
    with pytest.raises(PatternViolationError):
        cw_augmentation((1, 4, 3, 2))


def test_cw_vanishes_with_fixed_last_point():
    for w in itertools.permutations(range(1, 5)):
        embedded = w + (5,)
        assert cw_inclusion_exclusion(embedded) == 0
        assert cw_recursive(embedded) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_cw_sums_to_specialization(n):
    for w in itertools.permutations(range(1, n + 1)):
        total = sum(
            cw_inclusion_exclusion(flatten(v)) if len(v) else 1
            for v in all_subwords(w)
        )
        assert total == principal_specialization(w)


def is_augmentation(C: Diagram, D: Diagram, k: int, l: int) -> bool:
    """The definition: C has D's boxes in row k and column l, and the rest of C <= the rest of D."""
    return removed_boxes(C, k, l) == removed_boxes(D, k, l) and dominates(
        restrict_remove(C, k, l), restrict_remove(D, k, l)
    )


def non_augmentations(w: tuple[int, ...]) -> list[Diagram]:
    """The C <= D(w) that are augmentations for no removed pair (k, w_k), over whole diagrams."""
    D = rothe(w)
    return [
        C
        for C in enumerate_dominated(D)
        if not any(is_augmentation(C, D, k, w[k - 1]) for k in range(1, len(w) + 1))
    ]


def test_is_augmentation_examples():
    w = (1, 2, 4, 5, 3)
    D = rothe(w)  # {(3,3), (4,3)}
    # the seed for (k, l) = (5, 3) is the whole of D
    assert is_augmentation(D, D, 5, 3)
    C = Diagram.of(5, [(1, 3), (2, 3)])
    assert not any(is_augmentation(C, D, k, w[k - 1]) for k in range(1, 6))
    assert is_augmentation(Diagram.of(5, [(3, 3), (1, 3)]), D, 2, 2)


def test_cw_augmentation_census():
    # 6 diagrams dominated by D(12453), exactly one is never an augmentation
    w = (1, 2, 4, 5, 3)
    assert non_augmentations(w) == [Diagram.of(5, [(1, 3), (2, 3)])]
    assert cw_augmentation(w) == 1


@pytest.mark.parametrize("n", range(0, 7))
def test_cw_augmentation_counts_the_definition(n):
    # The column-by-column count against whole diagrams, on every avoider of S_n.
    for w in itertools.permutations(range(1, n + 1)):
        if avoids(w):
            assert cw_augmentation(w) == len(non_augmentations(w)), w


@pytest.mark.parametrize("n", range(6, 8))
def test_cw_augmentation_equals_inclusion_exclusion(n):
    # n <= 5 is in test_cw_methods_agree.
    for w in itertools.permutations(range(1, n + 1)):
        if avoids(w):
            assert cw_augmentation(w) == cw_inclusion_exclusion(w), w


def test_restricted_diagram_count_matches_coefficient():
    rng = random.Random(3)
    ws = [w for w in itertools.permutations(range(1, 5)) if avoids(w)]
    for w in ws:
        for v in all_subwords(w):
            if not len(v):
                continue
            s = substituted_schubert(w, v)
            mons = _canonical(s)
            for m in rng.sample(mons, min(3, len(mons))):
                assert restricted_diagram_count(w, v, m) == s[m]


def test_bv_count_matches_alternating_sum_coefficient():
    rng = random.Random(13)
    for w in [p for p in itertools.permutations(range(1, 5)) if avoids(p)]:
        subs = all_subwords(w)
        for u in rng.sample(subs, min(4, len(subs))):
            total = alternating_sum(w, u).total
            for m in _canonical(total):
                assert bv_count(w, u, m) == total[m]
            absent = monomial_key([len(w)] * len(w))
            assert bv_count(w, u, absent) == 0 and absent not in total


@pytest.mark.parametrize("n", range(1, 8))
def test_single_step_monomial_is_the_seed_monomial(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        D = rothe(sigma)
        for k in range(1, n + 1):
            seed = removed_boxes(D, k, sigma[k - 1])
            assert single_step_monomial(sigma, k) == row_monomial(seed)


def test_single_step_monomial():
    sigma = (2, 1, 4, 3)
    assert single_step_monomial(sigma, 1) == monomial_key([1])
    assert single_step_monomial(sigma, 3) == monomial_key([3])
    # (1,1) sits in column sigma(2) = 1
    assert single_step_monomial(sigma, 2) == monomial_key([1])
    assert single_step_monomial((1, 2, 3), 2) == 0


@pytest.mark.parametrize("n", range(2, 6))
def test_verify_single_step(n):
    for w in itertools.permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            assert verify_single_step(w, k), (w, k)
