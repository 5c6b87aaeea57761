import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from schubpat import weylchar
from schubpat.diagrams import dominated_sum, rothe
from schubpat.incexc import alternating_polynomials
from schubpat.oracles import UnmappedVariableError, evaluate_all_ones, substitute_variables
from schubpat.polyx import (
    W,
    _canonical,
    add,
    dumps,
    exponent_key,
    first_negative,
    key_quotient,
    monomial_key,
    monomial_text,
    mul,
    nonnegative_after_subtracting,
    pair_index,
    polynomial_text,
    skip_variable,
    sub,
    to_json,
    unpack,
    x,
)
from schubpat.schubert import schubert_polynomial, schubert_skipping


def key_strategy(max_vars=5, max_exp=3):
    return st.lists(st.integers(0, max_exp), max_size=max_vars).map(exponent_key)


def poly_strategy(max_vars=4, max_exp=3, max_terms=5, max_coef=9, min_coef=None):
    low = -max_coef if min_coef is None else min_coef
    coef = st.integers(low, max_coef).filter(bool)
    return st.dictionaries(key_strategy(max_vars, max_exp), coef, max_size=max_terms)


def test_add_sub_mul_examples():
    assert sub(add(x(1), x(2)), x(2)) == x(1)
    assert mul(add(x(1), x(3)), x(2)) == add(mul(x(1), x(2)), mul(x(2), x(3)))
    # the four-term cancellation from the w = 1342, u = 42 expansion
    s1342 = add(add(mul(x(1), x(2)), mul(x(1), x(3))), mul(x(2), x(3)))
    total = add(sub(sub(s1342, mul(x(2), add(x(1), x(3)))), mul(x(2), x(3))), mul(x(2), x(3)))
    assert total == mul(x(1), x(3))
    # the operands are not changed
    p = x(1)
    add(p, p), sub(p, p), mul(p, p)
    assert p == x(1)


@settings(max_examples=250)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert add(p, q) == add(q, p)
    assert mul(p, q) == mul(q, p)
    assert add(add(p, q), r) == add(p, add(q, r))
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))


@settings(max_examples=100)
@given(poly_strategy(), poly_strategy())
def test_evaluate_all_ones_multiplicative(p, q):
    assert evaluate_all_ones(mul(p, q)) == evaluate_all_ones(p) * evaluate_all_ones(q)


@settings(max_examples=100)
@given(poly_strategy(max_vars=4))
def test_substitute_variables_round_trip(p):
    sigma = {1: 3, 2: 1, 3: 4, 4: 2}
    inverse = {v: k for k, v in sigma.items()}
    assert substitute_variables(substitute_variables(p, sigma), inverse) == p


def test_substitute_variables_examples():
    assert substitute_variables(x(1), {1: 3}) == x(3)
    s132 = add(x(1), x(2))
    assert substitute_variables(s132, {1: 1, 2: 3}) == add(x(1), x(3))


def test_substitute_variables_requires_full_map():
    with pytest.raises(UnmappedVariableError):
        substitute_variables(add(x(1), x(2)), {1: 5})


def test_evaluate_examples():
    s2143 = add(add(mul(x(1), x(1)), mul(x(1), x(2))), mul(x(1), x(3)))
    assert evaluate_all_ones(s2143) == 3
    assert evaluate_all_ones({0: 1}) == 1


def test_is_nonnegative():
    assert first_negative({}) is None
    assert first_negative(mul(x(1), x(3))) is None
    assert first_negative(sub(x(1), x(2))) == (exponent_key([0, 1]), -1)


@given(poly_strategy())
def test_is_nonnegative_witness_is_the_first_negative_term(p):
    negative = [(key, p[key]) for key in _canonical(p) if p[key] < 0]
    assert first_negative(p) == (negative[0] if negative else None)


def test_coefficient():
    s2143 = add(add(mul(x(1), x(1)), mul(x(1), x(2))), mul(x(1), x(3)))
    assert s2143.get(monomial_key([1, 1]), 0) == 1
    assert s2143.get(monomial_key([2, 3]), 0) == 0


@settings(max_examples=100)
@given(poly_strategy())
def test_serialization_round_trip(p):
    blob = dumps(p, 4)
    terms = json.loads(blob)["terms"]
    assert {exponent_key(t["exp"]): int(t["coef"]) for t in terms} == p
    # canonical order makes serialization deterministic: the dict's insertion order is not read
    assert dumps(dict(reversed(p.items())), 4) == blob


def test_json_shape():
    p = {exponent_key([1, 0, 1]): 2, exponent_key([0, 1]): -1}
    data = to_json(p, 3)
    assert data["vars"] == 3
    assert {"exp": [0, 1, 0], "coef": "-1"} in data["terms"]
    assert {"exp": [1, 0, 1], "coef": "2"} in data["terms"]
    assert all(isinstance(t["coef"], str) for t in data["terms"])


def test_canonical_term_order():
    p = add(add(add(mul(x(1), x(2)), mul(x(1), x(1))), x(2)), mul(x(1), x(3)))
    assert [monomial_text(m) for m in _canonical(p)] == ["x2", "x1^2", "x1*x2", "x1*x3"]


def test_monomial_text_examples():
    assert monomial_text(0) == "1"
    assert monomial_text(exponent_key([1])) == "x1"
    assert monomial_text(exponent_key([2, 0, 1])) == "x1^2*x3"
    assert monomial_text(exponent_key([0] * 11 + [10])) == "x12^10"
    assert monomial_text(exponent_key([1] + [0] * 10 + [10])) == "x1*x12^10"
    p = {
        0: -3,
        exponent_key([1]): 1,
        exponent_key([0, 2]): -2,
        exponent_key([1, 0, 1]): 5,
        exponent_key([0] * 11 + [10]): -1,
    }
    assert polynomial_text(p) == "-3 + x1 + 5*x1*x3 - 2*x2^2 - x12^10"
    assert polynomial_text({0: 4, exponent_key([0, 1]): -1}) == "4 - x2"
    assert polynomial_text({}) == "0"


def test_pair_index_round_trip():
    # the pairs with j <= 7 take the indices 1..28, each once, in order of j then i
    pairs = [(i, j) for j in range(1, 8) for i in range(1, j + 1)]
    assert [pair_index(i, j) for i, j in pairs] == list(range(1, len(pairs) + 1))


# -- exponent keys ---------------------------------------------------------

def _canonical_keys(p):
    # Every digit of a key is an exponent below its guard bit, so the key packs its own exponents.
    return all(exponent_key(unpack(key)) == key for key in p)


def _same(p, q):
    return p == q and _canonical_keys(p) and _canonical_keys(q)


@given(st.dictionaries(st.integers(1, 5), st.integers(0, 3), max_size=5))
def test_monomial_routes_give_one_key(exps):
    # zero exponents, repeated variables and either variable order all land on one key
    variables = [v for v, e in exps.items() for _ in range(e)]
    dense = [exps.get(v, 0) for v in range(1, 7)]
    key = exponent_key(dense)
    assert list(unpack(key)) == dense[: max((v for v in exps if exps[v]), default=0)]
    for route in (monomial_key(variables), monomial_key(reversed(variables))):
        assert route == key


@settings(max_examples=150)
@given(poly_strategy(max_vars=5), poly_strategy(max_vars=5))
def test_polynomial_routes_give_one_key(p, q):
    assert _same(sub(add(p, q), q), p)
    assert _same(sub(q, q), {})
    assert _same(sub(mul(p, q), mul(q, p)), {})
    assert _same(mul(p, {0: 1}), p)
    assert _same(add(mul(mul(p, x(6)), {0: -1}), mul(p, x(6))), {})
    shift = {v: v + 1 for v in range(1, 6)}
    back = {v + 1: v for v in range(1, 6)}
    assert _same(substitute_variables(substitute_variables(p, shift), back), p)


@given(poly_strategy(max_vars=5))
def test_terms_order_is_the_old_order_on_variable_exponent_pairs(p):
    def old_key(key):
        exps = unpack(key)
        return sum(exps), tuple((v, -e) for v, e in enumerate(exps, start=1) if e)

    assert _canonical(p) == sorted(p, key=old_key)


@settings(max_examples=200)
@given(
    poly_strategy(max_vars=4, min_coef=1),
    poly_strategy(max_vars=4, min_coef=1),
    poly_strategy(max_vars=4),
    key_strategy(),
)
def test_lookup_subtraction_check_agrees_with_the_difference(p, q, t, key):
    m = {key: 1}
    # The check assumes S has no negative coefficient, as S_sigma and a dual
    # character have none; S = p + m * q puts some of them on m * q's support.
    s = add(p, mul(q, m))
    for other in (t, q, add(q, t), {}):
        difference = sub(s, mul(other, m))
        assert nonnegative_after_subtracting(s, key, other) == (first_negative(difference) is None)


# -- packed keys against exponent tuples ------------------------------------

TOP = (1 << (W - 1)) - 1  # the largest exponent a digit holds under its guard bit


def _trim(exps):
    exps = list(exps)
    while exps and not exps[-1]:
        exps.pop()
    return tuple(exps)


def _padded(a, b):
    size = max(len(a), len(b))
    return [list(e) + [0] * (size - len(e)) for e in (a, b)]


exponent_lists = st.lists(st.integers(0, TOP), max_size=6)


@given(exponent_lists)
def test_a_key_unpacks_to_its_exponents(exps):
    assert unpack(exponent_key(exps)) == _trim(exps)


@given(st.lists(st.integers(0, TOP // 2), max_size=6), st.lists(st.integers(0, TOP // 2), max_size=6))
def test_the_sum_of_keys_is_the_key_of_the_product(a, b):
    a, b = _padded(a, b)
    assert exponent_key(a) + exponent_key(b) == exponent_key([s + t for s, t in zip(a, b)])


@given(exponent_lists, exponent_lists)
def test_key_quotient_divides_exactly_when_every_exponent_allows(a, b):
    a, b = _padded(a, b)
    q = key_quotient(exponent_key(a), exponent_key(b))
    if all(s >= t for s, t in zip(a, b)):
        assert q == exponent_key([s - t for s, t in zip(a, b)])
    else:
        assert q is None


@given(exponent_lists, st.integers(1, 8))
def test_skip_variable_inserts_a_zero_exponent_at_k(exps, k):
    exps = _trim(exps)
    skipped = exps[: k - 1] + (0,) + exps[k - 1 :] if len(exps) >= k else exps
    assert unpack(skip_variable(exponent_key(exps), k)) == skipped


@pytest.mark.parametrize("exps", [[TOP + 1], [0, -1], [1, 0, 1 << W]])
def test_an_exponent_beyond_its_digit_is_refused(exps):
    with pytest.raises(ValueError):
        exponent_key(exps)


def test_key_quotient_refuses_a_variable_beyond_its_guards():
    beyond = 1 << W * (TOP + 1)  # x_(TOP + 2)
    assert key_quotient(beyond >> W, 0) == beyond >> W
    with pytest.raises(ValueError):
        key_quotient(beyond, 0)


def test_engine_routes_return_canonical_polynomials():
    # A polynomial is the dict a route builds, so every route must build
    # keys without trailing zeros and drop the terms that cancel.
    for n in range(6):
        for w in itertools.permutations(range(1, n + 1)):
            D = rothe(w)
            routes = [schubert_polynomial(w), dominated_sum(D), weylchar.chi(D)]
            routes += [schubert_skipping(w, k) for k in range(1, n + 1)]
            routes += alternating_polynomials(w)
            for p in routes:
                assert _canonical_keys(p) and all(p.values()), (w, p)
