from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from schubpat.oracles import UnmappedVariableError, evaluate_all_ones, substitute_variables
from schubpat.polyx import Monomial, Polynomial, pair_index, x


def poly_strategy(max_vars=4, max_exp=3, max_terms=5, max_coef=9, min_coef=None):
    mono = st.dictionaries(
        st.integers(1, max_vars), st.integers(1, max_exp), max_size=max_vars
    ).map(Monomial)
    low = -max_coef if min_coef is None else min_coef
    term = st.tuples(mono, st.integers(low, max_coef))
    return st.lists(term, max_size=max_terms).map(Polynomial)


def test_add_sub_mul_examples():
    assert x(1) + x(2) - x(2) == x(1)
    assert (x(1) + x(3)) * x(2) == x(1) * x(2) + x(2) * x(3)
    # the four-term cancellation from the w = 1342, u = 42 expansion
    s1342 = x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    total = s1342 - x(2) * (x(1) + x(3)) - x(2) * x(3) + x(2) * x(3)
    assert total == x(1) * x(3)


@settings(max_examples=250)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100)
@given(poly_strategy(), poly_strategy())
def test_evaluate_all_ones_multiplicative(p, q):
    assert evaluate_all_ones(p * q) == evaluate_all_ones(p) * evaluate_all_ones(q)


@settings(max_examples=100)
@given(poly_strategy(max_vars=4))
def test_substitute_variables_round_trip(p):
    sigma = {1: 3, 2: 1, 3: 4, 4: 2}
    inverse = {v: k for k, v in sigma.items()}
    assert substitute_variables(substitute_variables(p, sigma), inverse) == p


def test_substitute_variables_examples():
    assert substitute_variables(x(1), {1: 3}) == x(3)
    s132 = x(1) + x(2)
    assert substitute_variables(s132, {1: 1, 2: 3}) == x(1) + x(3)


def test_substitute_variables_requires_full_map():
    with pytest.raises(UnmappedVariableError):
        substitute_variables(x(1) + x(2), {1: 5})


def test_evaluate_examples():
    s2143 = x(1) * x(1) + x(1) * x(2) + x(1) * x(3)
    assert evaluate_all_ones(s2143) == 3
    assert evaluate_all_ones(Polynomial.constant(1)) == 1


def test_is_nonnegative():
    ok, witness = Polynomial.zero().is_nonnegative()
    assert ok and witness is None
    ok, _ = (x(1) * x(3)).is_nonnegative()
    assert ok
    ok, witness = (x(1) - x(2)).is_nonnegative()
    assert not ok
    assert witness == (Monomial.of(2), -1)


@given(poly_strategy())
def test_is_nonnegative_witness_is_the_first_negative_term(p):
    negative = [(mon, coef) for mon, coef in p.terms() if coef < 0]
    assert p.is_nonnegative() == ((False, negative[0]) if negative else (True, None))


def test_constructors_take_any_mapping():
    m = Monomial(MappingProxyType({2: 1, 1: 3}))
    assert m == Monomial({1: 3, 2: 1})
    assert Polynomial(MappingProxyType({m: 2})) == Polynomial({m: 2})


@pytest.mark.parametrize("c", [0, 1, -3])
def test_a_constant_hashes_as_the_int_it_equals(c):
    p = Polynomial.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({c, p}) == len({p, c}) == 1
    assert {c: "x"}.get(p) == "x" and {p: "x"}.get(c) == "x"


def test_coefficient():
    s2143 = x(1) * x(1) + x(1) * x(2) + x(1) * x(3)
    assert s2143.coefficient(Monomial({1: 2})) == 1
    assert s2143.coefficient(Monomial.of(2, 3)) == 0


@settings(max_examples=100)
@given(poly_strategy())
def test_serialization_round_trip(p):
    blob = p.dumps()
    assert Polynomial.loads(blob) == p
    # canonical order makes serialization deterministic
    assert Polynomial.loads(blob).dumps() == blob


def test_json_shape():
    p = 2 * x(1) * x(3) - x(2)
    data = p.to_json(3)
    assert data["vars"] == 3
    assert {"exp": [0, 1, 0], "coef": "-1"} in data["terms"]
    assert {"exp": [1, 0, 1], "coef": "2"} in data["terms"]
    assert all(isinstance(t["coef"], str) for t in data["terms"])


def test_canonical_term_order():
    p = x(1) * x(2) + x(1) * x(1) + x(2) + x(1) * x(3)
    assert [str(m) for m, _ in p.terms()] == ["x2", "x1^2", "x1*x2", "x1*x3"]


def test_pair_index_round_trip():
    # the pairs with j <= 7 take the indices 1..28, each once, in order of j then i
    pairs = [(i, j) for j in range(1, 8) for i in range(1, j + 1)]
    assert [pair_index(i, j) for i, j in pairs] == list(range(1, len(pairs) + 1))


# -- exponent keys ---------------------------------------------------------

monomials = st.dictionaries(st.integers(1, 5), st.integers(0, 3), max_size=5)


def _canonical_keys(p):
    return all(not key or key[-1] for key in p.key_terms)


def _same(p, q):
    return p == q and hash(p) == hash(q) and _canonical_keys(p) and _canonical_keys(q)


@given(monomials)
def test_monomial_routes_give_one_key(exps):
    # zero exponents, split pairs and repeated variables all land on one key
    pairs = [(v, e) for v, e in exps.items() for _ in range(e)]
    m = Monomial(exps)
    routes = [
        Monomial([(v, 1) for v, _ in pairs] + [(v, 0) for v in exps]),
        Monomial.of(*(v for v, _ in pairs)),
        Monomial(dict(reversed(list(exps.items())))),
        Monomial.from_key(m.key),
    ]
    assert not m.key or m.key[-1]
    for r in routes:
        assert r == m and hash(r) == hash(m) and r.key == m.key


@settings(max_examples=150)
@given(poly_strategy(max_vars=5), poly_strategy(max_vars=5))
def test_polynomial_routes_give_one_key(p, q):
    pairs = list(p.terms())
    assert _same(Polynomial(dict(pairs)), p)
    # pairs split in two, plus zero terms, merge to the same polynomial
    split = [(m, c - 1) for m, c in pairs] + [(m, 1) for m, _ in pairs] + [(Monomial({3: 0}), 0)]
    assert _same(Polynomial(split), p)
    assert _same(p + q - q, p)
    assert _same(q - q, Polynomial.zero())
    assert _same((p * q) - (q * p), Polynomial.zero())
    assert _same(p * Polynomial.constant(1), p)
    assert _same(p * x(6) * Polynomial.constant(-1) + p * x(6), Polynomial.zero())
    shift = {v: v + 1 for v in range(1, 6)}
    back = {v + 1: v for v in range(1, 6)}
    assert _same(substitute_variables(substitute_variables(p, shift), back), p)
    assert _same(Polynomial.from_json(p.to_json(7)), p)
    assert _same(Polynomial.loads(p.dumps()), p)


@given(poly_strategy(max_vars=5))
def test_terms_order_is_the_old_order_on_variable_exponent_pairs(p):
    old = sorted(p.support(), key=lambda m: (m.degree(), tuple((v, -e) for v, e in m.exps)))
    assert [m for m, _ in p.terms()] == old


@settings(max_examples=200)
@given(
    poly_strategy(max_vars=4, min_coef=1),
    poly_strategy(max_vars=4, min_coef=1),
    poly_strategy(max_vars=4),
    monomials,
)
def test_lookup_subtraction_check_agrees_with_the_difference(p, q, t, exps):
    m = Monomial(exps)
    # The check assumes S has no negative coefficient, as S_sigma and a dual
    # character have none; S = p + m * q puts some of them on m * q's support.
    s = p + q * m
    for other in (t, q, q + t, Polynomial.zero()):
        assert s.nonnegative_after_subtracting(m.key, other) == (s - other * m).is_nonnegative()[0]
