"""A second route to S_w and the single-removal differences, on plain dicts of exponent tuples.

Its own route shares no code with `polyx`: a polynomial here is a dict
from a dense exponent tuple, trailing zeros dropped, to a nonzero
coefficient; S_w comes from divided differences down from the longest
element, and the pattern, the Rothe diagram and the monomials are rebuilt
here too.  It calls `polyx` only for what it checks: the engine's
differences and subtraction check, and `polyx.to_json`, through which it
reads every production polynomial, the form in which terms leave the
engine.  So a fault in how keys pack, add, skip a variable or unpack shows
up as a difference.
"""
import itertools

import pytest

from schubpat import incexc, polyx, purple, schubert
from schubpat.diagrams import rothe
from schubpat.oracles import row_monomial

MAX_N = 7


def _trim(exps) -> tuple[int, ...]:
    exps = list(exps)
    while exps and not exps[-1]:
        exps.pop()
    return tuple(exps)


def _from_json(p, n: int) -> dict[tuple[int, ...], int]:
    return {_trim(t["exp"]): int(t["coef"]) for t in polyx.to_json(p, n)["terms"]}


def _add_term(p: dict, key: tuple[int, ...], c: int) -> None:
    c += p.get(key, 0)
    if c:
        p[key] = c
    else:
        p.pop(key, None)


def _times_monomial(p: dict, m: tuple[int, ...]) -> dict:
    return {_trim(map(sum, itertools.zip_longest(key, m, fillvalue=0))): c for key, c in p.items()}


def _minus(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        _add_term(out, key, -c)
    return out


def _divided_difference(p: dict, i: int) -> dict:
    """d_i p = (p - s_i p) / (x_i - x_{i+1}), one monomial x_i^a x_{i+1}^b at a time.

    For a > b the quotient is the sum of x_i^(a-1-t) x_{i+1}^(b+t) over
    0 <= t < a - b; for a < b it is minus that sum with a and b exchanged,
    and for a = b it is 0.
    """
    out: dict = {}
    for key, c in p.items():
        exps = list(key) + [0] * max(0, i + 1 - len(key))
        a, b = exps[i - 1], exps[i]
        hi, lo, sign = (a, b, 1) if a >= b else (b, a, -1)
        for t in range(hi - lo):
            exps[i - 1], exps[i] = hi - 1 - t, lo + t
            _add_term(out, _trim(exps), sign * c)
    return out


def _schubert_table(n: int) -> dict[tuple[int, ...], dict]:
    """S_w for every w of S_n, from S_{w0} = x_1^(n-1) ... x_(n-1) by S_{w s_i} = d_i S_w."""
    def length(w):
        return sum(a > b for a, b in itertools.combinations(w, 2))

    table = {}
    for w in sorted(itertools.permutations(range(1, n + 1)), key=length, reverse=True):
        ascent = next((i for i in range(n - 1) if w[i] < w[i + 1]), None)
        if ascent is None:
            table[w] = {_trim(range(n - 1, -1, -1)): 1}
            continue
        v = list(w)
        v[ascent], v[ascent + 1] = v[ascent + 1], v[ascent]
        table[w] = _divided_difference(table[tuple(v)], ascent + 1)
    return table


@pytest.fixture(scope="module")
def tuple_schubert():
    """S_w for every w of S_<=MAX_N, read from S_MAX_N by stability: w and w x 1 share S_w."""
    table = _schubert_table(MAX_N)

    def s(w: tuple[int, ...]) -> dict:
        return table[w + tuple(range(len(w) + 1, MAX_N + 1))]

    return s


def _pattern_without(sigma: tuple[int, ...], k: int) -> tuple[int, ...]:
    rest = sigma[: k - 1] + sigma[k:]
    return tuple(sorted(rest).index(a) + 1 for a in rest)


def _skip(p: dict, k: int) -> dict:
    """p with x_i sent to x_{i+1} for i >= k."""
    return {key[: k - 1] + (0,) + key[k - 1 :] if len(key) >= k else key: c for key, c in p.items()}


def _rothe_boxes(sigma: tuple[int, ...]) -> set[tuple[int, int]]:
    position = {a: i for i, a in enumerate(sigma, start=1)}
    cells = itertools.product(range(1, len(sigma) + 1), repeat=2)
    return {(i, j) for i, j in cells if j < sigma[i - 1] and i < position[j]}


def _row_exponents(rows) -> tuple[int, ...]:
    """The exponents of the product of x_i over the given rows i, with repeats."""
    rows = list(rows)
    exps = [0] * max(rows, default=0)
    for i in rows:
        exps[i - 1] += 1
    return _trim(exps)


def _permutations_up_to(n: int):
    return itertools.chain.from_iterable(itertools.permutations(range(1, m + 1)) for m in range(n + 1))


def test_every_schubert_polynomial_matches_the_tuple_route(tuple_schubert):
    for w in _permutations_up_to(MAX_N):
        assert _from_json(schubert.schubert_polynomial(w), len(w)) == tuple_schubert(w), w


def test_every_thm1_0_difference_matches_the_tuple_route(tuple_schubert):
    for sigma in _permutations_up_to(6):
        n = len(sigma)
        boxes = _rothe_boxes(sigma)
        # Row full - 2^(k-1) of the thm1.1 table is S_sigma - M * S_pi(skip x_k).
        table = incexc.alternating_polynomials(sigma)
        for k in range(1, n + 1):
            m = _row_exponents(i for (i, j) in boxes if i == k or j == sigma[k - 1])
            sub = _skip(tuple_schubert(_pattern_without(sigma, k)), k)
            difference = _minus(tuple_schubert(sigma), _times_monomial(sub, m))
            assert _from_json(table[-1 - (1 << (k - 1))], n) == difference, (sigma, k)
            holds = min(difference.values(), default=0) >= 0
            assert incexc.verify_single_step(sigma, k) == holds, (sigma, k)


def test_every_thm4_1_difference_matches_the_tuple_route(tuple_schubert):
    for sigma in _permutations_up_to(6):
        n, s_sigma = len(sigma), schubert.schubert_polynomial(sigma)
        for k in range(1, n + 1):
            family = purple.purple_family(rothe(sigma), k, sigma[k - 1])
            sub = schubert.schubert_skipping(sigma, k)
            tuple_sub = _skip(tuple_schubert(_pattern_without(sigma, k)), k)
            assert _from_json(sub, n) == tuple_sub
            members = [_row_exponents(i for c in choice for i in c) for choice in family.choices()]
            assert {_trim(m) for m in family.to_json()["monomials"]} == set(members), (sigma, k)
            for choice, key, m in zip(family.choices(), family.row_keys(), members):
                difference = _minus(tuple_schubert(sigma), _times_monomial(tuple_sub, m))
                x_K = {row_monomial(family.member(choice)): 1}
                built = polyx.sub(s_sigma, polyx.mul(sub, x_K))
                assert _from_json(built, n) == difference, (sigma, k, choice)
                holds = min(difference.values(), default=0) >= 0
                assert polyx.nonnegative_after_subtracting(s_sigma, key, sub) == holds, (sigma, k, choice)
