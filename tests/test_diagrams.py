import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from schubpat.diagrams import (
    Diagram,
    _column_dominated_sets,
    _count_column,
    count_dominated,
    restricts,
    rothe,
)
from schubpat.oracles import (
    column_dominates,
    dominates,
    enumerate_dominated,
    hat_v,
    removed_boxes,
    restrict_keep,
    restrict_remove,
    row_monomial,
)
from schubpat.polyx import exponent_key, monomial_key

diagrams = st.integers(2, 4).flatmap(
    lambda n: st.frozensets(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n
    ).map(lambda b: Diagram.of(n, b))
)


def has_northwest_property(D: Diagram) -> bool:
    """Whether (r,c') and (r',c) with r<r', c<c' always force (r,c)."""
    boxes = D.boxes
    for (r, cp) in boxes:
        for (rp, c) in boxes:
            if r < rp and c < cp and (r, c) not in boxes:
                return False
    return True


def test_rothe_examples():
    assert rothe((1, 3, 4, 2)) == Diagram.of(4, [(2, 2), (3, 2)])
    assert rothe((1, 2, 4, 5, 3)) == Diagram.of(5, [(3, 3), (4, 3)])
    assert rothe((2, 1, 4, 3)) == Diagram.of(4, [(1, 1), (3, 3)])
    assert rothe((1, 2, 3, 4, 5)) == Diagram.of(5, [])


def test_rothe_size_is_inversion_count():
    # Every w in S_<=7 against the independent definition: boxes (i, w(j)) for inversions i < j.
    for n in range(8):
        for w in itertools.permutations(range(1, n + 1)):
            D = rothe(w)
            boxes = {
                (i, w[j - 1])
                for i, j in itertools.combinations(range(1, n + 1), 2)
                if w[i - 1] > w[j - 1]
            }
            expected = Diagram.of(n, boxes)
            assert D == expected and hash(D) == hash(expected), w
            assert len(D) == sum(a > b for a, b in itertools.combinations(w, 2)) == len(D.boxes), w


@given(diagrams, st.randoms(use_true_random=False))
def test_diagram_of_is_canonical(D, rng):
    # Boxes in any order and with repeats give one diagram, with one hash.
    boxes = list(D.boxes) * 2
    rng.shuffle(boxes)
    again = Diagram.of(D.n, boxes)
    assert again == D and hash(again) == hash(D)
    assert Diagram.of(D.n, D.boxes) == D
    assert len(D.columns) == D.n
    assert all(list(c) == sorted(set(c)) for c in D.columns)


def test_diagram_stores_only_its_columns():
    assert [f.name for f in dataclasses.fields(Diagram)] == ["columns"]
    assert Diagram.of(3, [(2, 1), (1, 3), (2, 1)]) == Diagram(((2,), (), (1,)))
    assert Diagram.of(3, []).n == 3
    for n in range(7):
        assert all(rothe(w).n == n for w in itertools.permutations(range(1, n + 1)))
    with pytest.raises(ValueError, match=r"^box \(3, 3\) outside \[2\] x \[2\]$"):
        Diagram.of(2, [(1, 1), (3, 3)])


@pytest.mark.parametrize("n", range(1, 6))
def test_rothe_has_northwest_property(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert has_northwest_property(rothe(w))


def test_northwest_property_counterexample():
    assert not has_northwest_property(Diagram.of(3, [(1, 2), (2, 1)]))
    assert has_northwest_property(Diagram.of(3, [(1, 1), (1, 2), (2, 1)]))


def test_column_dominates_examples():
    assert column_dominates((1, 3), (2, 4))
    assert column_dominates((2, 4), (2, 4))
    assert not column_dominates((2, 4), (1, 3))
    assert not column_dominates((1,), (1, 2))
    assert column_dominates((), ())


def test_dominates_requires_matching_size():
    with pytest.raises(ValueError):
        dominates(Diagram.of(3, []), Diagram.of(4, []))


@given(diagrams)
def test_dominance_reflexive(D):
    assert dominates(D, D)


def test_dominance_antisymmetric_and_transitive():
    D = rothe((3, 5, 1, 4, 2))
    pool = list(enumerate_dominated(D))
    for A, B in itertools.combinations(pool, 2):
        if dominates(A, B) and dominates(B, A):
            assert A == B
    import random

    rng = random.Random(7)
    for _ in range(500):
        A, B, C = (rng.choice(pool) for _ in range(3))
        if dominates(A, B) and dominates(B, C):
            assert dominates(A, C)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_and_count_agree(n):
    for w in itertools.permutations(range(1, n + 1)):
        D = rothe(w)
        members = list(enumerate_dominated(D))
        assert len(members) == count_dominated(D)
        assert len(set(members)) == len(members)
        assert all(dominates(C, D) for C in members)
        assert D in members


def test_column_dominated_sets_match_a_filter_of_combinations():
    # Every column of an n-grid, n <= 8: a strictly increasing tuple of rows.
    for n in range(1, 9):
        rows = range(1, n + 1)
        for m in range(n + 1):
            for d in itertools.combinations(rows, m):
                expected = tuple(
                    c for c in itertools.combinations(rows, m) if all(a <= b for a, b in zip(c, d))
                )
                got = _column_dominated_sets(d)
                assert isinstance(got, tuple)
                assert got == expected
                assert len(got) == _count_column(d)


def test_restricts_is_dominance_of_the_columns_less_row_k():
    # Every column d of an n-grid, n <= 8, every c <= d by the definition, and
    # every row k, one past the grid included: the row test is the definition.
    for n in range(1, 9):
        rows = range(1, n + 1)
        for m in range(n + 1):
            for d in itertools.combinations(rows, m):
                for c in itertools.combinations(rows, m):
                    if not column_dominates(c, d):
                        continue
                    for k in range(1, n + 2):
                        c_less_k, d_less_k = ([i for i in col if i != k] for col in (c, d))
                        assert restricts(c, d, k) == column_dominates(c_less_k, d_less_k), (c, d, k)


def test_enumerate_dominated_example():
    # single column (3, 4): chains r1 < r2 with r1 <= 3, r2 <= 4
    D = Diagram.of(5, [(3, 3), (4, 3)])
    got = {C.boxes for C in enumerate_dominated(D)}
    expected = {
        frozenset({(a, 3), (b, 3)})
        for a, b in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    }
    assert got == expected
    assert count_dominated(D) == 6


def test_dominated_complete_against_bruteforce():
    D = rothe((1, 4, 3, 2))
    all_sub = set()
    grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for r in range(len(D) + 1):
        for boxes in itertools.combinations(grid, r):
            C = Diagram.of(4, boxes)
            cols_match = all(len(c) == len(d) for c, d in zip(C.columns, D.columns))
            if cols_match and dominates(C, D):
                all_sub.add(C)
    assert all_sub == set(enumerate_dominated(D))


def test_restrict_keep_and_remove():
    D = rothe((2, 1, 4, 3))
    assert restrict_keep(D, [1], [1]) == Diagram.of(4, [(1, 1)])
    assert restrict_keep(D, [1, 3], [3]) == Diagram.of(4, [(3, 3)])
    assert restrict_remove(D, 1, 1) == Diagram.of(4, [(3, 3)])
    assert restrict_remove(D, 3, 1) == Diagram.of(4, [])


def test_hat_v_examples():
    w = (2, 1, 4, 3)
    D = rothe(w)
    assert hat_v(D, w, (4, 3)) == Diagram.of(4, [(3, 3)])
    assert hat_v(D, w, w) == D
    assert hat_v(D, w, ()) == Diagram.of(4, [])


@given(diagrams, st.integers(1, 4), st.integers(1, 4))
def test_removed_boxes_complement_the_restriction(D, k, l):
    seed, rest = removed_boxes(D, k, l), restrict_remove(D, k, l)
    assert seed.boxes | rest.boxes == D.boxes
    assert not seed.boxes & rest.boxes
    assert all(i == k or j == l for (i, j) in seed.boxes)


def test_row_monomial():
    D = Diagram.of(5, [(3, 3), (4, 3)])
    assert row_monomial(D) == monomial_key([3, 4])
    assert row_monomial(Diagram.of(3, [])) == 0
    assert row_monomial(Diagram.of(3, [(2, 1), (2, 3)])) == exponent_key([0, 2])


@given(diagrams)
def test_diagram_json_round_trip(D):
    again = Diagram.from_json(D.to_json())
    assert again == D and hash(again) == hash(D)
