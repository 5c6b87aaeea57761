import pytest
from hypothesis import given, strategies as st

from schubpat.permwords import (
    Permutation,
    Word,
    all_permutations,
    avoids,
    inverse_values,
    one_line,
    without_position,
)
from schubpat.oracles import (
    LetterNotInWordError,
    NotASubwordError,
    all_subwords,
    flatten,
    inverse,
    is_subword,
    pattern_count,
    subwords_between,
    substitution_indices,
)

perms = lambda n: st.permutations(list(range(1, n + 1))).map(lambda v: Permutation(tuple(v)))


def test_inverse_examples():
    assert inverse(Permutation.from_string("15243")) == Permutation.from_string("13542")
    assert inverse(Permutation.from_string("1234")) == Permutation.from_string("1234")
    assert inverse(Permutation.from_string("2143")) == Permutation.from_string("2143")


@given(st.integers(1, 6).flatmap(perms))
def test_inverse_involutive(w):
    assert inverse(inverse(w)) == w
    for i in range(1, w.n + 1):
        assert inverse(w)(w(i)) == i


@pytest.mark.parametrize("n", range(0, 8))
def test_inverse_values_is_the_oracle_inverse(n):
    for w in all_permutations(n):
        assert inverse_values(w.values) == inverse(w).values


def test_is_subword_examples():
    assert is_subword(Word.of(7, 9, 2), Word.of(3, 7, 9, 5, 2))
    assert is_subword(Word(), Word.of(3, 7, 9, 5, 2))
    assert not is_subword(Word.of(4, 3), Word.of(1, 3, 4, 2))
    assert is_subword(Word.of(4, 2), Word.of(1, 3, 4, 2))


def test_flatten_examples():
    assert flatten(Word.of(3, 7, 9, 5, 2)) == Permutation.from_string("24531")
    assert flatten(Word()) == Permutation(())
    # independent oracle: rank replacement by sorting
    assert flatten(Word.of(3, 2, 6, 5)) == Permutation.from_string("2143")


@given(st.integers(1, 6).flatmap(perms))
def test_flatten_fixes_permutation_words(w):
    assert flatten(w.word()) == w


def _pattern_without(w: Permutation, i: int) -> tuple[int, ...]:
    return flatten(Word(w.values[:i] + w.values[i + 1 :])).values


@pytest.mark.parametrize("n", range(1, 8))
def test_without_position_is_the_pattern_of_the_rest(n):
    for w in all_permutations(n):
        for i in range(n):
            assert without_position(w.values, i) == _pattern_without(w, i), (w, i)


@given(st.integers(8, 12).flatmap(perms), st.data())
def test_without_position_is_the_pattern_of_the_rest_past_nine(w, data):
    # Entries above 9 take two digits in the text form but are plain ints here.
    i = data.draw(st.integers(0, w.n - 1))
    assert without_position(w.values, i) == _pattern_without(w, i)


def test_pattern_count_examples():
    # brute-force oracle over all C(4,3) subsequences of 1432 gives three
    # occurrences of 132 (via 143, 142 and 132)
    assert pattern_count(Permutation.from_string("132"), Permutation.from_string("1432")) == 3
    w = Permutation.from_string("3142")
    assert pattern_count(w, w) == 1
    assert pattern_count(Permutation.from_string("12"), Permutation.from_string("321")) == 0


def test_avoids_examples():
    assert avoids((2, 1, 4, 3))
    assert not avoids((1, 4, 3, 2))
    assert not avoids((1, 5, 2, 4, 3))


@pytest.mark.parametrize("n", range(0, 8))
def test_avoids_against_pattern_count_exhaustive(n):
    forbidden = [Permutation.from_string("1432"), Permutation.from_string("1423")]
    for w in all_permutations(n):
        assert avoids(w.values) == all(pattern_count(p, w) == 0 for p in forbidden), w


def test_subwords_between_examples():
    w = Permutation.from_string("1342")
    got = {str(v) for v in subwords_between(Word.of(4, 2), w)}
    assert got == {"1342", "142", "342", "42"}
    w = Permutation.from_string("2143")
    got = {str(v) for v in subwords_between(Word.of(4, 3), w)}
    assert got == {"2143", "143", "243", "43"}
    got = {str(v) for v in subwords_between(Word(), Permutation.from_string("21"))}
    assert got == {"21", "2", "1", "()"}


def test_subwords_between_ascend_by_kept_position_mask():
    # alternating_sum and bv_count list their terms in this order.
    got = [str(v) for v in subwords_between(Word(), Permutation.from_string("21"))]
    assert got == ["()", "2", "1", "21"]
    for n in range(1, 6):
        for w in all_permutations(n):
            for u in all_subwords(w):
                masks = [
                    sum(1 << i for i, a in enumerate(w.values) if a in v.letters)
                    for v in subwords_between(u, w)
                ]
                assert masks == sorted(masks)


def test_subwords_between_rejects_non_subword():
    with pytest.raises(NotASubwordError):
        subwords_between(Word.of(4, 3), Permutation.from_string("1342"))


@pytest.mark.parametrize("n", range(1, 6))
def test_subword_interval_counts(n):
    for w in all_permutations(n):
        for u in all_subwords(w):
            between = subwords_between(u, w)
            assert len(between) == 2 ** (len(w) - len(u))
            assert len(set(between)) == len(between)
            for v in between:
                assert is_subword(u, v) and is_subword(v, w.word())


def test_substitution_indices_examples():
    w = Permutation.from_string("134265")
    assert substitution_indices(w, Word.of(3, 2, 6, 5)) == (2, 4, 5, 6)
    assert substitution_indices(Permutation.from_string("2143"), Word.of(1, 4, 3)) == (2, 3, 4)
    w = Permutation.from_string("4213")
    assert substitution_indices(w, w.word()) == (1, 2, 3, 4)


def test_substitution_indices_rejects_bad_letters():
    with pytest.raises(LetterNotInWordError):
        substitution_indices(Permutation.from_string("321"), Word.of(5))


@pytest.mark.parametrize("n", range(1, 8))
def test_substitution_indices_increasing_exhaustive(n):
    for w in all_permutations(n):
        for v in all_subwords(w):
            out = substitution_indices(w, v)
            assert list(out) == sorted(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_count_matches_subword_flattening(n):
    from collections import Counter

    for w in all_permutations(n):
        tally = Counter(flatten(v) for v in all_subwords(w) if len(v))
        for u, expected in tally.items():
            assert pattern_count(u, w) == expected
        absent = Permutation.from_string("1432")
        if absent not in tally and n >= 4:
            assert pattern_count(absent, w) == 0


def test_word_string_round_trip():
    for s in ["()", "42", "2,14,3", "15243"]:
        assert str(Word.from_string(s)) == s


def test_permutation_string_is_its_word_string():
    perms = [w for n in range(7) for w in all_permutations(n)]
    perms.append(Permutation((2, 1, 3, 4, 5, 6, 7, 8, 9, 11, 10)))
    for w in perms:
        assert str(w) == str(Word(w.values)) == one_line(w.values)
    assert str(perms[0]) == "()" and str(perms[-1]) == "2,1,3,4,5,6,7,8,9,11,10"
    assert one_line(()) == str(Word()) == "()"
    assert one_line((2, 14, 3)) == str(Word.of(2, 14, 3)) == "2,14,3"


def test_word_rejects_duplicates():
    with pytest.raises(ValueError):
        Word.of(3, 3)
