import itertools

import pytest
from hypothesis import given, strategies as st

from schubpat.permwords import (
    avoids,
    inverse_values,
    one_line,
    parse_permutation,
    parse_word,
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

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)


def test_inverse_examples():
    assert inverse((1, 5, 2, 4, 3)) == (1, 3, 5, 4, 2)
    assert inverse((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert inverse((2, 1, 4, 3)) == (2, 1, 4, 3)


@given(st.integers(1, 6).flatmap(perms))
def test_inverse_involutive(w):
    assert inverse(inverse(w)) == w
    for i in range(1, len(w) + 1):
        assert inverse(w)[w[i - 1] - 1] == i


@pytest.mark.parametrize("n", range(0, 8))
def test_inverse_values_is_the_oracle_inverse(n):
    # `inverse` sorts positions by value; `inverse_values` writes each position at its value.
    for w in itertools.permutations(range(1, n + 1)):
        assert inverse_values(w) == inverse(w)


def test_is_subword_examples():
    assert is_subword((7, 9, 2), (3, 7, 9, 5, 2))
    assert is_subword((), (3, 7, 9, 5, 2))
    assert not is_subword((4, 3), (1, 3, 4, 2))
    assert is_subword((4, 2), (1, 3, 4, 2))


def test_flatten_examples():
    assert flatten((3, 7, 9, 5, 2)) == (2, 4, 5, 3, 1)
    assert flatten(()) == ()
    # independent oracle: rank replacement by sorting
    assert flatten((3, 2, 6, 5)) == (2, 1, 4, 3)


@given(st.integers(1, 6).flatmap(perms))
def test_flatten_fixes_permutation_words(w):
    assert flatten(w) == w


def _pattern_without(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    return flatten(w[:i] + w[i + 1 :])


@pytest.mark.parametrize("n", range(1, 8))
def test_without_position_is_the_pattern_of_the_rest(n):
    for w in itertools.permutations(range(1, n + 1)):
        for i in range(n):
            assert without_position(w, i) == _pattern_without(w, i), (w, i)


@given(st.integers(8, 12).flatmap(perms), st.data())
def test_without_position_is_the_pattern_of_the_rest_past_nine(w, data):
    # Entries above 9 take two digits in the text form but are plain ints here.
    i = data.draw(st.integers(0, len(w) - 1))
    assert without_position(w, i) == _pattern_without(w, i)


def test_pattern_count_examples():
    # brute-force oracle over all C(4,3) subsequences of 1432 gives three
    # occurrences of 132 (via 143, 142 and 132)
    assert pattern_count((1, 3, 2), (1, 4, 3, 2)) == 3
    w = (3, 1, 4, 2)
    assert pattern_count(w, w) == 1
    assert pattern_count((1, 2), (3, 2, 1)) == 0


def test_avoids_examples():
    assert avoids((2, 1, 4, 3))
    assert not avoids((1, 4, 3, 2))
    assert not avoids((1, 5, 2, 4, 3))


@pytest.mark.parametrize("n", range(0, 8))
def test_avoids_against_pattern_count_exhaustive(n):
    forbidden = [(1, 4, 3, 2), (1, 4, 2, 3)]
    for w in itertools.permutations(range(1, n + 1)):
        assert avoids(w) == all(pattern_count(p, w) == 0 for p in forbidden), w


def test_subwords_between_examples():
    w = (1, 3, 4, 2)
    got = {one_line(v) for v in subwords_between((4, 2), w)}
    assert got == {"1342", "142", "342", "42"}
    w = (2, 1, 4, 3)
    got = {one_line(v) for v in subwords_between((4, 3), w)}
    assert got == {"2143", "143", "243", "43"}
    got = {one_line(v) for v in subwords_between((), (2, 1))}
    assert got == {"21", "2", "1", "()"}


def test_subwords_between_ascend_by_kept_position_mask():
    # alternating_sum and bv_count list their terms in this order.
    got = [one_line(v) for v in subwords_between((), (2, 1))]
    assert got == ["()", "2", "1", "21"]
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            for u in all_subwords(w):
                masks = [
                    sum(1 << i for i, a in enumerate(w) if a in v)
                    for v in subwords_between(u, w)
                ]
                assert masks == sorted(masks)


def test_subwords_between_rejects_non_subword():
    with pytest.raises(NotASubwordError):
        subwords_between((4, 3), (1, 3, 4, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_subword_interval_counts(n):
    for w in itertools.permutations(range(1, n + 1)):
        for u in all_subwords(w):
            between = subwords_between(u, w)
            assert len(between) == 2 ** (len(w) - len(u))
            assert len(set(between)) == len(between)
            for v in between:
                assert is_subword(u, v) and is_subword(v, w)


def test_substitution_indices_examples():
    w = (1, 3, 4, 2, 6, 5)
    assert substitution_indices(w, (3, 2, 6, 5)) == (2, 4, 5, 6)
    assert substitution_indices((2, 1, 4, 3), (1, 4, 3)) == (2, 3, 4)
    w = (4, 2, 1, 3)
    assert substitution_indices(w, w) == (1, 2, 3, 4)


def test_substitution_indices_rejects_bad_letters():
    with pytest.raises(LetterNotInWordError):
        substitution_indices((3, 2, 1), (5,))


@pytest.mark.parametrize("n", range(1, 8))
def test_substitution_indices_increasing_exhaustive(n):
    for w in itertools.permutations(range(1, n + 1)):
        for v in all_subwords(w):
            out = substitution_indices(w, v)
            assert list(out) == sorted(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_count_matches_subword_flattening(n):
    from collections import Counter

    for w in itertools.permutations(range(1, n + 1)):
        tally = Counter(flatten(v) for v in all_subwords(w) if len(v))
        for u, expected in tally.items():
            assert pattern_count(u, w) == expected
        absent = (1, 4, 3, 2)
        if absent not in tally and n >= 4:
            assert pattern_count(absent, w) == 0


def test_word_string_round_trip():
    for s in ["()", "42", "2,14,3", "15243"]:
        assert one_line(parse_word(s)) == s


def test_permutation_string_is_its_word_string():
    # The text of every w of S_<=7 reads back as w, as a permutation and as a word.
    perms = [w for n in range(8) for w in itertools.permutations(range(1, n + 1))]
    perms.append((2, 1, 3, 4, 5, 6, 7, 8, 9, 11, 10))
    for w in perms:
        assert parse_permutation(one_line(w)) == parse_word(one_line(w)) == w
    assert one_line(perms[0]) == "()" and one_line(perms[-1]) == "2,1,3,4,5,6,7,8,9,11,10"
    assert one_line((2, 14, 3)) == "2,14,3"


@given(st.integers(10, 12).flatmap(perms))
def test_parse_permutation_reads_the_comma_form(w):
    assert "," in one_line(w)
    assert parse_permutation(one_line(w)) == w


def test_word_rejects_duplicates():
    with pytest.raises(ValueError):
        parse_word("33")


@pytest.mark.parametrize(
    "s, message",
    [
        ("0", "letters must be positive: (0,)"),
        ("11", "letters must be distinct: (1, 1)"),
        ("1,,2", "invalid literal for int() with base 10: ''"),
        ("-1", "invalid literal for int() with base 10: '-'"),
    ],
)
def test_parse_rejects_bad_words(s, message):
    for parse in (parse_word, parse_permutation):
        with pytest.raises(ValueError) as exc:
            parse(s)
        assert str(exc.value) == message


def test_parse_permutation_rejects_a_non_permutation():
    assert parse_word("13") == (1, 3)
    with pytest.raises(ValueError) as exc:
        parse_permutation("13")
    assert str(exc.value) == "not a permutation of 1..2: (1, 3)"
    # A word's own faults are reported first.
    with pytest.raises(ValueError, match="distinct"):
        parse_permutation("33")
