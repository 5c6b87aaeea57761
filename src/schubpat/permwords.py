"""Permutations, words with distinct letters, and patterns.

Everything is 1-indexed on the external surface: a permutation in S_n is
its one-line notation over {1..n}, and word(w) is the word w_1 ... w_n.
A permutation is that one-line notation as a plain tuple of ints and a
word is its tuple of letters, in the engine, the oracles and the tests
alike.  Outside input is checked once, where it is read: `parse_word` and
`parse_permutation` turn text into such tuples.  What the oracles compute
on tuples (`flatten`, `inverse`, `swap_positions`) lives in `oracles`.
`inverse_values` is w^{-1} on the one-line tuple, for the claims that
pair w with w^{-1}.

Textual formats (`one_line`): "15243" (compact digits) or "2,14,3" (comma
separated, used whenever a letter exceeds 9); the empty word is "()".
"""
from __future__ import annotations


def one_line(letters: tuple[int, ...]) -> str:
    """The text of a word or of a one-line notation, in the format above."""
    if not letters:
        return "()"
    return ",".join(map(str, letters)) if max(letters) > 9 else "".join(map(str, letters))


def parse_word(s: str) -> tuple[int, ...]:
    """The letters of a word in the text format above; they must be positive and distinct.

    Raises ValueError on a token that is not an int, then on a letter
    below 1, then on a repeated letter.
    """
    s = s.strip()
    if s in ("", "()"):
        return ()
    letters = tuple(int(t) for t in s.split(",")) if "," in s else tuple(int(ch) for ch in s)
    if any(a < 1 for a in letters):
        raise ValueError(f"letters must be positive: {letters}")
    if len(set(letters)) != len(letters):
        raise ValueError(f"letters must be distinct: {letters}")
    return letters


def parse_permutation(s: str) -> tuple[int, ...]:
    """The one-line tuple of a permutation of 1..n in the text format above.

    Raises the ValueErrors of `parse_word` first, then one for a word that
    is not a permutation of 1..n.
    """
    values = parse_word(s)
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"not a permutation of 1..{len(values)}: {values}")
    return values


def without_position(values: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The pattern of a one-line tuple without position i (0-indexed).

    Each entry above the deleted one is lowered by one.  The entries of a
    one-line tuple are distinct, so dropping the entry equal to values[i]
    drops position i and no other.
    """
    a = values[i]
    return tuple([b - 1 if b > a else b for b in values if b != a])


def inverse_values(values: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line tuple of w^{-1}: entry a - 1 is the position of a in w (`oracles.inverse`)."""
    inv = [0] * len(values)
    for i, a in enumerate(values, start=1):
        inv[a - 1] = i
    return tuple(inv)


def avoids(v: tuple[int, ...]) -> bool:
    """Whether w, one-line v, avoids both 1432 and 1423 (`oracles.pattern_count` is the oracle).

    w contains one of them iff some i < j < k < l has w_i < min(w_k, w_l)
    and max(w_k, w_l) < w_j.  The least entry left of j is the best w_i, so
    it suffices to find a j with two later entries between that and w_j.
    """
    for j in range(1, len(v) - 2):
        lo, hi = min(v[:j]), v[j]
        if sum(1 for a in v[j + 1 :] if lo < a < hi) >= 2:
            return False
    return True
