"""Permutations, words with distinct letters, patterns and the subword poset.

Everything is 1-indexed on the external surface: a permutation in S_n is
its one-line notation over {1..n}, and word(w) is the word w_1 ... w_n.

Textual formats: "15243" (compact digits) or "2,14,3" (comma separated,
used whenever a letter exceeds 9); the empty word is "()".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import LetterNotInWordError, NotASubwordError


@dataclass(frozen=True)
class Word:
    """A finite sequence of pairwise distinct positive integers."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(a < 1 for a in self.letters):
            raise ValueError(f"letters must be positive: {self.letters}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"letters must be distinct: {self.letters}")

    @classmethod
    def of(cls, *letters: int) -> "Word":
        return cls(tuple(letters))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        s = s.strip()
        if s in ("", "()"):
            return cls()
        if "," in s:
            return cls(tuple(int(t) for t in s.split(",")))
        return cls(tuple(int(ch) for ch in s))

    def __len__(self) -> int:
        return len(self.letters)

    def letter_set(self) -> frozenset[int]:
        return frozenset(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "()"
        if max(self.letters) > 9:
            return ",".join(str(a) for a in self.letters)
        return "".join(str(a) for a in self.letters)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n} in one-line notation."""

    values: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, len(self.values) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.values)}: {self.values}")

    @classmethod
    def from_string(cls, s: str) -> "Permutation":
        return cls(Word.from_string(s).letters)

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """w(i), 1-indexed."""
        return self.values[i - 1]

    def __len__(self) -> int:
        return len(self.values)

    def word(self) -> Word:
        return Word(self.values)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.values)
        for pos, val in enumerate(self.values, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def inversions(self) -> int:
        v = self.values
        return sum(1 for i, j in itertools.combinations(range(len(v)), 2) if v[i] > v[j])

    def swap_positions(self, i: int) -> "Permutation":
        """Exchange the entries at positions i and i+1 (right action of s_i)."""
        v = list(self.values)
        v[i - 1], v[i] = v[i], v[i - 1]
        return Permutation(tuple(v))

    def descents(self) -> list[int]:
        return [i for i in range(1, len(self.values)) if self.values[i - 1] > self.values[i]]

    def ascents(self) -> list[int]:
        return [i for i in range(1, len(self.values)) if self.values[i - 1] < self.values[i]]

    def __str__(self) -> str:
        return str(self.word())


def is_subword(u: Word, v: Word) -> bool:
    """True iff u occurs as a (not necessarily contiguous) subsequence of v."""
    it = iter(v.letters)
    return all(a in it for a in u.letters)


def flatten(v: Word) -> Permutation:
    """perm(v): replace the smallest letter by 1, the next by 2, and so on."""
    rank = {a: r for r, a in enumerate(sorted(v.letters), start=1)}
    return Permutation(tuple(rank[a] for a in v.letters))


def avoids(w: Permutation) -> bool:
    """Whether w avoids both 1432 and 1423 (`oracles.pattern_count` is the oracle).

    w contains one of them iff some i < j < k < l has w_i < min(w_k, w_l)
    and max(w_k, w_l) < w_j.  The least entry left of j is the best w_i, so
    it suffices to find a j with two later entries between that and w_j.
    """
    v = w.values
    for j in range(1, len(v) - 2):
        lo, hi = min(v[:j]), v[j]
        if sum(1 for a in v[j + 1 :] if lo < a < hi) >= 2:
            return False
    return True


def subwords_between(u: Word, w: Permutation) -> list[Word]:
    """All words v with u <= v <= word(w), each once.

    Since the letters of w are distinct, these are the restrictions of
    word(w) to the letter subsets containing the letters of u; ordered by
    the bitmask of kept positions of w, ascending.  The order comes for free:
    optional positions map to positions of w increasingly, so the kept mask
    grows with the loop's mask.
    """
    word_w = w.word()
    if not is_subword(u, word_w):
        raise NotASubwordError(f"{u} is not a subword of {word_w}")
    required = u.letter_set()
    optional = [i for i in range(len(word_w)) if word_w.letters[i] not in required]
    out = []
    for mask in range(1 << len(optional)):
        drop = {optional[t] for t in range(len(optional)) if not (mask >> t) & 1}
        out.append(Word(tuple(a for i, a in enumerate(word_w.letters) if i not in drop)))
    return out


def substitution_indices(w: Permutation, v: Word) -> tuple[int, ...]:
    """(w^{-1}(v(1)), ..., w^{-1}(v(|v|))); strictly increasing for v <= word(w)."""
    winv = w.inverse()
    values = set(w.values)
    for a in v.letters:
        if a not in values:
            raise LetterNotInWordError(f"letter {a} does not occur in {w}")
    if not is_subword(v, w.word()):
        raise NotASubwordError(f"{v} is not a subword of {w.word()}")
    out = tuple(winv(a) for a in v.letters)
    assert all(out[i] < out[i + 1] for i in range(len(out) - 1)), "indices must ascend"
    return out


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)


def all_subwords(w: Permutation) -> list[Word]:
    """All subwords of word(w), the empty word included."""
    return subwords_between(Word(), w)


def remove_position(w: Permutation, k: int) -> Word:
    """word(w) with the k-th letter removed."""
    return Word(tuple(a for i, a in enumerate(w.values, start=1) if i != k))
