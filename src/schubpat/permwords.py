"""Permutations, words with distinct letters, and patterns.

Everything is 1-indexed on the external surface: a permutation in S_n is
its one-line notation over {1..n}, and word(w) is the word w_1 ... w_n.
Inside the engine a permutation is that one-line notation as a plain tuple
of ints, `values`, and every engine function takes it.  `Permutation` and
`Word` parse, validate and print outside input (the CLI's arguments) and
the oracles' subwords; what the oracles compute on them (`flatten`,
`inverse`, `swap_positions`) lives in `oracles`.

Textual formats (`one_line`): "15243" (compact digits) or "2,14,3" (comma
separated, used whenever a letter exceeds 9); the empty word is "()".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


def one_line(letters: tuple[int, ...]) -> str:
    """The text of a word or of a one-line notation, in the format above."""
    if not letters:
        return "()"
    return ",".join(map(str, letters)) if max(letters) > 9 else "".join(map(str, letters))


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

    def __str__(self) -> str:
        return one_line(self.letters)


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

    def inversions(self) -> int:
        v = self.values
        return sum(1 for i, j in itertools.combinations(range(len(v)), 2) if v[i] > v[j])

    def __str__(self) -> str:
        return one_line(self.values)


def without_position(values: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The pattern of a one-line tuple without position i (0-indexed).

    Each entry above the deleted one is lowered by one.
    """
    a = values[i]
    return tuple(b - (b > a) for b in values[:i] + values[i + 1 :])


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


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)
