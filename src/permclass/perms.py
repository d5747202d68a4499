"""Core permutation values and operations.

Permutations are tuples of 1-based letters in one-line notation: the
permutation 213 is ``(2, 1, 3)``.  A *word* is any tuple of distinct
positive integers, not necessarily 1..n.  All functions are pure and all
values immutable, so everything here is safe to share between threads.

Positions are 1-based throughout the public API (the first letter of a
permutation has position 1, which has odd parity).

Text formats: digits-only (``"15324"``) is accepted for n <= 9,
comma-separated (``"10,1,2"``) for any n.  Formatting emits digits-only
for n <= 9 and comma-separated from n = 10 on.

>>> standardize((4, 2, 5))
(2, 1, 3)
>>> rank((3, 2, 1))
5
>>> unrank(5, 3)
(3, 2, 1)
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, Sequence

from .errors import InvalidWordError

Perm = tuple[int, ...]
Word = tuple[int, ...]

MAX_N = 20


def as_word(letters: Iterable[int]) -> Word:
    """Validate a sequence of distinct positive integers."""
    w = tuple(map(int, letters))
    if w and min(w) < 1:
        raise InvalidWordError(f"letters must be positive integers: {w}")
    if len(set(w)) != len(w):
        raise InvalidWordError(f"letters must be distinct: {w}")
    return w


def as_perm(letters: Iterable[int]) -> Perm:
    """Validate one-line notation: a bijection onto {1, ..., n}."""
    p = as_word(letters)
    n = len(p)
    if n > MAX_N:
        raise InvalidWordError(f"permutations longer than {MAX_N} are not supported")
    if sorted(p) != list(range(1, n + 1)):
        raise InvalidWordError(f"not a permutation of 1..{n}: {p}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def all_perms(n: int) -> Iterable[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def standardize(word: Sequence[int]) -> Perm:
    """The order permutation of a word with distinct letters.

    >>> standardize((5, 7, 4))
    (2, 3, 1)
    """
    w = as_word(word)
    if not w:
        raise InvalidWordError("cannot standardize the empty word")
    order = sorted(range(len(w)), key=w.__getitem__)
    out = [0] * len(w)
    for r, i in enumerate(order, start=1):
        out[i] = r
    return tuple(out)


def rearrange(letters: Sequence[int], pattern: Sequence[int]) -> Word:
    """The letters rearranged so they standardize to pattern: position j
    takes the pattern[j]-th smallest letter.

    >>> rearrange((5, 7, 4), (3, 1, 2))
    (7, 4, 5)
    """
    s = sorted(letters)
    return tuple(s[t - 1] for t in pattern)


def complement(p: Sequence[int]) -> Perm:
    """Letter-wise map j -> n+1-j."""
    n = len(p)
    return tuple(n + 1 - x for x in p)


def reverse(p: Sequence[int]) -> Perm:
    """Letters in reversed position order."""
    return tuple(p[::-1])


def factor_occurrences(p: Sequence[int], pattern: Sequence[int]) -> list[int]:
    """1-based start positions i where p[i..i+c-1] standardizes to pattern.

    >>> factor_occurrences((2, 6, 5, 7, 4, 3, 1), (2, 3, 1))
    [3]
    """
    c = len(pattern)
    pat = as_perm(pattern)
    return [
        i + 1
        for i in range(len(p) - c + 1)
        if standardize(p[i : i + c]) == pat
    ]


def subword_occurrences(p: Sequence[int], pattern: Sequence[int]) -> list[tuple[int, ...]]:
    """All strictly increasing 1-based index tuples standardizing to pattern."""
    c = len(pattern)
    pat = as_perm(pattern)
    out = []
    for idx in itertools.combinations(range(len(p)), c):
        if standardize(tuple(p[i] for i in idx)) == pat:
            out.append(tuple(i + 1 for i in idx))
    return out


def rank(p: Sequence[int]) -> int:
    """Lehmer rank of p within lexicographic order on S_n (identity -> 0)."""
    n = len(p)
    r = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        r += smaller * factorial(n - 1 - i)
    return r


def unrank(r: int, n: int) -> Perm:
    """Inverse of :func:`rank`: the permutation of S_n at lexicographic index r."""
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for S_{n}")
    avail = list(range(1, n + 1))
    out = []
    for i in range(n):
        f = factorial(n - 1 - i)
        d, r = divmod(r, f)
        out.append(avail.pop(d))
    return tuple(out)


def inversions(p: Sequence[int]) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[j] < p[i])


def parity(p: Sequence[int]) -> int:
    """0 for even permutations, 1 for odd."""
    return inversions(p) & 1


def parse_perm(text: str) -> Perm:
    """Parse digits-only (n <= 9) or comma-separated one-line notation."""
    s = text.strip()
    if not s:
        raise InvalidWordError("empty permutation text")
    tokens = [t.strip() for t in s.split(",")] if "," in s else list(s)
    if not all(t.isdecimal() for t in tokens):
        raise InvalidWordError(f"not a permutation literal: {text!r}")
    return as_perm(int(t) for t in tokens)


def format_perm(p: Sequence[int]) -> str:
    """Digits-only for n <= 9, comma-separated otherwise."""
    if len(p) <= 9:
        return "".join(str(x) for x in p)
    return ",".join(str(x) for x in p)
