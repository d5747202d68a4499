"""General results: the avoidance-counting criterion, adjacent-vs-subword
equality, and the stooge-sort normalization machinery.

Permutation comparison throughout is lexicographic on one-line notation
(rearranging a factor to something smaller makes the whole permutation
smaller, which is the property the termination arguments need).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

import numpy as np

from . import engine, perms, relation
from .perms import Perm
from .relation import ReplacementPartition

DownJumpStrategy = Literal["leftmost", "rightmost"]


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the N_k = A_k avoidance criterion and its propagation."""

    partition_text: str
    c: int
    k: int
    N_k: int
    A_k: int
    holds: bool
    propagation_checked_to: int
    propagation_ok: bool
    per_n: dict[int, tuple[int, int]]  # n -> (N_n, A_n) for checked n > k

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition_text,
            "c": self.c,
            "k": self.k,
            "N_k": self.N_k,
            "A_k": self.A_k,
            "holds": self.holds,
            "propagation_checked_to": self.propagation_checked_to,
            "propagation_ok": self.propagation_ok,
            "per_n": {str(n): list(v) for n, v in sorted(self.per_n.items())},
        }


@dataclass(frozen=True)
class EqualityReport:
    """Whether factor and subword modes create identical classes."""

    partition_text: str
    k: int
    equal_at_k: bool
    checked_to: int
    equal_through: int | None  # deepest n with equality, None if not at k

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition_text,
            "k": self.k,
            "equal_at_k": self.equal_at_k,
            "checked_to": self.checked_to,
            "equal_through": self.equal_through,
        }


@dataclass(frozen=True)
class StoogeSets:
    """Minimal lefted/righted/middled representatives per class."""

    n: int
    partition_text: str
    L: tuple[Perm, ...]
    R: tuple[Perm, ...]
    I: tuple[Perm, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "partition": self.partition_text,
            "L": [perms.format_perm(p) for p in self.L],
            "R": [perms.format_perm(p) for p in self.R],
            "I": [perms.format_perm(p) for p in self.I],
        }


def count_U_avoiders(n: int, partition: ReplacementPartition) -> int:
    """A_n: permutations avoiding every U pattern as a factor."""
    return engine.count_avoiders(n, partition.c, partition.U)


def repeated_down_jump(
    p: Sequence[int],
    partition: ReplacementPartition,
    strategy: DownJumpStrategy = "leftmost",
) -> Perm:
    """Rewrite U-hits into their part's minimum until no U-hit remains.

    Each step is lexicographically decreasing, so this terminates; when
    the avoidance criterion holds at some k <= n the endpoint does not
    depend on the strategy.
    """
    cur = tuple(p)
    while jumps := relation.down_jumps(cur, partition):
        cur = jumps[0] if strategy == "leftmost" else jumps[-1]
    return cur


def _check_range(k: int, check_to: int | None) -> None:
    if check_to is not None and check_to < k:
        raise ValueError(f"check_to={check_to} is below k={k}: nothing to check")


def avoider_criterion(
    partition: ReplacementPartition, k: int, check_to: int | None = None
) -> CriterionReport:
    """Check N_k = A_k (k >= 2c-1) and brute-force the propagation, from
    one pass of the closure over k..check_to that stops at k if the
    criterion fails there."""
    c = partition.c
    if k < 2 * c - 1:
        raise ValueError(f"criterion needs k >= 2c-1 = {2 * c - 1}, got {k}")
    _check_range(k, check_to)
    top = check_to if check_to is not None else k
    decs = engine.decompositions(range(k, top + 1), partition)
    n_k = next(decs).num_classes
    a_k = count_U_avoiders(k, partition)
    holds = n_k == a_k
    per_n: dict[int, tuple[int, int]] = {}
    ok = holds
    if holds:
        for dec in decs:
            an = count_U_avoiders(dec.n, partition)
            per_n[dec.n] = (dec.num_classes, an)
            if dec.num_classes != an:
                ok = False
    return CriterionReport(
        partition_text=partition.text(),
        c=c,
        k=k,
        N_k=n_k,
        A_k=a_k,
        holds=holds,
        propagation_checked_to=top,
        propagation_ok=ok,
        per_n=per_n,
    )


def adjacent_equals_subword(
    partition: ReplacementPartition, k: int, check_to: int | None = None
) -> EqualityReport:
    """Compare factor- and subword-mode class decompositions at k..check_to,
    from one pass of each mode that stops at the first n where they differ."""
    if k <= partition.c:
        raise ValueError(f"need k > c = {partition.c}")
    _check_range(k, check_to)
    top = check_to if check_to is not None else k
    ns = range(k, top + 1)
    through = None
    for a, b in zip(engine.decompositions(ns, partition, "factor"),
                    engine.decompositions(ns, partition, "subword")):
        if not np.array_equal(a.class_id, b.class_id):
            break
        through = a.n
    eq_k = through is not None
    return EqualityReport(
        partition_text=partition.text(),
        k=k,
        equal_at_k=eq_k,
        checked_to=top,
        equal_through=through,
    )


def _side_windows(n: int, partition: ReplacementPartition) -> tuple[range, range, range]:
    """The 0-based windows i of a lefted (1 <= i <= n-c), righted
    (0 <= i <= n-c-1) and middled (1 <= i <= n-c-1) hit in S_n."""
    last = n - partition.c
    return range(1, last + 1), range(last), range(1, last)


def _sided_hits(n: int, partition: ReplacementPartition):
    """Per-rank bool masks (lefted, righted, middled) over S_n, each from
    engine.hit_any over its windows.  Equal to relation.is_lefted /
    is_righted / is_middled applied to every permutation.
    """
    return tuple(engine.hit_any(n, partition, w) for w in _side_windows(n, partition))


def _first_members(dec: engine.ClassDecomposition, mask: np.ndarray) -> dict[int, Perm]:
    """Class id -> the smallest member in mask, for each class that has one:
    rank order is lexicographic order, so that is its first masked rank."""
    ranks = np.nonzero(mask)[0]
    cids, first = np.unique(dec.class_id[ranks], return_index=True)
    return {int(c): perms.unrank(int(r), dec.n) for c, r in zip(cids, ranks[first])}


def stooge_sets(n: int, partition: ReplacementPartition) -> StoogeSets:
    """L_n / R_n / I_n: the smallest lefted/righted/middled member of each
    class that has one, in lexicographic order.

    The lefted/righted/middled masks come from engine.hit_any over S_n.
    """
    if n < partition.c + 1:
        raise ValueError(f"stooge sets need n >= c+1 = {partition.c + 1}")
    dec = engine.enumerate_classes(n, partition)
    L, R, I = (
        tuple(sorted(_first_members(dec, mask).values()))
        for mask in _sided_hits(n, partition)
    )
    return StoogeSets(n=n, partition_text=partition.text(), L=L, R=R, I=I)


class _SideNormalizer:
    """Rearranges an (n-1)-letter flank to its class's L/R representative."""

    def __init__(self, n: int, partition: ReplacementPartition):
        self.dec = engine.enumerate_classes(n - 1, partition)
        lefted, righted, _ = _side_windows(n - 1, partition)
        self.left_of = _first_members(self.dec, engine.hit_any(n - 1, partition, lefted))
        self.right_of = _first_members(self.dec, engine.hit_any(n - 1, partition, righted))

    def _target(self, word: Sequence[int], table: dict[int, Perm]) -> tuple[int, ...]:
        cid = self.dec.class_of_perm(perms.standardize(word))
        return perms.rearrange(word, table[cid])

    def l(self, w: Perm) -> Perm:
        return self._target(w[:-1], self.left_of) + w[-1:]

    def r(self, w: Perm) -> Perm:
        return w[:1] + self._target(w[1:], self.right_of)


@lru_cache(maxsize=32)
def _side_normalizer(n: int, partition: ReplacementPartition) -> _SideNormalizer:
    return _SideNormalizer(n, partition)


def stooge_normalize(
    p: Sequence[int], partition: ReplacementPartition
) -> Perm:
    """Alternate rearranging the first and last n-1 letters to their
    L_{n-1} / R_{n-1} members until fixed.

    Requires a middled input (so the flanks always have lefted/righted
    class members); each application is lexicographically non-increasing,
    so the alternation terminates.
    """
    w = perms.as_perm(p)
    n = len(w)
    if n < partition.c + 2:
        raise ValueError(f"stooge normalization needs n >= c+2 = {partition.c + 2}")
    if not relation.is_middled(w, partition):
        raise ValueError(f"{perms.format_perm(w)} is not middled")
    norm = _side_normalizer(n, partition)
    while True:
        nxt = norm.r(norm.l(w))
        if nxt == w:
            return w
        w = nxt


def middled_reachability(n: int, partition: ReplacementPartition) -> bool:
    """Every nontrivial class contains a middled permutation (engine check)."""
    dec = engine.enumerate_classes(n, partition)
    middled = engine.hit_any(n, partition, _side_windows(n, partition)[2])
    has_middled = np.bincount(dec.class_id[middled], minlength=dec.num_classes) > 0
    return bool(has_middled[dec.class_sizes > 1].all())
