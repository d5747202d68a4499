"""Exact class decomposition of S_n under a replacement partition.

The decomposition runs over the dense Lehmer-rank space 0..n!-1 and
gives every rank a class id; the ids follow each class's minimal member
rank.  It is stored as the last step's tail nodes and the class ids of
S_{n-1}: rank ``d * (n-1)! + t`` has class ``tail[d * C + prev[t]]``, so
counts, sizes, representatives and ``class_of_perm`` never build the n!
id array, which ``ClassDecomposition.class_id`` builds on first use.
Both modes run one closure (kernels_numpy.class_steps): it closes
the classes of S_2, ..., S_n in turn, each with the rewrites through the
first position over the classes of the one before, and yields each S_k
as it closes it.  So a request for several n (``decompositions``, which
verify and the theorem checks use) is one pass over the steps, up to the
largest n; ``enumerate_classes`` is its last step.  A rewrite that
leaves the first letter alone acts on the last k-1 letters as the same
rewrite in S_{k-1}: every window but the first in factor mode, every
index set without position 0 in subword mode.  A subword step also joins
the classes of the first k-1 letters (the rewrites that leave the last
letter alone), so only the index sets through both the first and the
last position make edges.  Factor mode reads its edges from the
Lehmer-digit grid: a rewrite changes only the digits of its window, so
a local rule over those digits, broadcast over the others, gives every
edge of a window (kernels_numpy.factor_edges, over the classes of
S_{k-1}).  Subword mode reads the join and each index set through both
ends from one row per class of the letters their rewrites leave alone,
of S_{k-2} and S_{k-c} (kernels_numpy.subword_edges).  Each step is
closed one batch at a time by root hooking over one int32 root array,
so no step holds more than one batch's edges: in factor mode the first
window's local pairs read as rows of the class ids of S_{k-1}, the whole
step within a fixed edge budget, else one first digit a batch; in
subword mode the join or one index set.  The class sizes come from the
step's nodes, and each class's minimal rank from its root, its minimal
node.  ``hit_any`` and the avoider counts read hits off the same digit grid.

``class_of`` finds one class by a BFS.  In factor mode the BFS is
level-synchronous over Lehmer ranks: a rewrite at window i moves a rank
by a delta read off the window's digits alone, so one move table per
(partition, n) (kernels_numpy.factor_moves) serves every level, which
gathers the moves of its whole frontier at once.  The subword BFS runs
over the rewrite targets of relation.rewrites.  Within the default bound
the class is read off a kept decomposition of S_n instead, once the
BFS's work on that (partition, n, mode) would pass the cost of closing
S_n (at once in subword mode): the members come off the tail and the ids
of S_{n-1} one first digit at a time (``ClassDecomposition.member_ranks``),
with no n! array, and a relation whose S_n would hold too many classes
keeps the BFS.

Default bounds: n <= 10 in factor mode, n <= 8 in subword mode;
``allow_large`` raises them to 12/10 after checking the memory estimate
against the available RAM (and PERMCLASS_MEMORY_CAP_MB, if set), once
before the closure and again before the step that closes S_n, over the
classes of S_{n-1} it found.  ``decompositions`` makes these checks
between the closure's yields (``_limits`` and ``_check``), each n it
yields in turn, and refuses before the step it checks is run.
"""

from __future__ import annotations

import math
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .. import perms, relation
from ..errors import ResourceLimitError
from ..perms import Perm
from ..relation import Mode, ReplacementPartition
from . import kernels_numpy
from .tables import banned_mask, build_tables

DEFAULT_MAX_N = {"factor": 10, "subword": 8}
LARGE_MAX_N = {"factor": 12, "subword": 10}
DEFAULT_CLASS_CAP = 2_000_000


def active_backend() -> str:
    """The name of the enumeration engine, for reports: always "numpy"."""
    return "numpy"


@dataclass(frozen=True)
class ClassDecomposition:
    """The partition of S_n into classes, indexed densely by Lehmer rank."""

    n: int
    mode: str
    partition_text: str
    tail: np.ndarray         # int32, n * C; class of rank d*(n-1)! + t is tail[d*C + prev[t]]
    prev: np.ndarray         # int32, length (n-1)!; class index per rank of S_{n-1} (C classes)
    class_sizes: np.ndarray  # int64, per class index
    rep_ranks: np.ndarray    # int64 rank of each class's lexicographic minimum

    @cached_property
    def class_id(self) -> np.ndarray:
        """int32, length n!: the class index of every rank, built on first use."""
        ids = self.tail.reshape(self.n, -1)[:, self.prev].ravel()
        ids.flags.writeable = False
        return ids

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def num_trivial(self) -> int:
        return int((self.class_sizes == 1).sum())

    def representative(self, cid: int) -> Perm:
        return perms.unrank(int(self.rep_ranks[cid]), self.n)

    def class_of_perm(self, p: Sequence[int]) -> int:
        first, t = divmod(perms.rank(p), len(self.prev))
        return int(self.tail[first * (len(self.tail) // self.n) + self.prev[t]])

    def member_ranks(self, cid: int) -> np.ndarray:
        """The sorted int64 ranks of class cid, read one first digit d at a
        time: rank ``d * (n-1)! + t`` is a member iff tail maps the class
        prev[t] of block d to cid.  Only the digits whose block meets cid
        read prev, and class_id is not built."""
        block = len(self.prev)
        hit = self.tail.reshape(self.n, -1) == cid
        digits = np.flatnonzero(hit.any(axis=1))
        flat = np.flatnonzero(hit[digits][:, self.prev])
        return digits[flat // block] * block + flat % block

    def members(self, cid: int) -> list[Perm]:
        return [tuple(p) for p in kernels_numpy.unrank(self.member_ranks(cid), self.n).tolist()]

    def sizes_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(int(s) for s in self.class_sizes))

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition_text,
            "n": self.n,
            "mode": self.mode,
            "num_classes": self.num_classes,
            "num_trivial": self.num_trivial,
            "class_sizes": list(self.sizes_multiset()),
            "representatives": format_ranks(self.rep_ranks, self.n).splitlines(),
        }

    def to_csv_rows(self) -> list[tuple[int, int, str]]:
        reps = format_ranks(self.rep_ranks, self.n).splitlines()
        return list(zip(range(self.num_classes), self.class_sizes.tolist(), reps))


def _memory_cap_bytes() -> int | None:
    env = os.environ.get("PERMCLASS_MEMORY_CAP_MB", "").strip()
    if not env:
        return None
    try:
        cap = float(env)
    except ValueError:
        cap = math.nan
    if not math.isfinite(cap) or cap <= 0:
        raise ValueError(
            f"PERMCLASS_MEMORY_CAP_MB must be a finite positive number of MiB, got {env!r}"
        )
    return int(cap * 1024 * 1024)


def estimate_bytes(
    n: int,
    mode: Mode = "factor",
    partition: ReplacementPartition | None = None,
    classes: Sequence[int] = (),
) -> int:
    """Rough peak memory of enumerate_classes, from the step that closes S_n,
    given the class counts C_1, ..., C_{n-1} that the closure has found
    (classes[k-1] for S_k; a count not given is charged as 1, the fewest:
    decompositions checks again before that step, when they are known).
    Without a partition the single part of all of S_3 is charged.

    Both modes charge 40 B a node (n * C_{n-1} tail nodes, and as many head
    nodes in subword mode): the root array and its pointer jumps, the
    numbered ids, and each class's int32 root and int64 size and minimal
    rank.  Factor mode also holds the int32 ids of S_{n-1} and the most
    edges one batch of the first window holds
    (``kernels_numpy.factor_step_edges``), 24 B an edge: the node pair,
    its root images and the closure's filtered copies.

    Subword mode (kernels_numpy.class_steps) holds either the gather of the
    int32 ids of S_{n-1}, a strided result and its contiguous copy, beside
    the ids of S_{n-2}; or those ids, the nodes and one batch: the join,
    n * (n-1) * C_{n-2} rows of 40 B (the node pair, the gathers it is made
    from and the closure's copies), or an index set through both ends,
    C(n, c) * C_{n-c} rows a pattern of 56 B (the shared code, one
    pattern's ranks and nodes) and 40 B for each edge (the partner's
    nodes, the pair and the closure's copies).  1 MiB more covers what the
    interpreter and the allocator add over a step: 3.1 MB of arrays grow
    the peak by up to 3.4 MB at n=10 when few classes leave only the ids.
    """
    if partition is None:
        partition = relation.make_partition([list(perms.all_perms(3))])
    tab = build_tables(partition)
    count = [1, *classes[: n - 1], *[1] * n]  # count[k]: C_k, 1 where not given (C_0 = 1)
    nodes = n * count[n - 1]
    if mode == "factor":
        return 40 * nodes + 4 * factorial(n - 1) + 24 * kernels_numpy.factor_step_edges(n, tab)[1]
    rows = math.comb(n, tab.c) * count[n - tab.c] if tab.c <= n else 0
    ends = rows * (56 + 40 * sum(len(us) for _, us in tab.partners))
    held = 4 * factorial(n - 1) + 80 * nodes + max(40 * n * (n - 1) * count[max(n - 2, 0)], ends)
    return max(4 * factorial(max(n - 2, 0)) + 8 * factorial(n - 1), held) + (1 << 20)


def _limits(n: int, mode: Mode, partition: ReplacementPartition, allow_large: bool) -> list:
    """Refuse n past the mode's bound (with no estimate past the large
    bound), else the (bytes, what) limits its estimate must keep to: the
    memory cap and, past the default bound, the available RAM."""
    bound = (LARGE_MAX_N if allow_large else DEFAULT_MAX_N)[mode]
    if n > bound:
        hint = ""
        if n <= LARGE_MAX_N[mode]:
            hint = (f" (estimated {estimate_bytes(n, mode, partition) // 10**6} MB needed;"
                    " pass allow_large (or --allow-large) to raise the bound)")
        raise ResourceLimitError(f"n={n} exceeds the {mode}-mode bound {bound}{hint}")
    limits = []
    cap = _memory_cap_bytes()
    if cap is not None:
        limits.append((cap, "PERMCLASS_MEMORY_CAP_MB"))
    if allow_large and n > DEFAULT_MAX_N[mode]:
        avail = _available_bytes()
        if avail is None:
            print("permclass: available memory unknown; RAM check skipped", file=sys.stderr)
        else:
            limits.append((avail, f"available memory ({avail // 10**6} MB); refusing"))
    return limits


def _check(n: int, mode: Mode, partition: ReplacementPartition, limits: list,
           classes: Sequence[int]) -> None:
    """Refuse the estimate of S_n over the given class counts of S_1, ...,
    S_{n-1} past any of the limits; with none, no estimate is computed."""
    if limits:
        est = estimate_bytes(n, mode, partition, classes)
        for limit, what in limits:
            if est > limit:
                raise ResourceLimitError(f"estimated {est // 10**6} MB exceeds {what}")


def _available_bytes() -> int | None:
    """Available RAM: MemAvailable from /proc/meminfo, else the free pages
    from os.sysconf; None where neither can be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def enumerate_classes(
    n: int,
    partition: ReplacementPartition,
    mode: Mode = "factor",
    workers: int | None = None,
    allow_large: bool = False,
) -> ClassDecomposition:
    """Exact transitive closure of the one-step relation over all of S_n:
    the last step of decompositions.

    ``workers`` must be >= 1 if given; it has no effect yet, since the
    closure runs serially.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    (dec,) = decompositions(range(n, n + 1), partition, mode, allow_large)
    return dec


def decompositions(
    ns: range,
    partition: ReplacementPartition,
    mode: Mode = "factor",
    allow_large: bool = False,
) -> Iterator[ClassDecomposition]:
    """The decomposition of S_n for each n of ns (a range of n >= 1 with
    step 1), in order, from one pass of the closure up to its last n: each
    is the step of kernels_numpy.class_steps that closes S_n.

    Each n is checked as enumerate_classes(n) checks it, in the same
    order: its bound and estimate over one class of each S_k before the
    pass for the first n, and right after the previous n is yielded for
    the others, then the estimate over the class counts of S_1, ...,
    S_{n-1} before its step.  So a refusal comes at the first n that
    fails, and nothing past the n a caller last asked for is closed or
    checked.
    """
    if mode not in DEFAULT_MAX_N:
        raise ValueError(f"unknown mode {mode!r}; expected 'factor' or 'subword'")
    if not ns:
        return
    if ns.step != 1 or ns[0] < 1:
        raise ValueError(f"decompositions need n >= 1 in steps of 1, got {ns}")
    limits = _limits(ns[0], mode, partition, allow_large)
    _check(ns[0], mode, partition, limits, ())
    text = partition.text()
    steps = kernels_numpy.class_steps(ns[-1], build_tables(partition), mode)
    counts = []  # C_1, C_2, ...: the class counts of each S_k closed
    for n, (tail, prev, sizes, rep_ranks) in enumerate(steps, 1):
        counts.append(len(sizes))
        if n in ns:
            for arr in (tail, prev, sizes, rep_ranks):
                arr.flags.writeable = False
            yield ClassDecomposition(
                n=n,
                mode=mode,
                partition_text=text,
                tail=tail,
                prev=prev,
                class_sizes=sizes,
                rep_ranks=rep_ranks,
            )
        if n + 1 in ns:
            if n + 1 > ns[0]:
                limits = _limits(n + 1, mode, partition, allow_large)
                _check(n + 1, mode, partition, limits, ())
            _check(n + 1, mode, partition, limits, counts)


# Most entries of a cached factor move table (32 MiB of int64).  A table
# has sum over m = c..n of m!/(m-c)! rows, times the largest part's size
# less one: at n=20, 35910 rows at c=3 and 488376 at c=4, but 6.5M at c=5
# and 83.7M at c=6, where the tuple BFS runs instead.
_MOVE_TABLE_ENTRIES = 1 << 22


def _move_table_entries(n: int, partition: ReplacementPartition) -> int:
    c = partition.c
    width = max((len(part) - 1 for part in partition.nontrivial_parts), default=0)
    return width * sum(factorial(m) // factorial(m - c) for m in range(c, n + 1))


@lru_cache(maxsize=8)
def _factor_moves(partition: ReplacementPartition, n: int):
    moves = kernels_numpy.factor_moves(n, build_tables(partition))
    for arr in moves:
        arr.flags.writeable = False
    return moves


# Within the default bound, class_of's rank BFS gives way to closing S_n
# once, over the queries of one (partition, n), it would find more than
# n!/_BFS_SHARE members.  Closing S_n of a registered relation costs as
# much as the rank BFS over about n!/16 members at n=8, n!/60 at n=9 and
# n!/100 to n!/300 at n=10 (2-vCPU host), so a large or often-asked class
# is not searched for long, and a small class asked once never closes S_n.
_BFS_SHARE = 128
# class_of keeps the decompositions it reads classes off, least recently
# used first, in at most this many bytes of arrays together; a factor S_10
# of one of the registered relations holds 1.5-1.8 MB, {123,321}'s 7.0 MB,
# and {1234,4321}'s 2.6M classes 54 MB, which the rank BFS answers instead.
_CLASS_OF_CACHE_BYTES = 32 << 20
# ... and remembers how it answered at most this many (partition, n, mode).
_CLASS_OF_CACHE_KEYS = 64
_TOO_LARGE = "too large"  # the BFS answers: S_n would pass the byte budget or a cap
# (partition, n, mode) -> the members the rank BFS has found (an int), the
# kept ClassDecomposition, or _TOO_LARGE
_class_of_cache: OrderedDict = OrderedDict()


class _OutOfRoom(Exception):
    """The rank BFS found more members than it had room for."""


def _keep(key: tuple, entry) -> None:
    """Store class_of's entry for key as the most recently used, then drop
    the least recently used past _CLASS_OF_CACHE_KEYS keys or
    _CLASS_OF_CACHE_BYTES of kept arrays."""
    _class_of_cache[key] = entry
    total = sum(_held_bytes(e) for e in _class_of_cache.values() if isinstance(e, ClassDecomposition))
    while total > _CLASS_OF_CACHE_BYTES or len(_class_of_cache) > _CLASS_OF_CACHE_KEYS:
        _, old = _class_of_cache.popitem(last=False)
        if isinstance(old, ClassDecomposition):
            total -= _held_bytes(old)


def _held_bytes(dec: ClassDecomposition) -> int:
    return sum(a.nbytes for a in (dec.tail, dec.prev, dec.class_sizes, dec.rep_ranks))


def _decomposition_to_keep(partition: ReplacementPartition, n: int, mode: Mode):
    """S_n, or _TOO_LARGE where its arrays could pass _CLASS_OF_CACHE_BYTES
    or the closure is refused (PERMCLASS_MEMORY_CAP_MB).  The pass stops at
    S_{n-1} when its classes show that S_n could hold too much: the int32
    ids of S_{n-1} and at most n nodes a class of S_{n-1}, each an int32
    tail entry and a class's int64 size and minimal rank."""
    steps = decompositions(range(max(n - 1, 1), n + 1), partition, mode)
    try:
        for dec in steps:
            if dec.n < n and 4 * factorial(n - 1) + 20 * n * dec.num_classes > _CLASS_OF_CACHE_BYTES:
                return _TOO_LARGE
    except ResourceLimitError:
        return _TOO_LARGE
    finally:
        steps.close()
    return dec


def class_of(
    p: Sequence[int],
    partition: ReplacementPartition,
    mode: Mode = "factor",
    max_size: int | None = None,
) -> np.ndarray:
    """The class of p, as the sorted int64 Lehmer ranks of its members
    (so in lexicographic order; ``len`` counts them).

    Factor mode runs a level-synchronous BFS over ranks
    (kernels_numpy.class_ranks) on the window moves of
    kernels_numpy.factor_moves, built once per (partition, n); subword
    mode, and factor mode where that table would pass
    _MOVE_TABLE_ENTRIES, run a BFS over the target tuples of
    relation.rewrites.  For 1 <= n <= DEFAULT_MAX_N[mode] the class is
    read off a kept decomposition of S_n instead
    (ClassDecomposition.member_ranks), closed at a subword query, and at
    the factor query whose rank BFS would take the members it has found
    for this (partition, n) past n!/_BFS_SHARE; a relation whose S_n
    would be too large to keep (_decomposition_to_keep) stays with the
    BFS.  No path builds the n! class ids.  More than ``max_size``
    members (default DEFAULT_CLASS_CAP) raise ResourceLimitError, off a
    decomposition before any member is listed; a max_size below 1 raises
    ValueError.
    """
    start = perms.as_perm(p)
    cap = max_size if max_size is not None else DEFAULT_CLASS_CAP
    if cap < 1:
        raise ValueError(f"class size cap must be >= 1, got {cap}")

    def admit(size: int) -> None:
        if size > cap:
            raise ResourceLimitError(f"class of {perms.format_perm(start)} exceeds cap {cap}")

    n = len(start)
    rank_bfs = mode == "factor" and _move_table_entries(n, partition) <= _MOVE_TABLE_ENTRIES
    if not 1 <= n <= DEFAULT_MAX_N.get(mode, 0):
        return _bfs(start, partition, mode, admit, rank_bfs)
    key = (partition, n, mode)
    entry = _class_of_cache.pop(key, 0)
    try:
        if isinstance(entry, int):
            room = factorial(n) // _BFS_SHARE - entry if rank_bfs else 0

            def admit_within_room(size: int) -> None:
                admit(size)
                if size > room:
                    raise _OutOfRoom

            if room > 0:
                try:
                    ranks = _bfs(start, partition, mode, admit_within_room, rank_bfs)
                    entry += len(ranks)
                    return ranks
                except _OutOfRoom:
                    pass
            entry = _decomposition_to_keep(partition, n, mode)
        if entry is _TOO_LARGE:
            return _bfs(start, partition, mode, admit, rank_bfs)
        cid = entry.class_of_perm(start)
        admit(int(entry.class_sizes[cid]))
        return entry.member_ranks(cid)
    finally:
        _keep(key, entry)


def _bfs(start: Perm, partition: ReplacementPartition, mode: Mode, admit, rank_bfs: bool) -> np.ndarray:
    """class_of by the rank BFS where rank_bfs, else by the tuple BFS."""
    if rank_bfs:
        return kernels_numpy.class_ranks(perms.rank(start), _factor_moves(partition, len(start)), admit)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for q in frontier:
            for _, _, _, target in relation.rewrites(q, partition, mode):
                if target not in seen:
                    seen.add(target)
                    admit(len(seen))
                    nxt.append(target)
        frontier = nxt
    return np.array(sorted(perms.rank(q) for q in seen), dtype=np.int64)


def format_ranks(ranks: np.ndarray, n: int) -> str:
    """The permutations of S_n at the given ranks, one a line, each as
    perms.format_perm writes it: every letter as up to two digit bytes
    and a separator byte, with the unused bytes (0) dropped."""
    letters = kernels_numpy.unrank(ranks, n).astype(np.uint8)
    chars = np.zeros((len(letters), n, 3), dtype=np.uint8)
    chars[..., 0] = np.where(letters >= 10, ord("0") + letters // 10, 0)
    chars[..., 1] = ord("0") + letters % 10
    if n > 9:
        chars[..., 2] = ord(",")
    chars[:, -1, 2] = ord("\n")
    flat = chars.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def identity_class_size(n: int, partition: ReplacementPartition) -> int:
    return len(class_of(perms.identity(n), partition))


def class_sizes_multiset(
    n: int, partition: ReplacementPartition, mode: Mode = "factor"
) -> tuple[int, ...]:
    return enumerate_classes(n, partition, mode).sizes_multiset()


def count_avoiders(n: int, c: int, patterns: Iterable[Perm]) -> int:
    """Permutations of S_n containing no factor forming any given pattern."""
    pats = [perms.as_perm(p) for p in patterns]
    if not pats or n < c:
        return factorial(n)
    return kernels_numpy.count_banned_avoiders(n, c, banned_mask(c, pats))


def hit_any(n: int, partition: ReplacementPartition, windows: Iterable[int]) -> np.ndarray:
    """(n!,) bool over ranks: True iff the factor at some 0-based window
    in windows is a hit (lies in a nontrivial part)."""
    mask = banned_mask(partition.c, partition.nontrivial_patterns)
    return kernels_numpy.window_hits(n, partition.c, mask, windows)


def count_trivial(n: int, partition: ReplacementPartition) -> int:
    """Number of K-avoiders (= trivial classes) without a full decomposition."""
    return count_avoiders(n, partition.c, partition.nontrivial_patterns)
