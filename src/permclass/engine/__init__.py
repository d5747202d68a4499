"""Exhaustive class decomposition of S_n under a replacement partition.

The decomposition runs over the dense Lehmer-rank space 0..n!-1.  Two
backends build it, chosen by PERMCLASS_BACKEND (see active_backend):

- "numba": worker blocks of ranks generate transformation edges on a
  thread pool, the edges feed a union-find, and a final relabeling pass
  assigns class ids in order of each class's minimal member rank.  The
  kernels are numba-compiled when numba is importable; without it the
  same kernels run as plain Python, much slower, with a RuntimeWarning.
- "numpy": vectorized edge generation over a permutation table, with
  connectivity from scipy.sparse.csgraph.

The result is byte-identical for any worker count and either backend.

Default bounds: n <= 10 in factor mode, n <= 8 in subword mode;
``allow_large`` raises them to 12/10 after checking the memory estimate
against the host (and PERMCLASS_MEMORY_CAP_MB, if set).
"""

from __future__ import annotations

import itertools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .. import perms, relation
from ..errors import ResourceLimitError
from ..perms import Perm
from ..relation import Mode, ReplacementPartition
from . import kernels_numba, kernels_numpy
from .kernels_numba import HAVE_NUMBA
from .tables import PatternTables, banned_mask, build_tables

DEFAULT_MAX_N = {"factor": 10, "subword": 8}
LARGE_MAX_N = {"factor": 12, "subword": 10}
DEFAULT_CLASS_CAP = 2_000_000
_FACTOR_BLOCK = 1 << 16
_SUBWORD_BLOCK = 1 << 12


def active_backend() -> str:
    """The enumeration backend: PERMCLASS_BACKEND if set, else the default.

    The default is "numba" when numba is importable, else "numpy".
    PERMCLASS_BACKEND=numba selects the union-find kernels even without
    numba: they then run uncompiled, and a RuntimeWarning says so.  Any
    value other than "numba" or "numpy" raises ValueError.
    """
    forced = os.environ.get("PERMCLASS_BACKEND", "").strip().lower()
    if forced == "numpy":
        return "numpy"
    if forced == "numba":
        if not HAVE_NUMBA:
            warnings.warn(
                "PERMCLASS_BACKEND=numba but numba is not importable; "
                "running the kernels uncompiled",
                RuntimeWarning,
            )
        return "numba"
    if forced:
        raise ValueError(f"unknown PERMCLASS_BACKEND {forced!r}")
    return "numba" if HAVE_NUMBA else "numpy"


@dataclass(frozen=True)
class ClassDecomposition:
    """The partition of S_n into classes, indexed densely by Lehmer rank."""

    n: int
    mode: str
    partition_text: str
    class_id: np.ndarray     # int32, length n!; class index per rank
    class_sizes: np.ndarray  # int64, per class index
    rep_ranks: np.ndarray    # int64 rank of each class's lexicographic minimum

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def num_trivial(self) -> int:
        return int((self.class_sizes == 1).sum())

    def representative(self, cid: int) -> Perm:
        return perms.unrank(int(self.rep_ranks[cid]), self.n)

    def representatives(self) -> list[Perm]:
        return [perms.unrank(int(r), self.n) for r in self.rep_ranks]

    def class_of_perm(self, p: Sequence[int]) -> int:
        return int(self.class_id[perms.rank(p)])

    def members(self, cid: int) -> list[Perm]:
        ranks = np.nonzero(self.class_id == cid)[0]
        return [perms.unrank(int(r), self.n) for r in ranks]

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
            "representatives": [
                perms.format_perm(p) for p in self.representatives()
            ],
        }

    def to_csv_rows(self) -> list[tuple[int, int, str]]:
        return [
            (cid, int(self.class_sizes[cid]), perms.format_perm(self.representative(cid)))
            for cid in range(self.num_classes)
        ]


def _memory_cap_bytes() -> int | None:
    env = os.environ.get("PERMCLASS_MEMORY_CAP_MB", "").strip()
    if env:
        return int(float(env) * 1024 * 1024)
    return None


def estimate_bytes(n: int, mode: Mode = "factor") -> int:
    """Rough peak size of the dense arrays for enumerate_classes."""
    total = factorial(n)
    per_rank = 4 + 4 + 4 + 4  # parent, size, class_id, label
    block = _FACTOR_BLOCK if mode == "factor" else _SUBWORD_BLOCK
    if mode == "factor" or n < 3:
        sites = n - 1
    else:
        sites = n * (n - 1) * (n - 2) // 6
    edge_buf = block * max(sites, 1) * 5 * 16
    return total * per_rank + edge_buf


def _check_bounds(n: int, mode: Mode, allow_large: bool) -> None:
    bound = (LARGE_MAX_N if allow_large else DEFAULT_MAX_N)[mode]
    est = estimate_bytes(n, mode)
    if n > bound:
        hint = "" if allow_large else "; pass allow_large (or --allow-large) to raise the bound"
        raise ResourceLimitError(
            f"n={n} exceeds the {mode}-mode bound {bound} "
            f"(estimated {est / 1e6:.0f} MB needed{hint})"
        )
    cap = _memory_cap_bytes()
    if cap is not None and est > cap:
        raise ResourceLimitError(
            f"estimated {est / 1e6:.0f} MB exceeds PERMCLASS_MEMORY_CAP_MB"
        )
    if allow_large and n > DEFAULT_MAX_N[mode]:
        try:
            import psutil

            avail = psutil.virtual_memory().available
        except ImportError:  # pragma: no cover
            avail = None
        if avail is not None and est > avail:
            raise ResourceLimitError(
                f"estimated {est / 1e6:.0f} MB exceeds available memory "
                f"({avail / 1e6:.0f} MB); refusing"
            )


def _comb_array(n: int, c: int) -> np.ndarray:
    combs = list(itertools.combinations(range(n), c))
    return np.array(combs, dtype=np.int64).reshape(len(combs), c)


def _fact_vec(n: int) -> np.ndarray:
    return np.array([factorial(i) for i in range(n + 1)], dtype=np.int64)


def _edges_numba(n, mode, tab: PatternTables, workers: int):
    """Yield (src, dst, count) edge blocks in deterministic block order."""
    total = factorial(n)
    fact = _fact_vec(n)
    if mode == "factor":
        block = _FACTOR_BLOCK
        sites = n - tab.c + 1
        combs = None
    else:
        block = _SUBWORD_BLOCK
        combs = _comb_array(n, tab.c)
        sites = len(combs)
    per_perm = max(sites, 1) * max(tab.max_out, 1)
    starts = list(range(0, total, block))

    def run(start):
        count = min(block, total - start)
        src = np.empty(count * per_perm, dtype=np.int64)
        dst = np.empty(count * per_perm, dtype=np.int64)
        if mode == "factor":
            m = kernels_numba.factor_edges_block(
                n, tab.c, start, count, fact, tab.cfact,
                tab.part_id, tab.pat_onel, tab.pat_digits,
                tab.partners_ptr, tab.partners_idx, src, dst,
            )
        else:
            m = kernels_numba.subword_edges_block(
                n, tab.c, start, count, fact, tab.cfact,
                tab.part_id, tab.pat_onel,
                tab.partners_ptr, tab.partners_idx, combs, src, dst,
            )
        return src, dst, m

    if workers <= 1 or len(starts) <= 1:
        for start in starts:
            yield run(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, start) for start in starts]
            for fut in futures:
                yield fut.result()


def enumerate_classes(
    n: int,
    partition: ReplacementPartition,
    mode: Mode = "factor",
    workers: int | None = None,
    allow_large: bool = False,
) -> ClassDecomposition:
    """Exact transitive closure of the one-step relation over all of S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_bounds(n, mode, allow_large)
    if workers is None:
        workers = os.cpu_count() or 1
    total = factorial(n)
    tab = build_tables(partition)
    backend = active_backend()
    if backend == "numba":
        parent = np.arange(total, dtype=np.int32)
        size = np.ones(total, dtype=np.int32)
        for src, dst, m in _edges_numba(n, mode, tab, workers):
            kernels_numba.apply_unions(parent, size, src, dst, m)
        class_id, num = kernels_numba.relabel_by_min_member(parent)
    else:
        table = kernels_numpy.perm_table(n)
        if mode == "factor":
            src, dst = kernels_numpy.factor_edges(n, tab, table)
        else:
            src, dst = kernels_numpy.subword_edges(n, tab, table, _comb_array(n, tab.c))
        class_id, num = kernels_numpy.connected_class_ids(total, src, dst)
    sizes = np.bincount(class_id, minlength=num).astype(np.int64)
    rep_ranks = np.unique(class_id, return_index=True)[1].astype(np.int64)
    for arr in (class_id, sizes, rep_ranks):
        arr.flags.writeable = False
    return ClassDecomposition(
        n=n,
        mode=mode,
        partition_text=partition.text(),
        class_id=class_id,
        class_sizes=sizes,
        rep_ranks=rep_ranks,
    )


def class_of(
    p: Sequence[int],
    partition: ReplacementPartition,
    mode: Mode = "factor",
    max_size: int | None = None,
) -> set[Perm]:
    """The class of p: a BFS over the rewrite targets of relation.rewrites.

    Only the start is validated; the targets are plain tuples (no
    Transformation records), and no n!-sized array is allocated.  More
    than ``max_size`` members (default DEFAULT_CLASS_CAP) raise
    ResourceLimitError.
    """
    start = perms.as_perm(p)
    cap = max_size if max_size is not None else DEFAULT_CLASS_CAP
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for q in frontier:
            for _, _, _, target in relation.rewrites(q, partition, mode):
                if target not in seen:
                    seen.add(target)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            f"class of {perms.format_perm(start)} exceeds cap {cap}"
                        )
                    nxt.append(target)
        frontier = nxt
    return seen


def identity_class_size(n: int, partition: ReplacementPartition) -> int:
    return len(class_of(perms.identity(n), partition))


def class_sizes_multiset(
    n: int, partition: ReplacementPartition, mode: Mode = "factor"
) -> tuple[int, ...]:
    return enumerate_classes(n, partition, mode).sizes_multiset()


def count_avoiders(n: int, c: int, patterns: Iterable[Perm]) -> int:
    """Permutations of S_n containing no factor forming any given pattern."""
    pats = [perms.as_perm(p) for p in patterns]
    if not pats:
        return factorial(n)
    if n < c:
        return factorial(n)
    banned = banned_mask(c, pats)
    total = factorial(n)
    if active_backend() == "numba":
        fact = _fact_vec(n)
        cfact = _fact_vec(c)
        return int(
            kernels_numba.count_banned_avoiders_block(n, c, 0, total, fact, cfact, banned)
        )
    table = kernels_numpy.perm_table(n)
    return kernels_numpy.count_banned_avoiders(n, c, banned, table)


def hit_mask(n: int, partition: ReplacementPartition) -> np.ndarray:
    """(n!, n-c+1) bool over ranks: entry [r, i] is True iff the factor at
    0-based window i of rank r is a hit (lies in a nontrivial part)."""
    c = partition.c
    table = kernels_numpy.perm_table(n)
    return kernels_numpy.window_hits(
        n, c, banned_mask(c, partition.nontrivial_patterns), table
    )


def count_trivial(n: int, partition: ReplacementPartition) -> int:
    """Number of K-avoiders (= trivial classes) without a full decomposition."""
    return count_avoiders(n, partition.c, partition.nontrivial_patterns)
