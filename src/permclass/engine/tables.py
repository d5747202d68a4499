"""Flat lookup tables over S_c shared by the factor and subword kernels.

Patterns are indexed by their Lehmer rank within S_c (lexicographic
order).  Partner lists only contain partners with a *larger* pattern id,
so each unordered transformation edge is generated exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .. import perms
from ..relation import ReplacementPartition


@dataclass(frozen=True)
class PatternTables:
    c: int
    part_id: np.ndarray        # (c!,) int64, -1 for singletons
    pat_onel: np.ndarray       # (c!, c) int64 one-line letters
    partners_ptr: np.ndarray   # (c!+1,) int64 CSR offsets
    partners_idx: np.ndarray   # flat partner pattern ids (id > own id only)
    cfact: np.ndarray          # factorials 0..c


def build_tables(partition: ReplacementPartition) -> PatternTables:
    c = partition.c
    nc = factorial(c)
    part_id = np.full(nc, -1, dtype=np.int64)
    pat_onel = np.empty((nc, c), dtype=np.int64)
    for pid, pat in enumerate(perms.all_perms(c)):
        pat_onel[pid] = pat
        k = partition.part_index(pat)
        if k is not None:
            part_id[pid] = k
    partner_lists: list[list[int]] = [[] for _ in range(nc)]
    for part in partition.nontrivial_parts:
        ids = sorted(perms.rank(p) for p in part)
        for a, t in enumerate(ids):
            partner_lists[t] = ids[a + 1 :]
    ptr = np.zeros(nc + 1, dtype=np.int64)
    for t in range(nc):
        ptr[t + 1] = ptr[t] + len(partner_lists[t])
    idx = np.fromiter(
        (q for lst in partner_lists for q in lst), dtype=np.int64, count=int(ptr[-1])
    )
    cfact = np.array([factorial(i) for i in range(c + 1)], dtype=np.int64)
    return PatternTables(
        c=c,
        part_id=part_id,
        pat_onel=pat_onel,
        partners_ptr=ptr,
        partners_idx=idx,
        cfact=cfact,
    )


def banned_mask(c: int, patterns) -> np.ndarray:
    """Boolean array over S_c pattern ids marking the given patterns."""
    mask = np.zeros(factorial(c), dtype=np.bool_)
    for p in patterns:
        if len(p) != c:
            raise ValueError(f"pattern {p} does not have length {c}")
        mask[perms.rank(p)] = True
    return mask
