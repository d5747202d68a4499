"""Pure-numpy fallback kernels (the default where numba is not importable;
forced with PERMCLASS_BACKEND=numpy).

Everything is vectorized across the whole of S_n: the permutation table
is materialized as an (n!, n) array, pattern ids per window come from a
vectorized Lehmer computation, and connectivity is delegated to
scipy.sparse.csgraph.  Slower and hungrier than the compiled numba path
but with identical results.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .tables import PatternTables

_CHUNK = 1 << 19


def perm_table(n: int) -> np.ndarray:
    """All of S_n in lexicographic order as an (n!, n) int8/int16 array."""
    total = factorial(n)
    dtype = np.int8 if n <= 127 else np.int16
    ranks = np.arange(total, dtype=np.int64)
    out = np.empty((total, n), dtype=dtype)
    avail = np.broadcast_to(np.arange(1, n + 1, dtype=dtype), (total, n)).copy()
    rows = np.arange(total)
    for i in range(n):
        f = factorial(n - 1 - i)
        d = (ranks // f) % (n - i)
        out[:, i] = avail[rows, d]
        shifted = np.empty_like(avail)
        shifted[:, :-1] = avail[:, 1:]
        shifted[:, -1] = 0
        avail = np.where(np.arange(n)[None, :] >= d[:, None], shifted, avail)
    return out


def _fact_vec(n: int) -> np.ndarray:
    return np.array([factorial(i) for i in range(n + 1)], dtype=np.int64)


def _window_pattern_ids(win: np.ndarray, cfact: np.ndarray) -> np.ndarray:
    c = win.shape[1]
    pid = np.zeros(len(win), dtype=np.int64)
    for j in range(c):
        d = np.zeros(len(win), dtype=np.int64)
        for k in range(j + 1, c):
            d += win[:, k] < win[:, j]
        pid += d * cfact[c - 1 - j]
    return pid


def rank_rows(perm_rows: np.ndarray, fact: np.ndarray) -> np.ndarray:
    """Lehmer ranks of each row of an (m, n) permutation array."""
    n = perm_rows.shape[1]
    r = np.zeros(len(perm_rows), dtype=np.int64)
    for a in range(n):
        d = np.zeros(len(perm_rows), dtype=np.int64)
        for b in range(a + 1, n):
            d += perm_rows[:, b] < perm_rows[:, a]
        r += d * fact[n - 1 - a]
    return r


def factor_edges(n: int, tab: PatternTables, table: np.ndarray):
    """All undirected factor-transformation edges as (src, dst) rank arrays."""
    c = tab.c
    fact = _fact_vec(n)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    nontrivial = np.nonzero(tab.part_id >= 0)[0]
    for i in range(n - c + 1):
        win = table[:, i : i + c].astype(np.int64)
        pid = _window_pattern_ids(win, tab.cfact)
        for t in nontrivial:
            lo, hi = tab.partners_ptr[t], tab.partners_ptr[t + 1]
            if lo == hi:
                continue
            rows_all = np.nonzero(pid == t)[0]
            for s in range(0, len(rows_all), _CHUNK):
                rows = rows_all[s : s + _CHUNK]
                if not len(rows):
                    continue
                sw = np.sort(win[rows], axis=1)
                suffix = table[rows][:, i + c :].astype(np.int64)
                # tail[s] = letters beyond the window smaller than s-th smallest
                tail = (suffix[:, None, :] < sw[:, :, None]).sum(axis=2)
                def base(q):
                    acc = np.zeros(len(rows), dtype=np.int64)
                    for j in range(c):
                        acc += (
                            tab.pat_digits[q, j] + tail[:, tab.pat_onel[q, j] - 1]
                        ) * fact[n - 1 - i - j]
                    return acc
                base_t = base(t)
                for q in tab.partners_idx[lo:hi]:
                    src_parts.append(rows)
                    dst_parts.append(rows - base_t + base(q))
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def subword_edges(n: int, tab: PatternTables, table: np.ndarray, combs: np.ndarray):
    """All undirected subword-transformation edges as (src, dst) rank arrays."""
    c = tab.c
    fact = _fact_vec(n)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    nontrivial = np.nonzero(tab.part_id >= 0)[0]
    for ci in range(combs.shape[0]):
        idx = combs[ci]
        win = table[:, idx].astype(np.int64)
        pid = _window_pattern_ids(win, tab.cfact)
        for t in nontrivial:
            lo, hi = tab.partners_ptr[t], tab.partners_ptr[t + 1]
            if lo == hi:
                continue
            rows_all = np.nonzero(pid == t)[0]
            for s in range(0, len(rows_all), _CHUNK):
                rows = rows_all[s : s + _CHUNK]
                if not len(rows):
                    continue
                sw = np.sort(win[rows], axis=1)
                for q in tab.partners_idx[lo:hi]:
                    modified = table[rows].astype(np.int64)
                    for j in range(c):
                        modified[:, idx[j]] = sw[:, tab.pat_onel[q, j] - 1]
                    src_parts.append(rows)
                    dst_parts.append(rank_rows(modified, fact))
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def window_hits(n: int, c: int, mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(n!, n-c+1) bool: hits[r, i] iff the 0-based window i of rank r
    standardizes to a pattern id marked in mask."""
    cfact = _fact_vec(c)
    hits = np.empty((len(table), max(n - c + 1, 0)), dtype=np.bool_)
    for i in range(n - c + 1):
        win = table[:, i : i + c].astype(np.int64)
        hits[:, i] = mask[_window_pattern_ids(win, cfact)]
    return hits


def count_banned_avoiders(n: int, c: int, banned: np.ndarray, table: np.ndarray) -> int:
    return int((~window_hits(n, c, banned, table).any(axis=1)).sum())


def connected_class_ids(total: int, src: np.ndarray, dst: np.ndarray):
    """Component labels relabeled so ids follow each class's minimal rank."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(total, total)
    )
    ncomp, labels = connected_components(graph, directed=False)
    first = np.full(ncomp, total, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(total, dtype=np.int64))
    new_of_old = np.empty(ncomp, dtype=np.int64)
    new_of_old[np.argsort(first, kind="stable")] = np.arange(ncomp)
    return new_of_old[labels].astype(np.int32), ncomp
