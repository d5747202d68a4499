"""numpy kernels of the enumeration engine.

Factor mode runs on the Lehmer-digit grid and builds no permutation table.
The rank of p in S_n is a mixed-radix number whose digit j (radix n-j)
counts the later letters smaller than p_j.  For the length-c window that
starts at position i, with m = n-i letters from there on, the rank splits
as ``pre * m! + loc * (m-c)! + suf``: pre reads the digits before the
window, loc its c digits and suf the digits after it.  The window's pattern
and the loc of every rewrite of it are functions of loc alone, because a
rewrite only permutes the window's letters: every letter keeps the set of
letters after it outside the window, and the letters outside keep theirs.
So a local rule over the m!/(m-c)! values of loc (``window_letters``)
gives every factor edge, hit and avoider by broadcasting over
(pre, loc, suf).

Subword mode permutes letters at non-adjacent positions, which changes the
digits between them, so it rewrites the rows of an (n!, n) permutation
table instead.

``class_ids`` closes the edges of either mode one letter at a time: a
rewrite that leaves the first letter alone acts on the rank of the other
letters only, so each step closes the rewrites through position 0 over
the classes of the step before.  ``connected_class_ids`` closes a step's
edges one batch (window or index set) at a time by root hooking and
pointer jumping over one int32 root array, so no step holds more than
one batch's edges.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import factorial

import numpy as np

from .tables import PatternTables

_WHOLE_GRID_N = 7


def perm_table(n: int) -> np.ndarray:
    """All of S_n in lexicographic order as an (n!, n) int8/int16 array.

    Built block-recursively: the block of S_k with first letter a is
    ``[a, prev + (prev >= a)]`` over the table of S_{k-1}.
    """
    dtype = np.int8 if n <= 127 else np.int16
    table = np.zeros((1, 0), dtype=dtype)
    for k in range(1, n + 1):
        prev, block = table, len(table)
        table = np.empty((block * k, k), dtype=dtype)
        for a in range(1, k + 1):
            rows = table[(a - 1) * block : a * block]
            rows[:, 0] = a
            rows[:, 1:] = prev + (prev >= a)
    return table


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


@lru_cache(maxsize=None)
def window_letters(m: int, c: int) -> np.ndarray:
    """The first c letters (0-based) of a permutation of m letters, one row
    per value of the window's digits loc: the c-prefixes of S_m in
    lexicographic order, so row loc has digits reading loc."""
    rows = np.array(list(itertools.permutations(range(m), c)), dtype=np.int64)
    rows = rows.reshape(-1, c)
    rows.flags.writeable = False
    return rows


def local_index(letters: np.ndarray, m: int) -> np.ndarray:
    """loc of each row of window letters: digit j is letter j less the
    earlier window letters below it, read in radix m, m-1, ..., m-c+1."""
    loc = np.zeros(len(letters), dtype=np.int64)
    for j in range(letters.shape[1]):
        smaller = sum(letters[:, k] < letters[:, j] for k in range(j))
        loc = loc * (m - j) + letters[:, j] - smaller
    return loc


def window_pattern_ids(m: int, c: int) -> np.ndarray:
    """S_c pattern id of the window at each loc (the local rule's pattern)."""
    return _window_pattern_ids(window_letters(m, c), _fact_vec(c))


def _window_pairs(m: int, tab: PatternTables) -> tuple[np.ndarray, np.ndarray]:
    """Local edges (a, b) of a window with m letters from its start: a is a
    loc whose pattern has a partner with a larger id, b the loc of the
    window rewritten to that partner."""
    pid = window_pattern_ids(m, tab.c)
    ordered = np.sort(window_letters(m, tab.c), axis=1)
    a_parts, b_parts = [], []
    for t in np.nonzero(tab.part_id >= 0)[0]:
        rows = np.nonzero(pid == t)[0]
        for q in tab.partners_idx[tab.partners_ptr[t] : tab.partners_ptr[t + 1]]:
            a_parts.append(rows)
            b_parts.append(local_index(ordered[rows][:, tab.pat_onel[q] - 1], m))
    if not a_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(a_parts), np.concatenate(b_parts)


def factor_edges(n: int, tab: PatternTables, i: int):
    """Undirected factor-transformation edges of the window starting at
    position i as (src, dst) rank arrays, broadcast over the digit grid:
    ``pre * m! + loc * (m-c)! + suf`` for the window's local edges (a, b)."""
    dtype = np.int32 if factorial(n) <= np.iinfo(np.int32).max else np.int64
    m = n - i
    stride = factorial(m - tab.c)
    pre = np.arange(factorial(n) // factorial(m), dtype=dtype) * factorial(m)
    suf = np.arange(stride, dtype=dtype)
    return tuple(
        (pre[:, None, None] + (loc.astype(dtype) * stride)[:, None] + suf).ravel()
        for loc in _window_pairs(m, tab)
    )


def class_ids(n: int, tab: PatternTables, mode: str) -> tuple[np.ndarray, int]:
    """Class id of every rank of S_n in the given mode, ids following each
    class's minimal rank, built up one letter at a time.

    Rank r of S_k is ``d * (k-1)! + t``: d is its first digit and t the
    rank in S_{k-1} of its last k-1 letters, standardized.  A rewrite that
    leaves position 0 alone keeps d and acts on t as the same rewrite
    shifted one position left: in factor mode every window but the first,
    in subword mode every index set without position 0.  So the closure of
    those rewrites maps r to the node ``d * C + cls[t]``, where cls holds
    the C class ids of S_{k-1}, and closing the remaining edges (the first
    window, or the C(k-1, c-1) index sets through position 0) over these
    k * C nodes gives the classes of S_k.  Node order is minimal-rank
    order, so the component ids of connected_class_ids follow minimal rank.
    Up to _WHOLE_GRID_N letters every window (index set) of the whole grid
    is closed in one call: that costs less than a call per letter.
    """
    base = min(n, _WHOLE_GRID_N)
    cls, num = connected_class_ids(factorial(base), _batches(base, tab, mode, False))
    for k in range(base + 1, n + 1):
        node = ((np.arange(k, dtype=np.int32) * num)[:, None] + cls).ravel()
        comp, num = connected_class_ids(k * num, _batches(k, tab, mode, True), node)
        cls = comp[node]
    return cls, num


def _batches(k: int, tab: PatternTables, mode: str, first_only: bool) -> Iterator:
    """The edges of S_k one window or index set at a time: of every one, or
    of those through position 0 only, if first_only."""
    if mode == "factor":
        windows = range(k - tab.c + 1)
        for i in windows[:1] if first_only else windows:
            yield factor_edges(k, tab, i)
        return
    table = perm_table(k)
    for idx in itertools.combinations(range(k), tab.c):
        if idx[0] == 0 or not first_only:
            yield subword_edges(k, tab, table, list(idx))


def subword_edges(n: int, tab: PatternTables, table: np.ndarray, idx: list[int]):
    """Undirected subword-transformation edges at the index set idx, as
    (src, dst) rank arrays: each row of the permutation table whose letters
    there form a nontrivial pattern is rewritten and ranked."""
    dtype = np.int32 if factorial(n) <= np.iinfo(np.int32).max else np.int64
    fact = _fact_vec(n)
    src_parts = [np.empty(0, dtype=dtype)]
    dst_parts = [np.empty(0, dtype=dtype)]
    win = table[:, idx]
    pid = _window_pattern_ids(win, tab.cfact)
    for t in np.flatnonzero(np.diff(tab.partners_ptr)):
        rows = np.flatnonzero(pid == t)
        ordered = np.sort(win[rows], axis=1)
        for q in tab.partners_idx[tab.partners_ptr[t] : tab.partners_ptr[t + 1]]:
            modified = table[rows]
            modified[:, idx] = ordered[:, tab.pat_onel[q] - 1]
            src_parts.append(rows.astype(dtype))
            dst_parts.append(rank_rows(modified, fact).astype(dtype))
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def window_hits(n: int, c: int, mask: np.ndarray) -> np.ndarray:
    """(n!, n-c+1) bool: hits[r, i] iff the 0-based window i of rank r
    standardizes to a pattern id marked in mask (broadcast over the digit
    grid; the result is a transposed, column-major view)."""
    total = factorial(n)
    hits = np.empty((max(n - c + 1, 0), total), dtype=np.bool_)
    for i in range(n - c + 1):
        m = n - i
        grid = hits[i].reshape(total // factorial(m), -1, factorial(m - c))
        grid[...] = mask[window_pattern_ids(m, c)][:, None]
    return hits.T


def count_banned_avoiders(n: int, c: int, banned: np.ndarray) -> int:
    return int(np.count_nonzero(~window_hits(n, c, banned).any(axis=1)))


def connected_class_ids(total: int, batches: Iterable, node: np.ndarray | None = None):
    """Connected components of the nodes 0..total-1 under the edges of
    every (src, dst) batch, mapped through node if given, as (ids, num):
    ids follow each component's minimal node.

    One int32 root array, root[x] <= x, is closed batch by batch: map the
    batch's ends to their roots, keep the edges whose roots differ, hook
    the larger root of each to the smallest it meets (np.minimum.at), jump
    pointers (root = root[root]) until nothing changes, and repeat on the
    surviving edges (Shiloach & Vishkin 1982).  A root then is its
    component's minimal node whatever the batch order, so numbering the
    roots in node order gives the ids with no sort.
    """
    root = np.arange(total, dtype=np.int32)
    for src, dst in batches:
        lo, hi = (src, dst) if node is None else (node[src], node[dst])
        while len(lo):
            lo, hi = root[lo], root[hi]
            keep = lo != hi
            lo, hi = lo[keep], hi[keep]
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            np.minimum.at(root, hi, lo)
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped
    is_root = root == np.arange(total, dtype=np.int32)
    ids = np.cumsum(is_root, dtype=np.int32) - 1
    return ids[root], int(np.count_nonzero(is_root))
