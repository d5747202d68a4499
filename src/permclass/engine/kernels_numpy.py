"""numpy kernels of the enumeration engine.

Factor edges are read from the Lehmer-digit grid.  The rank of p in S_n
is a mixed-radix number whose digit j (radix n-j) counts the later
letters smaller than p_j.  A rewrite at the window of c positions from i
permutes the letters there; with m = n - i the rank splits as ``pre * m!
+ loc * (m-c)! + suf``: pre reads the digits before position i, loc the c
digits from i on, suf the rest.  The rewrite changes loc alone, as a
function of loc alone: loc fixes the first c letters of the last m,
standardized (``window_letters``), and the letters before and after the
window keep the set of letters after them.  So a local rule over the
m!/(m-c)! values of loc gives every edge of a window by broadcasting over
(pre, loc, suf); ``window_hits`` reads the hits of windows, and so the
avoiders, off the same grid.  The letters of a local rule are kept
column-major, one contiguous int8 row per letter position, and a
rewrite's target loc is its own loc plus a delta read off the letters it
moves (``_window_pairs``, once per process), so no row of letters is
copied or re-ranked.

``class_steps`` closes the edges of either mode one letter at a time, from
S_1, and yields the classes of each S_k as it closes them, so a request
for several n is one pass over the steps, up to the largest; a step runs
only when asked for, so the caller checks its bounds between yields.  A
rewrite that leaves the first letter alone acts on the rank of the other
letters only, so each step closes the rewrites through position 0 over
the classes of the step before.  In subword mode a rewrite that leaves
the last letter alone acts on the rank of the first letters only, so the
step joins the two closures and adds only the index sets through both
ends, each from one row per class of the letters its rewrites leave
alone (``_join_edges``, ``subword_edges``), ranked by terms per position
computed once a step (``_rest_codes``).  ``connected_class_ids`` closes
a step's edges one batch at a time by root hooking and pointer jumping
over one int32 root array, so no step holds more than one batch's edges;
each class's root is its minimal node, a tail node, so its minimal rank
is read off its root and its size off the step's nodes.  A factor step's
batch is the first window's local pairs (``factor_edges``), the whole
step if it has at most _BATCH_EDGES edges, else one first digit at a
time, mapped to nodes straight from rows of the class ids of the step
before; a subword batch is the join or one index set.  So neither mode
builds a k!-sized array.  The ids of S_k are left as the step's tail
nodes and the ids of S_{k-1}, for the caller to gather if it needs them.

The same local rules give one class without the others: ``factor_moves``
turns every window's local pairs into rank deltas, and ``class_ranks``
runs a BFS over ranks with them, a whole level at a time, deduplicating
by sort (np.unique would import numpy.ma, 15 ms, into a one-query
process); ``unrank`` reads the letters of many ranks, a row a position.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from math import factorial

import numpy as np

from .tables import PatternTables


def perm_table(n: int, span: int | None = None) -> np.ndarray:
    """The span-letter prefixes of S_n (all of S_n by default) in
    lexicographic order, as an (n!/(n-span)!, span) int8/int16 array in
    column-major order, so its transpose holds each letter position as one
    contiguous row.

    Built block-recursively from k = n-span+1 letters up: the block of
    prefixes of S_k with first letter a is ``[a, prev + (prev >= a)]`` over
    the one letter shorter prefixes of S_{k-1}.
    """
    span = n if span is None else span
    dtype = np.int8 if n <= 127 else np.int16
    table = np.zeros((1, 0), dtype=dtype, order="F")
    for k in range(n - span + 1, n + 1):
        prev, block = table, len(table)
        table = np.empty((block * k, prev.shape[1] + 1), dtype=dtype, order="F")
        for a in range(1, k + 1):
            rows = table[(a - 1) * block : a * block]
            rows[:, 0] = a
            rows[:, 1:] = prev + (prev >= a)
    return table


@lru_cache(maxsize=None)
def window_letters(m: int, span: int) -> np.ndarray:
    """The first span letters (0-based) of a permutation of m letters for
    each value of their digits loc, column-major: a (span, m!/(m-span)!)
    array whose row j holds letter j of every loc, contiguous, and whose
    column loc has digits reading loc (the transposed span-prefixes of S_m
    in lexicographic order), cached: factor mode asks for the same windows
    (span c) on every call, and the engine asks for no wider span."""
    cols = perm_table(m, span).T
    cols -= 1
    cols.flags.writeable = False
    return cols


def _pattern_ids(cols) -> np.ndarray:
    """S_c pattern id (Lehmer rank) of the letters in c equal-length columns,
    one id per row."""
    c = len(cols)
    pid = np.zeros(len(cols[0]), dtype=np.min_scalar_type(factorial(c) - 1))
    for j in range(c):
        pid *= c - j
        for k in range(j + 1, c):
            pid += cols[k] < cols[j]
    return pid


@lru_cache(maxsize=None)
def window_pattern_ids(m: int, c: int) -> np.ndarray:
    """S_c pattern id of the window at each loc (the local rule's pattern),
    cached read-only as window_letters is."""
    pid = _pattern_ids(window_letters(m, c))
    pid.flags.writeable = False
    return pid


def _local_pairs(m: int, tab: PatternTables) -> tuple[np.ndarray, np.ndarray]:
    """The local edges (a, b) of the rewrites at the first window (c
    letters) of S_m, as int32 loc arrays: a is a loc whose pattern has
    partners (a part's D pattern, ``build_tables``), b the loc rewritten to
    one of them, read off ``_window_pairs``."""
    pairs = [_window_pairs(m, tab.c, d, u) for d, us in tab.partners for u in us]
    none = np.empty(0, dtype=np.int32)
    return (np.concatenate([none, *(a for a, _ in pairs)]),
            np.concatenate([none, *(b for _, b in pairs)]))


@lru_cache(maxsize=None)
def _window_pairs(m: int, c: int, d: int, u: int) -> tuple[np.ndarray, np.ndarray]:
    """The local pairs (a, b) of the rewrite from pattern d to pattern u at
    the first window (c letters) of S_m, cached read-only per (m, c, d, u)
    as window_letters is: the closure, ``factor_step_edges`` and
    ``factor_moves`` ask for the same windows on every call, and relations
    that share a rewrite share its pairs.  A pair holds 8 B for each of the
    m!/(m-c)!/c! locs of pattern d (1.8 KB at m=12, c=3).

    The loc of letters L_0..L_{c-1} is ``sum_j (L_j - E_j) * w_j``, where
    E_j counts the earlier letters below L_j and w_j is the weight of digit
    j.  The rewrite moves the letter at j to dest[j], where dest depends on
    d and u alone, so b - a is the change in the moved letters' own terms,
    linear in those letters, less the change in the E terms, which the two
    patterns fix (the weighted inversions of the reversed letters).
    """
    letters = window_letters(m, c)
    weight = [factorial(m - 1 - j) // factorial(m - c) for j in range(c)]
    onel = window_letters(c, c)  # column t: the letters of pattern t
    a = np.flatnonzero(window_pattern_ids(m, c) == d).astype(np.int32)
    fixed = [int(_weighted_inversions(list(onel[::-1, t]), weight[::-1])) for t in (d, u)]
    b = a + (fixed[0] - fixed[1])
    for j, t in enumerate(np.argsort(onel[:, u])[onel[:, d]]):
        if t != j:
            b += np.multiply(letters[j][a], weight[t] - weight[j], dtype=np.int32)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _weighted_inversions(cols, weight: list, start=0):
    """start plus the sum of weight[j] over the pairs j < l of the letter
    columns cols with cols[l] < cols[j]: with weight[j] = (len(cols)-1-j)!,
    the Lehmer rank of each row of the (broadcast) columns."""
    for j, (x, w) in enumerate(zip(cols, weight)):
        for y in cols[j + 1 :]:
            start = start + w * (y < x)
    return start


def _join_edges(k: int, cls: np.ndarray, num: int, reps: np.ndarray):
    """The join of S_k (class_steps) as (tail node, head node) pairs, one
    per first letter a, last letter z and class of S_{k-2} for the letters
    between, with minimal rank reps (rho).  The tail is rho, its letters
    from z' = z - [a < z] up raised by one, then z': its digits are rho's
    plus one for each such letter.  The head is a' = a - [z < a], then rho,
    of rank ``a' * (k-2)! + rho``.  So the class ids cls of S_{k-1} are read
    over (z', rho) and (a', rho), and the k * (k-1) pairs (a, z') gather
    rows of them."""
    rho = unrank(reps, k - 2).T - 1  # row i: letter i of every representative
    w = [factorial(k - 2 - i) for i in range(k - 2)]
    zs = np.arange(k - 1, dtype=np.int8)[:, None]
    t = _weighted_inversions(rho, w, np.zeros((k - 1, len(reps)), dtype=np.int64))
    tails = cls[sum((wi * (x >= zs) for x, wi in zip(rho, w)), t)]
    heads = cls[np.arange(k - 1)[:, None] * factorial(k - 2) + reps]
    a, zp = np.divmod(np.arange(k * (k - 1), dtype=np.int32), k - 1)
    src = (a * num)[:, None] + tails[zp]
    dst = ((k + zp + (zp >= a)) * num)[:, None] + heads[a - (zp < a)]
    return src.ravel(), dst.ravel()


def _rest_codes(k: int, tab: PatternTables, reps: np.ndarray):
    """(code, first, pairs, sets): what the index sets I through both ends
    of S_k share, for all of them and every pattern, once a step.  A row
    puts value set v at I as pattern p (first letter ``first[p, v]``) and
    representative s of S_{k-c} (minimal ranks reps) over the other
    positions, whose letters code[v, s] reads as R, the letters of v below
    each, in radix c + 1.  Its rank less its first digit's part (digit
    weights w) sums the inversions within I, a constant per (I, p); those
    outside I, w[others] times the Lehmer digits of s (inner); and a term
    of (I, t, p, R) a position t outside I: the letter of rank p_i in v at
    position i of I lies above t's iff R <= p_i.  sets maps I to
    (constant, terms, inner) over the patterns by id; pairs holds the
    pattern rows of each rewrite's D and U pattern, in tab.partners order."""
    c, m = tab.c, k - tab.c
    w = np.array([0, *(factorial(k - 1 - j) for j in range(1, k))], dtype=np.int64)
    ids = sorted({t for d, us in tab.partners for t in (d, *us)})
    pairs = np.array([(ids.index(d), ids.index(u)) for d, us in tab.partners for u in us],
                     dtype=np.intp).reshape(-1, 2).T
    pats = window_letters(c, c)[:, ids].T  # [p, i]: the rank in v of the letter at i
    ends = [(0, *mid, k - 1) for mid in itertools.combinations(range(1, k - 1), c - 2)]
    at = np.array(ends, dtype=np.intp)
    others = np.array([[j for j in range(k) if j not in e] for e in ends], dtype=np.intp)
    above = np.arange(c + 1)[:, None] <= pats[:, None, :]  # [p, R, i]
    i, j = at[:, None, None, None, :], others[:, :, None, None, None]
    terms = np.where(i < j, above * w[i], ~above * w[j]).sum(axis=-1)  # [I, t, p, R]
    const = (w[at][:, :, None] * _lehmer_digits(ids, c)).sum(axis=1)  # [I, p]
    digits = _lehmer_digits(reps, m)
    inner = (w[others][:, :, None] * digits).sum(axis=1)  # [I, s]
    values = np.array(list(itertools.combinations(range(k), c)), dtype=np.int32)
    below = ((values - np.arange(c))[:, :, None] <= np.arange(m)).sum(axis=1)  # [v, x]
    code = np.zeros((len(values), len(reps)), dtype=np.int64)
    for x in _lift(digits):  # letter t of every representative
        code *= c + 1
        code += below.take(x, axis=1)
    first = values[:, pats[:, 0]].T
    return code, first, pairs, dict(zip(ends, zip(const, terms, inner)))


def subword_edges(k: int, tab: PatternTables, idx, rest, cls: np.ndarray, num: int):
    """Undirected subword-transformation edges at an index set idx through
    the first and the last position of S_k, as (src, dst) tail-node arrays
    (class_steps): one row per rewrite, value set at idx arranged as its D
    pattern, and class of S_{k-c} outside idx (rest: ``_rest_codes``).  A
    rewrite outside idx keeps the letters at idx and the tail nodes of a
    rank and of its image, so a class representative outside idx gives
    every node pair.  A row of first letter d and tail rank t (rank less
    ``d * (k-1)!``) has tail node ``d * num + cls[t]``; t is read off one
    table over the codes, a broadcast add of terms a position, plus inner."""
    code, first, (src, dst), sets = rest
    const, terms, inner = sets[idx]
    table = const[:, None]
    for term in terms[::-1]:  # the code's last digit first, so the adds run along the table
        table = (term[:, :, None] + table[:, None, :]).reshape(len(table), -1)
    ranks = np.empty((len(table), *code.shape), dtype=np.int64)
    for row, out in zip(table, ranks):
        row.take(code, out=out, mode="clip")  # all in range; "raise" would buffer out
    ranks += inner
    nodes = cls.take(ranks)
    nodes += (first * num)[:, :, None]
    return nodes[src].ravel(), nodes[dst].ravel()


# Most window-0 edges a factor step closes in one batch.  A step within it
# (S_9 under parts of 1/3 edge a rank) closes in one batch, with no
# per-digit overhead; a larger step holds one first digit's edges at a
# time, not the step.
_BATCH_EDGES = 1 << 17


def class_steps(
    n: int, tab: PatternTables, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(tail, prev, sizes, reps) of the classes of S_1, S_2, ..., S_n in
    the given mode, ids following minimal rank, yielded as each step
    closes: one pass builds every k up to n.  Rank ``d * (k-1)! + t`` of
    S_k has class ``tail[d * C + prev[t]]``, where prev holds the class ids
    of S_{k-1} and C their number; sizes and reps give each class's size
    and minimal rank.  Step k runs only when the caller asks for it, so a
    caller may refuse it between yields.  No step is kept past the next
    one.

    Rank r of S_k is ``d * (k-1)! + t``: d is its first digit and t the
    rank in S_{k-1} of its last k-1 letters, standardized.  A rewrite that
    leaves position 0 alone keeps d and acts on t as the same rewrite
    shifted one position left: in factor mode every window but the first,
    in subword mode every index set without position 0.  So the closure of
    those rewrites maps r to the tail node ``d * C + cls[t]``, where cls
    holds the C class ids of S_{k-1}.  Factor mode closes the first
    window's edges over these k * C nodes, read from its local pairs
    (``_factor_batches``) with no k!-sized array.

    Subword mode splits the index sets through position 0 once more: those
    without position k-1 keep the last letter v and act on the first k-1
    letters as the same rewrite in S_{k-1}, so their closure maps r to the
    head node ``k * C + v * C + cls[h]`` (h: the rank of the first k-1
    letters, standardized).  The step joins each rank's tail and head
    nodes and closes the C(k-2, c-2) index sets through positions 0 and
    k-1 over these 2 * k * C nodes, from one row per class of the letters
    that the other rewrites leave alone: of S_{k-2} between the first and
    the last letter (``_join_edges``), and of S_{k-c} outside an index set
    (``subword_edges``), read from the minimal ranks kept for the last c
    steps.

    Tail node order is minimal-rank order and every head node meets a tail
    node through a join row, so the ids of connected_class_ids follow
    minimal rank and each class's root (its minimal node) is a tail node.
    Tail node (d, c) holds ``sizes[c]`` ranks, the least ``d * (k-1)! +
    reps[c]``: a class's size adds up over its tail nodes, and its minimal
    rank is its root's (``_sizes_reps``).  cls of S_{k-1} is read off the
    tail and cls of the step before at the start of step k, so the ids of
    S_k are never gathered.
    """
    tail = prev = np.zeros(1, dtype=np.int32)
    sizes, reps = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    kept = [reps, reps]  # subword: the minimal ranks of S_{k-c}, ..., S_{k-1}
    yield tail, prev, sizes, reps
    for k in range(2, n + 1):
        num = len(sizes)
        prev = tail.reshape(k - 1, -1).take(prev, axis=1).ravel()
        total = (k if mode == "factor" else 2 * k) * num
        batches = _batches(k, tab, mode, prev, num, kept)
        comp, _, roots = connected_class_ids(total, batches)
        tail = comp[: k * num]
        sizes, reps = _sizes_reps(k, tail, num, roots, sizes, reps)
        if mode == "subword":  # a view would keep the step's head nodes alive
            tail, kept = tail.copy(), [*kept, reps][-max(tab.c, 2) :]
        yield tail, prev, sizes, reps


def _sizes_reps(k: int, tail: np.ndarray, num: int, roots: np.ndarray, sizes, reps):
    """Each class's size and minimal rank in S_k from the tail nodes: node
    ``d * num + c`` holds sizes[c] ranks, the least ``d * (k-1)! +
    reps[c]``.  Class j's minimal node is its root roots[j], a tail node,
    and tail node order is minimal-rank order, so its minimal rank is that
    of its root; the sizes add up one first digit d at a time."""
    reps_k = np.multiply(roots // num, factorial(k - 1), dtype=np.int64)
    reps_k += reps[roots % num]
    sizes_k = np.zeros(len(roots), dtype=np.int64)
    for d in range(k):
        np.add.at(sizes_k, tail[d * num : (d + 1) * num], sizes)
    return sizes_k, reps_k


def _batches(k, tab, mode, cls, num, kept) -> Iterator:
    """The edges of S_k left to close over its nodes (class_steps), as node
    pairs, one batch at a time: in factor mode the first window
    (``_factor_batches``); in subword mode the join of tail and head nodes
    over the classes of S_{k-2}, then each index set through positions 0
    and k-1 over the classes of S_{k-c} (kept: their minimal ranks)."""
    if mode == "factor":
        if k >= tab.c:
            yield from _factor_batches(k, tab, cls, num)
        return
    yield _join_edges(k, cls, num, kept[-2])
    if 2 <= tab.c <= k and tab.partners:
        rest = _rest_codes(k, tab, kept[-tab.c])
        for idx in rest[-1]:
            yield subword_edges(k, tab, idx, rest, cls, num)


def _first_window(k: int, tab: PatternTables):
    """The first window's local pairs (a, b) of S_k and the bounds of its
    batches: one batch if the step's edges fit in _BATCH_EDGES, else the
    pairs sorted by a and one first digit a batch."""
    c = tab.c
    a, b = _local_pairs(k, tab)
    if len(a) * factorial(k - c) <= _BATCH_EDGES:
        return a, b, [0, len(a)]
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    per_digit = factorial(k - 1) // factorial(k - c)
    return a, b, [0, *np.searchsorted(a, np.arange(1, k + 1) * per_digit)]


def factor_step_edges(k: int, tab: PatternTables) -> tuple[int, int]:
    """(edges, batch): the first window's edges of S_k, and the most that
    one of its batches holds (both 0 below c letters)."""
    if k < tab.c:
        return 0, 0
    a, _, bounds = _first_window(k, tab)
    stride = factorial(k - tab.c)
    return len(a) * stride, int(np.diff(bounds).max()) * stride


def _factor_batches(k: int, tab: PatternTables, cls: np.ndarray, num: int) -> Iterator:
    """The first window's edges of S_k as tail-node pairs, one batch of
    ``_first_window`` at a time."""
    a, b, bounds = _first_window(k, tab)
    rows = cls.reshape(-1, factorial(k - tab.c))
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            yield factor_edges(a[lo:hi], b[lo:hi], rows, num)


def factor_edges(a: np.ndarray, b: np.ndarray, rows: np.ndarray, num: int):
    """Undirected factor-transformation edges of the first window of S_k
    at its local pairs (a, b), as (src, dst) tail-node arrays.

    A local pair (a, b) gives the ranks ``a * S + suf`` and ``b * S + suf``
    for every suf < S = (k-c)!.  Rank ``a * S + suf`` has first digit
    ``a // L``, L = (k-1)!/(k-c)!, and tail rank ``(a % L) * S + suf``: its
    tail nodes are row ``a % L`` of the (L, S) class ids ``rows`` of
    S_{k-1}, offset by ``(a // L) * num``.
    """
    return _tail_nodes(a, rows, num), _tail_nodes(b, rows, num)


def _tail_nodes(loc: np.ndarray, rows: np.ndarray, num: int) -> np.ndarray:
    """The tail nodes of the ranks ``loc * S + suf`` (suf < S), loc by loc."""
    first, tail = np.divmod(loc, len(rows))
    return ((first * num).astype(np.int32)[:, None] + rows[tail]).ravel()


def factor_moves(n: int, tab: PatternTables):
    """(offset, stride, radix, deltas): every factor rewrite of S_n as a
    rank delta, for ``class_ranks``.

    Window i of a rank r (m = n - i letters from position i on) has
    loc ``(r // stride[i]) % radix[i]``, stride (m-c)! and radix
    m!/(m-c)!, and a rewrite to the partner loc p moves r by
    ``(p - loc) * stride[i]``.  Row ``offset[i] + loc`` of the int64
    deltas holds those moves, the window's local pairs in both
    directions, padded with 0 (no move) to the largest part's size less
    one.
    """
    c = tab.c
    degree = Counter(t for d, us in tab.partners for q in us for t in (d, q))
    windows = range(max(n - c + 1, 0))
    stride = np.array([factorial(n - i - c) for i in windows], dtype=np.int64)
    radix = np.array([factorial(n - i) // factorial(n - i - c) for i in windows], dtype=np.int64)
    offset = np.cumsum(radix) - radix
    deltas = np.zeros((int(radix.sum()), max(degree.values(), default=0)), dtype=np.int64)
    for i in windows:
        a, b = _local_pairs(n - i, tab)
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        slot = np.arange(len(src)) - np.searchsorted(src, src)
        deltas[offset[i] + src, slot] = (dst - src).astype(np.int64) * stride[i]
    return offset, stride, radix, deltas


# Most candidate ranks (frontier ranks x windows x move slots) one
# expansion of class_ranks gathers at a time.
_BFS_CANDIDATES = 1 << 22


def class_ranks(start: int, moves, admit: Callable[[int], None]) -> np.ndarray:
    """The sorted int64 ranks of the class of rank ``start`` under the
    ``factor_moves`` table, by a level-synchronous BFS: each level gathers
    every window's moves of the whole frontier at once.  The graph is
    undirected, so a level's new ranks are its neighbours less the level
    itself and the one before; no set of every rank seen is kept.
    ``admit`` is called with a lower bound on the class size after each
    batch of a level and may raise to stop the search."""
    level = np.array([start], dtype=np.int64)
    before = level[:0]
    found, size = [level], 1
    while len(level):
        level, before = _next_level(level, before, moves, admit, size), level
        size += len(level)
        found.append(level)
    return np.sort(np.concatenate(found))


def _next_level(level, before, moves, admit, size) -> np.ndarray:
    """The sorted ranks one move from the level that are in neither it nor
    the level before, a batch of frontier ranks at a time."""
    offset, stride, radix, deltas = moves
    batch = max(1, _BFS_CANDIDATES // max(len(offset) * deltas.shape[1], 1))
    new = level[:0]
    for lo in range(0, len(level), batch):
        ranks = level[lo : lo + batch, None]
        step = deltas[offset + (ranks // stride) % radix]
        cand = _sorted_unique((ranks[:, :, None] + step)[step != 0])
        cand = cand[~(_isin_sorted(cand, level) | _isin_sorted(cand, before))]
        new = _sorted_unique(np.concatenate([new, cand])) if lo else cand
        admit(size + len(new))
    return new


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted: np.unique without its import of
    numpy.ma (15 ms on first use), which a one-query process would pay."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=np.bool_)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _isin_sorted(x: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """x[i] in sorted_arr, for each i."""
    return sorted_arr.searchsorted(x, "right") > sorted_arr.searchsorted(x)


def _lehmer_digits(ranks, n: int) -> np.ndarray:
    """(n, len(ranks)) int8, row j: Lehmer digit j of each rank of S_n,
    taken off in n divmod passes from the last (radix 1) to the first."""
    q = np.asarray(ranks, dtype=np.int64)
    digits = np.empty((n, len(q)), dtype=np.int8)
    for j in range(n - 1, -1, -1):
        q, digits[j] = np.divmod(q, n - j)
    return digits


def _lift(digits: np.ndarray) -> np.ndarray:
    """Lehmer digit rows to 0-based letter rows, in place: from the right,
    each digit lifts the later letters at or above it by one."""
    for j in range(len(digits) - 2, -1, -1):
        later = digits[j + 1 :]
        later += later >= digits[j]
    return digits


def unrank(ranks, n: int) -> np.ndarray:
    """(len(ranks), n) int8: the 1-based letters of each rank of S_n, as
    perms.unrank gives them: the transpose of ``_lift``'s position rows."""
    letters = _lift(_lehmer_digits(ranks, n))
    letters += 1
    return letters.T


def window_hits(n: int, c: int, mask: np.ndarray, windows: Iterable[int]) -> np.ndarray:
    """(n!,) bool: True at the ranks of S_n whose 0-based window i, for
    some i in windows, standardizes to a pattern id marked in mask (each
    window broadcast over the digit grid)."""
    total = factorial(n)
    hits = np.zeros(total, dtype=np.bool_)
    for i in windows:
        m = n - i
        grid = hits.reshape(total // factorial(m), -1, factorial(m - c))
        grid |= mask[window_pattern_ids(m, c)][:, None]
    return hits


def count_banned_avoiders(n: int, c: int, banned: np.ndarray) -> int:
    """The ranks of S_n with no window whose pattern id is marked in banned."""
    return factorial(n) - int(np.count_nonzero(window_hits(n, c, banned, range(n - c + 1))))


def connected_class_ids(total: int, batches: Iterable):
    """Connected components of the nodes 0..total-1 under the edges of
    every (src, dst) batch, as (ids, num, roots): ids follow each
    component's minimal node, num counts the components and roots[j] is
    the minimal node of component j (int32, increasing).

    One int32 root array, root[x] <= x, is closed batch by batch: map the
    batch's ends to their roots, keep the edges whose roots differ, hook
    the larger root of each to the smallest it meets (np.minimum.at), jump
    pointers (root = root[root]) until nothing changes, and repeat on the
    surviving edges (Shiloach & Vishkin 1982).  A root then is its
    component's minimal node whatever the batch order, so numbering the
    roots in node order gives the ids with no sort.
    """
    root = np.arange(total, dtype=np.int32)
    for lo, hi in batches:
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
    nodes = np.arange(total, dtype=np.int32)
    is_root = root == nodes
    ids = np.cumsum(is_root, dtype=np.int32) - 1
    roots = nodes[is_root]
    return ids[root], len(roots), roots
