from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import OrderedDict
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import permclass
from permclass import engine, oracle, perms, relation
from permclass.engine import kernels_numpy as kn
from permclass.engine.tables import PatternTables, build_tables
from permclass.errors import ResourceLimitError


def brute_force_classes(n, partition, mode="factor"):
    """Independent oracle: BFS over neighbors starting from every permutation."""
    seen = {}
    classes = []
    for p in perms.all_perms(n):
        if p in seen:
            continue
        cls = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for t in relation.neighbors(q, partition, mode):
                    if t.target not in cls:
                        cls.add(t.target)
                        nxt.append(t.target)
            frontier = nxt
        for q in cls:
            seen[q] = len(classes)
        classes.append(frozenset(cls))
    return classes


@pytest.mark.parametrize("key", ["{123,321}{132,231}", "{123,132,231}", "{132,231}{213,312}"])
@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_enumerate_matches_bfs_oracle(backend, key, mode):
    K = relation.parse_partition(key)
    for n in range(1, 6):
        truth = brute_force_classes(n, K, mode)
        dec = engine.enumerate_classes(n, K, mode=mode)
        assert dec.num_classes == len(truth)
        got = {}
        for r in range(factorial(n)):
            got.setdefault(int(dec.class_id[r]), set()).add(perms.unrank(r, n))
        assert {frozenset(v) for v in got.values()} == set(truth)


def test_spec_counts(backend):
    assert engine.enumerate_classes(5, relation.parse_partition("{123,132,231}")).num_classes == 16
    assert engine.enumerate_classes(3, relation.parse_partition("{123,132,312}")).num_classes == 4
    assert engine.enumerate_classes(5, relation.parse_partition("{132,231}{213,312}")).num_classes == 26
    # merging all of S_3 into one part collapses S_3 to a single class
    K = relation.make_partition([[p for p in perms.all_perms(3)]])
    assert engine.enumerate_classes(3, K).num_classes == 1
    # patterns of length 1 have no rewrites: every permutation is a class
    for mode in ("factor", "subword"):
        assert engine.enumerate_classes(4, relation.singleton_partition(1), mode).num_classes == 24


def test_representative_is_lex_minimum(knuth_like):
    dec = engine.enumerate_classes(5, knuth_like)
    for cid in range(dec.num_classes):
        members = dec.members(cid)
        assert dec.representative(cid) == min(members)
        assert dec.class_sizes[cid] == len(members)
    assert int(dec.class_sizes.sum()) == factorial(5)


def test_trivial_classes_are_avoiders(knuth_like):
    dec = engine.enumerate_classes(5, knuth_like)
    for cid in range(dec.num_classes):
        rep = dec.representative(cid)
        if dec.class_sizes[cid] == 1:
            assert relation.is_avoider(rep, knuth_like)
        else:
            assert not relation.is_avoider(rep, knuth_like)
    assert dec.num_trivial == engine.count_trivial(5, knuth_like)


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_class_of_perm_reads_tail_and_prev(mode):
    # class_of_perm's O(1) divmod read, and member_ranks' read of each
    # class, against the class_id array, which is built only on first
    # use, for every rank of S_n
    for key in ("{132,231}{213,312}", "{123,321}{132,231}", "{1234,4321}"):
        K = relation.parse_partition(key)
        for n in range(1, 8):
            dec = engine.enumerate_classes(n, K, mode)
            got = [dec.class_of_perm(p) for p in perms.all_perms(n)]
            ranks = [dec.member_ranks(cid) for cid in range(dec.num_classes)]
            assert "class_id" not in vars(dec)
            assert got == dec.class_id.tolist(), (key, n)
            assert not dec.class_id.flags.writeable
            assert all(r.dtype == np.int64 for r in ranks)
            assert [r.tolist() for r in ranks] == [
                np.flatnonzero(dec.class_id == cid).tolist() for cid in range(dec.num_classes)
            ], (key, n)


def test_worker_counts_identical(knuth_like):
    base = engine.enumerate_classes(6, knuth_like, workers=1)
    for w in (2, 8):
        other = engine.enumerate_classes(6, knuth_like, workers=w)
        assert np.array_equal(base.class_id, other.class_id)
        assert np.array_equal(base.class_sizes, other.class_sizes)


def _csgraph_class_ids(total, src, dst):
    """Independent closure: scipy's connected components, numbered in the
    order of each component's minimal node."""
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(total, total))
    num, labels = connected_components(graph, directed=False)
    first = np.full(num, total)
    np.minimum.at(first, labels, np.arange(total))
    order = np.empty(num, dtype=np.int64)
    order[np.argsort(first)] = np.arange(num)
    return order[labels], num


def _concat(batches):
    """One (src, dst) edge list from (src, dst) batches."""
    src, dst = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for s, d in batches:
        src.append(s)
        dst.append(d)
    return np.concatenate(src), np.concatenate(dst)


def _edge_set(src, dst):
    pairs = np.sort(np.stack([src, dst], axis=1).astype(np.int64), axis=1)
    return np.unique(pairs, axis=0)


def _window_edges(n, tab, i):
    """The rank edges of the window at position i, as (src, dst) arrays
    ``pre * m! + loc * (m-c)! + suf`` over the local pairs (a, b) of
    kn._local_pairs, broadcast over every (pre, suf)."""
    m = n - i
    stride = factorial(m - tab.c)
    pre = np.arange(factorial(n) // factorial(m), dtype=np.int64) * factorial(m)
    suf = np.arange(stride, dtype=np.int64)
    return tuple((pre[:, None, None] + (loc.astype(np.int64) * stride)[:, None] + suf).ravel()
                 for loc in kn._local_pairs(m, tab))


def _table_edges(n, K, idx, star=False):
    """Independent edges at the index set idx: the rows of _unrank_table
    whose letters there form a nontrivial pattern, rewritten to every other
    pattern of its part and ranked by _lehmer_ranks.  With star, only the
    rewrites from or to the part's D pattern (its least)."""
    table = _unrank_table(n)
    pid = _lehmer_ranks(table[:, idx])
    letters = np.sort(table[:, idx], axis=1)
    batches = []
    for part in K.nontrivial_parts:
        for p, q in itertools.permutations(part, 2):
            if star and part[0] not in (p, q):
                continue
            rows = np.flatnonzero(pid == perms.rank(p))
            moved = table[rows]
            moved[:, idx] = letters[rows][:, np.array(q) - 1]
            batches.append((rows, _lehmer_ranks(moved)))
    return _concat(batches)


def _tail_nodes(ranks, dec):
    """Tail node ``(r // (n-1)!) * C + ids[r % (n-1)!]`` of each rank r of
    S_n, where dec holds the C classes of S_{n-1} and their ids."""
    first, t = np.divmod(ranks, len(dec.class_id))
    return first * dec.num_classes + dec.class_id[t]


def test_backends_identical(knuth_like):
    # The digit-grid edges of every window against the rows of a
    # permutation table rewritten there to or from the part's D pattern,
    # each window's grid components against those of every rewrite within
    # a part there, and the letter-by-letter closure against csgraph over
    # the table's edges of every rewrite of every window.  At each index
    # set through both ends, the node pairs of subword_edges, read from
    # one row per value set and class of S_{n-c} outside it, are the tail
    # nodes of the table's edges there, and close as the table's edges of
    # every rewrite within a part do.  The c=4 relation and the part of all
    # of S_3 give index sets with two gaps and five partners to one pattern.
    keys = ("{123,321}{132,231}", "{132,231}{213,312}", "{123,132,231}",
            "{1234,1243}{2134,2143}", "{123,132,213,231,312,321}")
    for key in keys:
        K = relation.parse_partition(key)
        tab = build_tables(K)
        subword = list(engine.decompositions(range(1, 7), K, "subword"))
        for n in range(K.c, 8):
            total = factorial(n)
            windows = [list(range(i, i + K.c)) for i in range(n - K.c + 1)]
            src, dst = _concat(_table_edges(n, K, idx) for idx in windows)
            grid = _concat(_window_edges(n, tab, idx[0]) for idx in windows)
            star = _concat(_table_edges(n, K, idx, star=True) for idx in windows)
            assert np.array_equal(_edge_set(*grid), _edge_set(*star))
            # over the identity classes of S_{n-1}, a tail node is a rank
            ident = np.arange(factorial(n - 1), dtype=np.int32)
            first = _concat(kn._factor_batches(n, tab, ident, factorial(n - 1)))
            assert np.array_equal(_edge_set(*first),
                                  _edge_set(*_table_edges(n, K, windows[0], star=True)))
            for i, idx in enumerate(windows):
                got = _window_edges(n, tab, i)
                clique = _csgraph_class_ids(total, *_table_edges(n, K, idx))
                assert np.array_equal(_csgraph_class_ids(total, *got)[0], clique[0])
            tails = subword[n - 2]  # S_{n-1}
            outside = subword[n - K.c - 1].rep_ranks if n > K.c else np.zeros(1, np.int64)
            rest = kn._rest_codes(n, tab, outside)
            nodes = n * tails.num_classes
            for mid in itertools.combinations(range(1, n - 1), K.c - 2):
                idx = (0, *mid, n - 1)
                got = kn.subword_edges(n, tab, idx, rest, tails.class_id, tails.num_classes)
                star = [_tail_nodes(e, tails) for e in _table_edges(n, K, list(idx), star=True)]
                assert np.array_equal(_edge_set(*got), _edge_set(*star)), (key, idx)
                clique = [_tail_nodes(e, tails) for e in _table_edges(n, K, list(idx))]
                assert np.array_equal(_csgraph_class_ids(nodes, *got)[0],
                                      _csgraph_class_ids(nodes, *clique)[0]), (key, idx)
            dec = engine.enumerate_classes(n, K)
            class_id, num = _csgraph_class_ids(total, src, dst)
            assert np.array_equal(dec.class_id, class_id), (key, n)
            assert dec.num_classes == num


def _clique_tables(K):
    """PatternTables that join each part by every pair of its patterns,
    each pattern's partners its part's larger ids."""
    partners = []
    for part in K.nontrivial_parts:
        ids = sorted(perms.rank(p) for p in part)
        partners += [(t, tuple(ids[a + 1 :])) for a, t in enumerate(ids[:-1])]
    return PatternTables(c=K.c, partners=tuple(sorted(partners)))


@pytest.mark.parametrize("key", [
    "{123,132,213}", "{123,132,213,231}", "{123,132,213,231,312}",
    "{123,132,213,231,312,321}", "{123,231,312}{132,213,321}",
    "{1234,1243,2134}", "{1234,1243,2134,2143}", "{1234,1324,2143,3412,4321}",
    "{1234,1243,1324,1342,1423,1432}{2134,2143,2314}",
])
@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_star_rule_matches_clique_rule(key, mode):
    # a star from each part's D pattern spans the classes of every pair
    # of the part: the decompositions of S_1..S_8 against the closure of
    # tables that join every pair
    K = relation.parse_partition(key)
    decs = engine.decompositions(range(1, 9), K, mode)
    for n, (dec, step) in enumerate(zip(decs, kn.class_steps(8, _clique_tables(K), mode)), 1):
        tail, prev, sizes, reps = step
        assert np.array_equal(dec.class_id, tail.reshape(n, -1)[:, prev].ravel()), (key, n)
        assert np.array_equal(dec.class_sizes, sizes) and np.array_equal(dec.rep_ranks, reps)
    assert n == 8


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_class_ids_match_whole_grid_closure(mode):
    # the closure built one letter at a time from S_1 against scipy's
    # csgraph over every window's (index set's) edges, for every registered
    # relation and c = 2, 4.  Subword mode stops at n=7 (its whole-grid
    # reference at n=8 takes about 5 s over these relations).
    keys = [*oracle.relation_keys(), "{12,21}", "{1234,1243}{2134,2143}", "{1234,4321}"]
    for key in keys:
        tab = build_tables(relation.parse_partition(key))
        steps = kn.class_steps(8 if mode == "factor" else 7, tab, mode)
        for n, step in enumerate(steps, 1):
            _check_class_ids(n, tab, mode, key, step)


@pytest.mark.parametrize("mode, top", [("factor", 8), ("subword", 7)])
def test_one_pass_matches_separate_enumerations(mode, top):
    # every S_k of one pass, for every registered relation and Figure 2,
    # is the decomposition that a request for k alone gives
    for key in oracle.ROWS_BY_KEY:
        K = relation.parse_partition(key)
        decs = engine.decompositions(range(1, top + 1), K, mode)
        for k, dec in enumerate(decs, 1):
            alone = engine.enumerate_classes(k, K, mode)
            assert (dec.n, dec.mode, dec.partition_text) == (k, mode, K.text())
            assert np.array_equal(dec.class_id, alone.class_id), (key, k)
            assert np.array_equal(dec.class_sizes, alone.class_sizes), (key, k)
            assert np.array_equal(dec.rep_ranks, alone.rep_ranks), (key, k)
        assert k == top
    K = relation.parse_partition(oracle.FIGURE2_KEY)
    assert [dec.n for dec in engine.decompositions(range(4, 7), K, mode)] == [4, 5, 6]
    assert list(engine.decompositions(range(4, 4), K, mode)) == []
    with pytest.raises(ValueError):
        next(engine.decompositions(range(3, 8, 2), K, mode))


def _check_class_ids(n, tab, mode, key, step):
    """The step of class_steps that closes S_n against csgraph over every
    window's (index set's) edges, with each class's size and minimal rank
    read off the expected ids.  Rank d*(n-1)! + t has class
    tail[d*C + prev[t]]."""
    tail, prev, sizes, reps = step
    assert len(prev) == factorial(n - 1) and len(tail) % n == 0
    class_id = tail.reshape(n, -1)[:, prev].ravel()
    if mode == "factor":
        batches = [_window_edges(n, tab, i) for i in range(n - tab.c + 1)]
    else:
        K = relation.parse_partition(key)
        idxs = itertools.combinations(range(n), tab.c)
        batches = [_table_edges(n, K, list(idx), star=True) for idx in idxs]
    expected, num = _csgraph_class_ids(factorial(n), *_concat(batches))
    assert tail.dtype == prev.dtype == np.int32 and sizes.dtype == reps.dtype == np.int64
    assert np.array_equal(class_id, expected), (key, n)
    assert np.array_equal(sizes, np.bincount(expected, minlength=num)), (key, n)
    assert np.array_equal(reps, np.unique(expected, return_index=True)[1]), (key, n)


@pytest.mark.parametrize("key", [
    "{123,132,213,231}", "{123,321}{132,231}", "{12,21}", "{123,132}", "{1234,4321}",
    "{1234,1243}{2134,2143}",
])
def test_subword_class_ids_match_every_index_set_n8(key):
    # the join of head and tail classes and the index sets through both
    # ends, each read from one row per class of the letters its rewrites
    # leave alone, against csgraph over all C(n, c) index sets of S_n at
    # every step: c = 2, 3, 4, few classes and many
    tab = build_tables(relation.parse_partition(key))
    for n, step in enumerate(kn.class_steps(8, tab, "subword"), 1):
        _check_class_ids(n, tab, "subword", key, step)
    assert n == 8


def test_subword_rows_per_step_n9(monkeypatch):
    # the rows each subword step builds: k * (k-1) * C_{k-2} join rows and,
    # at each of the C(k-2, c-2) index sets through both ends, C(k, c) *
    # C_{k-c} for each rewrite, where C_j counts the classes of S_j
    built = []

    def counted(name, build):
        def wrapped(k, *args):
            src, dst = build(k, *args)
            built.append((k, name, len(src)))
            return src, dst
        return wrapped

    for name in ("_join_edges", "subword_edges"):
        monkeypatch.setattr(kn, name, counted(name, getattr(kn, name)))
    for key in ("{123,132,213,231}", "{123,132}", "{1234,4321}", "{1234,1243}{2134,2143}"):
        tab = build_tables(relation.parse_partition(key))
        built.clear()
        counts = [1] + [len(step[2]) for step in kn.class_steps(9, tab, "subword")]
        rewrites = sum(len(us) for _, us in tab.partners)
        for k in range(2, 10):
            join = [rows for j, name, rows in built if (j, name) == (k, "_join_edges")]
            ends = [rows for j, name, rows in built if (j, name) == (k, "subword_edges")]
            assert join == [k * (k - 1) * counts[k - 2]], (key, k)
            sets = comb(k - 2, tab.c - 2) if k >= tab.c else 0
            assert ends == [comb(k, tab.c) * counts[k - tab.c] * rewrites] * sets, (key, k)
        if key == "{123,132,213,231}":
            assert sum(rows for j, _, rows in built if j == 9) == 504 + 10584


@pytest.mark.parametrize("key", [
    *oracle.ROWS_BY_KEY, "{12,21}", "{123,132}", "{1234,4321}", "{1234,1243}{2134,2143}",
])
def test_subword_row_ranks_match_python_rows(key):
    # every row of every index set through both ends, at every subword
    # step to n=8, built letter by letter in Python: the value set v at
    # the index set as a rewrite's D pattern (src) and as its partner
    # (dst), and a class representative of S_{n-c} over the other letters,
    # rewrite by rewrite, then v, then class; rank r has tail node
    # (r // (n-1)!) * C + ids[r % (n-1)!] over the C classes of S_{n-1}
    K = relation.parse_partition(key)
    tab = build_tables(K)
    decs = list(engine.decompositions(range(1, 8), K, "subword"))
    for n in range(max(K.c, 2), 9):
        tails = decs[n - 2]
        ids, block = tails.class_id.tolist(), factorial(n - 1)
        outside = decs[n - K.c - 1].rep_ranks if n > K.c else np.zeros(1, np.int64)
        reps = [perms.unrank(int(r), n - K.c) for r in outside]
        rest = kn._rest_codes(n, tab, outside)
        for mid in itertools.combinations(range(1, n - 1), K.c - 2):
            idx = (0, *mid, n - 1)
            others = [j for j in range(n) if j not in idx]
            expected = ([], [])
            for d, us in tab.partners:
                for u, v in itertools.product(us, itertools.combinations(range(1, n + 1), K.c)):
                    rest_letters = [x for x in range(1, n + 1) if x not in v]
                    for rep, (side, pid) in itertools.product(reps, ((0, d), (1, u))):
                        perm = [0] * n
                        for i, letter in zip(idx, perms.unrank(pid, K.c)):
                            perm[i] = v[letter - 1]
                        for j, letter in zip(others, rep):
                            perm[j] = rest_letters[letter - 1]
                        r = perms.rank(perm)
                        expected[side].append(r // block * tails.num_classes + ids[r % block])
            got = kn.subword_edges(n, tab, idx, rest, tails.class_id, tails.num_classes)
            assert [a.tolist() for a in got] == list(expected), (key, n, idx)


@st.composite
def _multigraphs(draw):
    """A node count and batches of edges over it, with self-loops,
    duplicate and reversed edges and empty batches."""
    total = draw(st.integers(1, 40))
    batches = []
    for _ in range(draw(st.integers(0, 6))):
        pairs = draw(st.lists(st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)),
                              max_size=30))
        if pairs:
            pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
        pairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        batches.append((pairs[:, 0], pairs[:, 1]))
    return total, batches


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_connected_class_ids_match_csgraph(graph):
    total, batches = graph
    expected, expected_num = _csgraph_class_ids(total, *_concat(batches))
    ids, num, roots = kn.connected_class_ids(total, iter(batches))
    assert ids.dtype == np.int32
    assert np.array_equal(ids, expected) and num == expected_num
    # roots[j]: the first (minimal) node of component j
    assert np.array_equal(roots, [np.flatnonzero(ids == j)[0] for j in range(num)])


def test_connected_class_ids_independent_of_batch_order():
    # the windows of S_8 under Figure 2's relation and a random multigraph
    # over 500 nodes, closed with the batches shuffled and the ends of a
    # random half of the edges swapped
    rng = np.random.default_rng(8)
    tab = build_tables(relation.parse_partition("{132,231}{213,312}"))
    cases = [(factorial(8), [_window_edges(8, tab, i) for i in range(6)])]
    edges = rng.integers(0, 500, size=(20, 2, 15)).astype(np.int32)
    cases.append((500, [(s, d) for s, d in edges]))
    for total, batches in cases:
        ids, num, _ = kn.connected_class_ids(total, batches)
        for _ in range(3):
            swapped = []
            for i in rng.permutation(len(batches)):
                src, dst = batches[i]
                flip = rng.random(len(src)) < 0.5
                swapped.append((np.where(flip, dst, src), np.where(flip, src, dst)))
            other, other_num, _ = kn.connected_class_ids(total, swapped)
            assert np.array_equal(ids, other) and num == other_num


def test_unknown_backend_refused(knuth_like):
    # the mode picks the batches (the first window or the index sets through 0);
    # the CLI maps this ValueError to exit code 2
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        engine.enumerate_classes(4, knuth_like, mode="bogus")


def test_factor_count_at_least_subword_count():
    # every factor hit is a subword hit, so the subword relation is coarser
    for key in ("{123,321}{132,231}", "{123,132,231}", "{123,132}{213,312}"):
        K = relation.parse_partition(key)
        for n in range(3, 7):
            nf = engine.enumerate_classes(n, K, mode="factor").num_classes
            ns = engine.enumerate_classes(n, K, mode="subword").num_classes
            assert nf >= ns


def test_orbit_invariance_of_counts():
    for key in ("{123,132}{231,312}", "{123,132,312}"):
        K = relation.parse_partition(key)
        for n in range(3, 8):
            counts = {
                engine.enumerate_classes(n, P).num_classes
                for P in relation.symmetry_orbit(K)
            }
            assert len(counts) == 1


def _members(ranks, n):
    """The permutations of S_n at the given ranks, as a set of tuples."""
    return {perms.unrank(int(r), n) for r in ranks}


class _Marked(OrderedDict):
    """A class_of cache that holds ``mark`` for every key not yet in it."""

    def __init__(self, mark):
        super().__init__()
        self.mark = mark

    def pop(self, key, default=None):
        return super().pop(key, self.mark)


def _paths(monkeypatch):
    """Yields "decomposition", then "bfs", sending every class_of of the
    loop body within the default bound down that path, and checks that it
    was taken: "decomposition" as if the rank BFS had used up its room on
    each (partition, n, mode) already, so S_n is closed and kept, "bfs" as
    if each were too large to keep, so the rank BFS (factor mode) or the
    tuple BFS (subword mode) answers."""
    keep = engine._decomposition_to_keep
    for path, mark in (("decomposition", sys.maxsize), ("bfs", engine._TOO_LARGE)):
        kept = []
        with monkeypatch.context() as m:
            m.setattr(engine, "_class_of_cache", _Marked(mark))
            m.setattr(engine, "_decomposition_to_keep", lambda *a: kept.append(keep(*a)) or kept[-1])
            yield path
        if path == "decomposition":
            assert kept and all(isinstance(d, engine.ClassDecomposition) for d in kept)
        else:
            assert kept == []


def test_class_of_worked_example(knuth_like, monkeypatch):
    K = relation.parse_partition("{123,132,231}")
    for _ in _paths(monkeypatch):
        cls = _members(engine.class_of((1, 5, 3, 2, 4), knuth_like), 5)
        assert (1, 2, 4, 5, 3) in cls
        # an avoider is alone in its class
        assert _members(engine.class_of((4, 3, 2, 1), K), 4) == {(4, 3, 2, 1)}


def test_class_of_matches_decomposition(knuth_like, monkeypatch):
    dec = engine.enumerate_classes(5, knuth_like)
    for _ in _paths(monkeypatch):
        for cid in range(dec.num_classes):
            rep = dec.representative(cid)
            assert _members(engine.class_of(rep, knuth_like), 5) == set(dec.members(cid))


@pytest.mark.parametrize("key", ["{132,231}{213,312}", "{123,132}{213,312}",
                                 "{123,231}{132,321}", "{123,321}{132,231}"])
def test_class_of_matches_decomposition_n8(key, monkeypatch):
    # every class of the session benchmark's query relations, listed in
    # lexicographic order as the rank BFS returns it: with the factor
    # bound at 0, class_of runs that BFS rather than read the decomposition
    K = relation.parse_partition(key)
    dec = engine.enumerate_classes(8, K)
    _, searches = _counted(monkeypatch)
    monkeypatch.setitem(engine.DEFAULT_MAX_N, "factor", 0)
    for cid in range(dec.num_classes):
        ranks = engine.class_of(dec.representative(cid), K)
        assert [perms.unrank(int(r), 8) for r in ranks] == dec.members(cid)
    assert searches == dec.rep_ranks.tolist()


def test_class_of_factor_mode_reads_no_rewrites(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor-mode class_of called relation.rewrites")

    K = relation.parse_partition("{132,231}{213,312}")
    p = (3, 1, 4, 2, 6, 5, 8, 7)
    expected = _neighbors_bfs(p, K, "factor")
    monkeypatch.setattr(relation, "rewrites", refuse)
    for _ in _paths(monkeypatch):
        assert _members(engine.class_of(p, K), 8) == expected


def test_class_of_tuple_bfs_past_move_table_budget(monkeypatch):
    # past the factor bound (here 0) and with no room for a move table,
    # factor mode runs the tuple BFS over relation.rewrites
    monkeypatch.setattr(engine, "_MOVE_TABLE_ENTRIES", 0)
    monkeypatch.setitem(engine.DEFAULT_MAX_N, "factor", 0)
    rewritten = []
    rewrites = relation.rewrites
    monkeypatch.setattr(relation, "rewrites", lambda q, *a: rewritten.append(q) or rewrites(q, *a))
    rng = random.Random(7)
    for key in ("{123,321}{132,231}", "{1234,4321}"):
        K = relation.parse_partition(key)
        for n in (3, 6, 7):
            p = tuple(rng.sample(range(1, n + 1), n))
            truth = _neighbors_bfs(p, K, "factor")
            rewritten.clear()
            ranks = engine.class_of(p, K)
            assert list(ranks) == sorted(ranks)
            assert _members(ranks, n) == truth
            # below the pattern length the empty move table is within budget
            assert set(rewritten) == (truth if n >= K.c else set())


def test_class_of_shorter_than_patterns(monkeypatch):
    for _ in _paths(monkeypatch):
        for key in ("{123,321}", "{1234,4321}{1243,3421}"):
            K = relation.parse_partition(key)
            for n in range(K.c):
                for p in perms.all_perms(n):
                    assert engine.class_of(p, K).tolist() == [perms.rank(p)]


def test_class_of_exact_at_top_of_s20():
    # every member starts with 20, so its rank lies above 2^61 (20! < 2^62)
    K = relation.parse_partition("{123,132}{213,231}")
    p = (*range(20, 6, -1), 1, 2, 3, 4, 5, 6)
    ranks = engine.class_of(p, K)
    assert len(ranks) == 120 and int(ranks[0]) > 2**61
    assert ranks.dtype == np.int64
    assert _members(ranks, 20) == _neighbors_bfs(p, K, "factor")
    assert [perms.rank(q) for q in sorted(_members(ranks, 20))] == ranks.tolist()


def test_class_of_rejects_non_positive_cap(knuth_like):
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            engine.class_of((1, 2, 3), knuth_like, max_size=cap)


def test_unrank_matches_perms_unrank():
    for n in range(1, 8):
        letters = kn.unrank(np.arange(factorial(n)), n)
        assert [tuple(row) for row in letters.tolist()] == list(perms.all_perms(n))
    rng = random.Random(20)
    ranks = [rng.randrange(factorial(20)) for _ in range(500)] + [0, factorial(20) - 1]
    letters = kn.unrank(np.array(ranks, dtype=np.int64), 20)
    assert [tuple(row) for row in letters.tolist()] == [perms.unrank(r, 20) for r in ranks]


def test_format_ranks_matches_format_perm():
    rng = random.Random(21)
    for n in (1, 5, 9, 10, 12, 20):
        ranks = sorted(rng.randrange(factorial(n)) for _ in range(50))
        text = engine.format_ranks(np.array(ranks, dtype=np.int64), n)
        assert text == "".join(perms.format_perm(perms.unrank(r, n)) + "\n" for r in ranks)


def test_identity_class_sizes():
    assert engine.identity_class_size(5, relation.parse_partition("{123,231}{132,213}")) == 36
    assert engine.identity_class_size(5, relation.parse_partition("{123,132}{213,321}")) == 24
    assert engine.identity_class_size(6, relation.parse_partition("{123,321}{213,231}")) == 718


def test_class_sizes_multiset(backend):
    K = relation.parse_partition("{123,132}{213,231}")
    K2 = relation.parse_partition("{123,132}{312,321}")
    m1 = engine.class_sizes_multiset(6, K)
    assert sum(m1) == factorial(6)
    assert m1 == engine.class_sizes_multiset(6, K2)
    K3 = relation.singleton_partition(3)
    assert engine.class_sizes_multiset(4, K3) == (1,) * 24


def test_count_avoiders(backend):
    # S_3 under {123,132,321}: exactly 213, 231, 312 avoid
    K = relation.parse_partition("{123,132,321}")
    assert engine.count_trivial(3, K) == 3
    # double-factorial count at n=5
    assert engine.count_trivial(5, K) == 11
    # n=4 under {132,312}{321,213}: n-1 trivial classes
    K2 = relation.parse_partition("{132,312}{321,213}")
    assert engine.count_trivial(4, K2) == 3
    # empty pattern set: everything avoids
    assert engine.count_avoiders(4, 3, []) == 24
    # n < c: no window can match
    assert engine.count_avoiders(2, 3, [(1, 2, 3)]) == 2


def test_count_avoiders_matches_scan(backend):
    K = relation.parse_partition("{123,321}{132,231}")
    for n in range(1, 7):
        expected = sum(1 for p in perms.all_perms(n) if relation.is_avoider(p, K))
        assert engine.count_trivial(n, K) == expected


def test_resource_bounds(knuth_like, monkeypatch):
    with pytest.raises(ResourceLimitError, match="MB"):
        engine.enumerate_classes(11, knuth_like)
    with pytest.raises(ResourceLimitError):
        engine.enumerate_classes(9, knuth_like, mode="subword")
    with pytest.raises(ResourceLimitError):
        engine.enumerate_classes(13, knuth_like, allow_large=True)
    monkeypatch.setenv("PERMCLASS_MEMORY_CAP_MB", "0.1")
    with pytest.raises(ResourceLimitError, match="PERMCLASS_MEMORY_CAP_MB"):
        engine.enumerate_classes(8, knuth_like)


def test_memory_checked_again_over_known_classes(monkeypatch):
    # {1234,4321} at n=9 has few edges (about 0.5 MB of estimate over one
    # class of S_8) but 31990 classes of S_8 (18 MB): the closure refuses
    # its last step once it knows them
    K = relation.parse_partition("{1234,4321}")
    monkeypatch.setenv("PERMCLASS_MEMORY_CAP_MB", "5")
    assert engine.estimate_bytes(9, "factor", K) < 5 * 2**20
    with pytest.raises(ResourceLimitError, match="PERMCLASS_MEMORY_CAP_MB"):
        engine.enumerate_classes(9, K)
    assert engine.enumerate_classes(8, K).num_classes == 31990


def test_class_of_cap(knuth_like, monkeypatch):
    for _ in _paths(monkeypatch):
        with pytest.raises(ResourceLimitError):
            engine.class_of((1, 5, 3, 2, 4), knuth_like, max_size=2)


def _counted(monkeypatch):
    """Wrap kernels_numpy.class_steps and class_ranks: one list per pass,
    of the k of each S_k it closed, and the start rank of each rank BFS."""
    passes, searches = [], []
    class_steps, class_ranks = kn.class_steps, kn.class_ranks

    def counted(n, tab, mode):
        passes.append([])
        for k, step in enumerate(class_steps(n, tab, mode), 1):
            passes[-1].append(k)
            yield step

    monkeypatch.setattr(kn, "class_steps", counted)
    monkeypatch.setattr(kn, "class_ranks", lambda *a: searches.append(a[0]) or class_ranks(*a))
    return passes, searches


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_class_of_closes_s_n_once(monkeypatch, mode):
    # repeated queries on one relation and n close S_n once; subword mode
    # closes it at the first query
    passes, _ = _counted(monkeypatch)
    K = relation.parse_partition("{123,132}{213,231}")
    rng = random.Random(24)
    for i in range(5):
        p = tuple(rng.sample(range(1, 8), 7))
        assert _members(engine.class_of(p, K, mode), 7) == _neighbors_bfs(p, K, mode)
        if i == 0 and mode == "subword":
            assert passes == [list(range(1, 8))]
    assert passes == [list(range(1, 8))]


def test_class_of_rank_bfs_gives_way_to_s_n(monkeypatch):
    # the rank BFS answers a relation's queries while the members it has
    # found stay within n!/_BFS_SHARE; the query that would pass that
    # closes S_n, and the later ones read it
    K = relation.parse_partition("{132,231}{213,312}")
    dec = engine.enumerate_classes(8, K)
    room = factorial(8) // engine._BFS_SHARE
    sizes = dec.class_sizes.tolist()
    small = next(c for c, size in enumerate(sizes) if 1 < size <= room // 2)
    large = next(c for c, size in enumerate(sizes) if size > room)
    passes, searches = _counted(monkeypatch)
    for cid, bfs, closed in ((small, 1, 0), (small, 2, 0), (large, 3, 1), (small, 3, 1), (large, 3, 1)):
        assert engine.class_of(dec.representative(cid), K).tolist() == dec.member_ranks(cid).tolist()
        assert (len(searches), len(passes)) == (bfs, closed)
    assert list(engine._class_of_cache) == [(K, 8, "factor")]
    assert isinstance(engine._class_of_cache[K, 8, "factor"], engine.ClassDecomposition)


def test_class_of_one_off_small_class_closes_nothing(monkeypatch):
    # one member at n=10, as a single classes --perm request asks it
    passes, searches = _counted(monkeypatch)
    K = relation.parse_partition("{132,231}{213,312}")
    p = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    assert engine.class_of(p, K).tolist() == [perms.rank(p)]
    assert (passes, len(searches)) == ([], 1)
    assert engine._class_of_cache[K, 10, "factor"] == 1


def test_class_of_keeps_the_bfs_for_a_relation_with_many_classes(monkeypatch):
    # {1234,4321} has 274050 classes in S_9, so its S_10 could hold 4 * 9! +
    # 20 * 10 * 274050 B = 56 MB: with no room for the rank BFS, the pass
    # stops at S_9, and the rank BFS answers every query
    monkeypatch.setattr(engine, "_BFS_SHARE", factorial(10) + 1)
    passes, searches = _counted(monkeypatch)
    K = relation.parse_partition("{1234,4321}")
    p = tuple(range(1, 11))
    for _ in range(3):
        assert len(engine.class_of(p, K)) == 26
    assert passes == [list(range(1, 10))] and len(searches) == 3
    assert list(engine._class_of_cache.values()) == [engine._TOO_LARGE]


def test_class_of_cache_holds_at_most_its_bytes(monkeypatch):
    # with room for two S_8 decompositions of these relations, a third
    # evicts the least recently used
    keys = ("{123,132}{213,231}", "{123,321}{132,231}", "{132,231}{213,312}")
    decs = [engine.enumerate_classes(8, relation.parse_partition(k)) for k in keys]
    held = [engine._held_bytes(d) for d in decs]
    monkeypatch.setattr(engine, "_CLASS_OF_CACHE_BYTES", held[1] + held[2] + held[0] // 2)
    monkeypatch.setattr(engine, "_BFS_SHARE", factorial(8) + 1)
    for key in keys:
        engine.class_of(perms.identity(8), relation.parse_partition(key))
    kept = {k[0].text(): v for k, v in engine._class_of_cache.items()}
    assert [type(v) for v in kept.values()] == [engine.ClassDecomposition] * 2
    assert list(kept) == [relation.parse_partition(k).text() for k in keys[1:]]
    assert sum(map(engine._held_bytes, kept.values())) <= engine._CLASS_OF_CACHE_BYTES


def test_class_of_cache_remembers_at_most_its_keys(monkeypatch):
    monkeypatch.setattr(engine, "_CLASS_OF_CACHE_KEYS", 3)
    K = relation.parse_partition("{123,321}{132,231}")
    for n in range(1, 7):
        engine.class_of(perms.identity(n), K)
    assert [key[1] for key in engine._class_of_cache] == [4, 5, 6]


def test_members_leave_class_id_unbuilt(knuth_like):
    dec = engine.enumerate_classes(6, knuth_like)
    members = [dec.members(cid) for cid in range(dec.num_classes)]
    assert "class_id" not in dec.__dict__
    assert members == [
        [perms.unrank(int(r), 6) for r in np.flatnonzero(dec.class_id == cid)]
        for cid in range(dec.num_classes)
    ]


def _neighbors_bfs(p, partition, mode):
    """Independent oracle: BFS over the Transformation records of neighbors."""
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for t in relation.neighbors(q, partition, mode):
                if t.target not in seen:
                    seen.add(t.target)
                    nxt.append(t.target)
        frontier = nxt
    return seen


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_class_of_matches_neighbors_bfs(mode, monkeypatch):
    # subword classes at n=7 run to thousands of members; stop at n=6 there
    rng = random.Random(20260)
    top = 7 if mode == "factor" else 6
    cases = []
    for key in ("{123,321}{132,231}", "{123,132,231}", "{132,231}{213,312}",
                "{123,132}{213,321}"):
        K = relation.parse_partition(key)
        for n in range(1, top + 1):
            for _ in range(3):
                p = tuple(rng.sample(range(1, n + 1), n))
                cases.append((K, p, _neighbors_bfs(p, K, mode)))
    for _ in _paths(monkeypatch):
        for K, p, truth in cases:
            assert _members(engine.class_of(p, K, mode), len(p)) == truth, (K.text(), mode, p)


@pytest.mark.parametrize("key", list(oracle.ROWS_BY_KEY))
def test_subword_class_of_matches_neighbors_bfs_all_relations(key, monkeypatch):
    _check_random_classes(key, "subword", 6, monkeypatch)


_C4_KEYS = ("{1234,4321}", "{1234,1243}{2134,2143}", "{1324,1423,2314,2413}")


@pytest.mark.parametrize("key", [*oracle.relation_keys(), *_C4_KEYS])
def test_factor_class_of_matches_neighbors_bfs_all_relations(key, monkeypatch):
    _check_random_classes(key, "factor", 7, monkeypatch)


def _check_random_classes(key, mode, top, monkeypatch):
    """class_of on both paths against _neighbors_bfs, for three random
    permutations of each n up to top."""
    rng = random.Random(key)
    K = relation.parse_partition(key)
    cases = []
    for n in range(1, top + 1):
        for _ in range(3):
            p = tuple(rng.sample(range(1, n + 1), n))
            cases.append((p, _neighbors_bfs(p, K, mode)))
    for _ in _paths(monkeypatch):
        for p, truth in cases:
            assert _members(engine.class_of(p, K, mode), len(p)) == truth, p


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_class_of_cap_boundary(knuth_like, mode, monkeypatch):
    # the exact size is admitted and one less refused on every path: off
    # the decomposition's class sizes, in the tuple BFS (subword mode), and
    # in the rank BFS (factor mode) with whole levels or one rank a batch
    p = (1, 5, 3, 2, 4, 7, 6) if mode == "factor" else (1, 5, 3, 2, 4)
    for candidates in (None, 1) if mode == "factor" else (None,):
        if candidates is not None:
            monkeypatch.setattr(kn, "_BFS_CANDIDATES", candidates)
        for _ in _paths(monkeypatch):
            size = len(engine.class_of(p, knuth_like, mode))
            assert size > 2
            assert len(engine.class_of(p, knuth_like, mode, max_size=size)) == size
            with pytest.raises(ResourceLimitError, match="exceeds cap"):
                engine.class_of(p, knuth_like, mode, max_size=size - 1)


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_decomposition_holds_only_its_tail(knuth_like, mode):
    # the tail is not a view into the last step's larger node array
    dec = engine.enumerate_classes(7, knuth_like, mode=mode)
    held = dec.tail if dec.tail.base is None else dec.tail.base
    assert held.nbytes == dec.tail.nbytes


def test_json_dict_schema(knuth_like):
    d = engine.enumerate_classes(4, knuth_like).to_json_dict()
    assert d["partition"] == "{123,321}{132,231}"
    assert d["n"] == 4 and d["mode"] == "factor"
    assert d["num_classes"] == 8 and d["num_trivial"] == 0
    assert d["class_sizes"] == sorted(d["class_sizes"])
    assert len(d["representatives"]) == 8
    assert d["representatives"][0] == "1234"


def test_path_reconstruction_s5(knuth_like):
    # any two members of a class are joined by a path of transformations
    dec = engine.enumerate_classes(5, knuth_like)
    for cid in range(dec.num_classes):
        members = set(dec.members(cid))
        rep = dec.representative(cid)
        reached = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for q in frontier:
                for t in relation.neighbors(q, knuth_like):
                    if t.target not in reached:
                        reached.add(t.target)
                        nxt.append(t.target)
            frontier = nxt
        assert reached == members


def test_workers_below_one_refused(knuth_like):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        engine.enumerate_classes(4, knuth_like, workers=0)


def test_ram_check(knuth_like, monkeypatch, capsys):
    assert engine._available_bytes() > 0
    expected = engine.enumerate_classes(5, knuth_like).num_classes
    monkeypatch.setitem(engine.DEFAULT_MAX_N, "factor", 4)
    monkeypatch.setattr(engine, "_available_bytes", lambda: 1)
    with pytest.raises(ResourceLimitError, match="exceeds available memory"):
        engine.enumerate_classes(5, knuth_like, allow_large=True)
    monkeypatch.setattr(engine, "_available_bytes", lambda: None)
    assert engine.enumerate_classes(5, knuth_like, allow_large=True).num_classes == expected
    assert capsys.readouterr().err == "permclass: available memory unknown; RAM check skipped\n"


_GROWTH = """
import sys
from permclass import engine, relation


def peak_rss():
    # VmHWM rather than ru_maxrss: across exec, ru_maxrss keeps the RSS of
    # the process that spawned this one (here the test runner)
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))


n, mode, K = int(sys.argv[1]), sys.argv[2], relation.parse_partition(sys.argv[3])
engine.enumerate_classes(5, K, mode)
before = peak_rss()
engine.enumerate_classes(n, K, mode, allow_large=True)
print(peak_rss() - before)
"""


@pytest.mark.parametrize("n, mode, key", [
    (10, "factor", "{132,231}{213,312}"),
    (10, "subword", "{123,132,213,231}"),
    (10, "subword", "{123,321}{132,231}"),
    (10, "factor", "{123,132,213,231,312,321}"),
    (10, "subword", "{123,132,213,231,312,321}"),
    (10, "subword", "{123,132}"),
    (9, "factor", "{1234,4321}"),
])
def test_estimate_bytes_bounds_measured_growth(n, mode, key):
    # the peak-RSS growth of one enumeration in a fresh process, after a
    # warm n=5 run has paid for the imports, against the estimate over the
    # class counts of S_1, ..., S_{n-1} that the closure checks before its
    # last step.  Subword steps read rows off the classes, so they grow by
    # only 0.2-0.8 MB at n=9; at n=10 the ids of S_9 are most of it
    src = os.path.dirname(os.path.dirname(permclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _GROWTH, str(n), mode, key], env=env,
                         capture_output=True, text=True, check=True)
    growth = int(out.stdout)
    K = relation.parse_partition(key)
    decs = engine.decompositions(range(1, n), K, mode, allow_large=True)
    classes = [dec.num_classes for dec in decs]
    assert growth <= engine.estimate_bytes(n, mode, K, classes) <= 4 * growth


@lru_cache(maxsize=None)
def _unrank_table(n):
    return np.array([perms.unrank(r, n) for r in range(factorial(n))]).reshape(-1, n)


def _lehmer_ranks(rows):
    """Lehmer rank of each row, from the definition of the digits."""
    n, cols = rows.shape[1], np.ascontiguousarray(rows.T)
    r = np.zeros(len(rows), dtype=np.int64)
    for j in range(n):
        r = r * (n - j) + (cols[j + 1 :] < cols[j]).sum(axis=0)
    return r


def test_perm_table_matches_unrank():
    for n in range(1, 8):
        table = kn.perm_table(n)
        assert np.array_equal(table, _unrank_table(n))
        assert np.array_equal(_lehmer_ranks(table), np.arange(factorial(n)))
        # the span-letter prefixes: every (n-span)!-th row, cut to span letters
        for span in range(n + 1):
            expected = _unrank_table(n)[:: factorial(n - span), :span]
            assert np.array_equal(kn.perm_table(n, span), expected), (n, span)


def _local_index(letters: np.ndarray, m: int) -> np.ndarray:
    """loc of each row of window letters: digit j is letter j less the
    earlier window letters below it, read in radix m, m-1, ..., m-span+1."""
    cols = np.ascontiguousarray(letters.T)
    loc = np.zeros(len(letters), dtype=np.int64)
    for j in range(len(cols)):
        digit = cols[j].copy()
        for k in range(j):
            digit -= cols[k] < cols[j]
        loc = loc * (m - j) + digit
    return loc


def test_window_letters_in_local_index_order():
    for m, c in ((3, 3), (5, 2), (7, 3), (8, 4), (8, 8)):
        letters = kn.window_letters(m, c)
        assert letters.shape == (c, factorial(m) // factorial(m - c))
        assert np.array_equal(_local_index(letters.T, m), np.arange(letters.shape[1]))


@pytest.mark.parametrize("c", [2, 3, 4])
def test_digit_rule_lemma_exhaustive(c):
    # The pattern and every rewrite at the index set idx, read from the
    # span = idx[-1] - idx[0] + 1 digits from idx[0] on alone, against
    # unrank + rewrite + rank, for every rank of S_n.  Windows are the
    # index sets of consecutive positions.
    for n in range(c, 9):
        table = _unrank_table(n).astype(np.int8)
        ranks = np.arange(factorial(n))
        for idx in itertools.combinations(range(n), c):
            i, span, idx = idx[0], idx[-1] - idx[0] + 1, list(idx)
            m, cols = n - i, [j - i for j in idx]
            stride = factorial(m - span)
            loc = ranks % factorial(m) // stride
            outside = ranks - loc * stride  # pre * m! + suf
            win = table[:, idx]
            rule = kn.window_letters(m, span).T[loc]
            assert np.array_equal(kn._pattern_ids(rule[:, cols].T), _lehmer_ranks(win))
            if span == c:
                assert np.array_equal(kn.window_pattern_ids(m, c)[loc], _lehmer_ranks(win))
            rule_sorted, letters = np.sort(rule[:, cols], axis=1), np.sort(win, axis=1)
            for q in itertools.permutations(range(c)):
                moved = table.copy()
                moved[:, idx] = letters[:, q]
                rewritten = rule.copy()
                rewritten[:, cols] = rule_sorted[:, q]
                got = outside + _local_index(rewritten, m) * stride
                assert np.array_equal(got, _lehmer_ranks(moved)), (n, idx, q)


def _loc_letters(loc, m, span):
    """The first span letters (0-based) of a permutation of m letters whose
    first span Lehmer digits read loc in radix m, m-1, ..., m-span+1."""
    digits = []
    for j in reversed(range(span)):
        loc, d = divmod(loc, m - j)
        digits.append(d)
    free = list(range(m))
    return [free.pop(d) for d in reversed(digits)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_digit_rule_lemma_to_n20(data):
    c = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(c, 20))
    p = tuple(data.draw(st.permutations(range(1, n + 1))))
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=c, max_size=c, unique=True)))
    q = data.draw(st.permutations(range(c)))
    i, span = idx[0], idx[-1] - idx[0] + 1
    m, cols = n - i, [j - i for j in idx]
    stride = factorial(m - span)
    pre, rest = divmod(perms.rank(p), factorial(m))
    loc, suf = divmod(rest, stride)
    rule = np.array([_loc_letters(loc, m, span)])
    assert list(rule[0] + 1) == list(perms.standardize(p[i:])[:span])
    if factorial(m) // stride <= 10**5:
        assert np.array_equal(kn.window_letters(m, span)[:, loc], rule[0])
    pattern = perms.rank(perms.standardize([p[j] for j in idx]))
    assert kn._pattern_ids(rule[:, cols].T)[0] == pattern
    letters = sorted(p[j] for j in idx)
    target = list(p)
    for j, x in zip(idx, q):
        target[j] = letters[x]
    rule[0, cols] = np.sort(rule[0, cols])[list(q)]
    assert perms.rank(target) == pre * factorial(m) + int(_local_index(rule, m)[0]) * stride + suf


@pytest.mark.parametrize("c", [2, 3, 4])
def test_window_pairs_memoized_match_fresh(c):
    # every rewrite of the registered relations (c=3), of {12,21} and of
    # the c=4 relations, at the first window of m = c..10 letters: the
    # cached pairs are read-only, the same arrays on every call, and equal
    # a computation with no cache and the source locs of pattern d, their
    # letters rewritten to pattern u and ranked by _local_index
    keys = {2: ["{12,21}"], 3: list(oracle.ROWS_BY_KEY), 4: list(_C4_KEYS)}[c]
    rewrites = sorted({(d, u) for key in keys
                       for d, us in build_tables(relation.parse_partition(key)).partners
                       for u in us})
    onel = _unrank_table(c) - 1  # row t: the letters of pattern t
    for m in range(c, 11):
        letters = np.array([_loc_letters(loc, m, c) for loc in range(factorial(m) // factorial(m - c))])
        pid = _lehmer_ranks(letters)
        for d, u in rewrites:
            a, b = kn._window_pairs(m, c, d, u)
            again = kn._window_pairs(m, c, d, u)
            assert again[0] is a and again[1] is b
            fresh = kn._window_pairs.__wrapped__(m, c, d, u)
            assert np.array_equal(a, fresh[0]) and np.array_equal(b, fresh[1])
            rows = np.flatnonzero(pid == d)
            moved = np.sort(letters[rows], axis=1)[:, onel[u]]
            assert np.array_equal(a, rows) and np.array_equal(b, _local_index(moved, m)), (m, d, u)
            for arr in (a, b):
                with pytest.raises(ValueError):
                    arr[:1] = 0


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_step_sizes_and_reps_match_class_ids(mode):
    # each step's class sizes and minimal ranks, read off the closure's
    # roots, against the class ids of S_n: their counts and the first rank
    # of each id, for every registered relation and {1234,4321}, n <= 8
    for key in [*oracle.ROWS_BY_KEY, "{1234,4321}"]:
        decs = engine.decompositions(range(1, 9), relation.parse_partition(key), mode)
        for dec in decs:
            ids, first = np.unique(dec.class_id, return_index=True)
            assert np.array_equal(ids, np.arange(dec.num_classes)), (key, dec.n)
            assert np.array_equal(dec.class_sizes, np.bincount(dec.class_id)), (key, dec.n)
            assert np.array_equal(dec.rep_ranks, first), (key, dec.n)
        assert dec.n == 8


def test_hit_any_matches_scan():
    # per-permutation scan: the pattern id of every window of every p in S_n,
    # against hit_any over each window on its own
    scans = {}
    for key in oracle.relation_keys():
        K = relation.parse_partition(key)
        hit = [perms.rank(pat) for pat in K.nontrivial_patterns]
        for n in range(K.c, 9):
            if (n, K.c) not in scans:
                scans[n, K.c] = np.array([
                    [perms.rank(perms.standardize(p[i : i + K.c])) for i in range(n - K.c + 1)]
                    for p in perms.all_perms(n)
                ])
            expected = np.isin(scans[n, K.c], hit)
            for i in range(n - K.c + 1):
                got = engine.hit_any(n, K, range(i, i + 1))
                assert np.array_equal(got, expected[:, i]), (key, n, i)


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_rep_ranks_are_class_minima(mode):
    total = factorial(7)
    for key in ("{123,321}{132,231}", "{132,231}{213,312}", "{123,132,231}"):
        dec = engine.enumerate_classes(7, relation.parse_partition(key), mode=mode)
        first = np.full(dec.num_classes, total)
        np.minimum.at(first, dec.class_id, np.arange(total))
        assert np.array_equal(dec.rep_ranks, first), key
