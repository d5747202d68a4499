from __future__ import annotations

import numpy as np
import pytest

from permclass import engine, invariants as inv, meta, oracle, perms, relation


def test_count_u_avoiders():
    K = relation.parse_partition("{123,132}{213,231}")
    assert meta.count_U_avoiders(5, K) == 16  # U = {132, 231}: the V-permutations
    assert meta.count_U_avoiders(4, relation.singleton_partition(3)) == 24
    # merging all of S_3: U holds everything but 123, so only the identity
    # avoids U (the decreasing permutation contains 321, which is in U)
    full = relation.make_partition([[p for p in perms.all_perms(3)]])
    for n in (3, 4, 5):
        scan = sum(1 for p in perms.all_perms(n) if relation.is_u_avoider(p, full))
        assert meta.count_U_avoiders(n, full) == scan == 1


def test_global_minima():
    # the global minima of the parts with more than one member (the D set)
    K = relation.parse_partition("{123,321}{132,231}")
    assert K.D == ((1, 2, 3), (1, 3, 2))
    K2 = relation.parse_partition("{213,231,312}")
    assert K2.D == ((2, 1, 3),)
    assert relation.singleton_partition(3).D == ()


def test_avoider_criterion_holds():
    for key in ("{123,132}{213,231}", "{123,132,231}"):
        rep = meta.avoider_criterion(relation.parse_partition(key), 5, check_to=8)
        assert rep.holds and rep.propagation_ok
        for n, (nn, an) in rep.per_n.items():
            assert nn == an == 2 ** (n - 1)


def test_avoider_criterion_fails():
    rep = meta.avoider_criterion(relation.parse_partition("{123,321}{132,231}"), 5)
    assert not rep.holds and rep.N_k == 18 and rep.A_k == 26


def test_avoider_criterion_precondition():
    with pytest.raises(ValueError):
        meta.avoider_criterion(relation.parse_partition("{123,132}{213,231}"), 4)


def test_repeated_down_jump():
    K = relation.parse_partition("{123,132}{213,231}")
    # avoider input: unchanged
    assert meta.repeated_down_jump((4, 3, 2, 1), K) == (4, 3, 2, 1)
    for p in perms.all_perms(5):
        out = meta.repeated_down_jump(p, K)
        assert relation.is_u_avoider(out, K)
        assert out <= p


def test_down_jump_strategy_independence_s6():
    for key in ("{123,132}{213,231}", "{123,132,231}"):
        K = relation.parse_partition(key)
        for p in perms.all_perms(6):
            a = meta.repeated_down_jump(p, K, "leftmost")
            b = meta.repeated_down_jump(p, K, "rightmost")
            assert a == b


def test_adjacent_equals_subword():
    K = relation.parse_partition("{123,132,213,231}")
    rep = meta.adjacent_equals_subword(K, 4, check_to=6)
    assert rep.equal_at_k and rep.equal_through == 6
    # the all-singleton partition is trivially equal in both modes
    rep2 = meta.adjacent_equals_subword(relation.singleton_partition(3), 4, check_to=5)
    assert rep2.equal_at_k and rep2.equal_through == 5
    # {123,132}: engine decides either way; just check the report is coherent
    rep3 = meta.adjacent_equals_subword(relation.parse_partition("{123,132}"), 4)
    assert rep3.checked_to == 4 and isinstance(rep3.equal_at_k, bool)
    with pytest.raises(ValueError):
        meta.adjacent_equals_subword(K, 3)


def test_stooge_sets_structure():
    K = relation.parse_partition("{123,321}{213,231}")
    sets = meta.stooge_sets(5, K)
    dec = engine.enumerate_classes(5, K)
    for kind, members in (("L", sets.L), ("R", sets.R), ("I", sets.I)):
        pred = {"L": relation.is_lefted, "R": relation.is_righted, "I": relation.is_middled}[kind]
        cids = set()
        for m in members:
            assert pred(m, K)
            cid = dec.class_of_perm(m)
            assert cid not in cids
            cids.add(cid)
            # minimality within the class
            for q in dec.members(cid):
                if pred(q, K):
                    assert m <= q


def test_stooge_normalize_fixed_point():
    K = relation.parse_partition("{123,321}{213,231}")
    sets5 = meta.stooge_sets(5, K)
    L5, R5 = set(sets5.L), set(sets5.R)
    dec = engine.enumerate_classes(6, K)
    idc = dec.class_of_perm(perms.identity(6))
    for p in perms.all_perms(6):
        if relation.is_middled(p, K):
            w = meta.stooge_normalize(p, K)
            assert perms.standardize(w[:5]) in L5
            assert perms.standardize(w[1:]) in R5
            assert dec.class_of_perm(w) == idc  # all non-avoiders are equivalent


def test_stooge_normalize_idswap_relation():
    K = relation.parse_partition("{132,213,231,312}")
    dec = engine.enumerate_classes(6, K)
    target = (1, 2, 3, 4, 6, 5)
    tc = dec.class_of_perm(target)
    for p in perms.all_perms(6):
        if relation.is_middled(p, K):
            assert dec.class_of_perm(meta.stooge_normalize(p, K)) == tc


def test_stooge_normalize_rejects_non_middled():
    K = relation.parse_partition("{123,321}{213,231}")
    p = (2, 1, 5, 3, 4)  # single hit 215 at the front: lefted only at position 1
    assert relation.hits(p, K) and not relation.is_middled(p, K)
    with pytest.raises(ValueError):
        meta.stooge_normalize(p, K)
    with pytest.raises(ValueError):
        meta.stooge_normalize((1, 2, 3, 4), K)  # n < c + 2


def test_middled_reachability():
    for key in ("{123,132,321}", "{123,321}{213,231}", "{132,213,231,312}"):
        K = relation.parse_partition(key)
        assert meta.middled_reachability(6, K)


def test_i_vs_l_relation_at_c_plus_2():
    # every I_n member's L_n partner is itself or has its final c letters
    # rearranged into a global minimum
    for key in ("{123,321}{213,231}", "{123,132,321}"):
        K = relation.parse_partition(key)
        n = K.c + 2
        sets = meta.stooge_sets(n, K)
        dec = engine.enumerate_classes(n, K)
        lmap = {dec.class_of_perm(p): p for p in sets.L}
        for m in sets.I:
            w = lmap[dec.class_of_perm(m)]
            variants = {m} | {
                m[: n - K.c] + perms.rearrange(m[n - K.c :], d)
                for d in K.D
            }
            assert w in variants


def test_hit_position_propagation():
    # (a): if no R_{n-1} member has a hit inside its first c letters, the
    # same holds for R_n.  Checked for every registered relation at n = 6, 7
    # (the antecedent is nonvacuous for {132,213,231,312}).
    from permclass import oracle

    def r_clean(sets, K):
        return not any(
            any(pos == 1 for pos, _ in relation.hits(p, K)) for p in sets.R
        )

    nonvacuous = 0
    for key in oracle.relation_keys():
        K = relation.parse_partition(key)
        prev = meta.stooge_sets(5, K)
        for n in (6, 7):
            cur = meta.stooge_sets(n, K)
            if r_clean(prev, K):
                nonvacuous += 1
                assert r_clean(cur, K), (key, n)
            prev = cur
    assert nonvacuous >= 2


def _scan_stooge(n, K):
    """Independent oracle: scan S_n in lexicographic (= rank) order with the
    per-permutation predicates."""
    dec = engine.enumerate_classes(n, K)
    best = {"L": {}, "R": {}, "I": {}}
    preds = {"L": relation.is_lefted, "R": relation.is_righted, "I": relation.is_middled}
    for r, p in enumerate(perms.all_perms(n)):
        cid = int(dec.class_id[r])
        for kind, pred in preds.items():
            if cid not in best[kind] and pred(p, K):
                best[kind][cid] = p
    sets = {kind: tuple(sorted(found.values())) for kind, found in best.items()}
    nontrivial = {int(cid) for cid in np.nonzero(dec.class_sizes > 1)[0]}
    return sets, nontrivial <= set(best["I"])


def test_stooge_sets_match_scan():
    for key in oracle.relation_keys():
        K = relation.parse_partition(key)
        for n in range(K.c + 1, 8):
            sets, reachable = _scan_stooge(n, K)
            got = meta.stooge_sets(n, K)
            assert (got.L, got.R, got.I) == (sets["L"], sets["R"], sets["I"]), (key, n)
            assert meta.middled_reachability(n, K) == reachable, (key, n)


def test_sided_hits_match_predicates():
    # the three window ranges of _sided_hits against the per-permutation
    # predicates, n = 1..7, including n <= c, where the ranges are empty
    for key in oracle.ROWS_BY_KEY:
        K = relation.parse_partition(key)
        for n in range(1, 8):
            got = meta._sided_hits(n, K)
            for mask, pred in zip(got, (relation.is_lefted, relation.is_righted,
                                        relation.is_middled)):
                want = [pred(p, K) for p in perms.all_perms(n)]
                assert mask.tolist() == want, (key, n, pred.__name__)


def test_each_caller_builds_only_the_masks_it_reads(monkeypatch):
    # one engine.hit_any pass for each lefted/righted/middled mask read
    calls = []
    hit_any = engine.hit_any

    def counted(n, partition, windows):
        calls.append(windows)
        return hit_any(n, partition, windows)

    monkeypatch.setattr(engine, "hit_any", counted)
    K = relation.parse_partition("{123,132}{213,231}")
    for build, want in ((lambda: meta.middled_reachability(6, K), 1),
                        (lambda: meta._SideNormalizer(6, K), 2),
                        (lambda: meta.stooge_sets(6, K), 3)):
        calls.clear()
        build()
        assert len(calls) == want, calls
