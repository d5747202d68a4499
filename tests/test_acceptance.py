"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything asserts exact integer equality; the randomized trials
use a fixed seed and tolerate zero violations.  The n=10 reference value
is in the extended suite: ``pytest -m extended``.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from math import factorial

import numpy as np
import pytest

from permclass import cli, engine, invariants as inv, meta, oracle, perms, relation


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_figure1_reproduction():
    t0 = time.perf_counter()
    checked = 0
    for key in oracle.relation_keys():
        K = relation.parse_partition(key)
        for n in range(max(3, oracle.validity_floor(key)), 9):
            assert oracle.expected_count(key, n) == engine.enumerate_classes(n, K).num_classes, (key, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(f"criterion 1: PASS - all 20 formula rows match the engine exactly "
            f"({checked} (relation, n) pairs up to n=8, {elapsed:.1f}s)")


def test_criterion_2_figure2_reproduction():
    K = relation.parse_partition(oracle.FIGURE2_KEY)
    expected = {3: 4, 4: 10, 5: 26, 6: 76, 7: 234, 8: 782, 9: 2804}
    for n, v in expected.items():
        assert oracle.figure2_reference(n) == v
        assert engine.enumerate_classes(n, K).num_classes == v, n
    _report("criterion 2: PASS - {132,231}{213,312} counts 4..2804 exact for n=3..9")


@pytest.mark.extended
def test_criterion_2_extended_n10():
    K = relation.parse_partition(oracle.FIGURE2_KEY)
    t0 = time.perf_counter()
    assert engine.enumerate_classes(10, K).num_classes == 10972
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(f"criterion 2 (extended): PASS - n=10 count 10972 exact ({elapsed:.1f}s)")


def test_criterion_3_identity_class_sizes():
    checks = 0
    K = relation.parse_partition("{123,231}{132,213}")
    for n in range(4, 8):
        assert engine.identity_class_size(n, K) == (n - 2) * factorial(n - 1) // 2
        checks += 1
    for key in ("{123,132}{213,321}", "{123,132}{213,231}"):
        K = relation.parse_partition(key)
        for n in range(3, 8):
            assert engine.identity_class_size(n, K) == factorial(n - 1)
            checks += 1
    K = relation.parse_partition("{123,321}{213,231}")
    for n in (6, 7):
        assert engine.identity_class_size(n, K) == factorial(n) - 2
        checks += 1
    K = relation.parse_partition("{123,231}{132,321}")
    for n in range(4, 8):
        assert engine.identity_class_size(n, K) == oracle.trivializable_count(n)
        checks += 1
    _report(f"criterion 3: PASS - {checks} identity-class sizes exact "
            "((n-2)(n-1)!/2, (n-1)!, n!-2, trivializable counts)")


def test_criterion_4_class_size_structure():
    # product formula vs BFS size for every class at n=6
    K = relation.parse_partition("{123,132}{312,321}")
    dec = engine.enumerate_classes(6, K)
    for cid in range(dec.num_classes):
        rep = dec.representative(cid)
        assert oracle.class_size_product(6, inv.j_sequence(rep)) == int(dec.class_sizes[cid])
    assert int(dec.class_sizes.sum()) == factorial(6)
    # multiset-of-sizes equality at n=6,7
    K2 = relation.parse_partition("{123,132}{213,231}")
    for n in (6, 7):
        assert engine.class_sizes_multiset(n, K) == engine.class_sizes_multiset(n, K2)
    # fall-based quotient at n=6
    K3 = relation.parse_partition("{123,321}{132,231}")
    dec3 = engine.enumerate_classes(6, K3)
    for cid in range(dec3.num_classes):
        j = len(inv.fall(dec3.representative(cid)))
        assert oracle.fall_class_size(6, j) == int(dec3.class_sizes[cid])
    _report("criterion 4: PASS - product-formula sizes, size multiset equality, "
            "and fall quotients all exact")


def _grouped_by_class(n, K, value, only_nontrivial=False):
    dec = engine.enumerate_classes(n, K)
    groups = defaultdict(set)
    for p in perms.all_perms(n):
        cid = dec.class_of_perm(p)
        if only_nontrivial and dec.class_sizes[cid] == 1:
            continue
        groups[cid].add(value(p))
    return dec, groups


def _assert_complete(groups):
    assert all(len(vals) == 1 for vals in groups.values())
    assert len({next(iter(v)) for v in groups.values()}) == len(groups)


def test_criterion_5_invariant_completeness_n6():
    # complete invariants: constant on classes and distinct across them
    _, g = _grouped_by_class(6, relation.parse_partition("{123,132,321}"),
                             inv.a_k_max, only_nontrivial=True)
    _assert_complete(g)
    _, g = _grouped_by_class(6, relation.parse_partition("{123,132,231}"), inv.odd_tailed_set)
    _assert_complete(g)
    _, g = _grouped_by_class(6, relation.parse_partition("{123,132}{312,321}"), inv.w_set)
    _assert_complete(g)
    _, g = _grouped_by_class(
        6, relation.parse_partition("{123,321}{132,231}"),
        lambda p: (inv.parity_profile(p), inv.fall_order(p)),
    )
    _assert_complete(g)

    # canonical families: exactly one representative per relevant class
    K = relation.parse_partition("{123,132,321}")
    dec = engine.enumerate_classes(6, K)
    b_cids = [dec.class_of_perm(b) for b in inv.generate_B(6)]
    nontrivial = {cid for cid in range(dec.num_classes) if dec.class_sizes[cid] > 1}
    assert sorted(b_cids) == sorted(nontrivial)

    K = relation.parse_partition(inv.BUSHY_RELATION)
    dec = engine.enumerate_classes(6, K)
    per = defaultdict(int)
    for p in perms.all_perms(6):
        if inv.is_bushy_tailed(p):
            per[dec.class_of_perm(p)] += 1
    assert set(per.values()) == {1} and len(per) == dec.num_classes

    K = relation.parse_partition(inv.COMPACT_RELATION)
    dec = engine.enumerate_classes(6, K)
    members = defaultdict(list)
    for p in perms.all_perms(6):
        members[dec.class_of_perm(p)].append(p)
    ban = relation.make_partition([["123", "231"]])
    for cid, ms in members.items():
        ncomp = sum(1 for p in ms if inv.is_compact(p))
        if all(relation.is_avoider(p, ban) for p in ms):
            assert ncomp == 1
        else:
            assert ncomp == 0

    for key in (inv.V_PERM_RELATION, "{123,132,231}"):
        K = relation.parse_partition(key)
        dec = engine.enumerate_classes(6, K)
        per = defaultdict(int)
        for p in perms.all_perms(6):
            if inv.is_v_permutation(p):
                per[dec.class_of_perm(p)] += 1
        assert set(per.values()) == {1} and len(per) == dec.num_classes

    _report("criterion 5: PASS - four complete invariants separate classes "
            "exactly at n=6; B_n/bushy/compact/V families have one rep per class")


def _random_transformation_trials(key, value, trials=1000, seed=20413, n=7):
    K = relation.parse_partition(key)
    rng = random.Random(seed)
    done = 0
    violations = 0
    while done < trials:
        p = tuple(rng.sample(range(1, n + 1), n))
        ts = relation.neighbors(p, K)
        if not ts:
            continue
        t = rng.choice(ts)
        if value(p) != value(t.target):
            violations += 1
        done += 1
    return violations


def test_criterion_6_invariance_randomized_1000():
    cases = [
        ("{123,132,321}", inv.a_k_max),
        ("{123,132,231}", inv.odd_tailed_set),
        ("{123,132}{312,321}", inv.w_set),
        ("{123,321}{132,231}", lambda p: (inv.parity_profile(p), inv.fall_order(p))),
        ("{123,231}{132,213}", inv.hill_c_set),
    ]
    for key, value in cases:
        assert _random_transformation_trials(key, value) == 0, key

    # 321 -> 123 rewrites never create a dangerous pair
    K = relation.make_partition([["123", "321"], ["132", "213"]])
    rng = random.Random(20413)
    done = 0
    while done < 1000:
        p = tuple(rng.sample(range(1, 8), 7))
        ts = [t for t in relation.neighbors(p, K)
              if t.from_pattern == (3, 2, 1) and t.to_pattern == (1, 2, 3)]
        if not ts:
            continue
        t = rng.choice(ts)
        assert inv.dangerous_pairs(t.target) <= inv.dangerous_pairs(p)
        done += 1
    _report("criterion 6: PASS - 6 x 1000 seeded transformation trials at n=7, "
            "zero invariance violations")


def test_criterion_7_meta_theorems():
    for key in ("{123,132}{213,231}", "{123,132,231}"):
        rep = meta.avoider_criterion(relation.parse_partition(key), 5, check_to=8)
        assert rep.holds and rep.propagation_ok, key

    rep = meta.adjacent_equals_subword(
        relation.parse_partition("{123,132,213,231}"), 4, check_to=6
    )
    assert rep.equal_at_k and rep.equal_through == 6

    K = relation.parse_partition("{123,321}{213,231}")
    for n in (6, 7):
        assert meta.middled_reachability(n, K)
        dec = engine.enumerate_classes(n, K)
        idc = dec.class_of_perm(perms.identity(n))
        for p in perms.all_perms(n):
            if relation.is_middled(p, K):
                assert dec.class_of_perm(meta.stooge_normalize(p, K)) == idc
        # together with middled reachability: all non-avoiders in one class
        assert sum(1 for s in dec.class_sizes if s > 1) == 1

    for key in ("{123,132}{213,231}", "{123,132,231}"):
        K2 = relation.parse_partition(key)
        for p in perms.all_perms(6):
            assert meta.repeated_down_jump(p, K2, "leftmost") == \
                meta.repeated_down_jump(p, K2, "rightmost")
    _report("criterion 7: PASS - criterion propagation to n=8, adjacent=subword "
            "to n=6, stooge collapse at n=6,7, strategy independence on S_6")


def test_criterion_8_determinism_across_workers(tmp_path):
    outputs = []
    for w in (1, 2, 8):
        path = tmp_path / f"verify_w{w}.json"
        code = cli.main([
            "verify", "--n-max", "7", "--figure2-n-max", "8",
            "--workers", str(w), "--format", "json", "--output", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    # and the engine arrays themselves agree across worker counts
    K = relation.parse_partition("{123,321}{132,231}")
    a = engine.enumerate_classes(7, K, workers=1)
    b = engine.enumerate_classes(7, K, workers=8)
    assert np.array_equal(a.class_id, b.class_id)
    _report("criterion 8: PASS - verify reports byte-identical for 1/2/8 workers")
