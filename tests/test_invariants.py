from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest

from permclass import engine, invariants as inv, oracle, perms, relation


def test_a_k_max_examples():
    assert inv.a_k_max((1, 2, 3, 4, 5)) == (1, "odd")
    assert inv.a_k_max((2, 3, 1, 4, 5)) == (2, "odd")  # b_5
    assert inv.a_k_max((2, 1, 3, 4, 5)) == (1, "even")
    # B_5 members realize pairwise distinct signatures
    sigs = {inv.a_k_max(p) for p in inv.generate_B(5)}
    assert len(sigs) == 3


def test_b_family_printed_values():
    assert inv.b_perm(3) == (1, 2, 3)
    assert inv.b_perm(4) == (2, 1, 3, 4)
    assert inv.b_perm(5) == (2, 3, 1, 4, 5)
    assert inv.b_perm(6) == (3, 2, 4, 1, 5, 6)
    assert inv.generate_B(4) == {(1, 2, 3, 4), (2, 1, 3, 4)}
    assert inv.generate_B(5) == {(1, 2, 3, 4, 5), (2, 1, 3, 4, 5), (2, 3, 1, 4, 5)}
    assert {perms.format_perm(p) for p in inv.generate_B(6)} == {
        "123456", "213456", "231456", "324156"
    }
    for n in range(3, 9):
        assert len(inv.generate_B(n)) == n - 2


def test_c_family_printed_values():
    assert {perms.format_perm(p) for p in inv.generate_C(6)} == {
        "123456", "213456", "231456", "324561"
    }


def test_b_family_one_rep_per_nontrivial_class_n7():
    K = relation.parse_partition("{123,132,321}")
    dec = engine.enumerate_classes(7, K)
    cids = {dec.class_of_perm(b) for b in inv.generate_B(7)}
    nontrivial = {c for c in range(dec.num_classes) if dec.class_sizes[c] > 1}
    assert cids == nontrivial and len(cids) == 5


def test_odd_tailed_examples():
    assert inv.odd_tailed_set((5, 3, 1, 2, 4, 6)) == {5, 3}
    assert inv.odd_tailed_set(perms.identity(6)) == frozenset()
    # V-permutations: odd-tailed set = letters left of 1
    for p in perms.all_perms(5):
        if inv.is_v_permutation(p):
            i = p.index(1)
            assert inv.odd_tailed_set(p) == frozenset(p[:i])


def test_v_permutation_count():
    for n in range(2, 9):
        cnt = sum(1 for p in perms.all_perms(n) if inv.is_v_permutation(p))
        assert cnt == 2 ** (n - 1)
    assert inv.is_v_permutation((5, 3, 1, 2, 4, 6))


def test_w_set_example():
    assert inv.w_set((4, 5, 3, 2, 1, 6)) == (4, 5, 1)
    assert inv.origin_permutation((4, 5, 3, 2, 1, 6)) == (4, 5, 1, 2, 3, 6)
    # any permutation starting with 1 has W = {1}: origin is the identity
    assert inv.origin_permutation((1, 4, 2, 3)) == (1, 2, 3, 4)
    assert inv.w_set((1,)) == ()


def test_valleys_peaks_and_j_sequence():
    vp = inv.valleys_peaks((4, 5, 3, 2, 1, 6))
    assert vp == [(1, "valley"), (5, "peak"), (4, "valley")]
    assert inv.j_sequence((4, 5, 3, 2, 1, 6)) == (1, 1, 4)


def test_w_set_invariance_and_class_size_n6():
    K = relation.parse_partition("{123,132}{312,321}")
    dec = engine.enumerate_classes(6, K)
    for cid in range(dec.num_classes):
        members = dec.members(cid)
        assert len({inv.w_set(p) for p in members}) == 1
        assert oracle.class_size_product(6, inv.j_sequence(members[0])) == len(members)
        assert inv.origin_permutation(members[0]) in set(members)


def test_fall_examples():
    assert inv.fall((1, 2, 3, 4)) == {4}
    assert 6 in inv.fall((2, 6, 3, 5, 4, 1))
    for p in perms.all_perms(4):
        assert len(p) in inv.fall(p)
    # 123..n: every letter shares the parity chain only up to the top
    assert inv.fall((2, 1, 4, 3)) == {4}
    assert inv.fall((1, 3, 2, 4)) == {4, 3}  # wait: 4 even pos, 3 even pos -> both


def test_fall_class_equality_n5():
    # p == q under {123,321}{132,231} iff same parity profile and fall order
    K = relation.parse_partition("{123,321}{132,231}")
    dec = engine.enumerate_classes(5, K)
    by_inv = defaultdict(set)
    for p in perms.all_perms(5):
        by_inv[(inv.parity_profile(p), inv.fall_order(p))].add(dec.class_of_perm(p))
    assert all(len(v) == 1 for v in by_inv.values())
    assert len(by_inv) == dec.num_classes


def test_predicates_examples():
    assert inv.is_layered((2, 4, 1, 3))  # odd positions hold {2,1}, even {4,3}
    assert not inv.is_layered((1, 2, 3, 4))
    assert inv.is_zipped((3, 5, 1, 4, 2)) is False
    assert inv.is_zipped((5, 4, 3, 2, 1))
    assert inv.is_zipped((3, 5, 2, 4, 1))
    assert inv.is_partially_zipped((3, 2, 1, 4))
    assert not inv.is_partially_zipped((3, 2, 4, 1))
    assert inv.is_fronted((3, 1, 2, 4))  # n-1 up front
    assert inv.is_fronted((1, 4, 3, 2))  # j n (n-1)
    assert not inv.is_fronted((1, 2, 3, 4))
    assert inv.is_lambda_permutation((1, 3, 4, 2))
    assert not inv.is_lambda_permutation((3, 1, 4, 2))


def test_reductive_decent():
    # reductive: not starting n-2, ending (n-1)n, head non-avoiding
    assert inv.is_reductive((2, 1, 3, 4, 5))  # head 2134 has a 132/213/231? 213 yes
    assert not inv.is_reductive((3, 1, 2, 4, 5))  # starts with n-2
    assert not inv.is_reductive((2, 1, 3, 5, 4))  # does not end 45
    decents = [p for p in perms.all_perms(5) if inv.is_decent(p)]
    assert all(p[0] == 3 and p[-1] == 5 and p[1] != 4 for p in decents)
    assert decents  # nonempty at n=5


def test_hill_c_k():
    # permutations of the form (n-1)...n satisfy C_1; (n-1)n... does not
    assert inv.hill_c_k((4, 1, 2, 3, 5)) == 1
    assert inv.hill_c_k((4, 5, 1, 2, 3)) is None
    assert inv.hill_c_k((1, 5, 4, 2, 3)) == 1  # j n (n-1) form
    assert inv.hill_c_k((4, 3, 1, 2, 5)) == 2
    assert inv.hill_c_k((4, 1, 5, 3, 2)) == 3  # hills (4) and (3,2) around j=1, n
    assert inv.hill_c_k((1, 2, 3, 4, 5)) is None


def test_hill_c_k_invariance_n6():
    K = relation.parse_partition("{123,231}{132,213}")
    dec = engine.enumerate_classes(6, K)
    groups = defaultdict(set)
    for p in perms.all_perms(6):
        groups[dec.class_of_perm(p)].add(inv.hill_c_set(p))
    assert all(len(v) == 1 for v in groups.values())


def test_special_families_printed():
    assert {perms.format_perm(p) for p in inv.t_family(5)} == {
        "21345", "32145", "34215", "34521"
    }
    assert {perms.format_perm(p) for p in inv.e_family(4)} == {"3421", "4231", "4312"}
    assert perms.format_perm(inv.s_perm(5)) == "25341"
    assert perms.format_perm(inv.d_perm(8)) == "28374651"
    fam = inv.special_families(6)
    assert perms.format_perm(fam["d"]) == "263541"
    assert perms.format_perm(fam["f"]) == "263514"
    with pytest.raises(ValueError):
        inv.s_perm(6)
    with pytest.raises(ValueError):
        inv.d_perm(7)


def _class(p, K):
    return {perms.unrank(int(r), len(p)) for r in engine.class_of(p, K)}


def test_t_family_is_a_class():
    K = relation.parse_partition("{132,312}{213,321}")
    cls = _class((2, 1, 3, 4, 5), K)
    assert cls == inv.t_family(5)


def test_e_family_is_a_class():
    K = relation.parse_partition("{123,132}{231,312}")
    cls = _class((3, 4, 2, 1), K)
    assert cls == inv.e_family(4)


def test_s_d_f_classes():
    K = relation.parse_partition("{123,231}{213,321}")
    assert _class(inv.s_perm(5), K) == {
        (2, 5, 3, 4, 1), (2, 5, 1, 3, 4), (1, 2, 5, 3, 4)
    }
    for n in (6, 8):
        assert len(engine.class_of(inv.d_perm(n), K)) == n + 1
        assert len(engine.class_of(inv.f_perm(n), K)) == n // 2
        assert len(engine.class_of(perms.complement(inv.d_perm(n)), K)) == n + 1
        assert len(engine.class_of(perms.complement(inv.f_perm(n)), K)) == n // 2
    for n in (5, 7):
        assert len(engine.class_of(inv.s_perm(n), K)) == (n + 1) // 2
        assert len(engine.class_of(perms.complement(inv.s_perm(n)), K)) == (n + 1) // 2


def test_dangerous_pairs():
    assert inv.dangerous_pairs((3, 2, 1)) == frozenset()
    assert inv.dangerous_pairs((1, 3, 2)) == {(1, 2)}
    assert inv.dangerous_pairs((2, 1, 3)) == {(2, 3)}
    # closure under 321 -> 123 rewrites: no new dangerous pairs appear
    rng = random.Random(7)
    K = relation.make_partition([["123", "321"]])
    for _ in range(300):
        p = tuple(rng.sample(range(1, 8), 7))
        ts = [t for t in relation.neighbors(p, K) if t.from_pattern == (3, 2, 1)]
        for t in ts:
            assert inv.dangerous_pairs(t.target) <= inv.dangerous_pairs(p)


def test_pdangerous_pairs():
    # pairs using 1 or n need the other extreme letter outside the gap
    p = (2, 1, 4, 3)
    for pair in inv.pdangerous_pairs(p):
        assert pair in inv.dangerous_pairs(p)
    q = (1, 3, 2)  # dangerous pair (1,2) includes the letter 1; n=3 sits between
    assert inv.pdangerous_pairs(q) == frozenset()


def test_zipped_partially_zipped_isolate_classes():
    # no two zipped (or partially zipped) permutations share a class, and
    # their counts are the two binomial terms of the class-count formula
    from math import comb

    K = relation.parse_partition("{123,321}{132,213}")
    for n in (5, 6):
        dec = engine.enumerate_classes(n, K)
        zipped = [p for p in perms.all_perms(n) if inv.is_zipped(p)]
        pzipped = [p for p in perms.all_perms(n) if inv.is_partially_zipped(p)]
        assert len(zipped) == comb(n, n // 2)
        assert len(pzipped) == comb(n - 2, (n - 2) // 2)
        zc = {dec.class_of_perm(p) for p in zipped}
        pc = {dec.class_of_perm(p) for p in pzipped}
        assert len(zc) == len(zipped) and len(pc) == len(pzipped)
        assert not zc & pc


def test_bushy_tailed():
    assert inv.is_bushy_tailed(perms.identity(5))
    assert inv.is_bushy_tailed((2, 1, 3, 4))  # x = 21, tail increasing
    assert not inv.is_bushy_tailed((1, 3, 2, 4))  # tail not increasing
    assert not inv.is_bushy_tailed((3, 2, 1, 4))  # 2 not below both neighbors
    for n in range(3, 8):
        cnt = sum(1 for p in perms.all_perms(n) if inv.is_bushy_tailed(p))
        assert cnt == oracle.motzkin_sum_count(n)


def test_bushy_canonical_n5():
    K = relation.parse_partition(inv.BUSHY_RELATION)
    dec = engine.enumerate_classes(5, K)
    for p in perms.all_perms(5):
        canon = inv.canonical_form(p, "bushy")
        assert inv.is_bushy_tailed(canon)
        assert dec.class_of_perm(canon) == dec.class_of_perm(p)
    assert inv.canonical_form(perms.identity(5), "bushy") == perms.identity(5)


def test_root_permutation():
    for p in perms.all_perms(5):
        root = inv.root_permutation(p)
        assert root.index(5) <= 1
        assert sorted(root) == [1, 2, 3, 4, 5]
    # deterministic and stable under repetition
    p = (2, 4, 1, 5, 3)
    assert inv.root_permutation(inv.root_permutation(p)) == inv.root_permutation(p)


def test_root_stays_in_class():
    K = relation.parse_partition(inv.ROOT_RELATION)
    dec = engine.enumerate_classes(5, K)
    for p in perms.all_perms(5):
        assert dec.class_of_perm(inv.root_permutation(p)) == dec.class_of_perm(p)


def test_compact_counts_match_g():
    for m in range(1, 8):
        by_k = Counter()
        for p in perms.all_perms(m):
            if inv.is_compact_cond1(p):
                by_k[inv.k_length(p)] += 1
        for k in range(1, m // 2 + 2):
            if m - 2 * k + 1 >= 0 or m == 1:
                assert by_k.get(k, 0) == oracle.g_recursion(m, k)
    for n in range(2, 7):
        total = sum(1 for p in perms.all_perms(n) if inv.is_compact(p))
        assert total == sum(oracle.g_recursion(n + 1, k) for k in range(1, n // 2 + 2))


def test_compact_form_reaches_unique_rep():
    K = relation.parse_partition(inv.COMPACT_RELATION)
    dec = engine.enumerate_classes(5, K)
    ban = relation.make_partition([["123", "231"]])
    for cid in range(dec.num_classes):
        members = dec.members(cid)
        avoiding = all(relation.is_avoider(p, ban) for p in members)
        compacts = [p for p in members if inv.is_compact(p)]
        if avoiding:
            assert len(compacts) == 1
            assert {inv.compact_form(p) for p in members} == set(compacts)
        else:
            assert not compacts


def test_v_canonical():
    K = relation.parse_partition(inv.V_PERM_RELATION)
    dec = engine.enumerate_classes(5, K)
    reps = {}
    for p in perms.all_perms(5):
        v = inv.canonical_form(p, "v_perm")
        assert inv.is_v_permutation(v)
        cid = dec.class_of_perm(p)
        assert dec.class_of_perm(v) == cid
        reps.setdefault(cid, v)
        assert reps[cid] == v


def test_canonical_form_unknown_key():
    with pytest.raises(KeyError):
        inv.canonical_form((1, 2, 3), "nope")


def test_predicates_aggregate(knuth_like):
    d = inv.predicates((1, 5, 3, 2, 4), knuth_like)
    assert d["is_middled"] and d["is_lefted"] and d["is_righted"]
    d2 = inv.predicates((5, 3, 1, 2, 4, 6))
    assert d2["is_V"]
    assert "is_middled" not in d2


def test_full_report_shape():
    rep = inv.full_report((4, 5, 3, 2, 1, 6))
    d = rep.to_json_dict()
    assert d["permutation"] == "453216"
    assert d["w_set"] == [4, 5, 1]
    assert isinstance(d["predicates"], dict)
