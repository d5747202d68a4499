from __future__ import annotations

import itertools

import pytest

from permclass import oracle, perms, relation
from permclass.errors import InvalidWordError, PartitionParseError


def test_parse_knuth_like_text():
    K = relation.parse_partition("{123,321}{132,231}")
    assert K.c == 3
    assert K.nontrivial_parts == (((1, 2, 3), (3, 2, 1)), ((1, 3, 2), (2, 3, 1)))
    singles = [part for part in K.parts if len(part) == 1]
    assert singles == [((2, 1, 3),), ((3, 1, 2),)]
    assert K.text() == "{123,321}{132,231}"


def test_parse_single_part_and_s2():
    K = relation.parse_partition("{123,132,231}")
    assert len(K.nontrivial_parts) == 1 and len(K.nontrivial_parts[0]) == 3
    K2 = relation.parse_partition("{12,21}")
    assert K2.c == 2 and K2.parts == (((1, 2), (2, 1)),)


def test_parse_whitespace_and_canonical_order():
    K = relation.parse_partition(" {321, 123}  {231,132} ")
    assert K.text() == "{123,321}{132,231}"


def test_parse_errors():
    with pytest.raises(PartitionParseError):
        relation.parse_partition("{123,4321}")  # mixed lengths
    with pytest.raises(PartitionParseError):
        relation.parse_partition("{123,132}{123,321}")  # duplicate across parts
    with pytest.raises(PartitionParseError):
        relation.parse_partition("{123,1x2}")
    with pytest.raises(PartitionParseError):
        relation.parse_partition("{123}{132} junk")
    with pytest.raises(PartitionParseError):
        relation.parse_partition("{1234567,2134567}")  # c > 6
    relation.parse_partition("{1234567,2134567}", allow_large_c=True)


def test_parse_singleton_listed_part_warns():
    with pytest.warns(UserWarning):
        K = relation.parse_partition("{123,321}{132}")
    assert K.nontrivial_parts == (((1, 2, 3), (3, 2, 1)),)


def test_parse_partition_is_memoized():
    # the same text gives the same partition object; a bad text raises and
    # a single-pattern part warns on every call, not only the first
    K = relation.parse_partition("{123,321}{132,231}")
    assert relation.parse_partition("{123,321}{132,231}") is K
    assert relation.parse_partition("{123,321}{132,231}", allow_large_c=True) == K
    for _ in range(2):
        with pytest.raises(PartitionParseError, match="mixed pattern lengths"):
            relation.parse_partition("{123,4321}")
        with pytest.raises(PartitionParseError, match="exceeds the limit"):
            relation.parse_partition("{1234567,2134567}")
        with pytest.warns(UserWarning, match=r"part \{132\} has a single pattern"):
            assert relation.parse_partition("{123,321}{132}").nontrivial_parts == (((1, 2, 3), (3, 2, 1)),)


def test_d_and_u_sets(knuth_like):
    assert knuth_like.D == ((1, 2, 3), (1, 3, 2))
    assert set(knuth_like.U) == {(3, 2, 1), (2, 3, 1)}


def test_hits_worked_example(knuth_like):
    hs = relation.hits((1, 5, 3, 2, 4), knuth_like)
    assert (2, (3, 2, 1)) in hs  # the factor 532
    assert relation.hits((3, 1, 2, 4), relation.make_partition([["231", "123"]]))[0][1] != (2, 3, 1)
    # identity under a 123-part has n-2 hits
    K = relation.make_partition([["123", "321"]])
    assert len(relation.hits(tuple(range(1, 7)), K)) == 4


def test_subword_hits(knuth_like):
    hs = relation.subword_hits((1, 5, 3, 2, 4), knuth_like)
    assert ((2, 3, 4), (3, 2, 1)) in hs
    # factor hits embed into subword hits as consecutive index tuples
    for pos, pat in relation.hits((1, 5, 3, 2, 4), knuth_like):
        assert (tuple(range(pos, pos + 3)), pat) in hs


def test_is_avoider():
    K = relation.parse_partition("{123,132,321}")
    avoiders = [p for p in perms.all_perms(3) if relation.is_avoider(p, K)]
    assert avoiders == [(2, 1, 3), (2, 3, 1), (3, 1, 2)]
    assert relation.is_avoider((4, 3, 2, 1), relation.parse_partition("{123,132,231}"))
    assert not relation.is_avoider((1, 2, 3, 4, 5), K)


def test_neighbors_worked_example(knuth_like):
    # 15324 -> 12354 by 321 -> 123, then 12354 -> 12453 by 132 -> 231
    targets = {t.target for t in relation.neighbors((1, 5, 3, 2, 4), knuth_like)}
    assert (1, 2, 3, 5, 4) in targets
    targets2 = {t.target for t in relation.neighbors((1, 2, 3, 5, 4), knuth_like)}
    assert (1, 2, 4, 5, 3) in targets2
    # an avoider has no neighbors
    K = relation.parse_partition("{123,132,231}")
    assert relation.neighbors((4, 3, 2, 1), K) == []


def test_neighbors_symmetric(knuth_like):
    for p in perms.all_perms(5):
        for t in relation.neighbors(p, knuth_like):
            back = {u.target for u in relation.neighbors(t.target, knuth_like)}
            assert p in back


def test_neighbors_transformation_fields(knuth_like):
    t = relation.neighbors((1, 5, 3, 2, 4), knuth_like)[0]
    assert t.source == (1, 5, 3, 2, 4)
    assert t.indices == tuple(range(t.position, t.position + 3))
    assert perms.standardize([t.source[i - 1] for i in t.indices]) == t.from_pattern
    assert perms.standardize([t.target[i - 1] for i in t.indices]) == t.to_pattern


def test_subword_neighbors_match_occurrence_count():
    K = relation.parse_partition("{123,132}")
    p = (3, 1, 2, 4)
    ts = relation.neighbors(p, K, mode="subword")
    occ = perms.subword_occurrences(p, (1, 2, 3)) + perms.subword_occurrences(p, (1, 3, 2))
    assert len(ts) == len(occ)
    for t in ts:
        assert len(t.indices) == 3
        changed = [i + 1 for i in range(4) if t.source[i] != t.target[i]]
        assert set(changed) <= set(t.indices)


def test_down_jumps(knuth_like):
    # under {123,132}: one-shot 132 -> 123 at full length
    K = relation.make_partition([["123", "132"]])
    assert relation.down_jumps((1, 3, 2), K) == [(1, 2, 3)]
    assert relation.down_jumps((1, 2, 3), K) == []
    # each down jump is lexicographically decreasing
    for p in perms.all_perms(5):
        for q in relation.down_jumps(p, knuth_like):
            assert q < p


def test_down_jumps_terminate(knuth_like):
    for p in perms.all_perms(5):
        cur, steps = p, 0
        while True:
            nxt = relation.down_jumps(cur, knuth_like)
            if not nxt:
                break
            cur = nxt[0]
            steps += 1
            assert steps <= perms.rank(p)
        assert relation.is_u_avoider(cur, knuth_like)


def test_symmetry_orbit():
    K = relation.parse_partition("{123,132,231}")
    orbit = relation.symmetry_orbit(K)
    texts = {P.text() for P in orbit}
    assert len(orbit) == 4
    assert "{132,231,321}" in texts  # the reverse of each pattern
    K2 = relation.parse_partition("{123,321}")
    assert len(relation.symmetry_orbit(K2)) <= 2
    K3 = relation.singleton_partition(3)
    assert relation.symmetry_orbit(K3) == (K3,)


def test_hit_position_predicates(knuth_like):
    n5 = (1, 5, 3, 2, 4)  # hit 532 at positions 2..4: middled
    assert relation.is_middled(n5, knuth_like)
    assert relation.is_lefted(n5, knuth_like)
    assert relation.is_righted(n5, knuth_like)
    p = (1, 2, 4, 5, 3)  # hits only at the right end
    assert relation.is_lefted(p, knuth_like)


def test_lift_partition_singletons():
    K = relation.singleton_partition(3)
    lifted = relation.lift_partition(K)
    assert lifted.c == 4 and lifted.nontrivial_parts == ()


def test_lift_partition_classes_become_parts():
    from permclass import engine

    K = relation.parse_partition("{123,132,213,231}")
    lifted = relation.lift_partition(K)
    assert lifted.c == 4
    dec = engine.enumerate_classes(4, K)
    nontrivial = {
        tuple(sorted(dec.members(cid)))
        for cid in range(dec.num_classes)
        if dec.class_sizes[cid] > 1
    }
    assert set(lifted.nontrivial_parts) == nontrivial


def test_lift_partition_same_equivalence_at_n5_n6():
    import numpy as np

    from permclass import engine

    K = relation.parse_partition("{123,132}{213,231}")
    lifted = relation.lift_partition(K)
    for n in (5, 6):
        a = engine.enumerate_classes(n, K)
        b = engine.enumerate_classes(n, lifted)
        assert np.array_equal(a.class_id, b.class_id)


# Standardize-based references for the hit scan: every site's pattern by
# perms.standardize, looked up in a pattern -> part dict, and a rewrite that
# places the sorted letters by the target pattern.

_SCAN_KEYS = (*oracle.ROWS_BY_KEY, "{12,21}",
              "{1234,1243}{2134,2143}", "{1234,4321}")


def _ref_rewrite(p, idx, target):
    letters = sorted(p[i] for i in idx)
    out = list(p)
    for i, t in zip(idx, target):
        out[i] = letters[t - 1]
    return tuple(out)


def _ref_patterns(p, c, mode):
    """(0-based indices, pattern) of every site of p."""
    if mode == "factor":
        sites = [tuple(range(i, i + c)) for i in range(len(p) - c + 1)]
    else:
        sites = itertools.combinations(range(len(p)), c)
    return [(idx, perms.standardize([p[i] for i in idx])) for idx in sites]


def _ref_scan(p, K, mode, patterns=None):
    """Every reading of the hit scan, from the references (patterns: those
    of _ref_patterns, if already known)."""
    part_of = {pat: part for part in K.nontrivial_parts for pat in part}
    if patterns is None:
        patterns = _ref_patterns(p, K.c, mode)
    hit = [(idx, pat, part_of[pat]) for idx, pat in patterns if pat in part_of]
    n, c = len(p), K.c
    out = {
        "rewrites": [(idx, pat, q, _ref_rewrite(p, idx, q))
                     for idx, pat, part in hit for q in part if q != pat],
    }
    if mode == "subword":
        out["subword_hits"] = [(tuple(i + 1 for i in idx), pat) for idx, pat, _ in hit]
        return out
    positions = [idx[0] + 1 for idx, _, _ in hit]
    out.update(
        hits=[(idx[0] + 1, pat) for idx, pat, _ in hit],
        is_avoider=not hit,
        down_jumps=[_ref_rewrite(p, idx, part[0]) for idx, pat, part in hit if pat != part[0]],
        is_u_avoider=not any(pat in set(K.U) for _, pat, _ in hit),
        is_lefted=any(pos >= 2 for pos in positions),
        is_righted=any(pos + c - 1 <= n - 1 for pos in positions),
        is_middled=any(2 <= pos and pos + c - 1 <= n - 1 for pos in positions),
    )
    return out


_FACTOR_READINGS = ("hits", "is_avoider", "down_jumps", "is_u_avoider")
_SIDED = ("is_lefted", "is_righted", "is_middled")


def _scan(p, K, mode, names):
    """The same readings from relation (the named ones in factor mode)."""
    out = {"rewrites": list(relation.rewrites(p, K, mode))}
    if mode == "subword":
        out["subword_hits"] = relation.subword_hits(p, K)
    for name in names:
        out[name] = getattr(relation, name)(p, K)
    return out


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_hit_scan_matches_standardize_references(mode):
    # the same values in the same order over S_n, n <= 7 (subword n <= 6),
    # for every registered relation, Figure 2, c = 2 and two c = 4
    # relations; the sided predicates, which read hits, up to n = 6
    partitions = [relation.parse_partition(key) for key in _SCAN_KEYS]
    partitions.append(relation.singleton_partition(3))
    for n in range(1, 8 if mode == "factor" else 7):
        names = () if mode == "subword" else _FACTOR_READINGS + (_SIDED if n <= 6 else ())
        for p in perms.all_perms(n):
            patterns = {c: _ref_patterns(p, c, mode) for c in (2, 3, 4)}
            for K in partitions:
                want = _ref_scan(p, K, mode, patterns[K.c])
                got = _scan(p, K, mode, names)
                assert got == {k: want[k] for k in got}, (K.text(), p)


def test_hit_scan_on_words():
    # letters need not be 1..n, and a list reads as its tuple
    K = relation.parse_partition("{123,321}{132,231}")
    w = [9, 40, 12, 3, 25]
    assert relation.hits(w, K) == [(1, (1, 3, 2)), (2, (3, 2, 1))]
    assert relation.down_jumps(w, K) == [(9, 3, 12, 40, 25)]
    assert not relation.is_u_avoider(w, K) and not relation.is_avoider(w, K)
    assert relation.subword_hits(w, K) == _ref_scan(tuple(w), K, "subword")["subword_hits"]


@pytest.mark.parametrize("word", [(1, 2, 3, 1), (3, 1, 4, 1, 5), (0, 1, 2), (2, -1, 3)])
def test_hit_scan_rejects_bad_words(word):
    K = relation.parse_partition("{123,321}{132,231}")
    for name in ("hits", "subword_hits", "is_avoider", "is_u_avoider", "down_jumps",
                 "is_lefted", "is_righted", "is_middled", "neighbors"):
        with pytest.raises(InvalidWordError):
            getattr(relation, name)(word, K)


def test_rewrites_unknown_mode():
    K = relation.parse_partition("{123,321}")
    with pytest.raises(ValueError, match="unknown mode"):
        list(relation.rewrites((1, 2, 3), K, "window"))
