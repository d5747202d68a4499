from __future__ import annotations

import doctest
import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from permclass import perms
from permclass.errors import InvalidWordError

perm_strategy = st.permutations(range(1, 8)).map(tuple)


def test_standardize_examples():
    assert perms.standardize((4, 2, 5)) == (2, 1, 3)
    assert perms.standardize((1, 2, 3)) == (1, 2, 3)
    assert perms.standardize((5, 7, 4)) == (2, 3, 1)


def test_standardize_rejects_duplicates():
    with pytest.raises(InvalidWordError):
        perms.standardize((1, 1, 2))
    with pytest.raises(InvalidWordError):
        perms.standardize(())


@given(perm_strategy)
def test_standardize_idempotent_on_perms(p):
    assert perms.standardize(p) == p


def test_complement_reverse_examples():
    assert perms.complement((1, 2, 3)) == (3, 2, 1)
    assert perms.complement((1, 4, 2, 3)) == (4, 1, 3, 2)
    assert perms.reverse((2, 1, 3)) == (3, 1, 2)
    assert perms.reverse((1, 2, 3, 4, 5)) == (5, 4, 3, 2, 1)


@given(perm_strategy)
def test_complement_reverse_involutions_commute(p):
    assert perms.complement(perms.complement(p)) == p
    assert perms.reverse(perms.reverse(p)) == p
    assert perms.reverse(perms.complement(p)) == perms.complement(perms.reverse(p))


def test_factor_occurrences_examples():
    # 574 is a 231 inside 2657431; 3124 avoids 231
    assert perms.factor_occurrences((2, 6, 5, 7, 4, 3, 1), (2, 3, 1)) == [3]
    assert perms.factor_occurrences((3, 1, 2, 4), (2, 3, 1)) == []
    assert perms.factor_occurrences((1, 2, 3), (1, 2, 3)) == [1]


def test_subword_occurrences_brute_force():
    # independent brute force over all index triples
    p = (3, 1, 2, 4)
    expected = [
        idx
        for idx in itertools.combinations(range(1, 5), 3)
        if perms.standardize(tuple(p[i - 1] for i in idx)) == (1, 2, 3)
    ]
    assert expected == [(2, 3, 4)]
    assert perms.subword_occurrences(p, (1, 2, 3)) == expected
    assert perms.subword_occurrences((3, 2, 1), (1, 2, 3)) == []
    assert len(perms.subword_occurrences((1, 2, 3), (1, 2))) == 3


def test_every_factor_occurrence_is_a_subword_occurrence():
    pat = (2, 3, 1)
    for p in perms.all_perms(5):
        subs = set(perms.subword_occurrences(p, pat))
        for i in perms.factor_occurrences(p, pat):
            assert tuple(range(i, i + 3)) in subs


def test_rank_examples():
    assert perms.rank((1, 2, 3)) == 0
    assert perms.rank((3, 2, 1)) == 5
    assert perms.unrank(0, 4) == (1, 2, 3, 4)


def test_rank_roundtrip_exhaustive_s6():
    for r, p in enumerate(perms.all_perms(6)):
        assert perms.rank(p) == r
        assert perms.unrank(r, 6) == p


def test_rank_monotone_in_lex_order():
    ranks = [perms.rank(p) for p in perms.all_perms(5)]
    assert ranks == sorted(ranks) == list(range(factorial(5)))


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        perms.unrank(factorial(4), 4)
    with pytest.raises(ValueError):
        perms.unrank(-1, 4)


def test_text_formats():
    assert perms.parse_perm("15324") == (1, 5, 3, 2, 4)
    assert perms.parse_perm("10,1,2,3,4,5,6,7,8,9") == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert perms.format_perm((1, 5, 3, 2, 4)) == "15324"
    assert perms.format_perm(tuple([10] + list(range(1, 10)))) == "10,1,2,3,4,5,6,7,8,9"
    with pytest.raises(InvalidWordError):
        perms.parse_perm("1x3")
    with pytest.raises(InvalidWordError):
        perms.parse_perm("122")


@pytest.mark.parametrize("text", ["1,2,,3", "1,2,3,", ",1,2", "1,+2,3", "1,x,3"])
def test_parse_perm_bad_comma_token(text):
    with pytest.raises(InvalidWordError, match="not a permutation literal"):
        perms.parse_perm(text)


@given(perm_strategy)
def test_parse_format_roundtrip(p):
    assert perms.parse_perm(perms.format_perm(p)) == p


def test_rearrange():
    assert perms.rearrange((5, 7, 4), (3, 1, 2)) == (7, 4, 5)
    assert perms.rearrange([2, 9], (1, 2)) == (2, 9)
    word = (40, 3, 12, 25)
    for p in perms.all_perms(4):
        out = perms.rearrange(word, p)
        assert perms.standardize(out) == p and sorted(out) == sorted(word)
        assert perms.rearrange(perms.identity(4), p) == p


def test_docstring_examples():
    result = doctest.testmod(perms)
    assert result.failed == 0 and result.attempted >= 6
