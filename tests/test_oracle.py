from __future__ import annotations

import itertools
from math import comb, factorial

import pytest

from permclass import oracle
from permclass.errors import RangeError


def motzkin_paths_brute(m):
    """Independent oracle: enumerate lattice paths with steps U/F/D staying >= 0."""
    count = 0
    for steps in itertools.product((1, 0, -1), repeat=m):
        h = 0
        for s in steps:
            h += s
            if h < 0:
                break
        else:
            if h == 0:
                count += 1
    return count


def catalan_ballot_brute(m):
    """Independent oracle: ballot sequences of m ups and m downs."""
    count = 0
    for steps in itertools.product((1, -1), repeat=2 * m):
        h = 0
        for s in steps:
            h += s
            if h < 0:
                break
        else:
            if h == 0:
                count += 1
    return count


def test_motzkin_against_path_enumeration():
    brute = [motzkin_paths_brute(m) for m in range(9)]
    assert brute == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    assert [oracle.motzkin(m) for m in range(9)] == brute


def test_catalan_against_ballot_enumeration():
    brute = [catalan_ballot_brute(m) for m in range(7)]
    assert brute == [1, 1, 2, 5, 14, 42, 132]
    assert [oracle.catalan(m) for m in range(7)] == brute
    assert oracle.catalan(3) == 5


def test_motzkin_catalan_identity():
    # M_m = sum_k C(m, 2k) * Cat_k
    for m in range(11):
        assert oracle.motzkin(m) == sum(
            comb(m, 2 * k) * oracle.catalan(k) for k in range(m // 2 + 1)
        )


def test_motzkin_sum_count():
    assert oracle.motzkin_sum_count(2) == 2
    assert oracle.motzkin_sum_count(3) == 4
    assert oracle.motzkin_sum_count(4) == 8
    assert oracle.motzkin_sum_count(5) == 17
    # unrolled: sum of the Motzkin numbers M_0 .. M_{n-1}
    for n in range(2, 10):
        assert oracle.motzkin_sum_count(n) == sum(oracle.motzkin(k) for k in range(n))
    with pytest.raises(RangeError):
        oracle.motzkin_sum_count(1)


def test_g_recursion_bases():
    assert oracle.g_recursion(1, 1) == 1
    for k in range(1, 6):
        assert oracle.g_recursion(2 * k - 1, k) == 1
    with pytest.raises(RangeError):
        oracle.g_recursion(0, 1)


def test_g_recursion_values():
    # frozen from the engine cross-check (see test_invariants / acceptance)
    table = {(3, 1): 1, (3, 2): 1, (4, 1): 2, (4, 2): 1, (5, 1): 3, (5, 2): 2,
             (5, 3): 1, (6, 1): 6, (6, 2): 5, (6, 3): 1, (7, 1): 12, (7, 2): 11,
             (7, 3): 3, (7, 4): 1}
    for (n, k), v in table.items():
        assert oracle.g_recursion(n, k) == v


def test_double_factorial():
    assert [oracle.double_factorial(k) for k in range(-1, 7)] == [1, 1, 1, 2, 3, 8, 15, 48]


def test_expected_count_examples():
    assert oracle.expected_count("{123,132,321}", 6) == 27  # 5!!+4!!+4
    assert oracle.expected_count("{123,231}{213,321}", 6) == 18  # 3n, n even
    assert oracle.expected_count("{123,132,312}", 5) == 22  # 9 + 3*4 + 1
    assert oracle.expected_count("{132,213,231}", 3) == 4  # 2^1 + 2
    assert oracle.expected_count("{123,132}{213,312}", 8) == 764
    assert oracle.expected_count("{123,321}{132,213}", 5) == 16


def test_expected_count_range_errors():
    with pytest.raises(KeyError):
        oracle.expected_count("{123,132}", 5)
    with pytest.raises(RangeError):
        oracle.expected_count("{123,132,231,321}", 3)  # valid only for n > 3
    with pytest.raises(RangeError):
        oracle.expected_count("{123,321}{213,231}", 5)  # valid only for n > 5
    with pytest.raises(RangeError):
        oracle.expected_count("{123,132,321}", 4)  # formula misses the engine at n=4


def test_relation_registry():
    keys = oracle.relation_keys()
    assert len(keys) == 20
    assert len(set(keys)) == 20
    assert oracle.validity_floor("{123,132,231}") == 3
    assert oracle.validity_floor("{123,231}{213,321}") == 6
    # the Figure 2 table is the last row, after the 20 formulas
    assert list(oracle.ROWS_BY_KEY) == [*keys, oracle.FIGURE2_KEY]
    assert oracle.validity_floor(oracle.FIGURE2_KEY) == 3
    assert oracle.expected_count(oracle.FIGURE2_KEY, 12) == 224648
    with pytest.raises(RangeError):
        oracle.expected_count(oracle.FIGURE2_KEY, 13)
    with pytest.raises(KeyError):
        oracle.validity_floor("{123,132}")


def test_class_size_product():
    assert oracle.class_size_product(5, [1]) == factorial(4)  # empty product
    assert oracle.class_size_product(5, [1, 2]) == 8  # 4!/3
    with pytest.raises(ArithmeticError):
        oracle.class_size_product(5, [3, 4])  # 24/7 is not an integer


def test_fall_formulas():
    # n=4 evaluates to the engine count 8 (see acceptance suite)
    assert oracle.fall_count_formula(3) == 4
    assert oracle.fall_count_formula(4) == 8
    assert oracle.fall_count_formula(7) == 88
    assert oracle.fall_class_size(4, 2) == 2  # 2!*2!/2!
    assert oracle.fall_class_size(4, 1) == 4
    with pytest.raises(RangeError):
        oracle.fall_class_size(4, 3)


def test_trivializable_count():
    assert oracle.trivializable_count(4) == 4  # 2!^2
    assert oracle.trivializable_count(5) == 12  # 3!^2/3
    assert oracle.trivializable_count(6) == 36
    assert oracle.trivializable_count(7) == 144


def test_h_matrices_base_and_example():
    h6 = oracle.h_matrices(6)
    assert (h6.oi, h6.od, h6.ei, h6.ed) == (18, 12, 12, 18)
    h8 = oracle.h_matrices(8)
    assert h8.oi == 26  # 4*4 + 6 + 4 with k = 2
    with pytest.raises(RangeError):
        oracle.h_matrices(5)


def test_h_matrices_recursion_matches_closed_form():
    for n in range(6, 41):
        assert oracle.h_matrices(n) == oracle.h_matrices_closed_form(n)


def test_figure2_reference():
    assert oracle.figure2_reference(3) == 4
    assert oracle.figure2_reference(7) == 234
    assert oracle.figure2_reference(12) == 224648
    with pytest.raises(RangeError):
        oracle.figure2_reference(13)
    with pytest.raises(RangeError):
        oracle.figure2_reference(2)


def test_identity_class_formulas():
    assert oracle.identity_class_formula("{123,231}{132,213}", 5) == 36
    assert oracle.identity_class_formula("{123,132}{213,321}", 5) == 24
    assert oracle.identity_class_formula("{123,321}{213,231}", 6) == 718
    assert oracle.identity_class_formula("{123,231}{132,321}", 6) == 36
    with pytest.raises(RangeError):
        oracle.identity_class_formula("{123,321}{213,231}", 5)
    with pytest.raises(KeyError):
        oracle.identity_class_formula("{123,132}", 5)


def test_sequence_table():
    t = oracle.sequence_table("{123,132,231}", 6)
    assert t == {3: 4, 4: 8, 5: 16, 6: 32}
    t2 = oracle.sequence_table(oracle.FIGURE2_KEY, 5)
    assert t2 == {3: 4, 4: 10, 5: 26}
    assert max(oracle.sequence_table(oracle.FIGURE2_KEY, 20)) == 12


def test_exactness_no_floats():
    # a value big enough that float arithmetic would lose digits
    v = oracle.expected_count("{123,132}{213,312}", 20)
    assert isinstance(v, int)
    w = oracle.class_size_product(20, [1])
    assert w == factorial(19)
