"""Closed-form and recursive class-count formulas, plus reference tables.

Every registered relation, the Figure 2 table among them, maps its
canonical partition text to a formula for the number of classes in S_n,
with an enforced validity floor: queries below the floor raise RangeError
instead of extrapolating.  All arithmetic is exact integers.

Recursion bases that the source material leaves to computation are fixed
here as constants and are cross-checked against the enumeration engine
by the test suite (f(1)=1, f(2)=2 for the ``{123,132}{213,312}``
recursion; f(2)=2 for the Motzkin-sum recursion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Callable

from .errors import RangeError


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention for n <= 0."""
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


@lru_cache(maxsize=None)
def catalan(m: int) -> int:
    if m < 0:
        raise ValueError("catalan index must be >= 0")
    return comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def motzkin(m: int) -> int:
    """Motzkin numbers via M_m = M_{m-1} + sum M_k M_{m-2-k}.

    The lru_cache also serves as the (internally synchronized) memo table.
    """
    if m < 0:
        raise ValueError("motzkin index must be >= 0")
    if m <= 1:
        return 1
    return motzkin(m - 1) + sum(motzkin(k) * motzkin(m - 2 - k) for k in range(m - 1))


def motzkin_sum_count(n: int) -> int:
    """Classes under {123,132}{213,321}: f(n) = f(n-1) + M_{n-1}, f(2) = 2.

    The base f(2) = 2 comes from engine brute force; unrolled, f(n) is the
    sum of the Motzkin numbers M_0 .. M_{n-1}.
    """
    if n < 2:
        raise RangeError("motzkin_sum_count requires n >= 2")
    f = 2
    for k in range(3, n + 1):
        f += motzkin(k - 1)
    return f


@lru_cache(maxsize=None)
def g_recursion(n: int, k: int) -> int:
    """The compact-permutation counting recursion for {123,231}{213,312}.

    Three cases: 1 when n = 1 or n - 2k + 1 = 0; the k = 1 case sums
    g(n-1, j) for j up to floor((n+1)/2); otherwise the double sum over
    the final-dip value and the next segment's peak count.
    """
    if n < 1 or k < 1:
        raise RangeError(f"g({n}, {k}) is not defined")
    if n == 1 or n - 2 * k + 1 == 0:
        return 1
    if k == 1:
        return sum(g_recursion(n - 1, j) for j in range(1, (n + 1) // 2 + 1))
    return sum(
        comb(x - 1, k - 2) * g_recursion(n - 2 * k + 1, j)
        for x in range(k - 1, n - k + 1)
        for j in range(1, n - k - x + 1)
    )


def compact_class_count(n: int) -> int:
    """f(n) = sum_k g(n+1, k) + n - 2 for {123,231}{213,312}."""
    return sum(g_recursion(n + 1, k) for k in range(1, n // 2 + 2)) + n - 2


def _recursion_123_132_312(n: int) -> int:
    f = {3: 4, 4: 9}
    for k in range(5, n + 1):
        f[k] = f[k - 1] + (k - 2) * f[k - 2] + 1
    return f[n]


def _recursion_123_132__213_312(n: int) -> int:
    # bases f(1)=1, f(2)=2 fixed by engine brute force
    f = {1: 1, 2: 2}
    for k in range(3, n + 1):
        f[k] = f[k - 1] + (k - 1) * f[k - 2]
    return f[n]


def fall_count_formula(n: int) -> int:
    """Classes under {123,321}{132,231}, summed over fall sizes and parities."""
    l, h = n // 2, (n + 1) // 2
    return sum(factorial(x) * comb(n - x - 1, h - 1) for x in range(1, l + 1)) + sum(
        factorial(x) * comb(n - x - 1, l - 1) for x in range(1, h + 1)
    )


def fall_class_size(n: int, j: int) -> int:
    """Size of a class whose members have a fall of size j."""
    if not 1 <= j <= (n + 1) // 2:
        raise RangeError(f"fall size {j} out of range for n={n}")
    num = factorial(n // 2) * factorial((n + 1) // 2)
    if num % factorial(j):
        raise RangeError(f"non-integral fall class size for n={n}, j={j}")
    return num // factorial(j)


def class_size_product(n: int, j_sequence) -> int:
    """(n-1)! / prod (j_a + j_{a+1}) over consecutive pairs; must divide exactly."""
    num = factorial(n - 1)
    den = 1
    js = list(j_sequence)
    for a in range(len(js) - 1):
        den *= js[a] + js[a + 1]
    if den == 0 or num % den:
        raise ArithmeticError(
            f"(n-1)!/{den} is not an integer for n={n}, j={js}: inconsistent j-sequence"
        )
    return num // den


def trivializable_count(n: int) -> int:
    """Permutations equivalent to the identity under {123,231}{132,321}."""
    h = (n + 1) // 2
    sq = factorial(h) ** 2
    return sq if n % 2 == 0 else sq // h


@dataclass(frozen=True)
class HMatrix:
    """Small-class census for {123,231}{213,321}: odd/even x increase/decrease."""

    n: int
    oi: int
    od: int
    ei: int
    ed: int

    def total(self) -> int:
        return self.oi + self.od + self.ei + self.ed


def h_matrices(n: int) -> HMatrix:
    """Recursion over n mod 4 from the base H_6 = (18, 12, 12, 18)."""
    if n < 6:
        raise RangeError("h_matrices requires n >= 6")
    oi, od, ei, ed = 18, 12, 12, 18
    for m in range(7, n + 1):
        if m % 4 == 0:
            oi, od, ei, ed = od + m // 2, ei + m // 2, ed + m + 1, oi + m + 1
        elif m % 4 == 1:
            oi, od, ei, ed = od, oi, ed + (m + 1) // 2, ei + (m + 1) // 2
        elif m % 4 == 2:
            oi, od, ei, ed = od + m + 1, ei + m // 2, ed + m // 2, oi + m + 1
        else:
            oi, od, ei, ed = od, oi + (m + 1) // 2, ed + (m + 1) // 2, ei
    return HMatrix(n=n, oi=oi, od=od, ei=ei, ed=ed)


def h_matrices_closed_form(n: int) -> HMatrix:
    """The quadratic closed forms per residue of n mod 4 (n >= 6)."""
    if n < 6:
        raise RangeError("h_matrices_closed_form requires n >= 6")
    k, r = divmod(n, 4)
    q = 4 * k * k
    if r == 0:
        vals = (q + 3 * k + 4, q + 3 * k + 4, q + 3 * k - 1, q + 3 * k - 1)
    elif r == 1:
        # od here must equal oi of the previous step for the recursion to
        # close; the engine census at n=9 confirms the 3k coefficient
        vals = (q + 3 * k + 4, q + 3 * k + 4, q + 5 * k, q + 5 * k)
    elif r == 2:
        vals = (q + 7 * k + 7, q + 7 * k + 1, q + 7 * k + 1, q + 7 * k + 7)
    else:
        vals = (q + 7 * k + 1, q + 9 * k + 9, q + 9 * k + 9, q + 7 * k + 1)
    return HMatrix(n, *vals)


_FIGURE2 = {3: 4, 4: 10, 5: 26, 6: 76, 7: 234, 8: 782, 9: 2804, 10: 10972, 11: 47246, 12: 224648}
FIGURE2_KEY = "{132,231}{213,312}"


def figure2_reference(n: int) -> int:
    """Reference class counts for {132,231}{213,312} (computational table)."""
    if n not in _FIGURE2:
        raise RangeError(f"figure2 table covers 3 <= n <= 12, not {n}")
    return _FIGURE2[n]


@dataclass(frozen=True)
class RelationRow:
    """One registered reference: formula, validity floor, display text, and
    the last n of a computed table (None for a closed form)."""

    key: str
    formula: Callable[[int], int]
    floor: int
    formula_text: str
    last: int | None = None


# Validity floors follow the stated per-row ranges where given; rows whose
# printed default range fails small-n brute force carry the floor at which
# the formula is exhaustively confirmed (see tests/test_acceptance.py).
_ROWS: tuple[RelationRow, ...] = (
    RelationRow("{132,213,231}", lambda n: 2 ** (n - 2) + 2 * n - 4, 3, "2^(n-2)+2n-4"),
    RelationRow("{123,132,231}", lambda n: 2 ** (n - 1), 3, "2^(n-1)"),
    RelationRow(
        "{123,132,321}",
        lambda n: double_factorial(n - 1) + double_factorial(n - 2) + n - 2,
        5,
        "(n-1)!!+(n-2)!!+n-2",
    ),
    RelationRow(
        "{123,132,312}", _recursion_123_132_312, 3,
        "f(n)=f(n-1)+(n-2)f(n-2)+1, f(3)=4, f(4)=9",
    ),
    RelationRow("{123,132,213,231}", lambda n: n, 3, "n"),
    RelationRow("{123,132,231,321}", lambda n: 2, 4, "2 for n>3"),
    RelationRow("{132,213,231,312}", lambda n: 3, 5, "3 (n=4 deviates)"),
    RelationRow("{123,132}{312,321}", lambda n: 2 ** (n - 1), 3, "2^(n-1)"),
    RelationRow("{123,132}{213,231}", lambda n: 2 ** (n - 1), 3, "2^(n-1)"),
    RelationRow("{123,231}{132,321}", lambda n: 2 ** (n - 1), 3, "2^(n-1)"),
    RelationRow(
        "{132,312}{213,321}", lambda n: (n * n + n) // 2 - 2, 3, "(n^2+n)/2-2"
    ),
    RelationRow("{123,231}{132,213}", lambda n: n * n - 3 * n + 4, 3, "n^2-3n+4"),
    RelationRow("{123,321}{213,231}", lambda n: 3, 6, "3 for n>5"),
    RelationRow(
        "{123,132}{231,312}", lambda n: 3 * 2 ** (n - 3) + n - 2, 3, "3*2^(n-3)+n-2"
    ),
    RelationRow(
        "{123,132}{213,321}", motzkin_sum_count, 3, "sum of Motzkin numbers M_0..M_{n-1}"
    ),
    RelationRow(
        "{123,132}{213,312}", _recursion_123_132__213_312, 3,
        "f(n)=f(n-1)+(n-1)f(n-2), f(1)=1, f(2)=2",
    ),
    RelationRow(
        "{123,321}{132,213}",
        lambda n: comb(n, n // 2) + comb(n - 2, (n - 2) // 2) + 3,
        5,
        "C(n,floor(n/2))+C(n-2,floor((n-2)/2))+3 for n>4",
    ),
    RelationRow(
        "{123,231}{213,321}",
        lambda n: 3 * n if n % 2 == 0 else 3 * n - 1,
        6,
        "3n (n even), 3n-1 (n odd), for n>5",
    ),
    RelationRow("{123,321}{132,231}", fall_count_formula, 3, "fall-census double sum"),
    RelationRow("{123,231}{213,312}", compact_class_count, 3, "sum_k g(n+1,k)+n-2"),
)

# The formula rows, then the Figure 2 table.
ROWS_BY_KEY = {row.key: row for row in (
    *_ROWS, RelationRow(FIGURE2_KEY, figure2_reference, 3, "(computational reference)", 12),
)}


def relation_keys() -> tuple[str, ...]:
    return tuple(row.key for row in _ROWS)


def _row(key: str) -> RelationRow:
    row = ROWS_BY_KEY.get(key)
    if row is None:
        raise KeyError(f"unknown relation key {key!r}")
    return row


def validity_floor(key: str) -> int:
    return _row(key).floor


def expected_count(key: str, n: int) -> int:
    """Class count in S_n for a registered relation, exact."""
    row = _row(key)
    if n < row.floor:
        raise RangeError(
            f"{key} formula is only valid for n >= {row.floor} (asked for n={n})"
        )
    return row.formula(n)


# Identity-class sizes known in closed form, keyed by canonical relation text.
def identity_class_formula(key: str, n: int) -> int:
    if key == "{123,231}{132,213}":
        if n <= 3:
            raise RangeError("identity-class formula needs n > 3")
        return (n - 2) * factorial(n - 1) // 2
    if key in ("{123,132}{213,321}", "{123,132}{213,231}"):
        return factorial(n - 1)
    if key == "{123,321}{213,231}":
        if n <= 5:
            raise RangeError("identity-class formula needs n > 5")
        return factorial(n) - 2
    if key == "{123,231}{132,321}":
        return trivializable_count(n)
    raise KeyError(f"no identity-class formula registered for {key!r}")


def sequence_table(key: str, n_max: int, n_min: int | None = None) -> dict[int, int]:
    """values of a registered formula over [max(floor, n_min), min(n_max, last)]."""
    row = _row(key)
    lo = max(row.floor, n_min) if n_min is not None else row.floor
    hi = n_max if row.last is None else min(n_max, row.last)
    return {n: row.formula(n) for n in range(lo, hi + 1)}
