"""Relation-specific invariants, canonical forms, and special families.

Each function here is a pure function of the permutation (plus, for
canonical forms, the relation the form belongs to).  The test suite
checks completeness and invariance claims exhaustively at small n and by
seeded random transformation trials at n = 7.

Position parity is 1-based: the first letter sits at an odd position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import engine, perms, relation
from .errors import PermclassError
from .perms import Perm

# Relations that own a canonical form (canonical_form's relation_key values).
BUSHY_RELATION = "{123,132}{213,321}"
ROOT_RELATION = "{123,132}{213,312}"
V_PERM_RELATION = "{123,132}{213,231}"
COMPACT_RELATION = "{123,231}{213,312}"


def _positions(p: Sequence[int]) -> dict[int, int]:
    """letter -> 1-based position."""
    return {x: i + 1 for i, x in enumerate(p)}


# ---------------------------------------------------------------------------
# {123,132,321}: property A_k, the B_n / C_n representative families


def a_k_max(p: Sequence[int]) -> tuple[int, str]:
    """Largest k with letters k, k-1, ..., 1 at increasing equal-parity
    positions, plus the position parity of the letter 1.

    The positions of the specific letters are forced, so a greedy walk up
    the letter values is exact.
    """
    pos = _positions(p)
    k = 1
    while k < len(p) and pos[k + 1] < pos[k] and (pos[k + 1] - pos[k]) % 2 == 0:
        k += 1
    return k, "odd" if pos[1] % 2 == 1 else "even"


def _compose_cycles(lens: list[int], n: int) -> Perm:
    # product of the cycles (1..m) for m in lens, rightmost factor applied first
    def image(x: int) -> int:
        for m in sorted(lens):
            if x <= m:
                x = x + 1 if x < m else 1
        return x

    return tuple(image(i) for i in range(1, n + 1))


def b_perm(n: int) -> Perm:
    """(1,..,n-2)(1,..,n-4)... ending with (1,2) for even n, (1) for odd."""
    if n < 3:
        raise ValueError("b_perm requires n >= 3")
    return _compose_cycles(list(range(n - 2, 0, -2)), n)


def generate_B(n: int) -> set[Perm]:
    """B_2 = {}; B_n = {w.n : w in B_{n-1}} u {b_n}.  Has n-2 elements."""
    if n < 2:
        raise ValueError("generate_B requires n >= 2")
    if n == 2:
        return set()
    return {w + (n,) for w in generate_B(n - 1)} | {b_perm(n)}


def generate_C(n: int) -> set[Perm]:
    """B_n with b_n replaced by the (1,..,n)(1,..,n-4)... cycle product."""
    if n <= 2:
        raise ValueError("generate_C requires n > 2")
    extra = _compose_cycles([n] + list(range(n - 4, 0, -2)), n)
    return (generate_B(n) - {b_perm(n)}) | {extra}


# ---------------------------------------------------------------------------
# {123,132,231}: odd-tailed letters


def left_to_right_minima(p: Sequence[int]) -> list[int]:
    """1-based positions of letters smaller than everything to their left."""
    out, best = [], None
    for i, x in enumerate(p):
        if best is None or x < best:
            out.append(i + 1)
            best = x
    return out


def odd_tailed_set(p: Sequence[int]) -> frozenset[int]:
    """Left-to-right minima whose next minimum sits at the other parity."""
    mins = left_to_right_minima(p)
    out = set()
    for a, b in zip(mins, mins[1:]):
        if (a - b) % 2 == 1:
            out.add(p[a - 1])
    return frozenset(out)


# ---------------------------------------------------------------------------
# {312,321}{123,132}: the W set, origin permutations, class sizes


def w_set(p: Sequence[int]) -> tuple[int, ...]:
    """Letters of the recursive proximum construction, in the order they
    appear in p from left to right (empty for a single letter)."""
    cur = tuple(p)
    found: list[int] = []
    while len(cur) > 1:
        lo = min(range(len(cur)), key=cur.__getitem__)
        hi = max(range(len(cur)), key=cur.__getitem__)
        u = min(lo, hi)
        found.append(cur[u])
        cur = cur[: u + 1]
    return tuple(reversed(found))


def origin_permutation(p: Sequence[int]) -> Perm:
    """W letters in appearance order, then the remaining letters increasing."""
    w = w_set(p)
    rest = sorted(set(range(1, len(p) + 1)) - set(w))
    return tuple(w) + tuple(rest)


def valleys_peaks(p: Sequence[int]) -> list[tuple[int, str]]:
    """The W letters g_1..g_k in right-to-left appearance order, labeled.

    A letter is a valley/peak according to its neighbors in the g
    sequence; a lone g_1 is a valley iff it is the letter 1.
    """
    g = tuple(reversed(w_set(p)))
    out = []
    for i, x in enumerate(g):
        nbrs = [g[j] for j in (i - 1, i + 1) if 0 <= j < len(g)]
        if not nbrs:
            out.append((x, "valley" if x == 1 else "peak"))
        elif all(x < y for y in nbrs):
            out.append((x, "valley"))
        elif all(x > y for y in nbrs):
            out.append((x, "peak"))
        else:  # cannot happen: W letters alternate extremes
            raise PermclassError(f"W letter {x} of {p} is neither valley nor peak")
    return out


def j_sequence(p: Sequence[int]) -> tuple[int, ...]:
    """j_i = g_i for valleys, n - g_i for peaks (class-size denominators)."""
    n = len(p)
    return tuple(g if kind == "valley" else n - g for g, kind in valleys_peaks(p))


# ---------------------------------------------------------------------------
# {123,321}{132,231}: the fall


def fall(p: Sequence[int]) -> frozenset[int]:
    """Letters k such that every letter above k shares k's position parity.

    Always contains n; the fall is the maximal top run of letters at n's
    parity, so its letters all share one parity.
    """
    pos = _positions(p)
    n = len(p)
    par = pos[n] % 2
    out = set()
    k = n
    while k >= 1 and pos[k] % 2 == par:
        out.add(k)
        k -= 1
    return frozenset(out)


def fall_order(p: Sequence[int]) -> tuple[int, ...]:
    """The fall letters in the order they appear in p."""
    f = fall(p)
    return tuple(x for x in p if x in f)


def parity_profile(p: Sequence[int]) -> tuple[int, ...]:
    """Position parity (1 = odd) of each letter 1..n."""
    pos = _positions(p)
    return tuple(pos[x] % 2 for x in range(1, len(p) + 1))


# ---------------------------------------------------------------------------
# Shape predicates


def is_v_permutation(p: Sequence[int]) -> bool:
    """Decreases until the letter 1, then increases."""
    i = p.index(1)
    left, right = p[: i + 1], p[i:]
    return all(a > b for a, b in zip(left, left[1:])) and all(
        a < b for a, b in zip(right, right[1:])
    )


def is_lambda_permutation(p: Sequence[int]) -> bool:
    """Increases until the letter n, then decreases."""
    i = p.index(len(p))
    left, right = p[: i + 1], p[i:]
    return all(a < b for a, b in zip(left, left[1:])) and all(
        a > b for a, b in zip(right, right[1:])
    )


def is_layered(p: Sequence[int]) -> bool:
    """Each letter of one position parity is below each of the other."""
    odd, even = set(p[0::2]), set(p[1::2])
    if not odd or not even:
        return True
    return max(odd) < min(even) or max(even) < min(odd)


def is_zipped(p: Sequence[int]) -> bool:
    """Every letter except the final two exceeds the letter two to its right."""
    return all(p[i + 2] < p[i] for i in range(len(p) - 2))


def is_partially_zipped(p: Sequence[int]) -> bool:
    """Zipped except at the boundary, with the final two letters 1, n."""
    n = len(p)
    if n < 2 or p[-2] != 1 or p[-1] != n:
        return False
    return all(p[i + 2] < p[i] for i in range(n - 3))


def is_fronted(p: Sequence[int]) -> bool:
    """Starts with n-1, or with j, n, n-1."""
    n = len(p)
    return p[0] == n - 1 or (n >= 3 and p[1] == n and p[2] == n - 1)


_REDUCTIVE_K = relation.make_partition([["213", "132", "231"]])


def is_reductive(p: Sequence[int]) -> bool:
    """No n-2 up front, ends with (n-1)n, first n-1 letters non-avoiding
    (with respect to the {213,132,231}-equivalence)."""
    n = len(p)
    if n < 4 or p[0] == n - 2 or p[-2] != n - 1 or p[-1] != n:
        return False
    return not relation.is_avoider(p[: n - 1], _REDUCTIVE_K)


def is_decent(p: Sequence[int]) -> bool:
    """Starts with n-2; the rest is non-avoiding, avoids a leading n-1,
    and ends with n (with respect to the {213,132,231}-equivalence)."""
    n = len(p)
    if n < 4 or p[0] != n - 2:
        return False
    rest = p[1:]
    return (
        rest[0] != n - 1
        and rest[-1] == n
        and not relation.is_avoider(rest, _REDUCTIVE_K)
    )


def _satisfies_hill_c_k(p: Sequence[int], k: int) -> bool:
    n = len(p)
    # leading k-hill n-1 .. n-k, not directly followed by n
    if p[0] == n - 1 and k <= n - 1:
        if all(p[i] == n - 1 - i for i in range(k)) and (k == n or p[k] != n):
            return True
    # g-hill, then j, n, then a (k-g)-hill continuing the values
    for g in range(0, k + 1):
        if g + 2 + (k - g) > n:
            continue
        if any(p[i] != n - 1 - i for i in range(g)):
            continue
        if p[g + 1] != n:
            continue
        if all(p[g + 2 + t] == n - 1 - g - t for t in range(k - g)):
            return True
    return False


def hill_c_k(p: Sequence[int]) -> int | None:
    """Largest k such that p satisfies the hill property C_k, else None."""
    best = None
    for k in range(1, len(p) + 1):
        if _satisfies_hill_c_k(p, k):
            best = k
    return best


def hill_c_set(p: Sequence[int]) -> frozenset[int]:
    """All k with property C_k (each is separately invariant)."""
    return frozenset(
        k for k in range(1, len(p) + 1) if _satisfies_hill_c_k(p, k)
    )


# ---------------------------------------------------------------------------
# {123,231}{213,312}: compact permutations


def _leading_factor_len(w: Sequence[int]) -> int:
    # through the first letter of the first 321 occurrence (whole word if none)
    for t in range(len(w) - 2):
        if w[t] > w[t + 1] > w[t + 2]:
            return t + 1
    return len(w)


def _peak_count(w: Sequence[int]) -> int:
    k = 0
    for i, x in enumerate(w):
        if (i == 0 or x > w[i - 1]) and (i == len(w) - 1 or x > w[i + 1]):
            k += 1
    return k


def k_length(w: Sequence[int]) -> int:
    """Number of peaks in the 321-leading factor."""
    return _peak_count(w[: _leading_factor_len(w)])


def _compact_cond1(w: Perm) -> bool:
    # w standardized; begins with a decrease, alternating leading factor
    # whose odd-position letters are the top letters, recursive remainder,
    # and the k + k' <= n - j budget when a remainder exists
    n = len(w)
    if n == 0:
        return False
    if n == 1:
        return True
    if w[0] < w[1]:
        return False
    lead_len = _leading_factor_len(w)
    lead = w[:lead_len]
    for i in range(lead_len - 1):
        if (i % 2 == 0) != (lead[i] > lead[i + 1]):
            return False
    odd_letters = set(lead[0::2])
    if odd_letters != set(range(n - len(odd_letters) + 1, n + 1)):
        return False
    rest = w[lead_len:]
    if not rest:
        return True
    k = _peak_count(lead)
    if k >= 2:
        j = lead[-2]  # final dip of the leading factor
        if k + k_length(rest) > n - j:
            return False
    return _compact_cond1(perms.standardize(rest))


_COMPACT_BANNED = relation.make_partition([["123", "213", "231"]])


def is_compact(p: Sequence[int]) -> bool:
    """The unique representative shape of a {123,231}-avoiding class under
    the {123,231}{213,312}-equivalence.

    Condition 1 is the alternating-leading-factor recursion with its
    k + k' <= n - j budget; a permutation starting with an increase is
    compact when prepending a new maximal letter yields a condition-1
    permutation (this applies the budget across the boundary, which the
    increase-start case needs).  Factor avoidance of 123, 213, and 231 is
    required throughout, as the defining rewrite process guarantees.
    """
    q = perms.as_perm(p)
    if not relation.is_avoider(q, _COMPACT_BANNED):
        return False
    if _compact_cond1(q):
        return True
    return len(q) >= 2 and q[0] < q[1] and _compact_cond1((len(q) + 1,) + q)


def is_compact_cond1(p: Sequence[int]) -> bool:
    """Compact via condition 1 only (what the g(n, k) recursion counts)."""
    q = perms.as_perm(p)
    if not relation.is_avoider(q, _COMPACT_BANNED):
        return False
    return _compact_cond1(q)


# ---------------------------------------------------------------------------
# {123,321}{132,213}: dangerous pairs


def dangerous_pairs(p: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Pairs (j, k), j < k, j left of k at the same parity, with more
    between-extremes at the opposite parity than at their own."""
    n = len(p)
    out = set()
    for i in range(n):
        for j in range(i + 2, n, 2):
            a, b = p[i], p[j]
            if a >= b:
                continue
            same = diff = 0
            for t in range(i + 1, j):
                if p[t] < a or p[t] > b:
                    if (t - i) % 2 == 0:
                        same += 1
                    else:
                        diff += 1
            if diff > same:
                out.add((a, b))
    return frozenset(out)


def pdangerous_pairs(p: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Dangerous pairs that stay dangerous once the 1n-block moves count:
    neither letter is 1 or n, or exactly one is and the other of 1/n is
    not positioned between them."""
    n = len(p)
    pos = _positions(p)
    out = set()
    for a, b in dangerous_pairs(p):
        extremes = {x for x in (a, b) if x in (1, n)}
        if not extremes:
            out.add((a, b))
        elif len(extremes) == 1:
            other = 1 if n in extremes else n
            lo, hi = sorted((pos[a], pos[b]))
            if not lo < pos[other] < hi:
                out.add((a, b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Special families


def t_family(n: int) -> set[Perm]:
    """Letters other than 1, 2 increasing; 2, 1 adjacent.  n-1 elements."""
    if n < 2:
        raise ValueError("t_family requires n >= 2")
    out = set()
    rest = list(range(3, n + 1))
    for i in range(n - 1):
        out.add(tuple(rest[:i]) + (2, 1) + tuple(rest[i:]))
    return out


def e_family(n: int) -> set[Perm]:
    """The descending permutation with one adjacent pair swapped."""
    if n < 2:
        raise ValueError("e_family requires n >= 2")
    base = list(perms.decreasing(n))
    out = set()
    for i in range(n - 1):
        q = base.copy()
        q[i], q[i + 1] = q[i + 1], q[i]
        out.add(tuple(q))
    return out


def s_perm(n: int) -> Perm:
    """Odd n: 2 at the front, consecutive values every two positions to the
    third-to-last, 1 at the end, then filling right-to-left (e.g. 25341)."""
    if n % 2 == 0 or n < 3:
        raise ValueError("s_perm requires odd n >= 3")
    p = [0] * n
    p[n - 1] = 1
    v = 2
    for i in range(0, n - 2, 2):
        p[i] = v
        v += 1
    for i in range(n - 2, 0, -2):
        p[i] = v
        v += 1
    return tuple(p)


def d_perm(n: int) -> Perm:
    """Even n: like s but the odd positions run to the second-to-last
    (e.g. 28374651 for n = 8)."""
    if n % 2 == 1 or n < 4:
        raise ValueError("d_perm requires even n >= 4")
    p = [0] * n
    p[n - 1] = 1
    v = 2
    for i in range(0, n - 1, 2):
        p[i] = v
        v += 1
    for i in range(n - 3, 0, -2):
        p[i] = v
        v += 1
    return tuple(p)


def f_perm(n: int) -> Perm:
    """d with its final two letters swapped."""
    p = list(d_perm(n))
    p[-1], p[-2] = p[-2], p[-1]
    return tuple(p)


def special_families(n: int) -> dict[str, object]:
    """T_n, E_n, and the parity-appropriate s/d/f permutations with their
    letter-complemented partners."""
    out: dict[str, object] = {"T": t_family(n), "E": e_family(n)}
    if n >= 3 and n % 2 == 1:
        out["s"] = s_perm(n)
        out["s_prime"] = perms.complement(s_perm(n))
    if n >= 4 and n % 2 == 0:
        out["d"] = d_perm(n)
        out["f"] = f_perm(n)
        out["d_prime"] = perms.complement(d_perm(n))
        out["f_prime"] = perms.complement(f_perm(n))
    return out


# ---------------------------------------------------------------------------
# Canonical forms


_BUSHY_K = relation.parse_partition(BUSHY_RELATION)
_V_K = relation.parse_partition(V_PERM_RELATION)


def is_bushy_tailed(p: Sequence[int]) -> bool:
    """Prefix through 1 alternates with both parity classes decreasing and
    1's parity class below its neighbors; increasing after 1."""
    p = tuple(p)
    i1 = p.index(1)
    x, tail = p[: i1 + 1], p[i1 + 1 :]
    if any(a >= b for a, b in zip(tail, tail[1:])):
        return False
    for cls in (x[0::2], x[1::2]):
        if any(a <= b for a, b in zip(cls, cls[1:])):
            return False
    par = i1 % 2
    for i in range(par, len(x), 2):
        if i > 0 and x[i] >= x[i - 1]:
            return False
        if i + 1 < len(x) and x[i] >= x[i + 1]:
            return False
    return True


@lru_cache(maxsize=None)
def _bushy_canonical(p: Perm) -> Perm:
    n = len(p)
    if n <= 2:
        return p
    if n <= 4:
        # bushy-tailed = lexicographic minimum of its class
        return perms.unrank(int(engine.class_of(p, _BUSHY_K)[0]), n)
    cur = p
    while True:
        head = perms.rearrange(cur[: n - 1], _bushy_canonical(perms.standardize(cur[: n - 1])))
        cur2 = head + cur[n - 1 :]
        tail = perms.rearrange(cur2[1:], _bushy_canonical(perms.standardize(cur2[1:])))
        nxt = cur2[:1] + tail
        if nxt == cur:
            return cur
        cur = nxt


def root_permutation(p: Sequence[int]) -> Perm:
    """Slide n to position 1 or 2 via the hit ending with n.

    At each step the two letters before n determine the move: 123 -> 132
    shifts n one position left, 213 -> 312 shifts it two.
    """
    q = list(p)
    n = len(q)
    i = q.index(n)
    while i >= 2:
        a, b = q[i - 2], q[i - 1]
        if a < b:
            q[i - 2 : i + 1] = [a, n, b]
            i -= 1
        else:
            q[i - 2 : i + 1] = [n, b, a]
            i -= 2
    return tuple(q)


def compact_form(p: Sequence[int]) -> Perm:
    """Rewrite the leftmost 213 factor to 312 until none remains.

    Each step increases the permutation lexicographically, so the process
    terminates; on members of {123,231}-avoiding classes it lands on the
    class's compact representative.
    """
    q = list(p)
    pat = (2, 1, 3)
    while True:
        for i in range(len(q) - 2):
            if perms.standardize(q[i : i + 3]) == pat:
                lo, mid, hi = sorted(q[i : i + 3])
                q[i : i + 3] = [hi, lo, mid]
                break
        else:
            return tuple(q)


def v_canonical(p: Sequence[int], partition: relation.ReplacementPartition) -> Perm:
    """The unique V-permutation in p's class, via repeated down jumps.

    Valid for relations whose U-avoiders are the V-permutations and whose
    avoidance criterion holds ({123,132}{213,231}, {123,132,231}).
    """
    from . import meta

    out = meta.repeated_down_jump(tuple(p), partition)
    if not is_v_permutation(out):
        raise PermclassError(f"down jumps from {p} ended on a non-V permutation {out}")
    return out


def canonical_form(p: Sequence[int], relation_key: str) -> Perm:
    """Canonical class representative for the named form.

    relation_key: 'bushy' ({123,132}{213,321}), 'root' ({123,132}{213,312}),
    'v_perm' ({123,132}{213,231}), or 'compact' ({123,231}{213,312}).
    """
    q = perms.as_perm(p)
    if relation_key == "bushy":
        return _bushy_canonical(q)
    if relation_key == "root":
        return root_permutation(q)
    if relation_key == "v_perm":
        return v_canonical(q, _V_K)
    if relation_key == "compact":
        return compact_form(q)
    raise KeyError(f"unknown canonical form {relation_key!r}")


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass(frozen=True)
class InvariantReport:
    permutation: Perm
    values: dict
    relation_text: str | None = None

    def to_json_dict(self) -> dict:
        out = {"permutation": perms.format_perm(self.permutation)}
        if self.relation_text is not None:
            out["relation"] = self.relation_text
        out.update(self.values)
        return out


def predicates(
    p: Sequence[int], partition: relation.ReplacementPartition | None = None
) -> dict[str, bool]:
    """All named boolean predicates; hit-position ones need a partition."""
    q = perms.as_perm(p)
    out = {
        "is_V": is_v_permutation(q),
        "is_lambda": is_lambda_permutation(q),
        "is_layered": is_layered(q),
        "is_zipped": is_zipped(q),
        "is_partially_zipped": is_partially_zipped(q),
        "is_compact": is_compact(q),
        "is_fronted": is_fronted(q),
        "is_reductive": is_reductive(q),
        "is_decent": is_decent(q),
        "is_bushy_tailed": is_bushy_tailed(q),
    }
    if partition is not None:
        out["is_lefted"] = relation.is_lefted(q, partition)
        out["is_righted"] = relation.is_righted(q, partition)
        out["is_middled"] = relation.is_middled(q, partition)
    return out


def full_report(
    p: Sequence[int], partition: relation.ReplacementPartition | None = None
) -> InvariantReport:
    q = perms.as_perm(p)
    k, par1 = a_k_max(q)
    values = {
        "a_k_max": k,
        "parity_of_1": par1,
        "odd_tailed": sorted(odd_tailed_set(q)),
        "w_set": list(w_set(q)),
        "origin_permutation": perms.format_perm(origin_permutation(q)),
        "valleys_peaks": [[g, kind] for g, kind in valleys_peaks(q)],
        "j_sequence": list(j_sequence(q)),
        "fall": sorted(fall(q)),
        "fall_order": list(fall_order(q)),
        "hill_c_k": hill_c_k(q),
        "dangerous_pairs": sorted(map(list, dangerous_pairs(q))),
        "pdangerous_pairs": sorted(map(list, pdangerous_pairs(q))),
        "predicates": predicates(q, partition),
    }
    return InvariantReport(
        permutation=q,
        values=values,
        relation_text=partition.text() if partition is not None else None,
    )
