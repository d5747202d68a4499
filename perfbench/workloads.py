"""Workload definitions: which CLI requests one child process makes.

Every workload is a list of ``Op`` values built from the seed, the child's
index within the run and the scale ("full" for measurement, "smoke" for the
benchmark's own tests).  Generating the ops is part of each child's set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

WORKLOADS = ("factor-n10", "subword-n9", "session")

# Workloads whose times are calibrated to nominal host speed (hostspeed.py).
# The count workloads are not: one 7-12 s numpy request per child, which a
# 5-ms pure-Python reading before and after it does not track.
CALIBRATED = ("session",)

FIGURE2_KEY = "{132,231}{213,312}"

# Factor-mode relations with an exact n=10 reference (the Figure 2 table or a
# registered formula).  All have two parts of two patterns, so every one
# generates the same number of edges (9.68 M at n=10), and their edge and
# closure phases cost within 4% of Figure 2's (measured in interleaved
# rounds), so the seed varies the input without varying the amount of work.
# Seed 0 gives the Figure 2 relation.
FACTOR_RELATIONS = (
    FIGURE2_KEY,
    "{123,231}{213,312}",
    "{123,231}{132,321}",
    "{123,132}{231,312}",
    "{132,312}{213,321}",
    "{123,231}{132,213}",
    "{123,132}{213,321}",
    "{123,321}{132,231}",
)

SUBWORD_RELATION = "{123,132,213,231}"
STOOGE_RELATION = "{123,321}{213,231}"
CRITERION_RELATION = "{123,132}{213,231}"

# Relations whose classes at n=8 are small (a few hundred members for a
# random permutation), so a BFS query is an interactive request.
QUERY_RELATIONS = (
    FIGURE2_KEY,
    "{123,132}{213,312}",
    "{123,231}{132,321}",
    "{123,321}{132,231}",
)

SCALES = {
    "full": {
        "factor_n": 10, "subword_n": 9, "verify_n_max": 7, "verify_fig2_n_max": 8,
        "stooge_n": 8, "criterion_k": 5, "criterion_to": 9, "query_n": 8, "queries": 100,
    },
    "smoke": {
        "factor_n": 6, "subword_n": 6, "verify_n_max": 5, "verify_fig2_n_max": 6,
        "stooge_n": 6, "criterion_k": 5, "criterion_to": 6, "query_n": 6, "queries": 8,
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI request: its argv and what the checks need to know about it."""

    kind: str             # count | verify | stooge | theorem | query
    argv: tuple[str, ...]
    ranks: int = 0        # sum of n! over the full enumerations it asks for
    relation: str = ""
    n: int = 0
    mode: str = "factor"  # mode of its largest enumeration
    perm: tuple[int, ...] = ()

    @property
    def key(self) -> str:
        """Name of the op in the digest file."""
        return " ".join(self.argv)


def factor_relation(seed: int) -> str:
    return FACTOR_RELATIONS[seed % len(FACTOR_RELATIONS)]


def verify_ranks(n_max: int, fig2_n_max: int) -> int:
    """Sum of n! over the enumerations ``permclass verify`` runs."""
    from permclass import oracle

    rows = [
        n
        for key in oracle.relation_keys()
        for n in range(max(3, oracle.validity_floor(key)), n_max + 1)
    ]
    rows += range(3, fig2_n_max + 1)
    return sum(factorial(n) for n in rows)


def fixed_ops(workload: str, seed: int, scale: str) -> list[Op]:
    """The ops of a workload whose stdout has a recorded digest."""
    s = SCALES[scale]
    if workload == "factor-n10":
        rel, n = factor_relation(seed), s["factor_n"]
        return [Op("count", ("count", "--partition", rel, "--n", str(n)),
                   ranks=factorial(n), relation=rel, n=n)]
    if workload == "subword-n9":
        rel, n = SUBWORD_RELATION, s["subword_n"]
        return [Op("count", ("count", "--mode", "subword", "--n", str(n), "--allow-large",
                             "--partition", rel),
                   ranks=factorial(n), relation=rel, n=n, mode="subword")]
    if workload == "session":
        k, top = s["criterion_k"], s["criterion_to"]
        return [
            Op("verify", ("verify", "--n-max", str(s["verify_n_max"]),
                          "--figure2-n-max", str(s["verify_fig2_n_max"])),
               ranks=verify_ranks(s["verify_n_max"], s["verify_fig2_n_max"]),
               n=max(s["verify_n_max"], s["verify_fig2_n_max"])),
            Op("stooge", ("stooge", "--partition", STOOGE_RELATION, "--n", str(s["stooge_n"])),
               ranks=factorial(s["stooge_n"]), relation=STOOGE_RELATION, n=s["stooge_n"]),
            Op("theorem", ("theorem", "avoider-criterion", "--partition", CRITERION_RELATION,
                           "--k", str(k), "--check-to", str(top)),
               ranks=sum(factorial(n) for n in range(k, top + 1)),
               relation=CRITERION_RELATION, n=top),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _parts(text: str) -> list[list[tuple[int, ...]]]:
    """Nontrivial parts of a relation text such as ``{123,321}{132,231}``."""
    return [[tuple(map(int, pat)) for pat in group.split(",")]
            for group in text.strip("{}").split("}{")]


def _pattern(window) -> tuple[int, ...]:
    order = sorted(window)
    return tuple(order.index(x) + 1 for x in window)


def _walk(perm: list[int], parts, steps: int, rng: random.Random) -> tuple[int, ...]:
    """A random walk of factor rewrites: it never leaves the class of ``perm``."""
    c = len(parts[0][0])
    for _ in range(steps):
        moves = []
        for i in range(len(perm) - c + 1):
            pat = _pattern(perm[i : i + c])
            for part in parts:
                if pat in part:
                    moves += [(i, q) for q in part if q != pat]
        if not moves:
            break
        i, q = rng.choice(moves)
        letters = sorted(perm[i : i + c])
        perm[i : i + c] = [letters[k - 1] for k in q]
    return tuple(perm)


def query_ops(seed: int, index: int, scale: str) -> list[Op]:
    """Seeded ``classes --perm`` BFS queries, round-robin over QUERY_RELATIONS.

    Which classes are queried is fixed, so every seed asks for the same
    amount of BFS work; the seed (and the child's index) only picks where in
    each class the query starts, by a random walk of factor rewrites.
    """
    s = SCALES[scale]
    n = s["query_n"]
    classes = random.Random("query classes")
    starts = random.Random(f"{seed}:{index}")
    ops = []
    for i in range(s["queries"]):
        rel = QUERY_RELATIONS[i % len(QUERY_RELATIONS)]
        perm = _walk(classes.sample(range(1, n + 1), n), _parts(rel), 3 * n, starts)
        ops.append(Op("query", ("classes", "--partition", rel, "--perm", "".join(map(str, perm))),
                      relation=rel, n=n, perm=perm))
    return ops


def op_count(workload: str, scale: str) -> int:
    """Number of requests one child makes (counted as failed if it crashes)."""
    return {"factor-n10": 1, "subword-n9": 1}.get(workload, 3 + SCALES[scale]["queries"])


def ops_for(workload: str, seed: int, index: int, scale: str) -> list[Op]:
    ops = fixed_ops(workload, seed, scale)
    if workload == "session":
        ops += query_ops(seed, index, scale)
    return ops
