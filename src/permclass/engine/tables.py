"""Flat lookup tables over S_c shared by the factor and subword kernels.

Patterns are indexed by their Lehmer rank within S_c (lexicographic
order).  Each nontrivial part is joined by a star from its least pattern,
the part's D pattern: ``partners`` holds one (D id, U ids) pair a part,
the U ids the part's other patterns, in increasing D id.  So a part of
size s gives s - 1 edges a site, not the C(s, 2) of every pair.

The star spans the same components as every pair.  At one site the
rewrites within a part rearrange the same letters, so they join the
part's arrangements of those letters to each other, and every such
arrangement is one edge from the D arrangement.  A site's clique and its
star therefore connect the same permutations, and every class, with its
size and representative, is unchanged.  The tuple BFS of
``relation.rewrites`` still lists every mate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .. import perms
from ..relation import ReplacementPartition


@dataclass(frozen=True)
class PatternTables:
    c: int
    partners: tuple[tuple[int, tuple[int, ...]], ...]  # (D id, U ids) a part, by D id


def build_tables(partition: ReplacementPartition) -> PatternTables:
    c = partition.c
    ids = (sorted(perms.rank(p) for p in part) for part in partition.nontrivial_parts)
    partners = tuple(sorted((d, tuple(us)) for d, *us in ids))
    return PatternTables(c=c, partners=partners)


def banned_mask(c: int, patterns) -> np.ndarray:
    """Boolean array over S_c pattern ids marking the given patterns."""
    mask = np.zeros(factorial(c), dtype=np.bool_)
    for p in patterns:
        if len(p) != c:
            raise ValueError(f"pattern {p} does not have length {c}")
        mask[perms.rank(p)] = True
    return mask
