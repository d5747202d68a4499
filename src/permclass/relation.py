"""Replacement partitions of S_c and the one-step transformation relation.

A replacement partition groups the patterns of S_c into disjoint parts;
only parts of size >= 2 ("nontrivial") matter, and unlisted patterns are
implicitly singletons.  Text syntax is concatenated brace groups, e.g.
``{123,321}{132,231}``; whitespace is ignored.

A *hit* in a permutation is a length-c factor whose standardization lies
in a nontrivial part; a one-step transformation rearranges a hit's
letters so the factor standardizes to another member of the same part.
Subword mode does the same over non-adjacent index tuples, permuting the
values at the chosen indices in place.  Every reading of hits below
(hits, avoiders, down jumps, rewrites) comes from one scan that looks a
site's pairwise letter comparisons up among the partition's patterns,
with no standardizing.

Within each nontrivial part the lexicographic minimum is the part's D
pattern; the remaining members form U.  Rewriting a U-hit into its
part's D pattern (a "down jump") is strictly lexicographically
decreasing, which is what makes repeated down jumps terminate.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Literal, Sequence

from . import perms
from .errors import PartitionParseError
from .perms import Perm

Mode = Literal["factor", "subword"]

#: nontrivial parts with patterns longer than this are refused by default
#: (the enumeration engine's cost explodes in c); override with allow_large_c.
MAX_PATTERN_LEN = 6


@dataclass(frozen=True)
class ReplacementPartition:
    """A set partition of S_c, stored by its nontrivial parts.

    Parts are kept in canonical order: patterns inside a part sorted
    lexicographically, parts sorted by their lexicographic minimum.  This
    makes serialization deterministic.
    """

    c: int
    nontrivial_parts: tuple[tuple[Perm, ...], ...]

    @property
    def parts(self) -> tuple[tuple[Perm, ...], ...]:
        """All parts including the implicit singletons, canonical order."""
        listed = {p for part in self.nontrivial_parts for p in part}
        singles = tuple(
            (p,) for p in perms.all_perms(self.c) if p not in listed
        )
        return tuple(sorted(self.nontrivial_parts + singles))

    @property
    def D(self) -> tuple[Perm, ...]:
        """Per-nontrivial-part lexicographic minima."""
        return tuple(part[0] for part in self.nontrivial_parts)

    @property
    def U(self) -> tuple[Perm, ...]:
        """Nontrivial-part members that are not their part's minimum."""
        return tuple(
            p for part in self.nontrivial_parts for p in part[1:]
        )

    @property
    def nontrivial_patterns(self) -> tuple[Perm, ...]:
        return tuple(p for part in self.nontrivial_parts for p in part)

    @cached_property
    def _recipes(self) -> dict:
        """The hit scan's rewrite recipes (``_mate_orders``), built on first use."""
        return _mate_orders(self)

    def text(self) -> str:
        """Canonical serialization, e.g. ``{123,321}{132,231}``."""
        return "".join(
            "{" + ",".join(perms.format_perm(p) for p in part) + "}"
            for part in self.nontrivial_parts
        )

    def __str__(self) -> str:
        return self.text()


def make_partition(
    nontrivial_parts: Iterable[Iterable[Sequence[int]]],
    c: int | None = None,
    allow_large_c: bool = False,
) -> ReplacementPartition:
    """Build a partition from its nontrivial parts, canonicalizing order;
    a part of a single pattern warns and is treated as trivial."""
    partition, singles = _canonical_partition(nontrivial_parts, c, allow_large_c)
    _warn_singles(singles, stacklevel=3)
    return partition


def _canonical_partition(
    nontrivial_parts: Iterable[Iterable[Sequence[int]]], c: int | None, allow_large_c: bool
) -> tuple[ReplacementPartition, tuple[Perm, ...]]:
    """make_partition's partition and the patterns of its single-pattern
    parts, which the caller warns about."""
    parts = []
    singles = []
    seen: dict[Perm, int] = {}
    for part in nontrivial_parts:
        pats = sorted(perms.as_perm(p) for p in part)
        if not pats:
            continue
        if len(pats) == 1:
            singles.append(pats[0])
            continue
        if len(set(pats)) != len(pats):
            raise PartitionParseError(f"duplicate pattern inside a part: {pats}")
        for p in pats:
            if p in seen:
                raise PartitionParseError(
                    f"pattern {perms.format_perm(p)} appears in two parts"
                )
            seen[p] = 1
        parts.append(tuple(pats))
    lens = {len(p) for pats in parts for p in pats}
    if len(lens) > 1:
        raise PartitionParseError(f"mixed pattern lengths: {sorted(lens)}")
    if c is None:
        if not lens:
            raise PartitionParseError("cannot infer pattern length: no nontrivial part")
        c = lens.pop()
    elif lens and lens != {c}:
        raise PartitionParseError(f"patterns have length {lens.pop()}, expected {c}")
    if parts and c > MAX_PATTERN_LEN and not allow_large_c:
        raise PartitionParseError(
            f"pattern length {c} exceeds the limit {MAX_PATTERN_LEN}; only the library"
            " argument allow_large_c=True of make_partition/parse_partition lifts it"
        )
    return ReplacementPartition(c=c, nontrivial_parts=tuple(sorted(parts))), tuple(singles)


def _warn_singles(singles: tuple[Perm, ...], stacklevel: int) -> None:
    """Warn, at the given stack level of the caller, of each part that has a
    single pattern."""
    for p in singles:
        warnings.warn(
            f"part {{{perms.format_perm(p)}}} has a single pattern; treating it as trivial",
            stacklevel=stacklevel,
        )


def singleton_partition(c: int) -> ReplacementPartition:
    """The all-singleton partition of S_c (the discrete equivalence)."""
    return ReplacementPartition(c=c, nontrivial_parts=())


_BRACE_GROUP = re.compile(r"\{([^{}]*)\}")


def parse_partition(text: str, allow_large_c: bool = False) -> ReplacementPartition:
    """Parse the brace-group abbreviation, e.g. ``{123,321}{132,231}``.

    Memoized per (text, allow_large_c): a session asks for the same few
    relations request after request.  A bad text raises, and a part of a
    single pattern warns, on every call."""
    partition, singles = _parsed_partition(text, allow_large_c)
    _warn_singles(singles, stacklevel=2)
    return partition


@lru_cache(maxsize=128)
def _parsed_partition(text: str, allow_large_c: bool) -> tuple[ReplacementPartition, tuple[Perm, ...]]:
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PartitionParseError("empty partition text")
    groups = _BRACE_GROUP.findall(s)
    if _BRACE_GROUP.sub("", s):
        raise PartitionParseError(f"stray characters outside brace groups: {text!r}")
    parts = []
    for g in groups:
        if not g:
            raise PartitionParseError("empty brace group")
        try:
            parts.append([perms.parse_perm(tok) for tok in g.split(",") if tok])
        except ValueError as e:
            raise PartitionParseError(f"bad pattern token in {{{g}}}: {e}") from e
    lens = {len(p) for part in parts for p in part}
    if len(lens) != 1:
        raise PartitionParseError(f"mixed pattern lengths: {sorted(lens)}")
    return _canonical_partition(parts, lens.pop(), allow_large_c)


@dataclass(frozen=True)
class Transformation:
    """One rewrite step: source and target differ only at ``indices``.

    ``indices`` are 1-based positions; consecutive in factor mode.  The
    factor/subword at those indices standardizes to from_pattern in the
    source and to_pattern in the target, both in the same part.
    """

    source: Perm
    target: Perm
    indices: tuple[int, ...]
    from_pattern: Perm
    to_pattern: Perm

    @property
    def position(self) -> int:
        """1-based start position of the rewritten factor/subword."""
        return self.indices[0]


def _mate_orders(
    partition: ReplacementPartition,
) -> dict[tuple[bool, ...], tuple[Perm, tuple[tuple[Perm, tuple[int, ...]], ...]]]:
    """Rewrite recipes keyed by a hit's pairwise comparisons.

    A window's comparisons ``w[a] > w[b]``, over the pairs a < b of its
    positions in ``itertools.combinations`` order, fix its pattern without
    standardizing.  Each entry is (pattern, ((mate, order), ...)), the
    mates in part order: the window rewritten to ``mate`` is
    ``tuple(window[o] for o in order)``, where order reads the pattern's
    argsort (its 0-based positions in increasing letter order) at the
    mate's letters.  Built once per partition (``ReplacementPartition``
    keeps it), so no call hashes the partition.
    """
    pairs = list(itertools.combinations(range(partition.c), 2))
    out = {}
    for part in partition.nontrivial_parts:
        for pat in part:
            inv = [0] * partition.c
            for j, x in enumerate(pat):
                inv[x - 1] = j
            out[tuple(pat[a] > pat[b] for a, b in pairs)] = (
                pat,
                tuple((q, tuple(inv[x - 1] for x in q)) for q in part if q != pat),
            )
    return out


@lru_cache(maxsize=64)
def _site_table(
    n: int, c: int, mode: Mode
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """(sites, left, right) for words of n letters: the 0-based index
    sets in site order (windows left to right, or index combinations in
    lexicographic order), and the two ends of every pair of positions of
    each site, site by site, in the pair order of ``_mate_orders``."""
    if mode == "factor":
        sites = tuple(tuple(range(i, i + c)) for i in range(n - c + 1))
    elif mode == "subword":
        sites = tuple(itertools.combinations(range(n), c))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pairs = list(itertools.combinations(range(c), 2))
    left = tuple(idx[a] for idx in sites for a, _ in pairs)
    right = tuple(idx[b] for idx in sites for _, b in pairs)
    return sites, left, right


def _sites(
    p: Perm, partition: ReplacementPartition, mode: Mode
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Perm, tuple]]:
    """Yield (0-based indices, letters, pattern, mates) for every hit of the
    tuple p, in site order; mates are the pattern's ((mate, order), ...) of
    ``_mate_orders``.  Every site's comparisons come from one pass over
    the pairs of ``_site_table``, and each site looks its own slice up."""
    sites, left, right = _site_table(len(p), partition.c, mode)
    recipes = partition._recipes
    if not recipes:
        return
    k = partition.c * (partition.c - 1) // 2
    get = p.__getitem__
    greater = tuple(map(operator.gt, map(get, left), map(get, right)))
    for s, idx in enumerate(sites):
        entry = recipes.get(greater[s * k : s * k + k])
        if entry is not None:
            yield idx, tuple(map(get, idx)), entry[0], entry[1]


def _placed(p: Perm, idx: tuple[int, ...], w: tuple[int, ...], order) -> Perm:
    """p with the letters w at idx rewritten by a ``_mate_orders`` order."""
    out = list(p)
    for i, o in zip(idx, order):
        out[i] = w[o]
    return tuple(out)


def hits(p: Sequence[int], partition: ReplacementPartition) -> list[tuple[int, Perm]]:
    """All (1-based position, pattern) with the factor there in a nontrivial part."""
    sites = _sites(perms.as_word(p), partition, "factor")
    return [(idx[0] + 1, pat) for idx, _, pat, _ in sites]


def subword_hits(
    p: Sequence[int], partition: ReplacementPartition
) -> list[tuple[tuple[int, ...], Perm]]:
    """Subword-mode hits: (1-based index tuple, pattern) pairs."""
    sites = _sites(perms.as_word(p), partition, "subword")
    return [(tuple(i + 1 for i in idx), pat) for idx, _, pat, _ in sites]


def is_avoider(p: Sequence[int], partition: ReplacementPartition) -> bool:
    """True iff p contains no hit."""
    return next(_sites(perms.as_word(p), partition, "factor"), None) is None


def rewrites(
    p: Perm,
    partition: ReplacementPartition,
    mode: Mode = "factor",
) -> Iterator[tuple[tuple[int, ...], Perm, Perm, Perm]]:
    """Yield (0-based indices, from_pattern, to_pattern, target) for every
    one-step rewrite of the tuple p, without validating p or its targets."""
    for idx, w, pat, mates in _sites(p, partition, mode):
        for q, order in mates:
            yield idx, pat, q, _placed(p, idx, w, order)


def neighbors(
    p: Sequence[int],
    partition: ReplacementPartition,
    mode: Mode = "factor",
) -> list[Transformation]:
    """All one-step transformations applicable to the word p.

    A list of :class:`Transformation` records built from :func:`rewrites`,
    in site order (windows left to right, or index combinations in
    lexicographic order), then part order within a site.
    """
    p = perms.as_word(p)
    return [
        Transformation(
            source=p,
            target=target,
            indices=tuple(i + 1 for i in idx),
            from_pattern=pat,
            to_pattern=q,
        )
        for idx, pat, q, target in rewrites(p, partition, mode)
    ]


def down_jumps(p: Sequence[int], partition: ReplacementPartition) -> list[Perm]:
    """Targets of rewriting some U-hit into its part's D pattern.

    A part is sorted, so a hit's first mate is the part's D pattern unless
    the hit is that pattern, whose mates all lie above it: a hit is a U-hit
    iff its first mate lies below its pattern.
    """
    p = perms.as_word(p)
    return [
        _placed(p, idx, w, mates[0][1])
        for idx, w, pat, mates in _sites(p, partition, "factor")
        if mates[0][0] < pat
    ]


def is_u_avoider(p: Sequence[int], partition: ReplacementPartition) -> bool:
    """True iff no factor of p standardizes to a U pattern (a hit whose
    first mate lies below it, as in :func:`down_jumps`)."""
    sites = _sites(perms.as_word(p), partition, "factor")
    return not any(mates[0][0] < pat for _, _, pat, mates in sites)


def is_lefted(p: Sequence[int], partition: ReplacementPartition) -> bool:
    """A hit exists within the final n-1 letters."""
    return any(pos >= 2 for pos, _ in hits(p, partition))


def is_righted(p: Sequence[int], partition: ReplacementPartition) -> bool:
    """A hit exists within the first n-1 letters."""
    n, c = len(p), partition.c
    return any(pos + c - 1 <= n - 1 for pos, _ in hits(p, partition))


def is_middled(p: Sequence[int], partition: ReplacementPartition) -> bool:
    """A hit exists that uses neither the first nor the last letter."""
    n, c = len(p), partition.c
    return any(2 <= pos and pos + c - 1 <= n - 1 for pos, _ in hits(p, partition))


def _map_partition(
    partition: ReplacementPartition, op
) -> ReplacementPartition:
    return make_partition(
        [[op(p) for p in part] for part in partition.nontrivial_parts],
        c=partition.c,
    )


def symmetry_orbit(
    partition: ReplacementPartition,
) -> tuple[ReplacementPartition, ...]:
    """Orbit under part-wise reverse/complement (a Klein four-group for c >= 3).

    Class counts in S_n are equal across the orbit.
    """
    orbit = {
        partition,
        _map_partition(partition, perms.reverse),
        _map_partition(partition, perms.complement),
        _map_partition(partition, lambda p: perms.reverse(perms.complement(p))),
    }
    return tuple(sorted(orbit, key=ReplacementPartition.text))


def lift_partition(partition: ReplacementPartition) -> ReplacementPartition:
    """The partition of S_{c+1} whose parts are the K-equivalence classes.

    The lifted partition generates the same equivalence on S_n for n > c.
    """
    from . import engine  # deferred: engine depends on this module

    dec = engine.enumerate_classes(partition.c + 1, partition, mode="factor")
    classes: dict[int, list[Perm]] = {}
    for r, cid in enumerate(dec.class_id):
        classes.setdefault(int(cid), []).append(perms.unrank(r, partition.c + 1))
    return make_partition(
        [members for members in classes.values() if len(members) > 1],
        c=partition.c + 1,
        allow_large_c=True,
    )
