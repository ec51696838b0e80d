"""Model-theoretic engines over finite canonical models, held as world masks.

A world is a valuation compatible with the KB (it satisfies every
never-retracted default); a set of worlds is a truth mask over the KB's
valuation indices, as everywhere else in defq.  The minimal canonical ranked
model puts each world at the lowest chain position whose materialization it
satisfies, so its strata are the differences of consecutive chain masks.

The MP closure compares worlds only through their violation sets, by strict
inclusion at the first rank slice of the rational closure
(``RankingTable.slices``) where they differ, so its order is a relation on
violation classes: the worlds with one violation set, split off the
compatible mask default by default (``violation_classes``).  The rational
extension (mpr) ranks each class by its height in that order, the length of
a longest chain of classes below it.  The heights are found on violation
masks alone (``violation_heights``): classes that agree on the slices before
i are grouped and split by their part of slice i.  Inside such a group, the
classes below c are exactly those whose slice-i part is a strict subset of
c's part, plus those in c's own subgroup that lie below c on later slices.
So a longest chain below c runs through subgroups of growing parts, then
inside c's subgroup, and c's height is its subgroup's offset (the largest
offset + span, the number of heights it covers, of a subgroup whose part is
a strict subset of c's) plus its height inside the subgroup, found the same
way on slice i + 1.  Heights therefore add across slices; they are found
once per KB (``mpr_heights``), from a split of every compatible world.  An
mpr query splits only the antecedent's worlds, keeps those whose class has
the least height (``least_height_worlds``) and tests them against the
consequent's mask, so no stratum, and no world mask, predecessor relation
or layer per class, is held.  Worlds are listed one by one only for output.

This module holds only the engines.  The reference construction that
``harness`` checks them against is defined there; ``__getattr__`` still
resolves its names here, importing ``harness`` only when one is asked for.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .logic import Formula, mask_indices
from .ranking import Conditional, KnowledgeBase, RankingTable, compute_ranking, per_kb
from .ranking import UnsatisfiableKB  # defined in ranking: the CLI catches it without this module


class RankedModel:
    """Finite ranked interpretation: ``strata[r]`` is the truth mask of the
    rank-r worlds.  The strata are disjoint and nonempty, so rank 0 holds
    some world; the strict modular order is stratum comparison."""

    def __init__(self, kb: KnowledgeBase, strata: Sequence[int]):
        self.kb = kb
        self.strata = tuple(strata)

    @property
    def world_mask(self) -> int:
        return reduce(or_, self.strata, 0)

    @property
    def worlds(self) -> tuple[int, ...]:
        """The valuation indices of the worlds, ascending."""
        return tuple(mask_indices(self.world_mask))

    def formula_rank(self, f: Formula) -> int | None:
        """Least rank of a world satisfying ``f``; None when no world does."""
        a = self.kb.mask(f)
        return next((r for r, stratum in enumerate(self.strata) if stratum & a), None)

    def minimal(self, a: int) -> int:
        return next((stratum & a for stratum in self.strata if stratum & a), 0)


def minimal_canonical_model(kb: KnowledgeBase, rt: RankingTable | None = None) -> RankedModel:
    """The minimal canonical ranked model of a satisfiable KB.

    Its worlds are the valuations satisfying the stable chain tail's
    materialization (exactly the compatible ones over a finite signature),
    and stratum r holds those first admitted at chain position r.  Equal
    consecutive chain masks make the chain stable, so only the last position
    can admit no world; that empty stratum is dropped.  ``rt``, kept for
    callers that hold the table, must be ``compute_ranking(kb)``: another
    table raises ``ValueError`` before the memo is read.
    """
    if rt is not None and rt is not compute_ranking(kb):
        raise ValueError("rt is not this knowledge base's own ranking table")
    return _canonical_model(kb)


@per_kb("min_canonical")
def _canonical_model(kb: KnowledgeBase) -> RankedModel:
    worlds = compute_ranking(kb).worlds
    if worlds[-1] == 0:
        raise UnsatisfiableKB("no valuation satisfies the knowledge base")
    strata = [worlds[0]]
    strata.extend(mask & ~prev for prev, mask in zip(worlds, worlds[1:]))
    if not strata[-1]:
        strata.pop()
    return RankedModel(kb, strata)


def violation_classes(kb: KnowledgeBase, within: int) -> Iterator[tuple[int, int]]:
    """The violation classes of the compatible worlds in ``within``, as
    (violation mask, world mask) leaves of a depth-first split by each
    default's mask; bit d of the violation mask is set when the class's
    worlds violate default d.  Only the current path and one pending branch
    per default are held.  Raises ``UnsatisfiableKB`` for a KB without models."""
    masks = kb.default_masks
    path = [(0, 0, minimal_canonical_model(kb).world_mask & within)]
    while path:
        d, violated, worlds = path.pop()
        if d == len(masks):
            yield violated, worlds
            continue
        kept = worlds & masks[d]
        if kept != worlds:
            path.append((d + 1, violated | 1 << d, worlds ^ kept))
        if kept:
            path.append((d + 1, violated, kept))


def violation_heights(kb: KnowledgeBase, violations: Iterable[int]) -> dict[int, int]:
    """Height of each distinct violation mask in the set ordering over the
    rank slices: the length of a longest chain of the given masks below it,
    as the sum of its subgroups' offsets slice by slice (module docstring).
    A slice of w defaults takes at most w * 2^w steps."""
    slices = compute_ranking(kb).slices
    heights: dict[int, int] = {}

    def place(group: list[int], i: int, base: int) -> int:
        """Give the masks of ``group``, which agree on the slices before i,
        their heights from ``base``; return how many heights they span."""
        if len(group) == 1:
            heights[group[0]] = base
            return 1
        parts: dict[int, list[int]] = {}
        for v in group:
            parts.setdefault(v & slices[i], []).append(v)
        ends: dict[int, int] = {}  # part -> its offset + span
        reach: dict[int, int] = {}  # subset -> the largest end of a part inside it

        def below(u: int) -> int:  # the largest end of a part strictly inside u
            return max((inside(u & ~(1 << d)) for d in mask_indices(u)), default=0)

        def inside(u: int) -> int:
            if u not in reach:
                reach[u] = max(ends.get(u, 0), below(u))
            return reach[u]

        for s in sorted(parts, key=int.bit_count):  # every strict subset first
            offset = below(s)
            ends[s] = offset + place(parts[s], i + 1, base + offset)
        return max(ends.values())

    place(list(set(violations)), 0, 0)
    return heights


@per_kb("mpr_heights")
def mpr_heights(kb: KnowledgeBase) -> dict[int, int]:
    """``violation_heights`` of every compatible world's class, once per KB."""
    classes = violation_classes(kb, kb.truth.full)
    return violation_heights(kb, (v for v, _ in classes))


@per_kb("mpr_minimal", lambda a: a)
def least_height_worlds(kb: KnowledgeBase, a: int) -> int:
    """mpr's minimal worlds of the world mask ``a``: those in the classes of
    least height among the classes ``a`` meets, held as that height and their
    OR while ``a``'s split streams.  They are found once per mask, so a
    query's evidence reuses its answer's split."""
    heights = mpr_heights(kb)
    least, minimal = None, 0
    for violated, worlds in violation_classes(kb, a):
        if least is None or heights[violated] < least:
            least, minimal = heights[violated], 0
        if heights[violated] == least:
            minimal |= worlds
    return minimal


def mpr_query(kb: KnowledgeBase, query: Conditional) -> bool:
    """Membership in the rational extension of the MP closure: the consequent
    holds at every least-height antecedent world (``least_height_worlds``)."""
    minimal = least_height_worlds(kb, kb.mask(query.antecedent))
    return minimal & ~kb.mask(query.consequent) == 0


# The reference construction's names, defined in harness beside the checks that read it.
_REFERENCE = ("PreferentialModel preferential_refinement height_ranks layer_ranks "
              "rank_by_height mpr_model satisfies minimal_worlds").split()


def __getattr__(name: str):
    if name in _REFERENCE:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
