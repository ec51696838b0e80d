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

``PreferentialModel``, ``preferential_refinement``, ``height_ranks``,
``layer_ranks``, ``rank_by_height`` and ``mpr_model`` are the reference
construction, off the engine path: the refined order as one predecessor mask
per class, its heights by longest chain and by peeling minimal layers, and
mpr's ranked model collapsed from them.  ``harness`` checks the order and
compares mpr's heights and answers with theirs; they stay in this module
because the benchmark's tracer times them here.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .logic import Formula, mask_indices
from .ranking import Conditional, KnowledgeBase, RankingTable, compute_ranking
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


class PreferentialModel:
    """Finite preferential interpretation whose strict order is stored on
    violation classes: ``classes[c]`` is the world mask of class c,
    ``violations[c]`` the default mask of the defaults its worlds violate,
    and bit p of ``below[c]`` is set when class p is strictly below class c.
    Reference only (module docstring): it holds a world mask per class."""

    def __init__(
        self,
        kb: KnowledgeBase,
        classes: Sequence[int],
        below: Sequence[int],
        violations: Sequence[int],
    ):
        self.kb = kb
        self.classes = tuple(classes)
        self.below = tuple(below)
        self.violations = tuple(violations)

    def minimal(self, a: int) -> int:
        holders = [c for c, worlds in enumerate(self.classes) if worlds & a]
        held = reduce(or_, (1 << c for c in holders), 0)
        minimal = (self.classes[c] for c in holders if not self.below[c] & held)
        return reduce(or_, minimal, 0) & a


Model = RankedModel | PreferentialModel


def minimal_canonical_model(kb: KnowledgeBase, rt: RankingTable | None = None) -> RankedModel:
    """The minimal canonical ranked model of a satisfiable KB.

    Its worlds are the valuations satisfying the stable chain tail's
    materialization (exactly the compatible ones over a finite signature),
    and stratum r holds those first admitted at chain position r.  Equal
    consecutive chain masks make the chain stable, so only the last position
    can admit no world; that empty stratum is dropped.
    """
    cached = kb.cache.get("min_canonical")
    if cached is not None:
        return cached
    rt = rt or compute_ranking(kb)
    worlds = rt.worlds
    if worlds[-1] == 0:
        raise UnsatisfiableKB("no valuation satisfies the knowledge base")
    strata = [worlds[0]]
    strata.extend(mask & ~prev for prev, mask in zip(worlds, worlds[1:]))
    if not strata[-1]:
        strata.pop()
    model = RankedModel(kb, strata)
    kb.cache["min_canonical"] = model
    return model


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


def preferential_refinement(kb: KnowledgeBase) -> PreferentialModel:
    """Refine the minimal canonical model of a satisfiable KB: order its
    worlds by the seriousness of their violation sets, the set ordering over
    the rank slices of the rational closure (``RankingTable.slices``).

    Class x is below class y when, at the first slice where their violation
    sets differ, x's part is a strict subset of y's.  Classes that agree on
    the slices before i are grouped and split by their slice i: each
    subgroup lies below every subgroup whose slice strictly contains its
    own, and each subgroup is split again on slice i + 1.  This is the
    violation-set ordering used by the MP closure.  It extends the canonical
    model's rank order (a world's rank is one past the highest rank it
    violates), and the refined model still models the KB.  Raises
    ``UnsatisfiableKB`` when the KB has no model.  Reference only: mpr
    ranks the same classes through ``violation_heights``.
    """
    slices = compute_ranking(kb).slices
    parts = list(violation_classes(kb, kb.truth.full))
    below = [0] * len(parts)
    groups = [(0, list(range(len(parts))))]
    while groups:
        i, group = groups.pop()
        split: dict[int, list[int]] = {}
        for c in group:
            split.setdefault(parts[c][0] & slices[i], []).append(c)
        masks = {s: reduce(or_, (1 << c for c in members)) for s, members in split.items()}
        for s, members in split.items():
            lower = reduce(or_, (masks[t] for t in split if t != s and t & ~s == 0), 0)
            for c in members:
                below[c] |= lower
            if len(members) > 1:
                groups.append((i + 1, members))
    return PreferentialModel(
        kb, [worlds for _, worlds in parts], below, [violated for violated, _ in parts]
    )


def minimal_worlds(model: Model, f: Formula) -> int:
    """Mask of the worlds satisfying ``f`` with no strictly lower
    ``f``-world."""
    return model.minimal(model.kb.mask(f))


def satisfies(model: Model, query: Conditional) -> bool:
    """Conditional satisfaction: the consequent holds at every minimal
    antecedent world (vacuously true when the antecedent has no world)."""
    minimal = minimal_worlds(model, query.antecedent)
    return minimal & ~model.kb.mask(query.consequent) == 0


def height_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each class as the length of a longest strictly descending
    chain below it (its worlds share their predecessors, so they share it).
    Under a strict order a class has more classes below it than any class
    below it, so visiting classes by that count is a topological order.
    Reference only: ``harness`` checks ``layer_ranks`` against it."""
    heights = [0] * len(pref.below)
    for c in sorted(range(len(heights)), key=lambda c: pref.below[c].bit_count()):
        heights[c] = max((heights[p] + 1 for p in mask_indices(pref.below[c])), default=0)
    return tuple(heights)


def layer_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each class by iterated removal of minimal layers: layer 0 is
    the minima, layer i the minima of what remains.  Reference only."""
    layers = [0] * len(pref.below)
    remaining = (1 << len(layers)) - 1
    level = 0
    while remaining:
        layer = [c for c in mask_indices(remaining) if not pref.below[c] & remaining]
        if not layer:
            raise ValueError("the order has a cycle, so no layer is minimal")
        for c in layer:
            layers[c] = level
            remaining ^= 1 << c
        level += 1
    return tuple(layers)


def rank_by_height(pref: PreferentialModel) -> RankedModel:
    """Collapse a preferential model to a ranked one by class height; the
    resulting modular order extends the preferential one.  Under a strict
    order the layer of a class is its height, and peeling layers touches
    each class once per layer rather than once per class below it.
    Reference only: ``harness`` answers mpr's queries on it."""
    heights = layer_ranks(pref)
    strata = [0] * (max(heights, default=-1) + 1)
    for worlds, h in zip(pref.classes, heights):
        strata[h] |= worlds
    return RankedModel(pref.kb, strata)


def mpr_model(kb: KnowledgeBase) -> RankedModel:
    """Ranked model defining the rational extension of the MP closure:
    stratum h holds the classes of height h.  Reference only: mpr answers
    through ``least_height_worlds``, which holds no stratum."""
    return rank_by_height(preferential_refinement(kb))


def mpr_heights(kb: KnowledgeBase) -> dict[int, int]:
    """``violation_heights`` of every compatible world's class, once per KB."""
    if "mpr_heights" not in kb.cache:
        classes = violation_classes(kb, kb.truth.full)
        kb.cache["mpr_heights"] = violation_heights(kb, (v for v, _ in classes))
    return kb.cache["mpr_heights"]


def least_height_worlds(kb: KnowledgeBase, a: int) -> int:
    """mpr's minimal worlds of the world mask ``a``: those in the classes of
    least height among the classes ``a`` meets, held as that height and their
    OR while ``a``'s split streams.  They are found once per mask, so a
    query's evidence reuses its answer's split."""
    memo = kb.cache.setdefault("mpr_minimal", {})
    if a not in memo:
        heights = mpr_heights(kb)
        least, minimal = None, 0
        for violated, worlds in violation_classes(kb, a):
            if least is None or heights[violated] < least:
                least, minimal = heights[violated], 0
            if heights[violated] == least:
                minimal |= worlds
        memo[a] = minimal
    return memo[a]


def mpr_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Membership in the rational extension of the MP closure: the consequent
    holds at every least-height antecedent world (``least_height_worlds``)."""
    minimal = least_height_worlds(kb, kb.mask(query.antecedent))
    return minimal & ~kb.mask(query.consequent) == 0
