"""Model-theoretic engines over finite canonical models, held as world masks.

A world is a valuation compatible with the KB (it satisfies every
never-retracted default); a set of worlds is a truth mask over the KB's
valuation indices, as everywhere else in defq.  The minimal canonical ranked
model puts each world at the lowest chain position whose materialization it
satisfies, so its strata are the differences of consecutive chain masks.
Refining it by the set-seriousness ordering over the rational closure's rank
slices (``RankingTable.slices``) compares worlds only through their
violation sets, so the refined order is a relation on violation classes
(the worlds with one violation set, split off the compatible mask default by
default), stored as one mask per class of the class ids below it.  That
order is strict inclusion at the first differing rank slice, so it is built
slice by slice on groups of classes that agree so far.  Collapsing it by
height (longest descending chain on the class graph) ORs the classes into
strata again, and that ranked model's consequences form the rational
extension of the MP closure.  Queries are mask operations: the minimal
antecedent worlds, then one test against the consequent.  Worlds are listed
one by one only for output.  The checks on these constructions (strict
order, two height formulations) run in ``harness``, not here.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

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
    and bit p of ``below[c]`` is set when class p is strictly below class c."""

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


def _violation_classes(kb: KnowledgeBase, worlds: int) -> list[tuple[int, int]]:
    """Split a world mask into its violation classes: (class mask, violation
    mask) pairs, one per violation set that some world has; bit d of the
    violation mask is set when the class's worlds violate default d."""
    parts = [(worlds, 0)]
    for d, mask in enumerate(kb.default_masks):
        split = []
        while parts:  # consumed as it is split, so one copy of the worlds is held
            part, violated = parts.pop()
            kept = part & mask
            if kept:
                split.append((kept, violated))
            if kept != part:
                split.append((part ^ kept, violated | 1 << d))
        parts = split
    return parts


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
    ``UnsatisfiableKB`` when the KB has no model.
    """
    worlds = minimal_canonical_model(kb).world_mask
    slices = compute_ranking(kb).slices
    parts = _violation_classes(kb, worlds)
    below = [0] * len(parts)
    groups = [(0, list(range(len(parts))))]
    while groups:
        i, group = groups.pop()
        split: dict[int, list[int]] = {}
        for c in group:
            split.setdefault(parts[c][1] & slices[i], []).append(c)
        masks = {s: reduce(or_, (1 << c for c in members)) for s, members in split.items()}
        for s, members in split.items():
            lower = reduce(or_, (masks[t] for t in split if t != s and t & ~s == 0), 0)
            for c in members:
                below[c] |= lower
            if len(members) > 1:
                groups.append((i + 1, members))
    return PreferentialModel(
        kb, [worlds for worlds, _ in parts], below, [violated for _, violated in parts]
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
    The engines and ``defq model`` use ``layer_ranks``; ``harness`` checks
    it against this."""
    heights = [0] * len(pref.below)
    for c in sorted(range(len(heights)), key=lambda c: pref.below[c].bit_count()):
        heights[c] = max((heights[p] + 1 for p in mask_indices(pref.below[c])), default=0)
    return tuple(heights)


def layer_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each class by iterated removal of minimal layers: layer 0 is
    the minima, layer i the minima of what remains."""
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
    each class once per layer rather than once per class below it."""
    heights = layer_ranks(pref)
    strata = [0] * (max(heights, default=-1) + 1)
    for worlds, h in zip(pref.classes, heights):
        strata[h] |= worlds
    return RankedModel(pref.kb, strata)


def mpr_model(kb: KnowledgeBase) -> RankedModel:
    """Ranked model defining the rational extension of the MP closure."""
    cached = kb.cache.get("mpr_model")
    if cached is not None:
        return cached
    model = rank_by_height(preferential_refinement(kb))
    kb.cache["mpr_model"] = model
    return model


def mpr_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Membership in the rational extension of the MP closure."""
    return satisfies(mpr_model(kb), query)
