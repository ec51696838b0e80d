"""Model-theoretic engines over finite canonical models, held as world masks.

A world is a valuation compatible with the KB (it satisfies every
never-retracted default); a set of worlds is a truth mask over the KB's
valuation indices, as everywhere else in defq.  The minimal canonical ranked
model puts each world at the lowest chain position whose materialization it
satisfies, so its strata are the differences of consecutive chain masks.
Refining it by the set-seriousness ordering compares worlds only through
their violation sets, so the refined order is a relation on violation classes
(the worlds with one violation set, split off the compatible mask default by
default), stored as class-id pairs.  Collapsing it by height (longest
descending chain on the class graph) ORs the classes into strata again, and
that ranked model's consequences form the rational extension of the MP
closure.  Queries are mask operations: the minimal antecedent worlds, then
one test against the consequent.  Worlds are listed one by one only for
output.  The checks on these constructions (strict order, two height
formulations) run in ``harness``, not here.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .closures import _set_tuple_less
from .logic import Formula, LogicError, mask_indices
from .ranking import INF, Conditional, KnowledgeBase, Rank, RankingTable, compute_ranking


class UnsatisfiableKB(LogicError):
    """No valuation satisfies the KB's materialization: no models exist."""


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
        """Valuation indices of the worlds, ascending."""
        return tuple(mask_indices(self.world_mask))

    def formula_rank(self, f: Formula) -> int | None:
        """Least rank of a world satisfying ``f``; None when no world does."""
        a = self.kb.truth.mask(f)
        return next((r for r, stratum in enumerate(self.strata) if stratum & a), None)

    def minimal(self, a: int) -> int:
        return next((stratum & a for stratum in self.strata if stratum & a), 0)


class PreferentialModel:
    """Finite preferential interpretation whose strict order is stored on
    violation classes: ``classes[c]`` is the world mask of class c, and
    ``below`` holds the (lower, higher) class-id pairs."""

    def __init__(
        self, kb: KnowledgeBase, classes: Sequence[int], below: Iterable[tuple[int, int]]
    ):
        self.kb = kb
        self.classes = tuple(classes)
        self.below = frozenset(below)

    def violated(self, c: int) -> frozenset[int]:
        """The violation set shared by the worlds of class c."""
        worlds = self.classes[c]
        return frozenset(d for d, mask in enumerate(self.kb.default_masks) if worlds & ~mask)

    def minimal(self, a: int) -> int:
        holders = {c for c, worlds in enumerate(self.classes) if worlds & a}
        blocked = {y for x, y in self.below if x in holders}
        return reduce(or_, (self.classes[c] for c in holders - blocked), 0) & a


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
    chain_masks = [kb.members_mask(members) for members in rt.chain]
    if chain_masks[-1] == 0:
        raise UnsatisfiableKB("no valuation satisfies the knowledge base")
    strata = [chain_masks[0]]
    strata.extend(mask & ~prev for prev, mask in zip(chain_masks, chain_masks[1:]))
    if not strata[-1]:
        strata.pop()
    model = RankedModel(kb, strata)
    kb.cache["min_canonical"] = model
    return model


def _model_default_ranks(model: RankedModel, kb: KnowledgeBase) -> tuple[Rank, ...]:
    """Rank of each default's antecedent inside the model (INF when the
    antecedent holds at no world)."""
    ranks = (model.formula_rank(c.antecedent) for c in kb.conditionals)
    return tuple(INF if r is None else r for r in ranks)


def _violation_view(
    members: frozenset[int], default_ranks: tuple[Rank, ...], top: int
) -> tuple[frozenset[int], ...]:
    """Rank partition of a violation set in comparison order (infinite slice
    first, then ranks high to low), using the model's own default ranks."""
    slices: list[set[int]] = [set() for _ in range(top + 1)]
    for d in members:
        r = default_ranks[d]
        if r == INF:
            slices[0].add(d)
        else:
            slices[top - int(r)].add(d)
    return tuple(frozenset(s) for s in slices)


def _violation_classes(kb: KnowledgeBase, worlds: int) -> list[tuple[int, frozenset[int]]]:
    """Split a world mask into its violation classes: (class mask, violation
    set) pairs, one per violation set that some world has."""
    parts = [(worlds, frozenset())]
    for d, mask in enumerate(kb.default_masks):
        split = []
        for part, violated in parts:
            kept = part & mask
            if kept:
                split.append((kept, violated))
            if kept != part:
                split.append((part ^ kept, violated | {d}))
        parts = split
    return parts


def preferential_refinement(model: RankedModel, kb: KnowledgeBase) -> PreferentialModel:
    """Refine a ranked model: order worlds by the seriousness of their
    violation sets (set ordering over the model's rank partition).

    Each violation class's view is compared once per ordered class pair.  On
    the minimal canonical model the model ranks coincide with the computed
    default ranks, so this is the violation-set ordering used by the MP
    closure; the refined order extends the rank order and stays a model of
    the KB.
    """
    default_ranks = _model_default_ranks(model, kb)
    parts = _violation_classes(kb, model.world_mask)
    views = [_violation_view(v, default_ranks, len(model.strata)) for _, v in parts]
    below = [
        (cx, cy)
        for cx, vx in enumerate(views)
        for cy, vy in enumerate(views)
        if _set_tuple_less(vx, vy)
    ]
    return PreferentialModel(kb, [worlds for worlds, _ in parts], below)


def minimal_worlds(model: Model, f: Formula) -> int:
    """Mask of the worlds satisfying ``f`` with no strictly lower
    ``f``-world."""
    return model.minimal(model.kb.truth.mask(f))


def satisfies(model: Model, query: Conditional) -> bool:
    """Conditional satisfaction: the consequent holds at every minimal
    antecedent world (vacuously true when the antecedent has no world)."""
    minimal = minimal_worlds(model, query.antecedent)
    return minimal & ~model.kb.truth.mask(query.consequent) == 0


def _class_predecessors(pref: PreferentialModel) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in pref.classes]
    for x, y in pref.below:
        preds[y].append(x)
    return preds


def height_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each class as the length of a longest strictly descending
    chain below it (its worlds share their predecessors, so they share it)."""
    preds = _class_predecessors(pref)
    heights: dict[int, int] = {}

    def height(c: int) -> int:
        cached = heights.get(c)
        if cached is not None:
            return cached
        h = 0
        for p in preds[c]:
            h = max(h, height(p) + 1)
        heights[c] = h
        return h

    return tuple(height(c) for c in range(len(preds)))


def layer_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each class by iterated removal of minimal layers: layer 0 is
    the minima, layer i the minima of what remains."""
    preds = _class_predecessors(pref)
    layers: dict[int, int] = {}
    remaining = set(range(len(preds)))
    level = 0
    while remaining:
        minimal = {c for c in remaining if not any(x in remaining for x in preds[c])}
        for c in minimal:
            layers[c] = level
        remaining -= minimal
        level += 1
    return tuple(layers[c] for c in range(len(preds)))


def rank_by_height(pref: PreferentialModel) -> RankedModel:
    """Collapse a preferential model to a ranked one by class height; the
    resulting modular order extends the preferential one."""
    heights = height_ranks(pref)
    strata = [0] * (max(heights, default=-1) + 1)
    for worlds, h in zip(pref.classes, heights):
        strata[h] |= worlds
    return RankedModel(pref.kb, strata)


def mpr_model(kb: KnowledgeBase, rt: RankingTable | None = None) -> RankedModel:
    """Ranked model defining the rational extension of the MP closure."""
    cached = kb.cache.get("mpr_model")
    if cached is not None:
        return cached
    base = minimal_canonical_model(kb, rt)
    model = rank_by_height(preferential_refinement(base, kb))
    kb.cache["mpr_model"] = model
    return model


def mpr_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Membership in the rational extension of the MP closure."""
    return satisfies(mpr_model(kb, rt), query)


def is_refinement_fixed_point(
    model: RankedModel, kb: KnowledgeBase, rt: RankingTable | None = None
) -> bool:
    """True iff refining and collapsing by height reproduces the model's own
    strata."""
    return rank_by_height(preferential_refinement(model, kb)).strata == model.strata
