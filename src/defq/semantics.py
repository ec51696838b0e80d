"""Model-theoretic engines over finite canonical models.

The minimal canonical ranked model holds one world per valuation compatible
with the KB (compatible = satisfies every never-retracted default), each at
the lowest chain position whose materialization it satisfies.  Refining it
by the set-seriousness ordering compares worlds only through their violation
sets, so the refined order is a relation on violation classes (worlds with
equal violation sets), stored as class-id pairs.  Collapsing it by height
(longest descending chain, computed on the class graph) yields a ranked
model again, whose consequences form the rational extension of the MP
closure.  The checks on these constructions (strict order, two height
formulations) run in ``harness``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .closures import _set_tuple_less
from .logic import Formula, LogicError, Valuation
from .ranking import (
    INF,
    Conditional,
    KnowledgeBase,
    Rank,
    RankingTable,
    compute_ranking,
    violated_defaults,
)


class UnsatisfiableKB(LogicError):
    """No valuation satisfies the KB's materialization: no models exist."""


@dataclass(frozen=True)
class World:
    """One world per compatible valuation; ``valuation.bits`` doubles as the
    valuation index in the KB's truth tables."""

    id: int
    valuation: Valuation


class RankedModel:
    """Finite ranked interpretation: worlds plus a rank function.

    The strict modular order is rank comparison; some world always has
    rank 0.
    """

    def __init__(self, kb: KnowledgeBase, worlds: Sequence[World], ranks: Sequence[int]):
        if len(worlds) != len(ranks):
            raise ValueError("one rank per world required")
        if worlds and min(ranks) != 0:
            raise ValueError("some world must have rank 0")
        self.kb = kb
        self.worlds = tuple(worlds)
        self.ranks = tuple(ranks)

    def world_satisfies(self, world: World, f: Formula) -> bool:
        return self.kb.truth.satisfies(world.valuation.bits, f)

    def formula_rank(self, f: Formula) -> int | None:
        """Least rank of a world satisfying ``f``; None when no world does."""
        best: int | None = None
        for w in self.worlds:
            if self.world_satisfies(w, f) and (best is None or self.ranks[w.id] < best):
                best = self.ranks[w.id]
        return best

    def strictly_below(self, x: World, y: World) -> bool:
        return self.ranks[x.id] < self.ranks[y.id]

    def max_rank(self) -> int:
        return max(self.ranks, default=0)


class PreferentialModel:
    """Finite preferential interpretation whose strict order is stored on
    violation classes: ``classes[w.id]`` is world w's class id, and ``below``
    holds the (lower, higher) class-id pairs."""

    def __init__(
        self,
        kb: KnowledgeBase,
        worlds: Sequence[World],
        classes: Sequence[int],
        below: Iterable[tuple[int, int]],
    ):
        self.kb = kb
        self.worlds = tuple(worlds)
        self.classes = tuple(classes)
        self.below = frozenset(below)

    def world_satisfies(self, world: World, f: Formula) -> bool:
        return self.kb.truth.satisfies(world.valuation.bits, f)

    def strictly_below(self, x: World, y: World) -> bool:
        return (self.classes[x.id], self.classes[y.id]) in self.below


Model = RankedModel | PreferentialModel


def minimal_canonical_model(kb: KnowledgeBase, rt: RankingTable | None = None) -> RankedModel:
    """The minimal canonical ranked model of a satisfiable KB.

    Worlds are all valuations satisfying the stable chain tail's
    materialization (exactly the compatible ones over a finite signature);
    each world sinks to the least chain position it satisfies.
    """
    cached = kb.cache.get("min_canonical")
    if cached is not None:
        return cached
    rt = rt or compute_ranking(kb)
    tt = kb.truth
    chain_masks = [kb.members_mask(members) for members in rt.chain]
    if chain_masks[-1] == 0:
        raise UnsatisfiableKB("no valuation satisfies the knowledge base")
    atoms = kb.signature.atoms
    worlds: list[World] = []
    ranks: list[int] = []
    for j in range(1 << tt.n):
        if not (chain_masks[-1] >> j) & 1:
            continue
        rank = next(i for i, mask in enumerate(chain_masks) if (mask >> j) & 1)
        worlds.append(World(len(worlds), Valuation(atoms, j)))
        ranks.append(rank)
    model = RankedModel(kb, worlds, ranks)
    kb.cache["min_canonical"] = model
    return model


def _model_default_ranks(model: RankedModel, kb: KnowledgeBase) -> tuple[Rank, ...]:
    """Rank of each default's antecedent inside the model (INF when the
    antecedent holds at no world)."""
    ranks: list[Rank] = []
    for c in kb.conditionals:
        r = model.formula_rank(c.antecedent)
        ranks.append(INF if r is None else r)
    return tuple(ranks)


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


def preferential_refinement(model: RankedModel, kb: KnowledgeBase) -> PreferentialModel:
    """Refine a ranked model: order worlds by the seriousness of their
    violation sets (set ordering over the model's rank partition).

    Each distinct violation set is one class; the classes' views are
    compared once per ordered pair.  On the minimal canonical model the model
    ranks coincide with the computed default ranks, so this is the
    violation-set ordering used by the MP closure; the refined order extends
    the rank order and stays a model of the KB.
    """
    default_ranks = _model_default_ranks(model, kb)
    top = model.max_rank() + 1
    class_of: dict[frozenset[int], int] = {}
    classes = [
        class_of.setdefault(violated_defaults(w.valuation, kb), len(class_of))
        for w in model.worlds
    ]
    views = [_violation_view(v, default_ranks, top) for v in class_of]
    below = [
        (cx, cy)
        for cx, vx in enumerate(views)
        for cy, vy in enumerate(views)
        if _set_tuple_less(vx, vy)
    ]
    return PreferentialModel(kb, model.worlds, classes, below)


def minimal_worlds(model: Model, f: Formula) -> tuple[World, ...]:
    """Worlds satisfying ``f`` with no strictly lower ``f``-world."""
    holders = [w for w in model.worlds if model.world_satisfies(w, f)]
    return tuple(
        w for w in holders if not any(model.strictly_below(z, w) for z in holders)
    )


def satisfies(model: Model, query: Conditional) -> bool:
    """Conditional satisfaction: the consequent holds at every minimal
    antecedent world (vacuously true when the antecedent has no world)."""
    return all(
        model.world_satisfies(w, query.consequent)
        for w in minimal_worlds(model, query.antecedent)
    )


def _class_predecessors(pref: PreferentialModel) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(max(pref.classes, default=-1) + 1)]
    for x, y in pref.below:
        preds[y].append(x)
    return preds


def height_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each world as the length of a longest strictly descending
    chain below it.  Worlds of one class share their predecessors, so the
    heights are computed on the class graph."""
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

    return tuple(height(c) for c in pref.classes)


def layer_ranks(pref: PreferentialModel) -> tuple[int, ...]:
    """Rank of each world by iterated removal of minimal layers: layer 0 is
    the minima, layer i the minima of what remains (on the class graph)."""
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
    return tuple(layers[c] for c in pref.classes)


def rank_by_height(pref: PreferentialModel) -> RankedModel:
    """Collapse a preferential model to a ranked one by world height; the
    resulting modular order extends the preferential one."""
    return RankedModel(pref.kb, pref.worlds, height_ranks(pref))


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
    rank function (same worlds and valuations assumed)."""
    collapsed = rank_by_height(preferential_refinement(model, kb))
    return collapsed.ranks == model.ranks
