"""Slow reference definitions that the tests hold the engines to.

The core definitions use no truth masks, rank-slice masks or default masks:
``evaluate`` walks the formula at one valuation, ``violated`` evaluates each
default there, and ``partition`` splits a default set into frozenset rank
slices the way the seriousness orderings are defined.  The last section
holds checks that only tests ask for (entailment, consistency,
exceptionality, refinement fixed points), written on the public engine
calls.
"""

from typing import Iterable, Mapping, NamedTuple, Sequence

from defq import INF, Formula, minimal_canonical_model, preferential_refinement, rank_by_height


def valuation(atoms: Sequence[str], j: int) -> dict[str, bool]:
    """The valuation with index j: atom ``atoms[i]`` is true iff bit i of j is set."""
    return {name: bool(j >> i & 1) for i, name in enumerate(atoms)}


def true_atoms(atoms: Sequence[str], j: int) -> tuple[str, ...]:
    return tuple(name for i, name in enumerate(atoms) if j >> i & 1)


def evaluate(f: Formula, v: Mapping[str, bool]) -> bool:
    """Classical truth of ``f`` under the valuation ``v``."""
    op = f.op
    if op == "atom":
        return v[f.args[0]]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "not":
        return not evaluate(f.args[0], v)
    a = evaluate(f.args[0], v)
    if op == "and":
        return a and evaluate(f.args[1], v)
    if op == "or":
        return a or evaluate(f.args[1], v)
    if op == "implies":
        return (not a) or evaluate(f.args[1], v)
    if op == "iff":
        return a == evaluate(f.args[1], v)
    raise ValueError(f"unknown operator {op!r}")


def violated(kb, j: int) -> frozenset[int]:
    """Indices of the defaults whose antecedent holds and consequent fails
    at the valuation with index j."""
    v = valuation(kb.signature.atoms, j)
    return frozenset(
        d
        for d, c in enumerate(kb.conditionals)
        if evaluate(c.antecedent, v) and not evaluate(c.consequent, v)
    )


class RankPartition(NamedTuple):
    """A default set split by rank: the infinite slice plus one slice per
    finite rank below ``top``."""

    infinite: frozenset[int]
    by_rank: tuple[frozenset[int], ...]

    def tuple_view(self) -> tuple[frozenset[int], ...]:
        """Slices in comparison order: infinite first, then ranks high to low."""
        return (self.infinite,) + tuple(reversed(self.by_rank))


def partition(members: Iterable[int], default_ranks: Sequence, top: int) -> RankPartition:
    """Split ``members`` into the infinite slice and one slice per finite
    rank below ``top``."""
    finite: list[set[int]] = [set() for _ in range(top)]
    infinite: set[int] = set()
    for d in members:
        r = default_ranks[d]
        if r == INF:
            infinite.add(d)
        else:
            finite[int(r)].add(d)
    return RankPartition(frozenset(infinite), tuple(frozenset(p) for p in finite))


def view(members: Iterable[int], rt) -> tuple[frozenset[int], ...]:
    """The rank slices of ``members`` under a ranking table, comparison order."""
    return partition(members, rt.default_ranks, rt.order_k).tuple_view()


def set_tuple_less(dv: Sequence[frozenset[int]], bv: Sequence[frozenset[int]]) -> bool:
    """Set ordering on slice tuples: strict subset at the first differing slice."""
    for x, y in zip(dv, bv):
        if x != y:
            return x < y
    return False


def default_mask(members: Iterable[int]) -> int:
    """The default mask (bit d for default d) of a collection of indices."""
    return sum(1 << d for d in set(members))


# ---------------------------------------------------------------------------
# Checks only the tests ask for
# ---------------------------------------------------------------------------


def entails(tt, premises: Iterable[Formula], goal: Formula) -> bool:
    """True iff every valuation satisfying all premises satisfies the goal."""
    return tt.conjunction_mask(premises) & (tt.full ^ tt.mask(goal)) == 0


def is_consistent(tt, formulas: Iterable[Formula]) -> bool:
    """True iff some valuation over the table's signature satisfies every formula."""
    return tt.conjunction_mask(formulas) != 0


def is_exceptional(a: Formula, members: Iterable[int], kb) -> bool:
    """True iff the materialization of the defaults with the given indices
    refutes ``a``."""
    tt = kb.truth
    formulas = [kb.conditionals[d].materialization() for d in members]
    return not is_consistent(tt, formulas + [a])


def is_refinement_fixed_point(kb) -> bool:
    """True iff refining the KB's minimal canonical model and collapsing by
    height reproduces the canonical model's own strata."""
    return rank_by_height(preferential_refinement(kb)).strata == minimal_canonical_model(kb).strata
