"""Seriousness orderings over default sets and the syntactic closures.

Two orderings compare subsets of the knowledge base through their
rank-partition: the count ordering (lexicographic on per-rank cardinalities,
most specific rank first) drives the lexicographic closure; the set ordering
(strict inclusion at the first differing rank slice) drives the MP closure.
Query answering enumerates the ordering-maximal subsets whose materialization
is consistent with the antecedent and checks the consequent against each.

Also here: inclusion-minimal refuting subsets (justifications), the basic and
minimal relevant closures built on them, and the subset-strategy world
comparator that mirrors the MP ordering on violation sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .logic import Formula, Valuation
from .ranking import (
    INF,
    Conditional,
    KnowledgeBase,
    Rank,
    RankingTable,
    rank_of_formula,
    violated_defaults,
)

LC = "lc"
MP = "mp"

BASIC = "basic"
MINIMAL = "minimal"

DefaultSet = frozenset[int]


@dataclass(frozen=True)
class RankPartition:
    """A default set split by rank: the infinite slice plus one slice per
    finite rank below the order of the KB."""

    infinite: DefaultSet
    by_rank: tuple[DefaultSet, ...]

    def tuple_view(self) -> tuple[DefaultSet, ...]:
        """Slices in comparison order: infinite first, then ranks high to low."""
        return (self.infinite,) + tuple(reversed(self.by_rank))


def partition(members: Iterable[int], rt: RankingTable) -> RankPartition:
    """Split ``members`` into the infinite slice and one slice per finite rank."""
    finite: list[set[int]] = [set() for _ in range(rt.order_k)]
    infinite: set[int] = set()
    for d in members:
        r = rt.default_ranks[d]
        if r == INF:
            infinite.add(d)
        else:
            finite[int(r)].add(d)
    return RankPartition(frozenset(infinite), tuple(frozenset(p) for p in finite))


def numeric_tuple(members: Iterable[int], rt: RankingTable) -> tuple[int, ...]:
    """Cardinality image of the rank partition, comparison order."""
    return tuple(len(part) for part in partition(members, rt).tuple_view())


def lex_less_serious(d: Iterable[int], b: Iterable[int], rt: RankingTable) -> bool:
    """Count ordering: d strictly precedes b lexicographically on slice sizes."""
    return numeric_tuple(d, rt) < numeric_tuple(b, rt)


def _set_tuple_less(dv: Sequence[DefaultSet], bv: Sequence[DefaultSet]) -> bool:
    for x, y in zip(dv, bv):
        if x == y:
            continue
        return x < y  # strict subset at the first differing slice
    return False


def mp_less_serious(d: Iterable[int], b: Iterable[int], rt: RankingTable) -> bool:
    """Set ordering: strict inclusion at the first differing rank slice,
    scanning the infinite slice first, then finite ranks high to low."""
    return _set_tuple_less(
        partition(d, rt).tuple_view(), partition(b, rt).tuple_view()
    )


# ---------------------------------------------------------------------------
# Base enumeration
# ---------------------------------------------------------------------------


def _consistent_inclusion_maximal(kb: KnowledgeBase, antecedent: Formula) -> list[DefaultSet]:
    """Inclusion-maximal default sets whose materialization is consistent
    with the antecedent.

    Every ordering-maximal set is inclusion-maximal (supersets dominate in
    both orderings), so the search space can be narrowed here.  Depth-first
    over the index list with mask pruning: once the running conjunction is
    empty no superset can recover.
    """
    imp_masks = kb.default_masks
    start = kb.truth.mask(antecedent)
    found: list[tuple[frozenset[int], int]] = []

    def descend(i: int, mask: int, chosen: tuple[int, ...]) -> None:
        if mask == 0:
            return
        if i == len(imp_masks):
            found.append((frozenset(chosen), mask))
            return
        descend(i + 1, mask & imp_masks[i], chosen + (i,))
        descend(i + 1, mask, chosen)

    descend(0, start, ())
    maximal = [
        members
        for members, mask in found
        if all(d in members or mask & imp_masks[d] == 0 for d in range(len(imp_masks)))
    ]
    return maximal


def enumerate_bases(
    kb: KnowledgeBase, rt: RankingTable, antecedent: Formula, ordering: str
) -> tuple[DefaultSet, ...]:
    """All ordering-maximal default sets consistent with the antecedent.

    The antecedent must have finite rank (callers decide rank-infinite
    queries without bases).  The result is never empty and is sorted by
    index tuple for reproducible output.
    """
    if ordering not in (LC, MP):
        raise ValueError(f"unknown ordering {ordering!r}")
    memo = kb.cache.setdefault("bases", {})
    key = (ordering, antecedent)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if rank_of_formula(antecedent, rt, kb) == INF:
        raise ValueError("antecedent has infinite rank; no bases exist")

    candidates = _consistent_inclusion_maximal(kb, antecedent)
    if ordering == LC:
        best = max(numeric_tuple(c, rt) for c in candidates)
        bases = [c for c in candidates if numeric_tuple(c, rt) == best]
    else:
        views = [(c, partition(c, rt).tuple_view()) for c in candidates]
        bases = [
            c
            for c, view in views
            if not any(other is not c and _set_tuple_less(view, vo) for other, vo in views)
        ]
    result = tuple(sorted(bases, key=sorted))
    memo[key] = result
    return result


def _skeptical_over_bases(
    kb: KnowledgeBase, rt: RankingTable, query: Conditional, ordering: str
) -> bool:
    if rank_of_formula(query.antecedent, rt, kb) == INF:
        return True
    tt = kb.truth
    counter_models = tt.mask(query.antecedent) & ~tt.mask(query.consequent)
    return all(
        kb.members_mask(base) & counter_models == 0
        for base in enumerate_bases(kb, rt, query.antecedent, ordering)
    )


def lc_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Lexicographic-closure membership: the consequent follows from every
    count-ordering basis for the antecedent."""
    return _skeptical_over_bases(kb, rt, query, LC)


def mp_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """MP-closure membership: the consequent follows from every set-ordering
    basis for the antecedent."""
    return _skeptical_over_bases(kb, rt, query, MP)


# ---------------------------------------------------------------------------
# Justifications and the relevant closures
# ---------------------------------------------------------------------------


def find_justifications(kb: KnowledgeBase, antecedent: Formula) -> tuple[DefaultSet, ...]:
    """Inclusion-minimal default sets whose materialization refutes the
    antecedent; empty iff the whole KB is consistent with it."""
    memo = kb.cache.setdefault("justifications", {})
    cached = memo.get(antecedent)
    if cached is not None:
        return cached

    a_mask = kb.truth.mask(antecedent)
    k = len(kb)

    def conj(bits: int) -> int:
        return a_mask & kb.members_mask(i for i in range(k) if bits >> i & 1)

    minimal: list[DefaultSet] = []
    for bits in range(1 << k):
        if conj(bits) != 0:
            continue
        if all(conj(bits & ~(1 << i)) != 0 for i in range(k) if bits >> i & 1):
            minimal.append(frozenset(i for i in range(k) if bits >> i & 1))
    result = tuple(sorted(minimal, key=sorted))
    memo[antecedent] = result
    return result


@dataclass(frozen=True)
class RelevantTrace:
    """Everything needed to recheck a relevant-closure answer by hand."""

    variant: str
    justifications: tuple[DefaultSet, ...]
    relevant: DefaultSet
    removed: DefaultSet
    remainder: DefaultSet
    used_fallback: bool
    answer: bool


def relevant_trace(
    kb: KnowledgeBase, rt: RankingTable, query: Conditional, variant: str
) -> RelevantTrace:
    """Run the relevant-closure procedure and keep its intermediate sets.

    The relevant set is the union of the justifications (basic variant) or of
    their lowest-rank slices (minimal variant).  Relevant defaults are
    removed rank by rank, lowest first, until the remainder is consistent
    with the antecedent.  A finite-rank antecedent always reaches consistency
    within the finite ranks; the whole-relevant-set fallback is kept as a
    guard and flagged if it ever fires.
    """
    if variant not in (BASIC, MINIMAL):
        raise ValueError(f"unknown variant {variant!r}")
    antecedent = query.antecedent
    justifications = find_justifications(kb, antecedent)
    if variant == BASIC:
        relevant = frozenset().union(*justifications) if justifications else frozenset()
    else:
        slices = []
        for j in justifications:
            low = min(rt.default_ranks[d] for d in j)
            slices.append(frozenset(d for d in j if rt.default_ranks[d] == low))
        relevant = frozenset().union(*slices) if slices else frozenset()

    tt = kb.truth
    a_mask = tt.mask(antecedent)
    remainder = set(kb.indices)
    removed: set[int] = set()
    used_fallback = False

    def consistent() -> bool:
        return kb.members_mask(remainder) & a_mask != 0

    if not consistent():
        for rank in range(rt.order_k):
            step = {d for d in relevant if rt.default_ranks[d] == rank}
            removed |= step
            remainder -= step
            if consistent():
                break
        else:
            used_fallback = True
            removed = set(relevant)
            remainder = set(kb.indices) - removed

    answer = kb.members_mask(remainder) & a_mask & ~tt.mask(query.consequent) == 0
    return RelevantTrace(
        variant=variant,
        justifications=justifications,
        relevant=relevant,
        removed=frozenset(removed),
        remainder=frozenset(remainder),
        used_fallback=used_fallback,
        answer=answer,
    )


def relevant_query(
    kb: KnowledgeBase, rt: RankingTable, query: Conditional, variant: str
) -> bool:
    """Basic or minimal relevant-closure membership.

    Rank-infinite antecedents are accepted outright, mirroring the other
    closures on impossible antecedents.
    """
    if rank_of_formula(query.antecedent, rt, kb) == INF:
        return True
    return relevant_trace(kb, rt, query, variant).answer


# ---------------------------------------------------------------------------
# Subset-strategy world comparator
# ---------------------------------------------------------------------------


def _satisfied_slices(
    m: Valuation, kb: KnowledgeBase, rt: RankingTable
) -> list[DefaultSet]:
    """Per-rank sets of defaults satisfied at ``m``, ranks ascending with the
    infinite slice last (treated as the highest rank)."""
    violated = violated_defaults(m, kb)
    rank_values: list[Rank] = list(range(rt.order_k)) + [INF]
    return [
        frozenset(
            d
            for d in range(len(kb))
            if rt.default_ranks[d] == r and d not in violated
        )
        for r in rank_values
    ]


def _weakly_subset_preferred(s1: Sequence[DefaultSet], s2: Sequence[DefaultSet]) -> bool:
    n = len(s1)
    if all(s1[i] == s2[i] for i in range(n)):
        return True
    return any(
        s1[i] > s2[i] and all(s1[j] == s2[j] for j in range(i + 1, n))
        for i in range(n)
    )


def brewka_subset_less(
    m1: Valuation, m2: Valuation, kb: KnowledgeBase, rt: RankingTable
) -> bool:
    """Strict subset-strategy preference between two valuations.

    The materialized defaults form a ranked base (computed ranks, infinite
    slice highest).  m1 is weakly preferred to m2 when the per-rank satisfied
    sets all coincide, or m1's set is a strict superset at some rank with
    agreement at every higher rank; strict preference is weak preference in
    one direction only.  This is an independent route to the set ordering on
    violation sets and is tested for agreement with it pair by pair.
    """
    s1 = _satisfied_slices(m1, kb, rt)
    s2 = _satisfied_slices(m2, kb, rt)
    return _weakly_subset_preferred(s1, s2) and not _weakly_subset_preferred(s2, s1)
