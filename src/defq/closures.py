"""Seriousness orderings over default sets and the syntactic closures.

A set of defaults is a default mask (bit d for default d) here, as in
``ranking``.  Two orderings compare such sets through their rank slices,
the masks ``RankingTable.slices``: the count ordering (lexicographic
on slice sizes, most specific rank first) drives the lexicographic closure;
the set ordering (strict inclusion at the first differing rank slice) drives
the MP closure.
Query answering finds the ordering-maximal subsets whose materialization is
consistent with the antecedent and checks the consequent against each.

Also here: inclusion-minimal refuting subsets (justifications), the basic and
minimal relevant closures built on them, and the six engines by CLI method
id, one at a time or all six on one query.

All four closures read one family of default sets, those consistent with
the antecedent.  One loop, ``consistent_family``, lists both of its borders:
the inclusion-maximal consistent sets, which the orderings filter into
bases, and the minimal sets outside the family (the justifications), which
are the minimal hitting sets of the maximal sets' complements.  The loop
grows a set only into a new maximal one, so its rounds follow the two
borders, not the subsets of the KB.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .logic import Formula, mask_indices
from .ranking import (
    INF,
    Conditional,
    KnowledgeBase,
    RankingTable,
    compute_ranking,
    per_kb,
    rank_of_formula,
    rc_query,
)

LC = "lc"
MP = "mp"

BASIC = "basic-relevant"
MINIMAL = "minimal-relevant"

METHODS = ("rc", MP, LC, BASIC, MINIMAL, "mpr")


def numeric_tuple(members: int, rt: RankingTable) -> tuple[int, ...]:
    """Slice sizes of the default mask ``members``, in comparison order."""
    return tuple((members & s).bit_count() for s in rt.slices)


def lex_less_serious(d: int, b: int, rt: RankingTable) -> bool:
    """Count ordering: d strictly precedes b lexicographically on slice sizes."""
    return numeric_tuple(d, rt) < numeric_tuple(b, rt)


def mp_less_serious(d: int, b: int, rt: RankingTable) -> bool:
    """Set ordering: at the first rank slice where the default masks d and
    b differ, d's part is a strict subset of b's; the infinite slice is
    scanned first, then finite ranks high to low."""
    diff = d ^ b
    for s in rt.slices:
        if diff & s:
            return d & diff & s == 0
    return False


def _index_order(members: int) -> list[int]:
    """Sort key that lists default sets by their ascending index lists."""
    return list(mask_indices(members))


# ---------------------------------------------------------------------------
# Maximal consistent sets and bases
# ---------------------------------------------------------------------------


@per_kb("family", lambda antecedent: antecedent)
def consistent_family(
    kb: KnowledgeBase, antecedent: Formula
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(maximal, refuting)``: the inclusion-maximal default sets whose
    materialization is consistent with the antecedent, and the
    inclusion-minimal ones that refute it (the justifications), each as
    default masks sorted by index list.

    A set refutes the antecedent iff it lies inside no maximal consistent
    set, that is, iff it meets the complement of each, so the justifications
    are the minimal hitting sets of those complements (Reiter 1987).  One
    loop finds both families (Bailey & Stuckey, "dualize and advance",
    PADL 2005).  It keeps the minimal hitting sets of the complements of the
    maximal sets found so far, starting from the empty set, and pops them
    one at a time:

    - a consistent one grows, default by default in index order, into a
      maximal consistent set, which is new because the set it grew from
      meets every complement found before;
    - an inconsistent one is a justification, since each proper subset
      misses some complement, so lies inside a maximal set.

    A new maximal set's complement updates the hitting sets (Berge): a set
    that meets it stays, each other set grows by one default of it, and a
    grown set is kept unless a set that stayed lies inside it.  The sets
    before a step are minimal, so none holds another, and no other test is
    needed:

    - a set s that stayed never holds a grown set h + d: it would hold h,
      and h is not s, since h misses the complement that s meets;
    - a grown set h + d inside another, h' + d', has d = d', since h'
      misses the complement that holds d; then h lies inside h', so h = h'
      and the two are one set.

    The justifications found meet every later complement, so they always
    stay and never grow, and they sit outside that test: a grown set that
    holds one is inconsistent, waits on the list and is dropped when it is
    popped.  Only a consistent pop grows the list, and each finds a new one
    of finitely many maximal sets, so the loop ends.  It ends with every
    hitting set inconsistent, and then every maximal set has been found:
    one not found would meet every complement, so it would hold a hitting
    set, and that set would be consistent.  An unsatisfiable antecedent
    refutes the empty set, so it gives ``((), (0,))``.
    """
    a = kb.mask(antecedent)
    masks = kb.default_masks
    everything = (1 << len(kb)) - 1
    maximal: list[int] = []
    refuting: list[int] = []
    pending = [0]
    while pending:
        hitting = pending.pop()  # the newest first: the list stays short
        mask = a & kb.members_mask(hitting)
        if not mask:
            if not any(j & ~hitting == 0 for j in refuting):
                refuting.append(hitting)
            continue
        top = hitting
        for d in mask_indices(everything & ~hitting):
            kept = mask & masks[d]
            if kept:
                mask = kept
                top |= 1 << d
        maximal.append(top)
        complement = everything & ~top
        added = [1 << d for d in mask_indices(complement)]
        stayed = [h for h in pending if h & complement]
        missed = [hitting] + [h for h in pending if not h & complement]
        pending = stayed + [
            g for g in (h | b for h in missed for b in added) if not any(s & ~g == 0 for s in stayed)
        ]
    return tuple(sorted(maximal, key=_index_order)), tuple(sorted(refuting, key=_index_order))


def enumerate_bases(
    kb: KnowledgeBase, rt: RankingTable, antecedent: Formula, ordering: str
) -> tuple[int, ...]:
    """All ordering-maximal default sets consistent with the antecedent, as
    default masks.

    The antecedent must have finite rank (callers decide rank-infinite
    queries without bases).  The result is never empty and is sorted by
    index list for reproducible output.  ``rt``, kept for the benchmark's
    tracer, must be ``compute_ranking(kb)``: another table raises
    ``ValueError`` before the memo is read.
    """
    if rt is not compute_ranking(kb):
        raise ValueError("rt is not this knowledge base's own ranking table")
    return _bases(kb, antecedent, ordering)


@per_kb("bases", lambda antecedent, ordering: (ordering, antecedent))
def _bases(kb: KnowledgeBase, antecedent: Formula, ordering: str) -> tuple[int, ...]:
    rt = compute_ranking(kb)
    if ordering not in (LC, MP):
        raise ValueError(f"unknown ordering {ordering!r}")
    if rank_of_formula(antecedent, rt, kb) == INF:
        raise ValueError("antecedent has infinite rank; no bases exist")

    # every ordering-maximal set is inclusion-maximal: supersets dominate in both orderings
    candidates, _ = consistent_family(kb, antecedent)
    if ordering == LC:
        best = max(numeric_tuple(c, rt) for c in candidates)
        return tuple(c for c in candidates if numeric_tuple(c, rt) == best)
    return tuple(c for c in candidates if not any(mp_less_serious(c, y, rt) for y in candidates))


def _skeptical_over_bases(kb: KnowledgeBase, query: Conditional, ordering: str) -> bool:
    rt = compute_ranking(kb)
    if rank_of_formula(query.antecedent, rt, kb) == INF:
        return True
    counter_models = kb.mask(query.antecedent) & ~kb.mask(query.consequent)
    return all(
        kb.members_mask(base) & counter_models == 0
        for base in enumerate_bases(kb, rt, query.antecedent, ordering)
    )


def lc_query(kb: KnowledgeBase, query: Conditional) -> bool:
    """Lexicographic-closure membership: the consequent follows from every
    count-ordering basis for the antecedent under the KB's own ranking."""
    return _skeptical_over_bases(kb, query, LC)


def mp_query(kb: KnowledgeBase, query: Conditional) -> bool:
    """MP-closure membership: the consequent follows from every set-ordering
    basis for the antecedent under the KB's own ranking."""
    return _skeptical_over_bases(kb, query, MP)


# ---------------------------------------------------------------------------
# Justifications and the relevant closures
# ---------------------------------------------------------------------------


@per_kb("justifications", lambda antecedent: antecedent)
def find_justifications(kb: KnowledgeBase, antecedent: Formula) -> tuple[int, ...]:
    """Inclusion-minimal default sets whose materialization refutes the
    antecedent, as default masks sorted by index list; empty iff the whole
    KB is consistent with it.  They come from ``consistent_family``, which
    finds the maximal consistent sets in the same loop."""
    return consistent_family(kb, antecedent)[1]


class RelevantTrace(NamedTuple):
    """Everything needed to recheck a relevant-closure answer by hand; the
    default sets are default masks."""

    variant: str
    justifications: tuple[int, ...]
    relevant: int
    removed: int
    remainder: int
    answer: bool


def relevant_trace(kb: KnowledgeBase, query: Conditional, variant: str) -> RelevantTrace:
    """Run the relevant-closure procedure of ``variant``, the method id
    ``BASIC`` or ``MINIMAL``, on the KB's own ranking, and keep its
    intermediate sets.  Nothing here is memoized but the justifications (and
    the ranking), so tracing a query again costs a few mask ANDs.

    The relevant set is the union of the justifications (basic variant) or of
    their lowest-rank slices (minimal variant: each justification ANDed with
    the lowest rank slice it meets).  Relevant defaults are removed rank
    slice by rank slice, lowest first, until the remainder is consistent
    with the antecedent.

    The antecedent must have finite rank r, and then the finite ranks always
    suffice.  ``chain[r]`` holds the defaults of rank >= r and is consistent
    with the antecedent, so every justification holds a default of rank < r,
    and so does its lowest-rank slice.  Once the relevant defaults of rank
    < r are gone (r <= ``order_k``, so the loop reaches them), every
    justification has lost a member in either variant.  An inconsistent
    remainder would contain a justification, so the remainder is consistent.
    """
    if variant not in (BASIC, MINIMAL):
        raise ValueError(f"unknown variant {variant!r}")
    rt = compute_ranking(kb)
    antecedent = query.antecedent
    if rank_of_formula(antecedent, rt, kb) == INF:
        raise ValueError("antecedent has infinite rank; no relevant closure trace exists")
    justifications = find_justifications(kb, antecedent)
    relevant = 0
    for j in justifications:
        if variant == BASIC:
            relevant |= j
        else:
            relevant |= j & next(s for s in reversed(rt.slices) if s & j)

    a = kb.mask(antecedent)
    remainder = (1 << len(kb)) - 1
    for s in reversed(rt.slices[1:]):  # the finite ranks, lowest first
        if kb.members_mask(remainder) & a:
            break
        remainder &= ~(relevant & s)

    answer = kb.members_mask(remainder) & a & ~kb.mask(query.consequent) == 0
    return RelevantTrace(
        variant=variant,
        justifications=justifications,
        relevant=relevant,
        removed=relevant & ~remainder,
        remainder=remainder,
        answer=answer,
    )


def relevant_query(kb: KnowledgeBase, query: Conditional, variant: str) -> bool:
    """Basic or minimal relevant-closure membership.

    Rank-infinite antecedents are accepted outright, mirroring the other
    closures on impossible antecedents.
    """
    if rank_of_formula(query.antecedent, compute_ranking(kb), kb) == INF:
        return True
    return relevant_trace(kb, query, variant).answer


def closure_query(
    kb: KnowledgeBase, rt: RankingTable, method: str
) -> Callable[[Conditional], bool]:
    """Query function for one of the six engines, by CLI method id.  ``rt``,
    kept for the benchmark, must be ``compute_ranking(kb)``: else ValueError."""
    if rt is not compute_ranking(kb):
        raise ValueError("rt is not this knowledge base's own ranking table")
    if method == "rc":
        return lambda q: rc_query(kb, q)
    if method == "mp":
        return lambda q: mp_query(kb, q)
    if method == "lc":
        return lambda q: lc_query(kb, q)
    if method in (BASIC, MINIMAL):
        return lambda q: relevant_query(kb, q, method)
    if method == "mpr":
        from .semantics import mpr_query  # the model engine loads only when asked for

        return lambda q: mpr_query(kb, q)
    raise ValueError(f"unknown method {method!r}")


def compare_all(kb: KnowledgeBase, query: Conditional) -> dict[str, bool]:
    """Run all six engines on one query: each method's answer, in
    ``METHODS`` order."""
    return {method: closure_query(kb, compute_ranking(kb), method)(query) for method in METHODS}


def __getattr__(name: str):
    # The subset-strategy comparator moved to harness, its only caller; the
    # old name still resolves here (without importing harness up front).
    if name == "brewka_subset_less":
        from .harness import brewka_subset_less

        return brewka_subset_less
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
