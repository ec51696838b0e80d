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
id.

Both kinds of subset come from depth-first searches over the KB's default
masks that cut every subtree which cannot hold an answer: the inclusion-
maximal consistent sets, which the orderings then filter, and the minimal
refuting sets.  Each search holds only its current path, so memory grows
with the number of defaults, not with the number of subsets.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .logic import Formula, mask_indices
from .ranking import (
    INF,
    Conditional,
    KnowledgeBase,
    RankingTable,
    rank_of_formula,
    rc_query,
)

LC = "lc"
MP = "mp"

BASIC = "basic"
MINIMAL = "minimal"

METHODS = ("rc", "mp", "lc", "basic-relevant", "minimal-relevant", "mpr")


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
# Base enumeration
# ---------------------------------------------------------------------------


def _search_order(kb: KnowledgeBase, start: int) -> tuple[list[int], list[int], list[int]]:
    """The order both subset searches decide the defaults in, as one-bit
    default masks, with the defaults' truth masks in that order and their
    suffix ANDs.

    Defaults come by how few of the ``start`` worlds their mask keeps, so
    the ones the antecedent triggers are decided first.  Past them the
    suffix AND is usually consistent with the running mask and the cuts
    fire near the root; in index order an antecedent whose conflicts sit at
    the end of the file costs thousands of nodes.  Every pruning rule holds
    for any fixed order.  ``suffix[i]`` is the AND of the masks at positions
    >= i, and ``suffix[len(kb)]`` is the full mask.
    """
    default_masks = kb.default_masks
    order = sorted(range(len(kb)), key=lambda d: (start & default_masks[d]).bit_count())
    masks = [default_masks[d] for d in order]
    suffix = [kb.truth.full]
    for m in reversed(masks):
        suffix.append(suffix[-1] & m)
    suffix.reverse()
    return [1 << d for d in order], masks, suffix


def _consistent_inclusion_maximal(kb: KnowledgeBase, start: int) -> list[int]:
    """Inclusion-maximal default sets whose materialization is consistent
    with the antecedent, whose truth mask is ``start``.

    Every ordering-maximal set is inclusion-maximal (supersets dominate in
    both orderings), so the search space can be narrowed here.  The search
    decides the defaults one by one (see ``_search_order``), carrying
    ``chosen``, the default mask of the defaults included so far, and
    ``mask``, the antecedent AND their truth masks; ``m_i`` is the truth
    mask of the default at position i.  A set S is inclusion-maximal iff its
    mask is nonzero and meets the mask of no default outside S.  Each rule
    below drops only subtrees holding no such set, and at a leaf
    (i = len(kb)) the third rule is exactly that test, so the leaves reached
    are the inclusion-maximal sets:

    - include i only when ``mask & m_i != 0``: the mask only shrinks along
      a path, so an empty mask stays empty;
    - exclude i only when ``mask & m_i != mask``: otherwise every
      completion's mask lies inside ``m_i``, so i could be added back;
    - cut when ``floor = mask & suffix[i]`` meets ``m_d`` for an excluded
      d: every completion keeps ``floor`` inside its mask, so d could be
      added back.  Including i leaves ``floor`` as it was (``mask & m_i &
      suffix[i + 1]`` is ``mask & suffix[i]``), so the test runs only after
      an exclusion.

    Only the current path is held, so memory grows with the number of
    defaults, not with the number of leaves.
    """
    if not start:
        return []
    bits, masks, suffix = _search_order(kb, start)
    excluded: list[int] = []  # masks of the excluded defaults
    found: list[int] = []

    def descend(i: int, chosen: int, mask: int) -> None:
        if i == len(masks):
            found.append(chosen)
            return
        kept = mask & masks[i]
        if kept:
            descend(i + 1, chosen | bits[i], kept)
        if kept != mask:
            excluded.append(masks[i])
            floor = mask & suffix[i + 1]
            if not any(floor & m for m in excluded):
                descend(i + 1, chosen, mask)
            excluded.pop()

    descend(0, 0, start)
    del descend  # empties its own closure cell: no cycle keeps ``suffix`` alive
    return found


def enumerate_bases(
    kb: KnowledgeBase,
    rt: RankingTable,
    antecedent: Formula,
    ordering: str,
    a_mask: int | None = None,
) -> tuple[int, ...]:
    """All ordering-maximal default sets consistent with the antecedent, as
    default masks.

    The antecedent must have finite rank (callers decide rank-infinite
    queries without bases).  The result is never empty and is sorted by
    index list for reproducible output.  ``a_mask`` is the antecedent's
    truth mask when the caller has already built it.
    """
    if ordering not in (LC, MP):
        raise ValueError(f"unknown ordering {ordering!r}")
    memo = kb.cache.setdefault("bases", {})
    key = (ordering, antecedent)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if a_mask is None:
        a_mask = kb.truth.mask(antecedent)
    if rank_of_formula(antecedent, rt, kb, a_mask) == INF:
        raise ValueError("antecedent has infinite rank; no bases exist")

    candidates = _consistent_inclusion_maximal(kb, a_mask)
    if ordering == LC:
        best = max(numeric_tuple(c, rt) for c in candidates)
        bases = [c for c in candidates if numeric_tuple(c, rt) == best]
    else:
        bases = [c for c in candidates if not any(mp_less_serious(c, y, rt) for y in candidates)]
    result = tuple(sorted(bases, key=_index_order))
    memo[key] = result
    return result


def _skeptical_over_bases(
    kb: KnowledgeBase, rt: RankingTable, query: Conditional, ordering: str
) -> bool:
    a_mask = kb.truth.mask(query.antecedent)
    if rank_of_formula(query.antecedent, rt, kb, a_mask) == INF:
        return True
    counter_models = a_mask & ~kb.truth.mask(query.consequent)
    return all(
        kb.members_mask(base) & counter_models == 0
        for base in enumerate_bases(kb, rt, query.antecedent, ordering, a_mask)
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


def find_justifications(
    kb: KnowledgeBase, antecedent: Formula, a_mask: int | None = None
) -> tuple[int, ...]:
    """Inclusion-minimal default sets whose materialization refutes the
    antecedent, as default masks; empty iff the whole KB is consistent with
    it.  ``a_mask`` is the antecedent's truth mask when the caller has
    already built it.

    Depth-first over sets built in increasing search position (see
    ``_search_order``), carrying ``members``, the default mask of the chosen
    defaults, and ``mask``, the antecedent AND their truth masks; ``m_j`` is
    the truth mask of the default at position j.
    A minimal refuting set J is reached along the path that adds its
    members in that order, and no rule below drops that path:

    - stop at ``mask == 0``: every superset of a refuting set refutes and is
      not minimal; the leaf is kept when removing any one member leaves a
      nonzero mask;
    - add j only when ``mask & m_j != mask``: if j cuts nothing, any
      refuting set grown from here still refutes without j, so it is not
      minimal with j in it;
    - cut when ``mask & suffix[i] != 0``: adding every remaining default
      leaves that nonzero mask, so no extension refutes the antecedent.

    Only the current path is held, so memory grows with the number of
    defaults, not with the number of subsets.
    """
    memo = kb.cache.setdefault("justifications", {})
    cached = memo.get(antecedent)
    if cached is not None:
        return cached

    if a_mask is None:
        a_mask = kb.truth.mask(antecedent)
    bits, masks, suffix = _search_order(kb, a_mask)
    chosen: list[int] = []  # search positions
    path = [a_mask]  # path[t]: a_mask AND the masks of the first t chosen
    minimal: list[int] = []

    def each_member_needed() -> bool:
        rest = kb.truth.full  # AND of the masks chosen after position t
        for t in reversed(range(len(chosen))):
            if path[t] & rest == 0:
                return False
            rest &= masks[chosen[t]]
        return True

    def descend(i: int, members: int) -> None:
        mask = path[-1]
        if mask == 0:
            if each_member_needed():
                minimal.append(members)
            return
        if mask & suffix[i]:
            return
        for j in range(i, len(masks)):
            kept = mask & masks[j]
            if kept != mask:
                chosen.append(j)
                path.append(kept)
                descend(j + 1, members | bits[j])
                path.pop()
                chosen.pop()

    descend(0, 0)
    del descend  # empties its own closure cell: no cycle keeps ``suffix`` alive
    result = tuple(sorted(minimal, key=_index_order))
    memo[antecedent] = result
    return result


class RelevantTrace(NamedTuple):
    """Everything needed to recheck a relevant-closure answer by hand; the
    default sets are default masks."""

    variant: str
    justifications: tuple[int, ...]
    relevant: int
    removed: int
    remainder: int
    answer: bool


def relevant_trace(
    kb: KnowledgeBase,
    rt: RankingTable,
    query: Conditional,
    variant: str,
    a_mask: int | None = None,
) -> RelevantTrace:
    """Run the relevant-closure procedure and keep its intermediate sets
    (``a_mask`` is the antecedent's truth mask when already built).  The
    KB keeps the last trace, keyed by the query object and the variant, so
    the evidence for the query just answered reuses it.  (Keying by the
    formulas would cost a hash of both on every call, more than a trace of
    a small KB.)

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
    last = kb.cache.get("relevant_trace")
    if last is not None and last[0] is query and last[1] == variant:
        return last[2]
    antecedent = query.antecedent
    tt = kb.truth
    if a_mask is None:
        a_mask = tt.mask(antecedent)
    if rank_of_formula(antecedent, rt, kb, a_mask) == INF:
        raise ValueError("antecedent has infinite rank; no relevant closure trace exists")
    justifications = find_justifications(kb, antecedent, a_mask)
    relevant = 0
    for j in justifications:
        if variant == BASIC:
            relevant |= j
        else:
            relevant |= j & next(s for s in reversed(rt.slices) if s & j)

    remainder = (1 << len(kb)) - 1
    for s in reversed(rt.slices[1:]):  # the finite ranks, lowest first
        if kb.members_mask(remainder) & a_mask:
            break
        remainder &= ~(relevant & s)

    answer = kb.members_mask(remainder) & a_mask & ~tt.mask(query.consequent) == 0
    trace = RelevantTrace(
        variant=variant,
        justifications=justifications,
        relevant=relevant,
        removed=relevant & ~remainder,
        remainder=remainder,
        answer=answer,
    )
    kb.cache["relevant_trace"] = (query, variant, trace)
    return trace


def relevant_query(
    kb: KnowledgeBase, rt: RankingTable, query: Conditional, variant: str
) -> bool:
    """Basic or minimal relevant-closure membership.

    Rank-infinite antecedents are accepted outright, mirroring the other
    closures on impossible antecedents.
    """
    a_mask = kb.truth.mask(query.antecedent)
    if rank_of_formula(query.antecedent, rt, kb, a_mask) == INF:
        return True
    return relevant_trace(kb, rt, query, variant, a_mask).answer


def closure_query(
    kb: KnowledgeBase, rt: RankingTable, method: str
) -> Callable[[Conditional], bool]:
    """Query function for one of the six engines, by CLI method id."""
    if method == "rc":
        return lambda q: rc_query(kb, rt, q)
    if method == "mp":
        return lambda q: mp_query(kb, rt, q)
    if method == "lc":
        return lambda q: lc_query(kb, rt, q)
    if method == "basic-relevant":
        return lambda q: relevant_query(kb, rt, q, BASIC)
    if method == "minimal-relevant":
        return lambda q: relevant_query(kb, rt, q, MINIMAL)
    if method == "mpr":
        from .semantics import mpr_query  # the model engine loads only when asked for

        return lambda q: mpr_query(kb, rt, q)
    raise ValueError(f"unknown method {method!r}")


def __getattr__(name: str):
    # The subset-strategy comparator moved to harness, its only caller; the
    # old name still resolves here (without importing harness up front).
    if name == "brewka_subset_less":
        from .harness import brewka_subset_less

        return brewka_subset_less
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
