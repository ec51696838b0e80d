"""Property-test infrastructure: random KBs, checks of the engines' answers,
postulate checking, and an independent oracle for the MP closure.

The random suite is the repo's central cross-check, and the bounded-exhaustive
small scope runs the same checks on every KB of a scope: both pass each KB
through ``check_kb``, which compares the answers of ``closures.compare_all``
with each engine's model-based counterpart and mp's with the oracle, verifies
the inclusion chain between the six relations, the ordering coarseness and
world-comparator equivalences, and the expected inference postulates.  All
generation is deterministic per seed so failures are replayable.  Each
routine here is handed a KB alone and reads its ranking through
``compute_ranking``, which keeps one per KB.

mp's and mpr's model-based counterparts are the reference construction,
off the engine path: MP's order on the violation classes held as one world
mask and one predecessor mask per class (``preferential_refinement``), its
heights by longest chain and by peeling layers, and mpr's ranked model
collapsed from them (``rank_by_height``), all read by ``cross_check``.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, islice, permutations, product
from math import isqrt
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .closures import (
    LC,
    MP,
    closure_query,
    compare_all,
    enumerate_bases,
    mp_less_serious,
    numeric_tuple,
)
from .logic import (
    FALSE,
    TRUE,
    Formula,
    Signature,
    SizeCapExceeded,
    TruthTable,
    iff,
    implies,
    land,
    lnot,
    lor,
    mask_indices,
    to_text,
)
from .ranking import (
    INF,
    Conditional,
    KnowledgeBase,
    RankingTable,
    compute_ranking,
    kb_satisfiable,
    rank_of_formula,
)
from .semantics import RankedModel, minimal_canonical_model, mpr_heights, violation_classes


_INCLUSIONS = (  # (name, weaker, stronger): a yes from the weaker is one from the stronger
    ("rc=>basic", "rc", "basic-relevant"),
    ("mp=>lc", "mp", "lc"),
    ("mp=>mpr", "mp", "mpr"),
    ("basic=>minimal", "basic-relevant", "minimal-relevant"),
    ("minimal=>mp", "minimal-relevant", "mp"),
)


def inclusion_violations(answers: dict[str, bool]) -> tuple[str, ...]:
    """The names of the inclusions that one query's ``compare_all`` answers
    break.  ``_INCLUSIONS`` holds the covering pairs of rc <= basic <=
    minimal <= mp <= lc and mp <= mpr; the others follow by transitivity.
    rc <= basic: both accept A of infinite rank.  For a finite rank r,
    ``relevant_trace`` stops at a rank t <= r (its docstring), so the
    remainder keeps ``chain[r]``, the defaults rc reasons from, and its
    worlds lie inside ``worlds[r]``.  rc says yes when no world of
    ``worlds[r]`` satisfies A & !B, so no remainder world does either."""
    return tuple(
        name for name, weaker, stronger in _INCLUSIONS if answers[weaker] and not answers[stronger]
    )


# ---------------------------------------------------------------------------
# Postulate checking
# ---------------------------------------------------------------------------

# Each KLM postulate as a rule on a triple (a, b, c): its classical premise (a
# formula that must be a tautology, or None), the (antecedent, consequent)
# pairs the engine must accept, the one it must reject (RM only) and the
# conclusion it must then accept.
_POSTULATES = {
    "LLE": lambda a, b, c: (iff(a, b), [(a, c)], None, (b, c)),
    "RW": lambda a, b, c: (implies(b, c), [(a, b)], None, (a, c)),
    "Refl": lambda a, b, c: (None, [], None, (a, a)),
    "And": lambda a, b, c: (None, [(a, b), (a, c)], None, (a, land(b, c))),
    "Or": lambda a, b, c: (None, [(a, c), (b, c)], None, (lor(a, b), c)),
    "CM": lambda a, b, c: (None, [(a, b), (a, c)], None, (land(a, b), c)),
    "RM": lambda a, b, c: (None, [(a, c)], (a, lnot(b)), (land(a, b), c)),
}
PREFERENTIAL_POSTULATES = ("LLE", "RW", "Refl", "And", "Or", "CM")


class PostulateRecord(NamedTuple):
    """Outcome of one postulate instance on one (A, B, C) triple."""

    postulate: str
    a: str
    b: str
    c: str
    applicable: bool
    holds: bool

    @property
    def violated(self) -> bool:
        return self.applicable and not self.holds


def _postulate_instance(
    name: str,
    a: Formula,
    b: Formula,
    c: Formula,
    q: Callable[[Conditional], bool],
    tt: TruthTable,
) -> tuple[bool, bool]:
    """(premises hold, conclusion holds); conclusion is True when vacuous.
    The engine is asked in the rule's order until a premise fails."""
    if name not in _POSTULATES:
        raise ValueError(f"unknown postulate {name!r}")
    premise, accepted, rejected, conclusion = _POSTULATES[name](a, b, c)
    applicable = (
        (premise is None or tt.is_tautology(premise))
        and all(q(Conditional(*p)) for p in accepted)
        and (rejected is None or not q(Conditional(*rejected)))
    )
    return applicable, (not applicable) or q(Conditional(*conclusion))


def check_postulates(
    kb: KnowledgeBase,
    method: str,
    triples: Sequence[tuple[Formula, Formula, Formula]],
    postulates: Sequence[str],
) -> tuple[PostulateRecord, ...]:
    """Evaluate each postulate on each triple via the chosen engine.

    Premises are evaluated with the same engine; a record is a violation only
    when its premises hold and its conclusion fails.
    """
    rt = compute_ranking(kb)
    q = closure_query(kb, rt, method)
    records = []
    for a, b, c in triples:
        texts = to_text(a), to_text(b), to_text(c)
        records += (
            PostulateRecord(name, *texts, *_postulate_instance(name, a, b, c, q, kb.truth))
            for name in postulates
        )
    return tuple(records)


# ---------------------------------------------------------------------------
# Independent oracle for the MP closure
# ---------------------------------------------------------------------------


def oracle_mp_query(kb: KnowledgeBase, query: Conditional) -> bool:
    """Ground-truth MP answer by unpruned, uncached subset enumeration.

    Scans all 2^|K| subsets for consistency with the antecedent, filters the
    set-ordering-maximal ones by pairwise comparison over the full candidate
    list (no inclusion-maximality shortcut), and checks the consequent on
    each.  The ordering comparator is inlined so this path shares nothing
    with the optimized engine beyond the ranking itself: the antecedent's
    rank is infinite when no chain entry's worlds meet its own mask.
    """
    if len(kb) > 16:
        raise SizeCapExceeded("oracle is limited to 16 defaults")
    rt = compute_ranking(kb)
    tt = TruthTable(kb.signature, kb.max_atoms)
    a_mask = tt.mask(query.antecedent)
    if not any(worlds & a_mask for worlds in rt.worlds):
        return True

    imps = [tt.mask(c.materialization()) for c in kb.conditionals]
    counter_models = a_mask & ~tt.mask(query.consequent)
    k = len(kb)

    def conjunction(members: frozenset[int]) -> int:
        result = a_mask
        for i in members:
            result &= imps[i]
        return result

    def slices(members: frozenset[int]) -> list[frozenset[int]]:
        ordered: list[frozenset[int]] = [
            frozenset(d for d in members if rt.default_ranks[d] == INF)
        ]
        for r in range(rt.order_k - 1, -1, -1):
            ordered.append(frozenset(d for d in members if rt.default_ranks[d] == r))
        return ordered

    def less(d: frozenset[int], b: frozenset[int]) -> bool:
        for x, y in zip(slices(d), slices(b)):
            if x != y:
                return x < y
        return False

    candidates = []
    for bits in range(1 << k):
        members = frozenset(i for i in range(k) if bits >> i & 1)
        if conjunction(members):
            candidates.append(members)
    maximal = [
        d for d in candidates if not any(b != d and less(d, b) for b in candidates)
    ]
    return all(conjunction(d) & counter_models == 0 for d in maximal)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

_ATOM_POOL = tuple("abcdefghijklmnopqrst")
_CONNECTIVES = (land, lor, implies, iff)


def random_formula(rng: random.Random, atoms: Sequence[str], depth: int) -> Formula:
    """Bounded-depth random formula, biased toward (possibly negated) atoms."""
    if depth <= 0 or rng.random() < 0.5:
        if not atoms or rng.random() < 0.05:
            return TRUE if rng.random() < 0.5 else FALSE
        leaf = Formula("atom", (rng.choice(atoms),))
        return lnot(leaf) if rng.random() < 0.5 else leaf
    if rng.random() < 0.2:
        return lnot(random_formula(rng, atoms, depth - 1))
    op = rng.choice(_CONNECTIVES)
    return op(
        random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1)
    )


class KbGenerator(NamedTuple):
    """Deterministic source of small satisfiable KBs, queries and triples."""

    seed: int
    max_atoms: int = 4
    max_defaults: int = 7
    depth: int = 3

    def knowledge_base(self, index: int) -> KnowledgeBase:
        """The index-th KB of this stream; regenerates until satisfiable."""
        for attempt in range(1000):
            rng = random.Random(f"{self.seed}:kb:{index}:{attempt}")
            n_atoms = rng.randint(1, self.max_atoms)
            names = _ATOM_POOL[:n_atoms]
            n_defaults = rng.randint(1, self.max_defaults)
            conditionals = []
            for _ in range(n_defaults):
                antecedent = random_formula(rng, names, self.depth - 1)
                consequent = random_formula(rng, names, self.depth)
                conditionals.append(Conditional(antecedent, consequent))
            sig = Signature(name for c in conditionals for name in c.atoms())  # parse_kb's order
            kb = KnowledgeBase(conditionals, sig, max_defaults=max(self.max_defaults, 1))
            if kb_satisfiable(kb):
                return kb
        raise RuntimeError(f"no satisfiable KB found for seed {self.seed}, index {index}")

    def query(self, kb: KnowledgeBase, index: int, which: int) -> Conditional:
        rng = random.Random(f"{self.seed}:query:{index}:{which}")
        atoms = kb.signature.atoms
        return Conditional(
            random_formula(rng, atoms, self.depth - 1),
            random_formula(rng, atoms, self.depth),
        )

    def triple(
        self, kb: KnowledgeBase, index: int, which: int
    ) -> tuple[Formula, Formula, Formula]:
        """(A, B, C) for postulate checks; occasionally constructed so the
        classical premises of LLE and RW are actually satisfiable."""
        rng = random.Random(f"{self.seed}:triple:{index}:{which}")
        atoms = kb.signature.atoms
        a = random_formula(rng, atoms, self.depth - 1)
        b = random_formula(rng, atoms, self.depth - 1)
        c = random_formula(rng, atoms, self.depth - 1)
        style = rng.random()
        if style < 0.25:
            b = rng.choice((lnot(lnot(a)), land(a, a), lor(a, a)))
        elif style < 0.5:
            c = lor(b, c)
        return a, b, c


# ---------------------------------------------------------------------------
# The random suite
# ---------------------------------------------------------------------------


class TrialResult(NamedTuple):
    """One KB's worth of checks; ``problems`` is empty on success."""

    index: int
    seed: int
    kb_lines: tuple[str, ...]
    atoms: int
    defaults: int
    queries: tuple[tuple[str, dict[str, bool]], ...]
    checks: int
    problems: tuple[str, ...]


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
    Reference only: ``cross_check`` checks ``layer_ranks`` against it."""
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
    Reference only: ``cross_check`` answers mpr's queries on it."""
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


def _strict_order_problem(below: Sequence[int]) -> str | None:
    """Why a relation given as predecessor masks (bit x of ``below[y]`` for
    x below y) is not a strict partial order, or None when it is irreflexive
    and transitive."""
    for z, lower in enumerate(below):
        if lower >> z & 1:
            return f"refined-order-not-strict reflexive at {z}"
        for y in mask_indices(lower):
            missing = below[y] & ~lower
            if missing:
                x = next(mask_indices(missing))
                return f"refined-order-not-strict intransitive at {(x, y, z)}"
    return None


# Bytes of reference refinement above which ``cross_check`` refuses a KB.
REFERENCE_BUDGET = 1 << 30

# The model routes, as (method, model): each query's answer from the method
# must be the model's.  rc's model is the minimal canonical one, mp's the
# reference refinement and mpr's its collapse by height.
_MODEL_ROUTES = (("rc", "canonical-model"), ("mp", "refined-model"), ("mpr", "refined-model"))


def cross_check(
    kb: KnowledgeBase, queries: Sequence[Conditional]
) -> tuple[list[tuple[str, dict[str, bool]]], list[str], int]:
    """The checks on one KB and its queries that need no oracle: all six
    engines on each query and the inclusions between their answers; the
    strict-order check on the reference refined class order, its two height
    formulations and the heights mpr answered from against them; and
    the answers of each ``_MODEL_ROUTES`` method against its model.  Heights
    are undefined on a relation that is not a strict order, so they are
    compared only when the order check passes, and mpr's answers only when
    the reference heights also agree; their checks count either way.
    Returns one row per query (its text and the six answers), the problems
    found and the number of checks made.

    The reference refinement holds one world mask and one predecessor mask
    per violation class, so a KB with more classes than fit in
    ``REFERENCE_BUDGET`` bytes raises ``SizeCapExceeded`` before any check
    runs.  The classes are counted only when the KB could have that many,
    and the count stops one past the budget."""
    n = len(kb.signature)
    # the most classes c whose c * (2^n + c) / 8 bytes fit in the budget
    fits = (isqrt(4**n + 32 * REFERENCE_BUDGET) - (1 << n)) // 2
    if min(1 << n, 1 << len(kb)) > fits:
        classes = islice(violation_classes(kb, kb.truth.full), fits + 1)
        if sum(1 for _ in classes) > fits:
            raise SizeCapExceeded(
                f"the reference refinement of more than {fits} violation classes over "
                f"{n} atoms needs more than the check budget of {REFERENCE_BUDGET >> 20} MiB"
            )
    rows = [(q.text(), compare_all(kb, q)) for q in queries]
    broken = ((text, name) for text, answers in rows for name in inclusion_violations(answers))
    problems = [f"inclusion {name} {text!r}" for text, name in broken]
    refined = preferential_refinement(kb)
    models = {"rc": minimal_canonical_model(kb), "mp": refined}
    order_problem = _strict_order_problem(refined.below)
    layers = None if order_problem else layer_ranks(refined)  # a cycle makes peeling raise
    if order_problem is not None:
        problems.append(order_problem)
    elif height_ranks(refined) != layers:
        problems.append("height-vs-layer-ranks")
    else:
        heights = mpr_heights(kb)
        if tuple(heights[v] for v in refined.violations) != layers:
            problems.append("mpr-vs-refined-strata")
        models["mpr"] = rank_by_height(refined)
    problems.extend(
        f"{method}-vs-{model} {text!r}"
        for q, (text, answers) in zip(queries, rows)
        for method, model in _MODEL_ROUTES
        if method in models and answers[method] != satisfies(models[method], q)
    )
    # plus the order check and the two height checks, once per KB
    return rows, problems, (len(_INCLUSIONS) + len(_MODEL_ROUTES)) * len(queries) + 3


# ---------------------------------------------------------------------------
# Subset-strategy world comparator
# ---------------------------------------------------------------------------


def _satisfied_slices(j: int, kb: KnowledgeBase, rt: RankingTable) -> list[int]:
    """Per-rank masks of the defaults satisfied at valuation index j (bit d
    for default d), ranks ascending with the infinite slice last (treated as
    the highest rank)."""
    rank_values = list(range(rt.order_k)) + [INF]
    return [
        sum(
            1 << d
            for d, mask in enumerate(kb.default_masks)
            if rt.default_ranks[d] == r and mask >> j & 1
        )
        for r in rank_values
    ]


def _subset_less(s1: Sequence[int], s2: Sequence[int]) -> bool:
    """Strict subset-strategy preference between two satisfied-slice lists
    (as built by ``_satisfied_slices``).

    s1 is weakly preferred to s2 when the per-rank satisfied sets all
    coincide, or s1's set is a strict superset at some rank with agreement
    at every higher rank; strict preference is weak preference in one
    direction only.  A rank with agreement above it and a difference at it
    is the highest rank where the lists differ, so s1 is strictly preferred
    exactly when such a rank exists and s2's set there lies inside s1's."""
    for x, y in zip(reversed(s1), reversed(s2)):
        if x != y:
            return y & ~x == 0
    return False


def brewka_subset_less(j1: int, j2: int, kb: KnowledgeBase, rt: RankingTable) -> bool:
    """Strict subset-strategy preference between the valuations with
    indices j1 and j2.

    The materialized defaults form a ranked base (computed ranks, infinite
    slice highest), and the valuations are compared by ``_subset_less`` on
    their per-rank satisfied sets.  This is an independent route to the set
    ordering on violation sets: its slices come from ``default_masks`` and
    ``default_ranks``, not from ``rt.slices``, and it is tested for
    agreement with the set ordering pair by pair.
    """
    return _subset_less(_satisfied_slices(j1, kb, rt), _satisfied_slices(j2, kb, rt))


def _ordering_problems(kb: KnowledgeBase) -> tuple[list[str], int]:
    """Coarseness of the set ordering vs the count ordering on all subset
    pairs, and the subset-strategy comparator vs the set ordering on all
    valuation pairs.  Each subset's count tuple and each valuation's
    satisfied slices are built once; every pair is still compared."""
    rt = compute_ranking(kb)
    problems: list[str] = []
    checks = 0
    counts = [numeric_tuple(d, rt) for d in range(1 << len(kb))]  # every default mask
    for d, d_counts in enumerate(counts):
        for b, b_counts in enumerate(counts):
            checks += 1
            if not d_counts < b_counts and mp_less_serious(d, b, rt):
                problems.append(
                    f"set-order-not-coarser {list(mask_indices(d))} {list(mask_indices(b))}"
                )
    atoms = kb.signature.atoms
    valuations = range(1 << len(atoms))
    violated = [
        sum(1 << d for d, mask in enumerate(kb.default_masks) if not mask >> j & 1)
        for j in valuations
    ]
    satisfied = [_satisfied_slices(j, kb, rt) for j in valuations]
    for j1, (v1, s1) in enumerate(zip(violated, satisfied)):
        for j2, (v2, s2) in enumerate(zip(violated, satisfied)):
            checks += 1
            if _subset_less(s1, s2) != mp_less_serious(v1, v2, rt):
                problems.append(
                    "subset-strategy-mismatch "
                    f"{tuple(a for i, a in enumerate(atoms) if j1 >> i & 1)} "
                    f"{tuple(a for i, a in enumerate(atoms) if j2 >> i & 1)}"
                )
    return problems, checks


def check_kb(
    kb: KnowledgeBase,
    queries: Sequence[Conditional],
    triples: Sequence[tuple[Formula, Formula, Formula]],
) -> tuple[list[tuple[str, dict[str, bool]]], list[str], int, int]:
    """Every check on one KB: ``cross_check``; on each query, mp against
    ``oracle_mp_query`` and, when the antecedent has a finite rank, the
    count-ordering bases inside the set-ordering ones; ``_ordering_problems``;
    and on each triple, mp's preferential postulates and mpr's RM.  Returns
    ``cross_check``'s rows, the problems, the number of checks and how many
    postulate instances applied."""
    rt = compute_ranking(kb)
    rows, problems, checks = cross_check(kb, queries)
    for q, (text, answers) in zip(queries, rows):
        if oracle_mp_query(kb, q) != answers["mp"]:
            problems.append(f"oracle-vs-mp {text!r}")
        if rank_of_formula(q.antecedent, rt, kb) != INF:
            lc_bases = set(enumerate_bases(kb, rt, q.antecedent, LC))
            if not lc_bases <= set(enumerate_bases(kb, rt, q.antecedent, MP)):
                problems.append(f"count-basis-not-set-basis {text!r}")
    ordering_problems, ordering_checks = _ordering_problems(kb)
    problems += ordering_problems
    checks += 2 * len(queries) + ordering_checks
    applicable = 0
    for method, postulates in (("mp", PREFERENTIAL_POSTULATES), ("mpr", ("RM",))):
        for record in check_postulates(kb, method, triples, postulates):
            checks += 1
            applicable += record.applicable
            if record.violated:
                problems.append(
                    f"{method}-postulate {record.postulate} on ({record.a}, {record.b}, {record.c})"
                )
    return rows, problems, checks, applicable


SUITE_QUERIES = 5  # per KB of the random suite


def run_random_suite(
    seed: int, count: int, max_atoms: int = 4, max_defaults: int = 6
) -> tuple[list[TrialResult], dict]:
    """Run ``count`` random KBs through ``check_kb``, each with
    ``SUITE_QUERIES`` queries and three triples; zero problems expected.
    Each trial logs the seed that regenerates it."""
    gen = KbGenerator(seed, max_atoms=max_atoms, max_defaults=max_defaults)
    results: list[TrialResult] = []
    postulate_applicable = 0
    for index in range(count):
        kb = gen.knowledge_base(index)
        queries = [gen.query(kb, index, w) for w in range(SUITE_QUERIES)]
        triples = [gen.triple(kb, index, w) for w in range(3)]
        rows, problems, checks, applicable = check_kb(kb, queries, triples)
        postulate_applicable += applicable
        results.append(
            TrialResult(
                index=index,
                seed=seed,
                kb_lines=tuple(c.text() for c in kb.conditionals),
                atoms=len(kb.signature),
                defaults=len(kb),
                queries=tuple(rows),
                checks=checks,
                problems=tuple(problems),
            )
        )

    summary = {
        "trials": count,
        "queries": count * SUITE_QUERIES,
        "checks": sum(r.checks for r in results),
        "postulate_instances_applicable": postulate_applicable,
        "violations": sum(len(r.problems) for r in results),
    }
    return results, summary


# ---------------------------------------------------------------------------
# Bounded-exhaustive small scope
# ---------------------------------------------------------------------------


def truth_functions(n: int) -> tuple[Formula, ...]:
    """One formula for each truth function over the first ``n`` atoms of the
    generator's pool, the one with truth mask t at index t: false, true, or
    the disjunction of the minterms of t's valuations."""
    atoms = [Formula("atom", (name,)) for name in _ATOM_POOL[:n]]
    minterms = [
        reduce(land, [x if j >> i & 1 else lnot(x) for i, x in enumerate(atoms)])
        for j in range(1 << n)
    ]
    full = (1 << (1 << n)) - 1
    return tuple(
        FALSE if t == 0 else TRUE if t == full else reduce(lor, [minterms[j] for j in mask_indices(t)])
        for t in range(full + 1)
    )


def _symmetries(n: int) -> list[list[int]]:
    """Each renaming and negation of ``n`` atoms, as the map it induces on
    the truth masks of ``truth_functions(n)``: entry t is t's image."""
    images = []
    for perm in permutations(range(n)):
        for flip in range(1 << n):
            moved = [
                sum(((j ^ flip) >> i & 1) << perm[i] for i in range(n)) for j in range(1 << n)
            ]
            images.append(
                [sum(1 << moved[j] for j in mask_indices(t)) for t in range(1 << (1 << n))]
            )
    return images


def small_scope(n_atoms: int, n_defaults: int) -> Iterator[KnowledgeBase]:
    """Every KB of ``n_defaults`` distinct defaults over ``n_atoms`` atoms
    whose antecedents and consequents are ``truth_functions(n_atoms)``, one
    per class under renaming and negating atoms: a KB is kept when no
    symmetry maps it to a KB that comes earlier.  Unsatisfiable KBs are
    included."""
    functions = truth_functions(n_atoms)
    symmetries = _symmetries(n_atoms)
    defaults = list(product(range(len(functions)), repeat=2))
    for chosen in combinations(defaults, n_defaults):
        if all(chosen <= tuple(sorted((m[a], m[b]) for a, b in chosen)) for m in symmetries):
            yield KnowledgeBase(
                [Conditional(functions[a], functions[b]) for a, b in chosen],
                Signature(_ATOM_POOL[:n_atoms]),
            )


def run_small_scope(n_atoms: int, sizes: Iterable[int]) -> dict:
    """Run every satisfiable KB of ``small_scope(n_atoms, size)``, for each
    size, through ``check_kb`` with every query whose sides are the scope's
    truth functions and every triple of one-atom truth functions.  Returns
    the KB, query and check counts and the problems, each prefixed by its
    KB."""
    functions = truth_functions(n_atoms)
    queries = [Conditional(a, b) for a in functions for b in functions]
    triples = list(product(truth_functions(1), repeat=3))
    summary = {"kbs": 0, "satisfiable": 0, "queries": 0, "checks": 0, "problems": []}
    for size in sizes:
        for kb in small_scope(n_atoms, size):
            summary["kbs"] += 1
            if not kb_satisfiable(kb):
                continue
            _, problems, checks, _ = check_kb(kb, queries, triples)
            summary["satisfiable"] += 1
            summary["queries"] += len(queries)
            summary["checks"] += checks
            kb_text = "; ".join(c.text() for c in kb.conditionals)
            summary["problems"] += (f"{kb_text}: {p}" for p in problems)
    return summary
