"""Property-test infrastructure: random KBs, cross-engine comparison,
postulate checking, and an independent oracle for the MP closure.

The random suite is the repo's central cross-check: on every generated KB it
compares each syntactic closure against its model-based counterpart, verifies
the inclusion chain between the six relations, the ordering coarseness and
world-comparator equivalences, and the expected inference postulates.  All
generation is deterministic per seed so failures are replayable.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from . import semantics
from .closures import (
    LC,
    METHODS,
    MP,
    closure_query,
    enumerate_bases,
    mp_less_serious,
    mp_query,
    numeric_tuple,
)
from .logic import (
    FALSE,
    TRUE,
    Formula,
    Signature,
    SizeCapExceeded,
    TruthTable,
    atoms_of,
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
    rc_query,
)


def compare_all(kb: KnowledgeBase, query: Conditional) -> dict[str, bool]:
    """Run all six engines on one query: each method's answer, in
    ``METHODS`` order."""
    rt = compute_ranking(kb)
    return {method: closure_query(kb, rt, method)(query) for method in METHODS}


# Implications between the relations that must never fail, as (name, weaker,
# stronger): every query the weaker method answers yes, the stronger does too.
_INCLUSIONS = (
    ("rc=>mp", "rc", "mp"),
    ("mp=>lc", "mp", "lc"),
    ("mp=>mpr", "mp", "mpr"),
    ("basic=>minimal", "basic-relevant", "minimal-relevant"),
    ("minimal=>mp", "minimal-relevant", "mp"),
)


def inclusion_violations(answers: dict[str, bool]) -> tuple[str, ...]:
    """The names of the inclusions that one query's ``compare_all`` answers
    break."""
    return tuple(
        name for name, weaker, stronger in _INCLUSIONS if answers[weaker] and not answers[stronger]
    )


# ---------------------------------------------------------------------------
# Postulate checking
# ---------------------------------------------------------------------------

PREFERENTIAL_POSTULATES = ("LLE", "RW", "Refl", "And", "Or", "CM")
RATIONAL_POSTULATES = PREFERENTIAL_POSTULATES + ("RM",)


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
    """(premises hold, conclusion holds); conclusion is True when vacuous."""

    def ask(ant: Formula, cons: Formula) -> bool:
        return q(Conditional(ant, cons))

    if name == "LLE":
        applicable = tt.is_tautology(iff(a, b)) and ask(a, c)
        return applicable, (not applicable) or ask(b, c)
    if name == "RW":
        applicable = tt.is_tautology(implies(b, c)) and ask(a, b)
        return applicable, (not applicable) or ask(a, c)
    if name == "Refl":
        return True, ask(a, a)
    if name == "And":
        applicable = ask(a, b) and ask(a, c)
        return applicable, (not applicable) or ask(a, land(b, c))
    if name == "Or":
        applicable = ask(a, c) and ask(b, c)
        return applicable, (not applicable) or ask(lor(a, b), c)
    if name == "CM":
        applicable = ask(a, b) and ask(a, c)
        return applicable, (not applicable) or ask(land(a, b), c)
    if name == "RM":
        applicable = ask(a, c) and not ask(a, lnot(b))
        return applicable, (not applicable) or ask(land(a, b), c)
    raise ValueError(f"unknown postulate {name!r}")


def check_postulates(
    kb: KnowledgeBase,
    method: str,
    triples: Sequence[tuple[Formula, Formula, Formula]],
    postulates: Sequence[str] = RATIONAL_POSTULATES,
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
            sig = Signature()
            conditionals = []
            for _ in range(n_defaults):
                antecedent = random_formula(rng, names, self.depth - 1)
                consequent = random_formula(rng, names, self.depth)
                for name in atoms_of(antecedent) + atoms_of(consequent):
                    sig.add(name)
                conditionals.append(Conditional(antecedent, consequent))
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
    queries: tuple[tuple[str, dict[str, bool]], ...] = ()
    checks: int = 0
    problems: tuple[str, ...] = ()


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


def cross_check(
    kb: KnowledgeBase, rt: RankingTable, queries: Sequence[Conditional]
) -> tuple[list[tuple[str, dict[str, bool]]], list[str], int]:
    """The checks on one KB and its queries that need no oracle: all six
    engines on each query and the inclusions between their answers, then
    the model checks of ``_model_agreement_problems``.  Returns one row per
    query (its text and the six answers), the problems found and the number
    of checks made."""
    rows = []
    problems: list[str] = []
    for q in queries:
        answers = compare_all(kb, q)
        rows.append((q.text(), answers))
        problems.extend(f"inclusion {name} {q.text()!r}" for name in inclusion_violations(answers))
    model_problems, model_checks = _model_agreement_problems(kb, rt, queries)
    problems.extend(model_problems)
    return rows, problems, 5 * len(queries) + model_checks


def _model_agreement_problems(
    kb: KnowledgeBase, rt: RankingTable, queries: Sequence[Conditional]
) -> tuple[list[str], int]:
    """Syntactic engines vs their model-based counterparts, the strict-order
    check on the reference refined class order, its two height formulations,
    and mpr against the reference collapse, on one KB: the engine's height
    of each class against the reference's, and each query's mpr answer
    against the collapsed ranked model's.  Heights are undefined on a
    relation that is not a strict order, so they are compared only when the
    order check passes, and mpr only when the reference heights also agree;
    its checks count either way."""
    problems: list[str] = []
    checks = 0
    canonical = semantics.minimal_canonical_model(kb, rt)
    refined = semantics.preferential_refinement(kb)
    for q in queries:
        checks += 3
        if rc_query(kb, rt, q) != semantics.satisfies(canonical, q):
            problems.append(f"rc-vs-canonical-model {q.text()!r}")
        if mp_query(kb, rt, q) != semantics.satisfies(refined, q):
            problems.append(f"mp-vs-refined-model {q.text()!r}")
    checks += 3
    order_problem = _strict_order_problem(refined.below)
    if order_problem is not None:
        problems.append(order_problem)
    elif semantics.height_ranks(refined) != semantics.layer_ranks(refined):
        problems.append("height-vs-layer-ranks")
    else:
        heights = semantics.violation_heights(kb, refined.violations)
        if tuple(heights[v] for v in refined.violations) != semantics.layer_ranks(refined):
            problems.append("mpr-vs-refined-strata")
        collapsed = semantics.rank_by_height(refined)
        problems.extend(
            f"mpr-vs-refined-model {q.text()!r}"
            for q in queries
            if semantics.mpr_query(kb, rt, q) != semantics.satisfies(collapsed, q)
        )
    return problems, checks


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


def _ordering_problems(kb: KnowledgeBase, rt: RankingTable) -> tuple[list[str], int]:
    """Coarseness of the set ordering vs the count ordering on all subset
    pairs, and the subset-strategy comparator vs the set ordering on all
    valuation pairs.  Each subset's count tuple and each valuation's
    satisfied slices are built once; every pair is still compared."""
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


def run_random_suite(
    seed: int,
    count: int,
    queries_per_kb: int = 5,
    max_atoms: int = 4,
    max_defaults: int = 6,
) -> tuple[list[TrialResult], dict]:
    """Run ``count`` random KBs through every cross-check; zero problems
    expected.  Each trial logs the seed that regenerates it."""
    gen = KbGenerator(seed, max_atoms=max_atoms, max_defaults=max_defaults)
    results: list[TrialResult] = []
    total_checks = 0
    total_queries = 0
    postulate_applicable = 0

    for index in range(count):
        kb = gen.knowledge_base(index)
        rt = compute_ranking(kb)
        queries = [gen.query(kb, index, w) for w in range(queries_per_kb)]
        rows, problems, checks = cross_check(kb, rt, queries)

        for q, (_, answers) in zip(queries, rows):
            checks += 1
            if oracle_mp_query(kb, q) != answers["mp"]:
                problems.append(f"oracle-vs-mp {q.text()!r}")
            checks += 1
            if rank_of_formula(q.antecedent, rt, kb) != INF:
                lc_bases = set(enumerate_bases(kb, rt, q.antecedent, LC))
                mp_bases = set(enumerate_bases(kb, rt, q.antecedent, MP))
                if not lc_bases <= mp_bases:
                    problems.append(f"count-basis-not-set-basis {q.text()!r}")

        ordering_problems, ordering_checks = _ordering_problems(kb, rt)
        problems.extend(ordering_problems)
        checks += ordering_checks

        triples = [gen.triple(kb, index, w) for w in range(3)]
        for method, postulates in (("mp", PREFERENTIAL_POSTULATES), ("mpr", ("RM",))):
            for record in check_postulates(kb, method, triples, postulates):
                checks += 1
                postulate_applicable += record.applicable
                if record.violated:
                    problems.append(
                        f"{method}-postulate {record.postulate} "
                        f"on ({record.a}, {record.b}, {record.c})"
                    )

        total_checks += checks
        total_queries += len(queries)
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
        "queries": total_queries,
        "checks": total_checks,
        "postulate_instances_applicable": postulate_applicable,
        "violations": sum(len(r.problems) for r in results),
    }
    return results, summary
