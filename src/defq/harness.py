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
from typing import Callable, Iterable, NamedTuple, Sequence

from . import semantics
from .closures import (
    BASIC,
    LC,
    METHODS,  # re-exported: callers know it as defq.harness.METHODS
    MINIMAL,
    MP,
    DefaultSet,
    closure_query,
    enumerate_bases,
    lc_query,
    lex_less_serious,
    mp_less_serious,
    mp_query,
    relevant_query,
)
from .logic import (
    FALSE,
    TRUE,
    Formula,
    Signature,
    SizeCapExceeded,
    TruthTable,
    Valuation,
    all_valuations,
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
    Rank,
    RankingTable,
    compute_ranking,
    kb_satisfiable,
    rank_of_formula,
    rc_query,
    violated_defaults,
)

class ClosureMatrix(NamedTuple):
    """Membership of one query in each of the six consequence relations."""

    rc: bool
    mp: bool
    lc: bool
    basic: bool
    minimal: bool
    mpr: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "rc": self.rc,
            "mp": self.mp,
            "lc": self.lc,
            "basic-relevant": self.basic,
            "minimal-relevant": self.minimal,
            "mpr": self.mpr,
        }

    def inclusion_violations(self) -> tuple[str, ...]:
        """Implications between the relations that must never fail."""
        expected = (
            ("rc=>mp", not self.rc or self.mp),
            ("mp=>lc", not self.mp or self.lc),
            ("mp=>mpr", not self.mp or self.mpr),
            ("basic=>minimal", not self.basic or self.minimal),
            ("minimal=>mp", not self.minimal or self.mp),
        )
        return tuple(name for name, ok in expected if not ok)


def compare_all(kb: KnowledgeBase, query: Conditional) -> ClosureMatrix:
    """Run all six engines on one query."""
    rt = compute_ranking(kb)
    return ClosureMatrix(
        rc=rc_query(kb, rt, query),
        mp=mp_query(kb, rt, query),
        lc=lc_query(kb, rt, query),
        basic=relevant_query(kb, rt, query, BASIC),
        minimal=relevant_query(kb, rt, query, MINIMAL),
        mpr=semantics.mpr_query(kb, rt, query),
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
        return q(Conditional(ant, cons, -1))

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
        for name in postulates:
            applicable, holds = _postulate_instance(name, a, b, c, q, kb.truth)
            records.append(
                PostulateRecord(name, to_text(a), to_text(b), to_text(c), applicable, holds)
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
    with the optimized engine beyond the ranking itself.
    """
    if len(kb) > 16:
        raise SizeCapExceeded("oracle is limited to 16 defaults")
    rt = compute_ranking(kb)
    if rank_of_formula(query.antecedent, rt, kb) == INF:
        return True

    tt = TruthTable(kb.signature, kb.max_atoms)
    imps = [tt.mask(c.materialization()) for c in kb.conditionals]
    a_mask = tt.mask(query.antecedent)
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
        leaf = Formula("atom", (rng.choice(list(atoms)),))
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
            for i in range(n_defaults):
                antecedent = random_formula(rng, names, self.depth - 1)
                consequent = random_formula(rng, names, self.depth)
                for name in atoms_of(antecedent) + atoms_of(consequent):
                    sig.add(name)
                conditionals.append(Conditional(antecedent, consequent, i))
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
            -1,
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


def _model_agreement_problems(
    kb: KnowledgeBase, rt: RankingTable, queries: Sequence[Conditional]
) -> tuple[list[str], int]:
    """Syntactic engines vs their model-based counterparts, the strict-order
    check on the refined class order and the two height formulations, on one
    KB.  Heights are undefined on a relation that is not a strict order, so
    they are compared only when the order check passes."""
    problems: list[str] = []
    checks = 0
    canonical = semantics.minimal_canonical_model(kb, rt)
    refined = semantics.preferential_refinement(canonical, kb)
    for q in queries:
        checks += 2
        if rc_query(kb, rt, q) != semantics.satisfies(canonical, q):
            problems.append(f"rc-vs-canonical-model {q.text()!r}")
        if mp_query(kb, rt, q) != semantics.satisfies(refined, q):
            problems.append(f"mp-vs-refined-model {q.text()!r}")
    checks += 2
    order_problem = _strict_order_problem(refined.below)
    if order_problem is not None:
        problems.append(order_problem)
    elif semantics.height_ranks(refined) != semantics.layer_ranks(refined):
        problems.append("height-vs-layer-ranks")
    return problems, checks


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


def _ordering_problems(kb: KnowledgeBase, rt: RankingTable) -> tuple[list[str], int]:
    """Coarseness of the set ordering vs the count ordering on all subset
    pairs, and the subset-strategy comparator vs the set ordering on all
    valuation pairs."""
    problems: list[str] = []
    checks = 0
    subsets = [frozenset(s) for s in _all_subsets(len(kb))]
    for d in subsets:
        for b in subsets:
            checks += 1
            if mp_less_serious(d, b, rt) and not lex_less_serious(d, b, rt):
                problems.append(f"set-order-not-coarser {sorted(d)} {sorted(b)}")
    valuations = all_valuations(kb.signature)
    violated = [violated_defaults(m, kb) for m in valuations]
    for m1, v1 in zip(valuations, violated):
        for m2, v2 in zip(valuations, violated):
            checks += 1
            expected = mp_less_serious(v1, v2, rt)
            if brewka_subset_less(m1, m2, kb, rt) != expected:
                problems.append(
                    f"subset-strategy-mismatch {m1.true_atoms()} {m2.true_atoms()}"
                )
    return problems, checks


def _all_subsets(n: int) -> Iterable[tuple[int, ...]]:
    for bits in range(1 << n):
        yield tuple(i for i in range(n) if bits >> i & 1)


def run_random_suite(
    seed: int,
    count: int,
    queries_per_kb: int = 5,
    max_atoms: int = 4,
    max_defaults: int = 6,
    postulate_triples: int = 3,
    with_oracle: bool = True,
    with_orderings: bool = True,
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
        problems: list[str] = []
        checks = 0
        rows = []

        for q in queries:
            matrix = compare_all(kb, q)
            rows.append((q.text(), matrix.as_dict()))
            checks += 5
            problems.extend(
                f"inclusion {name} {q.text()!r}" for name in matrix.inclusion_violations()
            )
            if with_oracle:
                checks += 1
                if oracle_mp_query(kb, q) != matrix.mp:
                    problems.append(f"oracle-vs-mp {q.text()!r}")
            checks += 1
            if rank_of_formula(q.antecedent, rt, kb) != INF:
                lc_bases = set(enumerate_bases(kb, rt, q.antecedent, LC))
                mp_bases = set(enumerate_bases(kb, rt, q.antecedent, MP))
                if not lc_bases <= mp_bases:
                    problems.append(f"count-basis-not-set-basis {q.text()!r}")

        model_problems, model_checks = _model_agreement_problems(kb, rt, queries)
        problems.extend(model_problems)
        checks += model_checks

        if with_orderings:
            ordering_problems, ordering_checks = _ordering_problems(kb, rt)
            problems.extend(ordering_problems)
            checks += ordering_checks

        triples = [gen.triple(kb, index, w) for w in range(postulate_triples)]
        for record in check_postulates(kb, "mp", triples, PREFERENTIAL_POSTULATES):
            checks += 1
            postulate_applicable += record.applicable
            if record.violated:
                problems.append(f"mp-postulate {record.postulate} on ({record.a}, {record.b}, {record.c})")
        for record in check_postulates(kb, "mpr", triples, ("RM",)):
            checks += 1
            postulate_applicable += record.applicable
            if record.violated:
                problems.append(f"mpr-postulate {record.postulate} on ({record.a}, {record.b}, {record.c})")

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
