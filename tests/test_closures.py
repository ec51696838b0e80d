"""Seriousness orderings, bases, and the syntactic closures."""

import gc
import itertools

import pytest

from defq import (
    BASIC,
    INF,
    LC,
    MINIMAL,
    MP,
    KbGenerator,
    all_valuations,
    compute_ranking,
    enumerate_bases,
    find_justifications,
    lc_query,
    lex_less_serious,
    mp_less_serious,
    mp_query,
    numeric_tuple,
    parse_kb,
    partition,
    rank_of_formula,
    rc_query,
    relevant_query,
    relevant_trace,
    violated_defaults,
)
from defq.closures import _consistent_inclusion_maximal
from defq.harness import brewka_subset_less


def bases(kb, antecedent_text, ordering):
    query, kb = kb.parse_query(f"{antecedent_text} |~ true")
    rt = compute_ranking(kb)
    return {tuple(sorted(b)) for b in enumerate_bases(kb, rt, query.antecedent, ordering)}


def ask(kb, text, method):
    query, kb = kb.parse_query(text)
    rt = compute_ranking(kb)
    if method in (LC, MP):
        fn = lc_query if method == LC else mp_query
        return fn(kb, rt, query)
    return relevant_query(kb, rt, query, method)


class TestPartition:
    def test_mixed_ranks(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        part = partition({1, 2}, rt)
        assert part.infinite == frozenset()
        assert part.by_rank == (frozenset({1}), frozenset({2}))
        assert part.tuple_view() == (frozenset(), frozenset({2}), frozenset({1}))
        assert numeric_tuple({1, 2}, rt) == (0, 1, 1)

    def test_empty_set(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        part = partition(set(), rt)
        assert part.infinite == frozenset()
        assert all(not p for p in part.by_rank)

    def test_conflict_kb_slices(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        part = partition({0, 1, 3}, rt)
        assert part.tuple_view() == (frozenset(), frozenset({3}), frozenset({0, 1}))

    def test_infinite_slice(self, residence_kb):
        rt = compute_ranking(residence_kb)
        part = partition({0, 2, 3, 4}, rt)
        assert part.infinite == frozenset({2, 3, 4})
        assert numeric_tuple({0, 2, 3, 4}, rt) == (3, 1)


class TestCountOrdering:
    def test_smaller_low_rank_slice_is_less_serious(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert lex_less_serious({2}, {1, 2}, rt)
        assert not lex_less_serious({1, 2}, {2}, rt)

    def test_irreflexive(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert not lex_less_serious({1, 2}, {1, 2}, rt)

    def test_conflict_kb_single_vs_pair(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        assert lex_less_serious({2, 3}, {0, 1, 3}, rt)


class TestSetOrdering:
    def test_conflict_kb_incomparable_both_ways(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        assert not mp_less_serious({0, 1, 3}, {2, 3}, rt)
        assert not mp_less_serious({2, 3}, {0, 1, 3}, rt)

    def test_empty_below_any_finite_singleton(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert mp_less_serious(set(), {0}, rt)
        assert mp_less_serious(set(), {2}, rt)

    def test_swimmer_kb_incomparable(self, swimmer_kb):
        rt = compute_ranking(swimmer_kb)
        assert not mp_less_serious({0}, {1, 2}, rt)
        assert not mp_less_serious({1, 2}, {0}, rt)

    def test_higher_rank_slice_dominates(self, conflict_kb):
        # missing the rank-1 default loses regardless of rank-0 content
        rt = compute_ranking(conflict_kb)
        assert mp_less_serious({0, 1, 2}, {0, 3}, rt)


class TestOrderingLaws:
    """Strict-partial-order laws, exhaustively on small KBs."""

    def all_subsets(self, kb):
        return [frozenset(c) for r in range(len(kb) + 1)
                for c in itertools.combinations(range(len(kb)), r)]

    @pytest.mark.parametrize("fixture", ["taxes_kb", "conflict_kb", "residence_kb"])
    def test_both_orderings_are_strict_partial_orders(self, fixture, request):
        kb = request.getfixturevalue(fixture)
        rt = compute_ranking(kb)
        subsets = self.all_subsets(kb)
        for less in (lex_less_serious, mp_less_serious):
            for d in subsets:
                assert not less(d, d, rt)
            for d, b in itertools.permutations(subsets, 2):
                if less(d, b, rt):
                    assert not less(b, d, rt)
            for d, b, c in itertools.permutations(subsets, 3):
                if less(d, b, rt) and less(b, c, rt):
                    assert less(d, c, rt)

    @pytest.mark.parametrize("fixture", ["taxes_kb", "conflict_kb", "swimmer_kb", "residence_kb"])
    def test_set_ordering_refines_into_count_ordering(self, fixture, request):
        kb = request.getfixturevalue(fixture)
        rt = compute_ranking(kb)
        subsets = self.all_subsets(kb)
        for d, b in itertools.product(subsets, repeat=2):
            if mp_less_serious(d, b, rt):
                assert lex_less_serious(d, b, rt)


class TestBases:
    def test_conflict_kb_count_ordering_unique_basis(self, conflict_kb):
        assert bases(conflict_kb, "Employee & Student", LC) == {(0, 1, 3)}

    def test_conflict_kb_set_ordering_two_bases(self, conflict_kb):
        assert bases(conflict_kb, "Employee & Student", MP) == {(0, 1, 3), (2, 3)}

    def test_residence_kb_bases_keep_infinite_defaults(self, residence_kb):
        expected = {(0, 2, 3, 4), (1, 2, 3, 4)}
        assert bases(residence_kb, "Italian & German", MP) == expected
        assert bases(residence_kb, "Italian & German", LC) == expected

    def test_taxes_kb_unique_basis(self, taxes_kb):
        assert bases(taxes_kb, "Employee & Student", LC) == {(1, 2)}
        assert bases(taxes_kb, "Employee & Student", MP) == {(1, 2)}

    def test_bright_kb_two_bases_under_both_orderings(self, bright_kb):
        expected = {(0, 1, 3), (1, 2, 3)}
        assert bases(bright_kb, "Employee & Student", LC) == expected
        assert bases(bright_kb, "Employee & Student", MP) == expected

    def test_count_bases_are_always_set_bases(self, conflict_kb, swimmer_kb, merry_kb):
        for kb in (conflict_kb, swimmer_kb, merry_kb):
            rt = compute_ranking(kb)
            for c in kb.conditionals:
                lc_b = set(enumerate_bases(kb, rt, c.antecedent, LC))
                mp_b = set(enumerate_bases(kb, rt, c.antecedent, MP))
                assert lc_b <= mp_b

    def test_infinite_rank_antecedent_rejected(self, residence_kb):
        rt = compute_ranking(residence_kb)
        query, kb = residence_kb.parse_query(
            "Residence_in_Italy & !Has_Residence |~ true"
        )
        with pytest.raises(ValueError):
            enumerate_bases(kb, rt, query.antecedent, MP)


class TestClosureQueries:
    def test_conflict_kb_divergence(self, conflict_kb):
        text = "Employee & Student |~ Young & !Pay_Taxes"
        assert ask(conflict_kb, text, LC) is True
        assert ask(conflict_kb, text, MP) is False

    def test_split_removes_count_ordering_conclusion(self, conflict_split_kb):
        text = "Employee & Student |~ Young & !Pay_Taxes"
        assert ask(conflict_split_kb, text, LC) is False
        assert ask(conflict_split_kb, text, MP) is False

    def test_swimmer_kb_weight_of_reasons(self, swimmer_kb):
        a = "Olympic_Swimmer & Adult & Employee"
        assert ask(swimmer_kb, f"{a} |~ !Young", LC) is True
        assert ask(swimmer_kb, f"{a} |~ !Young", MP) is False
        assert ask(swimmer_kb, f"{a} |~ Young", MP) is False

    def test_merry_kb_set_ordering_answers(self, merry_kb):
        assert ask(merry_kb, "Student & Adult |~ Young <-> Merry", MP) is True
        assert ask(merry_kb, "Student & Adult |~ Young", MP) is False
        assert ask(merry_kb, "Student & Adult & !Young |~ Young <-> Merry", MP) is False
        assert ask(merry_kb, "Student & Adult |~ Young", LC) is True

    def test_impossible_antecedent_accepted_everywhere(self, residence_kb):
        text = "Residence_in_Italy & !Has_Residence |~ false"
        for method in (LC, MP, BASIC, MINIMAL):
            assert ask(residence_kb, text, method) is True


class TestJustifications:
    def test_conflict_kb_two_justifications(self, conflict_kb):
        query, kb = conflict_kb.parse_query("Employee & Student |~ true")
        justs = find_justifications(kb, query.antecedent)
        assert {tuple(sorted(j)) for j in justs} == {(0, 2), (1, 2)}

    def test_residence_kb_unique_justification(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ true")
        justs = find_justifications(kb, query.antecedent)
        assert {tuple(sorted(j)) for j in justs} == {(0, 1, 4)}

    def test_no_justifications_when_consistent(self, taxes_kb):
        from defq.logic import TRUE

        assert find_justifications(taxes_kb, TRUE) == ()

    def test_justifications_are_minimal(self, merry_kb):
        query, kb = merry_kb.parse_query("Student & Adult & !Young |~ true")
        justs = find_justifications(kb, query.antecedent)
        for j1, j2 in itertools.permutations(justs, 2):
            assert not j1 < j2


# Two 16-atom x 16-default KBs of the chain/exception family
# (p_i |~ p_{i+2} and p_i & p_{i+1} |~ !p_{i+2}, indices modulo 16), each with
# a one-conflict antecedent and one giving 6-12 bases and justifications.
FAMILY_16X16 = (
    ("""\
p6 & p7 |~ !p8
p2 & p3 |~ !p4
p11 |~ p13
p15 |~ p1
p9 |~ p11
p4 |~ p6
p12 & p13 |~ !p14
p0 & p1 |~ !p2
p5 & p6 |~ !p7
p4 & p5 |~ !p6
p10 |~ p12
p13 & p14 |~ !p15
p11 & p12 |~ !p13
p1 & p2 |~ !p3
p9 & p10 |~ !p11
p0 |~ p2
""", ("p0 & p1", "p0 & p1 & p3 & p4 & p5 & p7 & p9 & p12 & p14")),
    ("""\
p0 |~ p2
p0 & p1 |~ !p2
p2 |~ p4
p2 & p3 |~ !p4
p4 |~ p6
p4 & p5 |~ !p6
p6 |~ p8
p6 & p7 |~ !p8
p8 |~ p10
p8 & p9 |~ !p10
p10 |~ p12
p10 & p11 |~ !p12
p12 |~ p14
p12 & p13 |~ !p14
p14 |~ p0
p14 & p15 |~ !p0
""", ("p0 & p1", "p1 & p2 & p3 & p5 & p6 & p7 & !p12 & p14 & p15")),
)


def reference_inclusion_maximal(kb, antecedent):
    """The unpruned search: every consistent set, kept when no default
    outside it is consistent with it.  The maximality test runs at each
    leaf, so only the sets found are held."""
    masks = kb.default_masks
    found = []

    def descend(i, mask, chosen):
        if mask == 0:
            return
        if i == len(masks):
            if all(d in chosen or mask & masks[d] == 0 for d in range(len(masks))):
                found.append(frozenset(chosen))
            return
        descend(i + 1, mask & masks[i], chosen + (i,))
        descend(i + 1, mask, chosen)

    descend(0, kb.truth.mask(antecedent), ())
    return found


def reference_justifications(kb, antecedent):
    """The 2^k scan: every refuting subset all of whose one-smaller subsets
    are consistent."""
    a_mask = kb.truth.mask(antecedent)
    k = len(kb)

    def conj(bits):
        return a_mask & kb.members_mask(i for i in range(k) if bits >> i & 1)

    minimal = []
    for bits in range(1 << k):
        if conj(bits) != 0:
            continue
        if all(conj(bits & ~(1 << i)) != 0 for i in range(k) if bits >> i & 1):
            minimal.append(frozenset(i for i in range(k) if bits >> i & 1))
    return tuple(sorted(minimal, key=sorted))


class TestSearchesMatchReference:
    """The pruned searches return exactly what the unpruned ones do."""

    def assert_match(self, kb, antecedent):
        found = _consistent_inclusion_maximal(kb, kb.truth.mask(antecedent))
        assert len(found) == len(set(found))
        assert set(found) == set(reference_inclusion_maximal(kb, antecedent))
        assert find_justifications(kb, antecedent) == reference_justifications(kb, antecedent)

    def test_random_pool(self):
        gen = KbGenerator(seed=737373, max_atoms=6, max_defaults=10)
        for index in range(100):
            kb = gen.knowledge_base(index)
            for w in range(4):
                self.assert_match(kb, gen.query(kb, index, w).antecedent)
            for c in kb.conditionals:
                self.assert_match(kb, c.antecedent)

    @pytest.mark.parametrize("text, antecedents", FAMILY_16X16, ids=["shuffled", "paired"])
    def test_family_16x16(self, text, antecedents):
        kb = parse_kb(text)
        assert (len(kb.signature), len(kb)) == (16, 16)
        for antecedent_text in antecedents:
            query, _ = kb.parse_query(f"{antecedent_text} |~ true")
            self.assert_match(kb, query.antecedent)


class TestSearchesFreeTheirState:
    """A search's path and suffix masks go when it returns, not at the next
    garbage collection: no reference cycle outlives the call."""

    @pytest.mark.parametrize(
        "search",
        [
            lambda kb, rt, q: enumerate_bases(kb, rt, q.antecedent, LC),
            lambda kb, rt, q: enumerate_bases(kb, rt, q.antecedent, MP),
            lambda kb, rt, q: find_justifications(kb, q.antecedent),
            lambda kb, rt, q: rc_query(kb, rt, q),
        ],
        ids=["lc-bases", "mp-bases", "justifications", "rc"],
    )
    def test_no_garbage_left(self, conflict_kb, search):
        query, kb = conflict_kb.parse_query("Employee & Student |~ Busy")
        rt = compute_ranking(kb)
        gc.disable()
        try:
            gc.collect()
            search(kb, rt, query)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRelevantClosure:
    def test_residence_kb_rejects_having_residence(self, residence_kb):
        text = "Italian & German |~ Has_Residence"
        assert ask(residence_kb, text, BASIC) is False
        assert ask(residence_kb, text, MINIMAL) is False

    def test_conflict_kb_rejects_young_nontaxpayer(self, conflict_kb):
        text = "Employee & Student |~ Young & !Pay_Taxes"
        assert ask(conflict_kb, text, BASIC) is False
        assert ask(conflict_kb, text, MINIMAL) is False

    def test_consistent_antecedent_keeps_whole_kb(self, taxes_kb):
        query, kb = taxes_kb.parse_query("Student |~ Young")
        rt = compute_ranking(kb)
        trace = relevant_trace(kb, rt, query, BASIC)
        assert trace.removed == frozenset()
        assert trace.remainder == kb.indices
        assert trace.answer is True

    def test_trace_is_recomputable_evidence(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ Has_Residence")
        rt = compute_ranking(kb)
        trace = relevant_trace(kb, rt, query, BASIC)
        assert trace.relevant == frozenset({0, 1, 4})
        assert trace.removed == frozenset({0, 1})
        assert trace.remainder == frozenset({2, 3, 4})
        assert kb.members_mask(trace.remainder) & kb.truth.mask(query.antecedent) != 0

    def test_minimal_variant_removes_only_lowest_rank_slices(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ Has_Residence")
        rt = compute_ranking(kb)
        trace = relevant_trace(kb, rt, query, MINIMAL)
        assert trace.relevant == frozenset({0, 1})

    @pytest.mark.parametrize("variant", [BASIC, MINIMAL])
    def test_remainder_is_consistent_on_random_pool(self, variant):
        gen = KbGenerator(seed=626262, max_atoms=6, max_defaults=10)
        for index in range(100):
            kb = gen.knowledge_base(index)
            rt = compute_ranking(kb)
            for w in range(4):
                q = gen.query(kb, index, w)
                if rank_of_formula(q.antecedent, rt, kb) == INF:
                    continue
                trace = relevant_trace(kb, rt, q, variant)
                assert kb.members_mask(trace.remainder) & kb.truth.mask(q.antecedent) != 0

    def test_infinite_rank_antecedent_rejected(self, residence_kb):
        query, kb = residence_kb.parse_query("Residence_in_Italy & !Has_Residence |~ true")
        rt = compute_ranking(kb)
        with pytest.raises(ValueError):
            relevant_trace(kb, rt, query, BASIC)

    def test_basic_implies_minimal_on_random_pool(self):
        gen = KbGenerator(seed=515151)
        for index in range(30):
            kb = gen.knowledge_base(index)
            rt = compute_ranking(kb)
            for w in range(4):
                q = gen.query(kb, index, w)
                if relevant_query(kb, rt, q, BASIC):
                    assert relevant_query(kb, rt, q, MINIMAL)
                if relevant_query(kb, rt, q, MINIMAL):
                    assert mp_query(kb, rt, q)


class TestSubsetStrategy:
    def test_irreflexive(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        v = all_valuations(taxes_kb.signature)[5]
        assert not brewka_subset_less(v, v, taxes_kb, rt)

    def test_taxes_kb_young_vs_not_young_worlds(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        atoms = taxes_kb.signature.atoms
        by_true = {v.true_atoms(): v for v in all_valuations(taxes_kb.signature)}
        m1 = by_true[tuple(a for a in atoms if a in ("Student", "Employee", "Pay_Taxes", "Young"))]
        m2 = by_true[tuple(a for a in atoms if a in ("Student", "Employee", "Pay_Taxes"))]
        assert brewka_subset_less(m1, m2, taxes_kb, rt)
        assert not brewka_subset_less(m2, m1, taxes_kb, rt)

    @pytest.mark.parametrize(
        "fixture", ["taxes_kb", "conflict_kb", "swimmer_kb", "merry_kb", "residence_kb"]
    )
    def test_matches_set_ordering_on_violation_sets(self, fixture, request):
        kb = request.getfixturevalue(fixture)
        rt = compute_ranking(kb)
        valuations = all_valuations(kb.signature)
        for m1 in valuations:
            for m2 in valuations:
                expected = mp_less_serious(
                    violated_defaults(m1, kb), violated_defaults(m2, kb), rt
                )
                assert brewka_subset_less(m1, m2, kb, rt) == expected
