"""Seriousness orderings, bases, and the syntactic closures."""

import gc
import itertools
from pathlib import Path

import pytest

from defq import (
    BASIC,
    INF,
    LC,
    MINIMAL,
    MP,
    KbGenerator,
    closure_query,
    compare_all,
    compute_ranking,
    enumerate_bases,
    find_justifications,
    lc_query,
    lex_less_serious,
    mp_less_serious,
    mp_query,
    numeric_tuple,
    parse_kb,
    rank_of_formula,
    rc_query,
    relevant_query,
    relevant_trace,
)
from defq.closures import _consistent_inclusion_maximal
from defq.harness import brewka_subset_less, check_postulates
from defq.logic import mask_indices
from reference import default_mask, partition, set_tuple_less, true_atoms, view, violated


def bases(kb, antecedent_text, ordering):
    query, kb = kb.parse_query(f"{antecedent_text} |~ true")
    rt = compute_ranking(kb)
    return {tuple(mask_indices(b)) for b in enumerate_bases(kb, rt, query.antecedent, ordering)}


def ask(kb, text, method):
    query, kb = kb.parse_query(text)
    if method in (LC, MP):
        fn = lc_query if method == LC else mp_query
        return fn(kb, query)
    return relevant_query(kb, query, method)


def slice_masks(part):
    """A reference partition's slices as masks, comparison order."""
    return tuple(sum(1 << d for d in members) for members in part.tuple_view())


class TestPartition:
    """The reference partition on the worked KBs, and the ranking table's
    slice masks against it."""

    def test_mixed_ranks(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        part = partition({1, 2}, rt.default_ranks, rt.order_k)
        assert part.infinite == frozenset()
        assert part.by_rank == (frozenset({1}), frozenset({2}))
        assert part.tuple_view() == (frozenset(), frozenset({2}), frozenset({1}))
        assert numeric_tuple(0b110, rt) == (0, 1, 1)
        assert rt.slices == slice_masks(partition(range(3), rt.default_ranks, rt.order_k))

    def test_empty_set(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        part = partition(set(), rt.default_ranks, rt.order_k)
        assert part.infinite == frozenset()
        assert all(not p for p in part.by_rank)
        assert numeric_tuple(0, rt) == (0, 0, 0)

    def test_conflict_kb_slices(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        part = partition({0, 1, 3}, rt.default_ranks, rt.order_k)
        assert part.tuple_view() == (frozenset(), frozenset({3}), frozenset({0, 1}))
        assert rt.slices == slice_masks(partition(range(4), rt.default_ranks, rt.order_k))

    def test_infinite_slice(self, residence_kb):
        rt = compute_ranking(residence_kb)
        part = partition({0, 2, 3, 4}, rt.default_ranks, rt.order_k)
        assert part.infinite == frozenset({2, 3, 4})
        assert numeric_tuple(0b11101, rt) == (3, 1)
        assert rt.slices == (0b11100, 0b00011)


SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.kb"))


def ordering_pool():
    """The five samples, then the 6-atom, 10-default pool's KBs of at most 8
    defaults: a 10-default KB alone has 4^10 subset pairs."""
    kbs = [parse_kb(path.read_text()) for path in SAMPLES]
    assert len(kbs) == 5
    wide = KbGenerator(seed=525252, max_atoms=6, max_defaults=10)
    pool = [wide.knowledge_base(index) for index in range(60)]
    return kbs + [kb for kb in pool if len(kb) <= 8]


class TestSliceMasksMatchReference:
    def test_every_subset_pair(self):
        deep = 0  # KBs with two or more finite ranks and an infinite slice
        for kb in ordering_pool():
            rt = compute_ranking(kb)
            deep += rt.order_k >= 2 and rt.slices[0] != 0
            subsets = [frozenset(c) for r in range(len(kb) + 1)
                       for c in itertools.combinations(range(len(kb)), r)]
            views = [view(s, rt) for s in subsets]
            sizes = [tuple(map(len, v)) for v in views]
            masks = [default_mask(s) for s in subsets]
            for s, size in zip(masks, sizes):
                assert numeric_tuple(s, rt) == size
            for d, dv, dsize in zip(masks, views, sizes):
                for b, bv, bsize in zip(masks, views, sizes):
                    assert mp_less_serious(d, b, rt) == set_tuple_less(dv, bv)
                    assert lex_less_serious(d, b, rt) == (dsize < bsize)
        assert deep > 0


class TestCountOrdering:
    def test_smaller_low_rank_slice_is_less_serious(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert lex_less_serious(default_mask({2}), default_mask({1, 2}), rt)
        assert not lex_less_serious(default_mask({1, 2}), default_mask({2}), rt)

    def test_irreflexive(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert not lex_less_serious(default_mask({1, 2}), default_mask({1, 2}), rt)

    def test_conflict_kb_single_vs_pair(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        assert lex_less_serious(default_mask({2, 3}), default_mask({0, 1, 3}), rt)


class TestSetOrdering:
    def test_conflict_kb_incomparable_both_ways(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        assert not mp_less_serious(default_mask({0, 1, 3}), default_mask({2, 3}), rt)
        assert not mp_less_serious(default_mask({2, 3}), default_mask({0, 1, 3}), rt)

    def test_empty_below_any_finite_singleton(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert mp_less_serious(0, default_mask({0}), rt)
        assert mp_less_serious(0, default_mask({2}), rt)

    def test_swimmer_kb_incomparable(self, swimmer_kb):
        rt = compute_ranking(swimmer_kb)
        assert not mp_less_serious(default_mask({0}), default_mask({1, 2}), rt)
        assert not mp_less_serious(default_mask({1, 2}), default_mask({0}), rt)

    def test_higher_rank_slice_dominates(self, conflict_kb):
        # missing the rank-1 default loses regardless of rank-0 content
        rt = compute_ranking(conflict_kb)
        assert mp_less_serious(default_mask({0, 1, 2}), default_mask({0, 3}), rt)


class TestOrderingLaws:
    """Strict-partial-order laws, exhaustively on small KBs."""

    def all_subsets(self, kb):
        return range(1 << len(kb))  # every default mask

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
        assert {tuple(mask_indices(j)) for j in justs} == {(0, 2), (1, 2)}

    def test_residence_kb_unique_justification(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ true")
        justs = find_justifications(kb, query.antecedent)
        assert {tuple(mask_indices(j)) for j in justs} == {(0, 1, 4)}

    def test_no_justifications_when_consistent(self, taxes_kb):
        from defq.logic import TRUE

        assert find_justifications(taxes_kb, TRUE) == ()

    def test_justifications_are_minimal(self, merry_kb):
        query, kb = merry_kb.parse_query("Student & Adult & !Young |~ true")
        justs = find_justifications(kb, query.antecedent)
        for j1, j2 in itertools.permutations(justs, 2):
            assert j1 & ~j2 != 0  # j1 is no subset of j2


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
                found.append(default_mask(chosen))
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
        return a_mask & kb.members_mask(bits)

    minimal = []
    for bits in range(1 << k):
        if conj(bits) != 0:
            continue
        if all(conj(bits & ~(1 << i)) != 0 for i in range(k) if bits >> i & 1):
            minimal.append(bits)
    return tuple(sorted(minimal, key=lambda bits: list(mask_indices(bits))))


# Complementary pairs: each of the 8 atoms is defaulted both ways, so every
# one of the 2^8 choices of one default per pair is a maximal consistent set
# and the justifications are the 8 pairs.
COMPLEMENTARY_PAIRS = "".join(f"true |~ p{i}\ntrue |~ !p{i}\n" for i in range(8))


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

    @pytest.mark.parametrize(
        "antecedent_text, consistent, justifications",
        [("true", 256, 8), ("p0 & !p1", 64, 8)],
        ids=["true", "p0-and-not-p1"],
    )
    def test_complementary_pairs(self, antecedent_text, consistent, justifications):
        kb = parse_kb(COMPLEMENTARY_PAIRS)
        assert (len(kb.signature), len(kb)) == (8, 16)
        query, _ = kb.parse_query(f"{antecedent_text} |~ true")
        self.assert_match(kb, query.antecedent)
        assert len(_consistent_inclusion_maximal(kb, kb.truth.mask(query.antecedent))) == consistent
        assert len(find_justifications(kb, query.antecedent)) == justifications


class TestSearchesFreeTheirState:
    """A search's path and suffix masks go when it returns, not at the next
    garbage collection: no reference cycle outlives the call."""

    @pytest.mark.parametrize(
        "search",
        [
            lambda kb, rt, q: enumerate_bases(kb, rt, q.antecedent, LC),
            lambda kb, rt, q: enumerate_bases(kb, rt, q.antecedent, MP),
            lambda kb, rt, q: find_justifications(kb, q.antecedent),
            lambda kb, rt, q: rc_query(kb, q),
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
        trace = relevant_trace(kb, query, BASIC)
        assert trace.removed == 0
        assert trace.remainder == (1 << len(kb)) - 1
        assert trace.answer is True

    def test_trace_is_recomputable_evidence(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ Has_Residence")
        trace = relevant_trace(kb, query, BASIC)
        assert trace.relevant == default_mask({0, 1, 4})
        assert trace.removed == default_mask({0, 1})
        assert trace.remainder == default_mask({2, 3, 4})
        assert kb.members_mask(trace.remainder) & kb.truth.mask(query.antecedent) != 0

    def test_minimal_variant_removes_only_lowest_rank_slices(self, residence_kb):
        query, kb = residence_kb.parse_query("Italian & German |~ Has_Residence")
        trace = relevant_trace(kb, query, MINIMAL)
        assert trace.relevant == default_mask({0, 1})

    @pytest.mark.parametrize("variant", [BASIC, MINIMAL], ids=["basic", "minimal"])
    def test_remainder_is_consistent_on_random_pool(self, variant):
        gen = KbGenerator(seed=626262, max_atoms=6, max_defaults=10)
        for index in range(100):
            kb = gen.knowledge_base(index)
            rt = compute_ranking(kb)
            for w in range(4):
                q = gen.query(kb, index, w)
                if rank_of_formula(q.antecedent, rt, kb) == INF:
                    continue
                trace = relevant_trace(kb, q, variant)
                assert kb.members_mask(trace.remainder) & kb.truth.mask(q.antecedent) != 0

    def test_infinite_rank_antecedent_rejected(self, residence_kb):
        query, kb = residence_kb.parse_query("Residence_in_Italy & !Has_Residence |~ true")
        with pytest.raises(ValueError):
            relevant_trace(kb, query, BASIC)

    def test_basic_and_minimal_part_on_a_three_rank_kb(self):
        # the variants can differ only once removal reaches rank 1, which
        # needs an antecedent of rank >= 2
        kb = parse_kb(
            "!c |~ (b | c) & a\n!a | !c |~ b\nc <-> !b |~ c\n!c -> b |~ b\n!a |~ !b & !b\n"
        )
        query, kb = kb.parse_query("!a |~ (a <-> !c) & !b")
        rt = compute_ranking(kb)
        assert rank_of_formula(query.antecedent, rt, kb) == 3
        assert compare_all(kb, query) == {
            "rc": False, "mp": True, "lc": True, BASIC: False, MINIMAL: True, "mpr": True
        }
        basic, minimal = (relevant_trace(kb, query, v) for v in (BASIC, MINIMAL))
        assert basic.removed & ~minimal.removed != 0

    def test_basic_implies_minimal_on_random_pool(self):
        gen = KbGenerator(seed=515151)
        for index in range(30):
            kb = gen.knowledge_base(index)
            for w in range(4):
                q = gen.query(kb, index, w)
                if relevant_query(kb, q, BASIC):
                    assert relevant_query(kb, q, MINIMAL)
                if relevant_query(kb, q, MINIMAL):
                    assert mp_query(kb, q)


class TestSubsetStrategy:
    """The comparator on valuation indices, against the reference set
    ordering on reference violation sets."""

    def test_irreflexive(self, taxes_kb):
        assert not brewka_subset_less(5, 5, taxes_kb)

    def test_taxes_kb_young_vs_not_young_worlds(self, taxes_kb):
        atoms = taxes_kb.signature.atoms
        by_true = {true_atoms(atoms, j): j for j in range(1 << len(atoms))}
        m1 = by_true[tuple(a for a in atoms if a in ("Student", "Employee", "Pay_Taxes", "Young"))]
        m2 = by_true[tuple(a for a in atoms if a in ("Student", "Employee", "Pay_Taxes"))]
        assert brewka_subset_less(m1, m2, taxes_kb)
        assert not brewka_subset_less(m2, m1, taxes_kb)

    @pytest.mark.parametrize(
        "fixture", ["taxes_kb", "conflict_kb", "swimmer_kb", "merry_kb", "residence_kb"]
    )
    def test_matches_set_ordering_on_violation_sets(self, fixture, request):
        kb = request.getfixturevalue(fixture)
        rt = compute_ranking(kb)
        sets = [violated(kb, j) for j in range(1 << len(kb.signature))]
        views = [view(v, rt) for v in sets]
        for j1, (s1, v1) in enumerate(zip(sets, views)):
            for j2, (s2, v2) in enumerate(zip(sets, views)):
                expected = set_tuple_less(v1, v2)
                assert mp_less_serious(default_mask(s1), default_mask(s2), rt) == expected
                assert brewka_subset_less(j1, j2, kb) == expected


@pytest.mark.parametrize(
    "path, other",
    [(path, other) for path in SAMPLES for other in SAMPLES if other != path],
    ids=lambda path: path.stem,
)
def test_another_kbs_table_is_refused_and_leaves_the_memo_alone(path, other):
    # a table from another KB once filled this KB's base memo with wrong bases
    kb = parse_kb(path.read_text())
    foreign = compute_ranking(parse_kb(other.read_text()))
    queries = [KbGenerator(seed=1).query(kb, 0, which) for which in range(40)]
    for q in queries:
        with pytest.raises(ValueError, match="own ranking table"):
            enumerate_bases(kb, foreign, q.antecedent, MP)
        with pytest.raises(ValueError, match="own ranking table"):
            closure_query(kb, foreign, MP)(q)
    fresh = parse_kb(path.read_text())
    assert [mp_query(kb, q) for q in queries] == [mp_query(fresh, q) for q in queries]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda kb, rt, q: enumerate_bases(kb, rt, q.antecedent, "set"), "unknown ordering 'set'"),
        (lambda kb, rt, q: relevant_trace(kb, q, "maximal"), "unknown variant 'maximal'"),
        (lambda kb, rt, q: closure_query(kb, rt, "z"), "unknown method 'z'"),
        (
            lambda kb, rt, q: check_postulates(kb, "mp", [(q.antecedent,) * 3], ("Transitivity",)),
            "unknown postulate 'Transitivity'",
        ),
    ],
    ids=["enumerate_bases", "relevant_trace", "closure_query", "check_postulates"],
)
def test_an_unknown_name_is_a_value_error(taxes_kb, call, message):
    query, kb = taxes_kb.parse_query("Student |~ Young")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(kb, compute_ranking(kb), query)
