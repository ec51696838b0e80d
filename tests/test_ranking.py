"""Ranking construction, the per-KB memo and rational-closure queries."""

from pathlib import Path

import pytest

from defq import (
    INF,
    LC,
    MP,
    KbGenerator,
    compare_all,
    compute_ranking,
    kb_satisfiable,
    land,
    lnot,
    parse_formula,
    parse_kb,
    rank_of_formula,
    rc_query,
)
from defq import logic
from defq.logic import FALSE, TRUE, Formula, atom, mask_indices
from defq.ranking import Conditional, per_kb
from conftest import TAXES_KB_TEXT
from reference import default_mask, is_exceptional


def materialize(members, kb):
    """Material counterparts ``A -> B`` of the selected defaults; their
    conjunction must have the KB's precomputed mask for the selection."""
    formulas = frozenset(kb.conditionals[i].materialization() for i in members)
    assert kb.truth.conjunction_mask(formulas) == kb.members_mask(default_mask(members))
    return formulas


class TestMaterialize:
    def test_empty_selection(self, taxes_kb):
        assert materialize(set(), taxes_kb) == frozenset()

    def test_single_default(self, taxes_kb):
        (formula,) = materialize({2}, taxes_kb)
        assert formula == parse_formula("Employee & Student -> Pay_Taxes")

    def test_full_kb_cardinality(self, taxes_kb):
        assert len(materialize(range(len(taxes_kb)), taxes_kb)) == 3


class TestExceptionality:
    def test_student_not_exceptional(self, taxes_kb):
        student = parse_formula("Student")
        assert not is_exceptional(student, range(len(taxes_kb)), taxes_kb)

    def test_employed_student_exceptional(self, taxes_kb):
        es = parse_formula("Employee & Student")
        assert is_exceptional(es, range(len(taxes_kb)), taxes_kb)

    def test_false_always_exceptional(self, taxes_kb):
        assert is_exceptional(FALSE, set(), taxes_kb)
        assert is_exceptional(FALSE, range(len(taxes_kb)), taxes_kb)


class TestRankingConstruction:
    def test_taxes_kb(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert rt.default_ranks == (0, 0, 1)
        assert [list(mask_indices(c)) for c in rt.chain] == [[0, 1, 2], [2], []]
        assert rt.order_k == 2

    def test_bright_kb(self, bright_kb):
        assert compute_ranking(bright_kb).default_ranks == (0, 0, 0, 1)

    def test_residence_kb_infinite_tail(self, residence_kb):
        rt = compute_ranking(residence_kb)
        assert rt.default_ranks == (0, 0, INF, INF, INF)
        assert rt.chain[-1] == default_mask({2, 3, 4})
        assert rt.order_k == 1

    def test_empty_kb(self):
        kb = parse_kb("")
        rt = compute_ranking(kb)
        assert rt.default_ranks == ()
        assert rt.chain == (0,)
        assert rt.order_k == 0

    def test_chain_is_monotone_and_short(self, conflict_kb):
        rt = compute_ranking(conflict_kb)
        for earlier, later in zip(rt.chain, rt.chain[1:]):
            assert later & ~earlier == 0
        assert len(rt.chain) <= len(conflict_kb) + 1

    def test_ranking_is_cached(self, taxes_kb):
        assert compute_ranking(taxes_kb) is compute_ranking(taxes_kb)


class TestFormulaRank:
    def test_student_rank_zero(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        student = parse_formula("Student")
        assert rank_of_formula(student, rt, taxes_kb) == 0

    def test_employed_student_rank_one(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        es = parse_formula("Employee & Student")
        assert rank_of_formula(es, rt, taxes_kb) == 1

    def test_false_has_infinite_rank(self, taxes_kb):
        rt = compute_ranking(taxes_kb)
        assert rank_of_formula(FALSE, rt, taxes_kb) == INF

    def test_rank_stable_under_fresh_query_atoms(self, taxes_kb):
        query, extended = taxes_kb.parse_query("Student & Italian |~ !Pay_Taxes")
        assert extended is not taxes_kb
        assert compute_ranking(extended).default_ranks == compute_ranking(taxes_kb).default_ranks
        rt = compute_ranking(extended)
        assert rank_of_formula(query.antecedent, rt, extended) == 0


class TestFormulaMasks:
    def test_mask_is_built_once_and_kept(self, monkeypatch):
        kb = parse_kb(TAXES_KB_TEXT)
        f = parse_formula("Employee & !Student | Young")
        expected = kb.truth.mask(f)
        built = []
        atom_mask = logic._atom_mask
        monkeypatch.setattr(logic, "_atom_mask", lambda i, n: built.append(i) or atom_mask(i, n))
        assert kb.mask(f) == expected
        assert sorted(built) == sorted(kb.signature.index(a) for a in ("Employee", "Student", "Young"))
        built.clear()
        assert kb.mask(f) == expected
        assert built == []


class TestPerKbMemo:
    def test_slot_names_and_key_shapes(self):
        # the layout that bench/tracing.py reads to tell a memo hit from a miss
        sample = Path(__file__).resolve().parents[1] / "samples" / "taxes.kb"
        kb = parse_kb(sample.read_text())
        query, _ = kb.parse_query("Employee & Student |~ Young")
        compare_all(kb, query)
        a = query.antecedent
        assert set(kb.cache) == {
            "masks", "ranking", "family", "bases", "justifications",
            "min_canonical", "mpr_heights", "mpr_minimal",
        }
        assert set(kb.cache["bases"]) == {(LC, a), (MP, a)}
        assert set(kb.cache["family"]) == {a}
        assert set(kb.cache["justifications"]) == {a}
        assert set(kb.cache["mpr_minimal"]) == {kb.mask(a)}
        assert {a, query.consequent} <= set(kb.cache["masks"])
        assert all(isinstance(f, Formula) for f in kb.cache["masks"])
        for slot in ("ranking", "min_canonical", "mpr_heights"):  # once per KB
            assert len(kb.cache[slot]) == 1

    def test_one_family_serves_the_bases_and_the_justifications(self, conflict_kb):
        # lc, mp and both relevant closures read one search's result
        query, kb = conflict_kb.parse_query("Employee & Student |~ Busy")
        compare_all(kb, query)
        a = query.antecedent
        assert list(kb.cache["family"]) == [a]
        maximal, refuting = kb.cache["family"][a]
        assert kb.cache["justifications"][a] is refuting
        assert len(refuting) == 2
        for ordering in (LC, MP):
            assert set(kb.cache["bases"][(ordering, a)]) <= set(maximal)

    def test_a_call_that_raises_stores_no_slot(self):
        calls = []

        @per_kb("probe", lambda x: x)
        def probe(kb, x):
            calls.append(x)
            if x < 0:
                raise ValueError(x)
            return [x]

        kb = parse_kb(TAXES_KB_TEXT)
        with pytest.raises(ValueError):
            probe(kb, -1)
        assert "probe" not in kb.cache
        assert probe(kb, 2) is probe(kb, 2)
        assert calls == [-1, 2] and kb.cache["probe"] == {2: [2]}


class TestRcQuery:
    def test_italian_students_dont_pay(self, taxes_kb):
        query, kb = taxes_kb.parse_query("Student & Italian |~ !Pay_Taxes")
        assert rc_query(kb, query)

    def test_employed_students_young_undecided(self, taxes_kb):
        q_young, _ = taxes_kb.parse_query("Employee & Student |~ Young")
        q_not_young, _ = taxes_kb.parse_query("Employee & Student |~ !Young")
        assert not rc_query(taxes_kb, q_young)
        assert not rc_query(taxes_kb, q_not_young)

    def test_impossible_antecedent_accepts_anything(self, taxes_kb):
        query = Conditional(FALSE, atom("Young"))
        assert rc_query(taxes_kb, query)

    def test_specific_subclass_pays(self, taxes_kb):
        query, kb = taxes_kb.parse_query("Employee & Student & Italian |~ Pay_Taxes")
        assert rc_query(kb, query)


class TestRankingProperties:
    """Invariants over a pool of random KBs (seeds fixed for replay)."""

    POOL = [KbGenerator(seed=424200 + i).knowledge_base(i) for i in range(25)]

    @pytest.mark.parametrize("kb_index", range(25))
    def test_rank_antitone_under_conjunction(self, kb_index):
        kb = self.POOL[kb_index]
        rt = compute_ranking(kb)
        gen = KbGenerator(seed=7)
        for w in range(6):
            a = gen.query(kb, 0, w).antecedent
            b = gen.query(kb, 1, w).antecedent
            ra = rank_of_formula(a, rt, kb)
            rab = rank_of_formula(land(a, b), rt, kb)
            assert ra <= rab

    @pytest.mark.parametrize("kb_index", range(25))
    def test_top_query_matches_rank_threshold(self, kb_index):
        kb = self.POOL[kb_index]
        rt = compute_ranking(kb)
        gen = KbGenerator(seed=8)
        for w in range(6):
            a = gen.query(kb, 0, w).antecedent
            accepted = rc_query(kb, Conditional(TRUE, lnot(a)))
            rank_a = rank_of_formula(a, rt, kb)
            assert accepted == (rank_a >= 1 or rank_a == INF)

    @pytest.mark.parametrize("kb_index", range(25))
    def test_unsatisfiable_antecedent_accepts_all(self, kb_index):
        kb = self.POOL[kb_index]
        rt = compute_ranking(kb)
        contradiction = land(atom(kb.signature.atoms[0]), lnot(atom(kb.signature.atoms[0]))) \
            if len(kb.signature) else FALSE
        assert rank_of_formula(contradiction, rt, kb) == INF
        assert rc_query(kb, Conditional(contradiction, FALSE))

    @pytest.mark.parametrize("kb_index", range(25))
    def test_world_masks_and_formula_ranks_follow_the_chain(self, kb_index):
        kb = self.POOL[kb_index]
        rt = compute_ranking(kb)
        assert len(rt.worlds) == len(rt.chain)
        for i, members in enumerate(rt.chain):
            assert rt.worlds[i] == kb.members_mask(members)
        gen = KbGenerator(seed=9)
        for w in range(6):
            q = gen.query(kb, 0, w)
            for f in (q.antecedent, land(q.antecedent, lnot(q.consequent)), TRUE, FALSE):
                first = (
                    i
                    for i, members in enumerate(rt.chain)
                    if not is_exceptional(f, mask_indices(members), kb)
                )
                assert rank_of_formula(f, rt, kb) == next(first, INF)

    def test_pool_is_satisfiable_by_construction(self):
        assert all(kb_satisfiable(kb) for kb in self.POOL)
