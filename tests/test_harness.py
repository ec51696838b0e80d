"""Cross-engine matrix, postulate checking, oracle, and the random suite."""

from itertools import product

import pytest

from defq import (
    KbGenerator,
    check_postulates,
    compare_all,
    cross_check,
    inclusion_violations,
    mp_query,
    oracle_mp_query,
    parse_formula,
    parse_kb,
    run_random_suite,
)
from defq import closures, harness, semantics
from defq.closures import METHODS
from defq.harness import (
    PREFERENTIAL_POSTULATES,
    _ordering_problems,
    _strict_order_problem,
    _subset_less,
)
from defq.logic import SizeCapExceeded, mask_indices
from defq.ranking import KnowledgeBase


def matrix(kb, text):
    query, kb = kb.parse_query(text)
    return compare_all(kb, query)


class TestCompareAll:
    def test_conflict_kb_matrix(self, conflict_kb):
        assert matrix(conflict_kb, "Employee & Student |~ Young & !Pay_Taxes") == {
            "rc": False,
            "mp": False,
            "lc": True,
            "basic-relevant": False,
            "minimal-relevant": False,
            "mpr": True,
        }

    def test_residence_kb_matrix(self, residence_kb):
        assert matrix(residence_kb, "Italian & German |~ Has_Residence") == {
            "rc": False,
            "mp": True,
            "lc": True,
            "basic-relevant": False,
            "minimal-relevant": False,
            "mpr": True,
        }

    def test_redundant_kb_matrix(self, redundant_kb):
        not_e = matrix(redundant_kb, "a & c |~ !e")
        assert (not_e["lc"], not_e["mp"], not_e["mpr"]) == (False, False, True)
        e = matrix(redundant_kb, "a & c |~ e")
        assert (e["lc"], e["mp"], e["mpr"]) == (True, False, False)

    def test_inclusion_violation_detection(self):
        # answers in METHODS order: rc, mp, lc, basic, minimal, mpr
        good = dict(zip(METHODS, (False, True, True, False, False, True)))
        assert inclusion_violations(good) == ()
        bad = dict(zip(METHODS, (True, False, True, True, False, True)))
        assert set(inclusion_violations(bad)) == {"basic=>minimal"}

    def test_the_covering_pairs_flag_every_vector_the_old_table_did(self):
        # rc=>mp and the four other pairs below follow from the covering
        # pairs by transitivity, so a vector that breaks one is flagged
        old = [("rc", "mp"), ("mp", "lc"), ("mp", "mpr"),
               ("basic-relevant", "minimal-relevant"), ("minimal-relevant", "mp")]
        newly_flagged = 0
        for vector in product((False, True), repeat=len(METHODS)):
            answers = dict(zip(METHODS, vector))
            if any(answers[weaker] and not answers[stronger] for weaker, stronger in old):
                assert inclusion_violations(answers)
            elif inclusion_violations(answers):
                assert inclusion_violations(answers) == ("rc=>basic",)
                newly_flagged += 1
        assert newly_flagged > 0


class TestPostulates:
    def triple(self, a, b, c):
        return (parse_formula(a), parse_formula(b), parse_formula(c))

    def test_rational_monotonicity_fails_for_mp_on_merry_kb(self, merry_kb):
        triples = [
            self.triple("Student & Adult", "!Young", "Young <-> Merry")
        ]
        records = check_postulates(merry_kb, "mp", triples, ("RM",))
        (record,) = records
        assert record.applicable
        assert not record.holds
        assert record.violated

    def test_same_triple_does_not_violate_rm_for_lc(self, merry_kb):
        triples = [
            self.triple("Student & Adult", "!Young", "Young <-> Merry")
        ]
        (record,) = check_postulates(merry_kb, "lc", triples, ("RM",))
        assert not record.violated

    def test_same_triple_does_not_violate_rm_for_mpr(self, merry_kb):
        (record,) = check_postulates(
            merry_kb,
            "mpr",
            [self.triple("Student & Adult", "!Young", "Young <-> Merry")],
            ("RM",),
        )
        assert not record.violated

    @pytest.mark.parametrize("method", ["rc", "mp", "lc", "mpr"])
    def test_reflexivity_always_holds(self, conflict_kb, method):
        triples = [
            self.triple("Student", "Employee", "Young"),
            self.triple("false", "Young", "Busy"),
        ]
        for record in check_postulates(conflict_kb, method, triples, ("Refl",)):
            assert record.holds

    def test_preferential_postulates_hold_for_mp_on_pool(self):
        gen = KbGenerator(seed=818181)
        applicable = 0
        for index in range(12):
            kb = gen.knowledge_base(index)
            triples = [gen.triple(kb, index, w) for w in range(4)]
            for record in check_postulates(kb, "mp", triples, PREFERENTIAL_POSTULATES):
                applicable += record.applicable
                assert not record.violated
        assert applicable > 0


class TestOracle:
    def test_conflict_kb_golden_answers(self, conflict_kb):
        query, kb = conflict_kb.parse_query("Employee & Student |~ Young & !Pay_Taxes")
        assert oracle_mp_query(kb, query) is False

    def test_bright_kb_inherits_brightness(self, bright_kb):
        query, kb = bright_kb.parse_query("Employee & Student |~ Bright")
        assert oracle_mp_query(kb, query) is True

    def test_agrees_with_engine_on_random_pool(self):
        gen = KbGenerator(seed=919191)
        for index in range(25):
            kb = gen.knowledge_base(index)
            for w in range(4):
                q = gen.query(kb, index, w)
                assert oracle_mp_query(kb, q) == mp_query(kb, q)

    def test_reads_no_engine_mask_memo(self, monkeypatch):
        """The oracle decides an infinite-rank antecedent from its own mask
        and the ranking's worlds, not from ``KnowledgeBase.mask``."""
        gen = KbGenerator(seed=919191)
        pool = []
        for index in range(10):
            kb = gen.knowledge_base(index)
            pool += [(kb, gen.query(kb, index, w)) for w in range(4)]
        clash = parse_kb("a |~ b\na |~ !b\n")  # a has infinite rank
        for text in ("a |~ !b", "a & b |~ c", "true |~ !a", "!a |~ b"):
            query, kb = clash.parse_query(text)
            pool.append((kb, query))
        expected = [mp_query(kb, q) for kb, q in pool]
        assert expected[-4:] == [True, True, True, False]

        def refuse(self, f):
            raise AssertionError("the oracle read KnowledgeBase.mask")

        monkeypatch.setattr(KnowledgeBase, "mask", refuse)
        assert [oracle_mp_query(kb, q) for kb, q in pool] == expected


class TestSyntaxSensitivity:
    def test_count_ordering_changes_with_presentation_but_set_ordering_does_not(
        self, conflict_kb, conflict_split_kb
    ):
        text = "Employee & Student |~ Young & !Pay_Taxes"
        packed = matrix(conflict_kb, text)
        split = matrix(conflict_split_kb, text)
        assert packed["lc"] is True and split["lc"] is False
        assert packed["mp"] is False and split["mp"] is False


class TestGenerator:
    def test_deterministic_per_seed(self):
        first = KbGenerator(seed=5).knowledge_base(3)
        second = KbGenerator(seed=5).knowledge_base(3)
        assert [c.text() for c in first.conditionals] == [
            c.text() for c in second.conditionals
        ]
        assert first.signature.atoms == second.signature.atoms

    def test_different_seeds_differ_somewhere(self):
        texts = {
            tuple(c.text() for c in KbGenerator(seed=s).knowledge_base(0).conditionals)
            for s in range(6)
        }
        assert len(texts) > 1

    def test_respects_size_bounds(self):
        gen = KbGenerator(seed=13, max_atoms=3, max_defaults=4)
        for index in range(10):
            kb = gen.knowledge_base(index)
            assert 1 <= len(kb) <= 4
            assert len(kb.signature) <= 3


class TestRandomSuite:
    def test_small_run_is_clean_and_logged(self):
        results, summary = run_random_suite(seed=101, count=8)
        assert summary["trials"] == 8
        assert summary["queries"] == 40
        assert summary["violations"] == 0
        assert all(r.seed == 101 for r in results)
        assert all(r.problems == () for r in results)
        assert summary["postulate_instances_applicable"] > 0

    def test_runs_are_reproducible(self):
        first = run_random_suite(seed=42, count=4)
        second = run_random_suite(seed=42, count=4)
        assert [r.kb_lines for r in first[0]] == [r.kb_lines for r in second[0]]
        assert [r.queries for r in first[0]] == [r.queries for r in second[0]]

    def test_a_postulate_violation_reaches_the_problems(self, monkeypatch):
        # a planted fault in the engine the postulates ask: mp answers no to
        # every query, so Refl fails on each triple and no other mp
        # postulate applies; compare_all reads closures' name, not this one
        engine = harness.closure_query
        monkeypatch.setattr(
            harness,
            "closure_query",
            lambda kb, rt, method: (lambda q: False) if method == "mp" else engine(kb, rt, method),
        )
        results, summary = run_random_suite(20250801, 2)
        problems = [p for r in results for p in r.problems]
        assert summary["violations"] == len(problems) == 6
        assert all(p.startswith("mp-postulate Refl on (") and p.endswith(")") for p in problems)


class TestOrderChecks:
    # bit x of below[y] says x is below y
    def test_strict_orders_pass(self):
        assert _strict_order_problem(()) is None
        assert _strict_order_problem((0b000, 0b001, 0b011)) is None  # 0 < 1 < 2, 0 < 2

    def test_reflexive_pair_is_flagged(self):
        problem = _strict_order_problem((0b00, 0b11))  # 0 < 1, 1 < 1
        assert problem is not None and problem.startswith("refined-order-not-strict")

    def test_non_transitive_pairs_are_flagged(self):
        problem = _strict_order_problem((0b000, 0b001, 0b010))  # 0 < 1 < 2, not 0 < 2
        assert problem is not None and problem.startswith("refined-order-not-strict")

    def test_agreement_check_reports_a_broken_refined_order(self, merry_kb, monkeypatch):
        refine = harness.preferential_refinement

        def broken(kb):
            pref = refine(kb)
            y = next(c for c, lower in enumerate(pref.below) if lower)
            x = next(mask_indices(pref.below[y]))
            below = list(pref.below)
            below[x] |= 1 << y  # x < y already; add y < x
            return harness.PreferentialModel(kb, pref.classes, below, pref.violations)

        monkeypatch.setattr(harness, "preferential_refinement", broken)
        _, problems, _ = cross_check(merry_kb, [])
        assert len(problems) == 1 and problems[0].startswith("refined-order-not-strict")

    def test_agreement_check_reports_height_disagreement(self, merry_kb, monkeypatch):
        monkeypatch.setattr(
            harness, "layer_ranks", lambda pref: tuple(h + 1 for h in harness.height_ranks(pref))
        )
        _, problems, _ = cross_check(merry_kb, [])
        assert problems == ["height-vs-layer-ranks"]

    def test_agreement_check_reports_a_lifted_mpr_class(self, merry_kb, monkeypatch):
        # a planted fault in the engine: one class goes one height up
        heights = semantics.violation_heights

        def lifted(kb, violations):
            found = heights(kb, violations)
            found[max(found)] += 1
            return found

        monkeypatch.setattr(semantics, "violation_heights", lifted)
        _, problems, _ = cross_check(merry_kb, [])
        assert problems == ["mpr-vs-refined-strata"]
        results, summary = run_random_suite(seed=101, count=8)
        assert summary["violations"] > 0
        assert any("mpr-vs-refined-strata" in r.problems for r in results)

    def test_agreement_check_reports_mpr_keeping_the_greatest_height(
        self, merry_kb, monkeypatch
    ):
        # a planted fault in the engine: the antecedent's classes of greatest
        # height stand in for those of least height
        def greatest_height_worlds(kb, a):
            classes = semantics.violation_classes(kb, kb.truth.full)
            heights = semantics.violation_heights(kb, (v for v, _ in classes))
            greatest, worlds = None, 0
            for violated, members in semantics.violation_classes(kb, a):
                if greatest is None or heights[violated] > greatest:
                    greatest, worlds = heights[violated], 0
                if heights[violated] == greatest:
                    worlds |= members
            return worlds

        monkeypatch.setattr(semantics, "least_height_worlds", greatest_height_worlds)
        query, _ = merry_kb.parse_query("Student & Adult |~ Young")
        _, problems, _ = cross_check(merry_kb, [query])
        assert problems == [f"mpr-vs-refined-model {query.text()!r}"]
        results, summary = run_random_suite(seed=101, count=8)
        assert summary["violations"] > 0
        assert any(p.startswith("mpr-vs-refined-model") for r in results for p in r.problems)

    def test_inclusions_flag_relevant_closures_that_answer_no(self, monkeypatch):
        # a planted fault in the engine: both relevant closures answer no to
        # every antecedent of finite rank, which basic=>minimal=>mp passes
        trace = closures.relevant_trace
        monkeypatch.setattr(
            closures, "relevant_trace", lambda *args: trace(*args)._replace(answer=False)
        )
        results, summary = run_random_suite(seed=20250801, count=20)
        assert summary["violations"] == 30
        assert all(p.startswith("inclusion rc=>basic ") for r in results for p in r.problems)

    def test_clean_kb_has_no_model_problems(self, merry_kb):
        query, _ = merry_kb.parse_query("Student & Adult |~ Young")
        # five inclusions and three model routes per query, three order checks
        assert cross_check(merry_kb, [query])[1:] == ([], 5 + 3 + 3)

    def test_model_routes_check_the_reported_answers(self, merry_kb, monkeypatch):
        # a planted fault in the answers cross_check reports: rc's flipped
        query, _ = merry_kb.parse_query("Student & Adult |~ Young")
        answers = harness.compare_all

        def flipped(kb, q):
            found = answers(kb, q)
            return {**found, "rc": not found["rc"]}

        monkeypatch.setattr(harness, "compare_all", flipped)
        _, problems, _ = cross_check(merry_kb, [query])
        assert f"rc-vs-canonical-model {query.text()!r}" in problems

    def test_cross_check_rows_problems_and_counts(self, merry_kb, monkeypatch):
        # the one per-KB check behind both ``defq check <file>`` and the suite
        query, _ = merry_kb.parse_query("Student & Adult |~ Young")
        rows, problems, checks = cross_check(merry_kb, [query])
        assert rows == [(query.text(), compare_all(merry_kb, query))]
        assert (problems, checks) == ([], 5 + 6)
        monkeypatch.setattr(harness, "inclusion_violations", lambda answers: ("rc=>basic",))
        _, problems, _ = cross_check(merry_kb, [query])
        assert problems == [f"inclusion rc=>basic {query.text()!r}"]

    def test_cross_check_counts_each_inclusion_once_per_query(self, merry_kb, monkeypatch):
        queries = [merry_kb.parse_query(text)[0] for text in ("Student |~ Young", "Adult |~ Merry")]
        _, _, checks = cross_check(merry_kb, queries)
        extra = harness._INCLUSIONS + (("mp=>mp", "mp", "mp"),)
        monkeypatch.setattr(harness, "_INCLUSIONS", extra)
        _, problems, more = cross_check(merry_kb, queries)
        assert (problems, more) == ([], checks + len(queries))

    def test_cross_check_refuses_a_reference_over_budget(self, merry_kb, monkeypatch):
        # one world mask and one predecessor mask per violation class
        query, _ = merry_kb.parse_query("Student |~ Young")
        classes = len(semantics.mpr_heights(merry_kb))
        needed = -(-classes * (2 ** len(merry_kb.signature) + classes) // 8)  # bytes, rounded up
        monkeypatch.setattr(harness, "REFERENCE_BUDGET", needed)
        assert cross_check(merry_kb, [query])[1] == []
        monkeypatch.setattr(harness, "REFERENCE_BUDGET", needed - 1)
        with pytest.raises(
            SizeCapExceeded, match=f"more than {classes - 1} violation classes over 5 atoms"
        ):
            cross_check(merry_kb, [query])

    def test_a_refusal_computes_no_heights(self, merry_kb, monkeypatch):
        # the guard counts the classes and stops; it ranks none of them
        monkeypatch.setattr(harness, "REFERENCE_BUDGET", 0)
        with pytest.raises(SizeCapExceeded, match="the reference refinement of "):
            cross_check(merry_kb, [])
        assert "mpr_heights" not in merry_kb.cache


class TestOrderingChecks:
    """The set-vs-count coarseness check and the subset-strategy check."""

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_every_pair_is_compared(self, seed):
        gen = KbGenerator(seed, max_atoms=4, max_defaults=6)
        for index in range(4):
            kb = gen.knowledge_base(index)
            problems, checks = _ordering_problems(kb)
            assert problems == []
            assert checks == 4 ** len(kb) + 4 ** len(kb.signature)

    def test_a_wrong_set_ordering_fails_both_checks(self, conflict_kb, monkeypatch):
        less = harness.mp_less_serious
        monkeypatch.setattr(harness, "mp_less_serious", lambda d, b, rt: less(b, d, rt))
        problems, _ = _ordering_problems(conflict_kb)
        kinds = {p.split(" ", 1)[0] for p in problems}
        assert kinds == {"set-order-not-coarser", "subset-strategy-mismatch"}

    def test_subset_less_is_strict_weak_preference(self):
        # the comparator's definition, read literally: weak preference holds
        # when the slices all coincide, or at some rank s1's set strictly
        # contains s2's and every higher rank agrees
        def weakly_preferred(s1, s2):
            n = len(s1)
            return s1 == s2 or any(
                s1[i] != s2[i] and s2[i] & ~s1[i] == 0 and s1[i + 1:] == s2[i + 1:]
                for i in range(n)
            )

        lists = list(product(range(4), repeat=3))  # three ranks over two defaults
        for s1 in lists:
            for s2 in lists:
                expected = weakly_preferred(s1, s2) and not weakly_preferred(s2, s1)
                assert _subset_less(s1, s2) == expected, (s1, s2)
