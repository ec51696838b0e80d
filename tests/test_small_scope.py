"""Bounded-exhaustive checks: every KB of a small scope, each asked every
query of its scope (Jackson's small-scope hypothesis).  The scopes' sizes are
pinned so a change to the enumeration shows."""

from itertools import combinations, product

import pytest

from defq import closures, harness
from defq.harness import check_kb, run_small_scope, small_scope, truth_functions
from defq.logic import Signature, TruthTable
from defq.ranking import Conditional, compute_ranking, parse_kb


class TestTruthFunctions:
    @pytest.mark.parametrize("n", [1, 2])
    def test_each_formula_has_its_index_as_truth_mask(self, n):
        tt = TruthTable(Signature("abcd"[:n]))
        assert [tt.mask(f) for f in truth_functions(n)] == list(range(1 << (1 << n)))


class TestEnumeration:
    def test_one_atom_kbs_are_one_per_class_under_negation(self):
        # the defaults of a KB as (antecedent, consequent) truth masks over
        # atom a; negating a swaps bits 0 and 1 of every mask
        def masks(kb):
            return tuple(sorted((kb.truth.mask(c.antecedent), kb.truth.mask(c.consequent)) for c in kb))

        def negated(t):
            return (t & 1) << 1 | t >> 1 & 1

        def canonical(defaults):
            swapped = tuple(sorted((negated(a), negated(b)) for a, b in defaults))
            return min(tuple(sorted(defaults)), swapped)

        every = list(product(range(4), repeat=2))
        for size in (1, 2, 3):
            kept = [masks(kb) for kb in small_scope(1, size)]
            assert len(set(kept)) == len(kept)
            assert {canonical(k) for k in kept} == {canonical(c) for c in combinations(every, size)}

    def test_counts(self):
        assert [sum(1 for _ in small_scope(1, size)) for size in (1, 2, 3)] == [10, 66, 294]
        assert sum(1 for _ in small_scope(2, 1)) == 55


class TestSmallScope:
    def test_one_atom_up_to_three_defaults(self):
        summary = run_small_scope(1, (1, 2, 3))
        assert summary["problems"] == []
        assert (summary["kbs"], summary["satisfiable"], summary["queries"]) == (370, 243, 243 * 16)
        assert summary["checks"] == 162009

    def test_two_atoms_one_default(self):
        summary = run_small_scope(2, (1,))
        assert summary["problems"] == []
        assert (summary["kbs"], summary["satisfiable"], summary["queries"]) == (55, 54, 54 * 256)
        assert summary["checks"] == 163674

    def test_a_reversed_set_ordering_is_caught(self, monkeypatch):
        # planted as in test_harness's ordering check
        less = harness.mp_less_serious
        monkeypatch.setattr(harness, "mp_less_serious", lambda d, b, rt: less(b, d, rt))
        problems = run_small_scope(1, (1, 2, 3))["problems"]
        kinds = {p.split(": ", 1)[1].split(" ", 1)[0] for p in problems}  # KB prefix dropped
        assert kinds == {"set-order-not-coarser", "subset-strategy-mismatch"}

    def test_a_reversed_engine_set_ordering_is_caught(self, monkeypatch):
        # the two-default scope's first KB with two maximal consistent sets
        # that the set ordering separates beyond inclusion
        functions = truth_functions(2)
        queries = [Conditional(a, b) for a in functions for b in functions]
        text = "!a & !b |~ false\na & !b | !a & b |~ a & !b\n"
        kb = parse_kb(text)
        assert check_kb(kb, compute_ranking(kb), queries, [])[1] == []
        less = closures.mp_less_serious
        monkeypatch.setattr(closures, "mp_less_serious", lambda d, b, rt: less(b, d, rt))
        kb = parse_kb(text)
        problems = check_kb(kb, compute_ranking(kb), queries, [])[1]
        assert {"oracle-vs-mp", "mp-vs-refined-model"} <= {p.split(" ", 1)[0] for p in problems}

    def test_problems_name_their_kb(self, monkeypatch):
        monkeypatch.setattr(harness, "inclusion_violations", lambda answers: ("rc=>basic",))
        summary = run_small_scope(1, (1,))
        assert len(summary["problems"]) == summary["queries"]
        assert summary["problems"][0] == "false |~ false: inclusion rc=>basic 'false |~ false'"
