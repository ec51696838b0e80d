"""Acceptance criteria for the whole package.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  Logic answers are exact; the random suites must finish inside their
time budget.  The shared 200-KB random pool is built once per module.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from defq import (
    BASIC,
    INF,
    LC,
    MINIMAL,
    MP,
    check_postulates,
    compute_ranking,
    enumerate_bases,
    find_justifications,
    lc_query,
    mask_indices,
    minimal_canonical_model,
    mp_query,
    mpr_query,
    oracle_mp_query,
    parse_formula,
    parse_kb,
    rc_query,
    relevant_query,
    run_random_suite,
    satisfies,
)

from conftest import (
    BRIGHT_KB_TEXT,
    CONFLICT_KB_TEXT,
    CONFLICT_SPLIT_KB_TEXT,
    MERRY_KB_TEXT,
    REDUNDANT_KB_TEXT,
    RESIDENCE_KB_TEXT,
    SWIMMER_KB_TEXT,
    TAXES_KB_TEXT,
)
from reference import true_atoms

MODULAR_KB_TEXT = (Path(__file__).resolve().parent.parent / "samples" / "modular.kb").read_text()

# Golden answers on samples/modular.kb, per method: rc, lc, mp, basic and
# minimal relevant, mpr.  The first six queries stay inside one taxonomy or
# span both; the last asks about an atom no default mentions.
MODULAR_GOLDEN = {
    "Penguin |~ Wings": (False, True, True, True, True, True),
    "Penguin |~ !Flies": (True, True, True, True, True, True),
    "Employee & Student |~ Young": (False, True, True, True, True, True),
    "Penguin & Employee & Student |~ Wings & Young": (False, True, True, True, True, True),
    "Bird & Student |~ Flies & !Pay_Taxes": (True, True, True, True, True, True),
    "Penguin & Student |~ Flies": (False, False, False, False, False, False),
    "Fish |~ Wings": (False, False, False, False, False, False),
}
MODULAR_METHODS = ("rc", "lc", "mp", BASIC, MINIMAL, "mpr")

SUITE_SEED = 20250801
SUITE_KBS = 200
SUITE_QUERIES_PER_KB = 5


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS  {label} ({elapsed:.2f}s)", flush=True)


def ask(kb_text: str, query_text: str, method: str) -> bool:
    kb = parse_kb(kb_text)
    query, kb = kb.parse_query(query_text)
    if method == "rc":
        return rc_query(kb, query)
    if method == "mp":
        return mp_query(kb, query)
    if method == "lc":
        return lc_query(kb, query)
    if method == "mpr":
        return mpr_query(kb, query)
    return relevant_query(kb, query, method)


def bases_of(kb_text: str, antecedent: str, ordering: str) -> set:
    kb = parse_kb(kb_text)
    query, kb = kb.parse_query(f"{antecedent} |~ true")
    rt = compute_ranking(kb)
    return {
        tuple(mask_indices(b)) for b in enumerate_bases(kb, rt, query.antecedent, ordering)
    }


@pytest.fixture(scope="module")
def random_suite():
    start = time.perf_counter()
    results, summary = run_random_suite(
        seed=SUITE_SEED,
        count=SUITE_KBS,
        max_atoms=4,
        max_defaults=6,
    )
    elapsed = time.perf_counter() - start
    return results, summary, elapsed


def test_criterion_1_rankings():
    with criterion(1, "default ranks and exceptionality chains"):
        taxes = parse_kb(TAXES_KB_TEXT)
        rt = compute_ranking(taxes)
        assert rt.default_ranks == (0, 0, 1)
        assert [list(mask_indices(c)) for c in rt.chain] == [[0, 1, 2], [2], []]
        assert compute_ranking(parse_kb(BRIGHT_KB_TEXT)).default_ranks == (0, 0, 0, 1)
        assert compute_ranking(parse_kb(RESIDENCE_KB_TEXT)).default_ranks == (
            0, 0, INF, INF, INF,
        )


def test_criterion_2_rational_closure_queries():
    with criterion(2, "rational-closure accepts/rejects on the student KB"):
        assert ask(TAXES_KB_TEXT, "Student & Italian |~ !Pay_Taxes", "rc") is True
        assert ask(TAXES_KB_TEXT, "Employee & Student |~ Young", "rc") is False
        assert ask(TAXES_KB_TEXT, "Employee & Student |~ !Young", "rc") is False


def test_criterion_3_canonical_model_strata():
    with criterion(3, "canonical model reproduces all 16 world ranks"):
        kb = parse_kb(TAXES_KB_TEXT)
        model = minimal_canonical_model(kb)
        s, e, p, y = "Student", "Employee", "Pay_Taxes", "Young"
        expected = {
            0: {frozenset(), frozenset({p}), frozenset({y}), frozenset({p, y}),
                frozenset({e}), frozenset({e, y}), frozenset({e, p}),
                frozenset({e, y, p}), frozenset({s, y})},
            1: {frozenset({s, e, p}), frozenset({s, e, p, y}), frozenset({s}),
                frozenset({s, p}), frozenset({s, p, y})},
            2: {frozenset({s, e}), frozenset({s, e, y})},
        }
        actual: dict = {}
        for rank, stratum in enumerate(model.strata):
            for j in mask_indices(stratum):
                actual.setdefault(rank, set()).add(
                    frozenset(true_atoms(kb.signature.atoms, j))
                )
        assert actual == expected
        assert len(model.worlds) == 16


def test_criterion_4_count_vs_set_ordering_divergence():
    with criterion(4, "count/set ordering divergence and presentation split"):
        query = "Employee & Student |~ Young & !Pay_Taxes"
        assert ask(CONFLICT_KB_TEXT, query, "lc") is True
        assert ask(CONFLICT_KB_TEXT, query, "mp") is False
        assert bases_of(CONFLICT_KB_TEXT, "Employee & Student", LC) == {(0, 1, 3)}
        assert bases_of(CONFLICT_KB_TEXT, "Employee & Student", MP) == {
            (0, 1, 3), (2, 3),
        }
        assert ask(CONFLICT_SPLIT_KB_TEXT, query, "lc") is False
        assert ask(CONFLICT_SPLIT_KB_TEXT, query, "mp") is False


def test_criterion_5_weight_of_independent_reasons():
    with criterion(5, "independent-evidence weighting splits the closures"):
        antecedent = "Olympic_Swimmer & Adult & Employee"
        assert ask(SWIMMER_KB_TEXT, f"{antecedent} |~ !Young", "lc") is True
        assert bases_of(SWIMMER_KB_TEXT, antecedent, LC) == {(1, 2)}
        assert ask(SWIMMER_KB_TEXT, f"{antecedent} |~ Young", "mp") is False
        assert ask(SWIMMER_KB_TEXT, f"{antecedent} |~ !Young", "mp") is False


def test_criterion_6_rational_monotonicity_counterexample():
    with criterion(6, "rational-monotonicity failure for the set-ordering closure"):
        assert ask(MERRY_KB_TEXT, "Student & Adult |~ Young <-> Merry", "mp") is True
        assert ask(MERRY_KB_TEXT, "Student & Adult |~ Young", "mp") is False
        assert (
            ask(MERRY_KB_TEXT, "Student & Adult & !Young |~ Young <-> Merry", "mp")
            is False
        )
        assert ask(MERRY_KB_TEXT, "Student & Adult |~ Young", "lc") is True


def test_criterion_7_ranked_extension():
    with criterion(7, "height collapse strengthens MP and is LC-incomparable"):
        assert ask(MERRY_KB_TEXT, "Student & Adult |~ Young", "mpr") is True
        assert ask(MERRY_KB_TEXT, "Student & Adult |~ Young", "mp") is False
        assert ask(REDUNDANT_KB_TEXT, "a & c |~ !e", "mpr") is True
        assert ask(REDUNDANT_KB_TEXT, "a & c |~ e", "mpr") is False
        assert ask(REDUNDANT_KB_TEXT, "a & c |~ !e", "lc") is False
        assert ask(REDUNDANT_KB_TEXT, "a & c |~ e", "lc") is True


def test_criterion_8_relevant_closure():
    with criterion(8, "basic/minimal relevant closure on both conflict KBs"):
        residence_query = "Italian & German |~ Has_Residence"
        assert ask(RESIDENCE_KB_TEXT, residence_query, BASIC) is False
        assert ask(RESIDENCE_KB_TEXT, residence_query, MINIMAL) is False
        assert ask(RESIDENCE_KB_TEXT, residence_query, "mp") is True
        assert ask(RESIDENCE_KB_TEXT, residence_query, "lc") is True

        conflict_query = "Employee & Student |~ Young & !Pay_Taxes"
        assert ask(CONFLICT_KB_TEXT, conflict_query, BASIC) is False
        assert ask(CONFLICT_KB_TEXT, conflict_query, MINIMAL) is False
        kb = parse_kb(CONFLICT_KB_TEXT)
        antecedent = parse_formula("Employee & Student")
        assert {tuple(mask_indices(j)) for j in find_justifications(kb, antecedent)} == {
            (0, 2), (1, 2),
        }


def test_criterion_9_model_oracle_agreement(random_suite):
    results, summary, elapsed = random_suite
    with criterion(9, "model/syntactic agreement and inclusions on 200 random KBs"):
        assert summary["trials"] == SUITE_KBS
        assert summary["queries"] == SUITE_KBS * SUITE_QUERIES_PER_KB
        agreement_kinds = (
            "rc-vs-canonical-model", "mp-vs-refined-model", "inclusion",
            "subset-strategy-mismatch", "height-vs-layer-ranks",
            "set-order-not-coarser", "count-basis-not-set-basis", "oracle-vs-mp",
        )
        for result in results:
            for problem in result.problems:
                assert not problem.startswith(agreement_kinds), problem
        assert summary["violations"] == 0
        assert elapsed < 60.0, f"random suite took {elapsed:.1f}s"


def test_criterion_10_postulate_suite(random_suite):
    results, summary, elapsed = random_suite
    with criterion(10, "postulates hold where required; RM failure is flagged"):
        for result in results:
            for problem in result.problems:
                assert not problem.startswith(("mp-postulate", "mpr-postulate")), problem
        assert summary["postulate_instances_applicable"] > 0
        assert elapsed < 60.0

        kb = parse_kb(MERRY_KB_TEXT)
        triple = (
            parse_formula("Student & Adult"),
            parse_formula("!Young"),
            parse_formula("Young <-> Merry"),
        )
        (record,) = check_postulates(kb, "mp", [triple], ("RM",))
        assert record.violated, "expected rational-monotonicity failure was not flagged"
        (record,) = check_postulates(kb, "mpr", [triple], ("RM",))
        assert not record.violated


def test_criterion_11_independent_taxonomies():
    with criterion(11, "golden answers on two independent taxonomies"):
        for query_text, golden in MODULAR_GOLDEN.items():
            answers = tuple(ask(MODULAR_KB_TEXT, query_text, m) for m in MODULAR_METHODS)
            assert answers == golden, query_text
            # second routes, on the whole KB: the oracle for mp, the
            # canonical model for rc
            query, kb = parse_kb(MODULAR_KB_TEXT).parse_query(query_text)
            assert oracle_mp_query(kb, query) is golden[2], query_text
            assert satisfies(minimal_canonical_model(kb), query) is golden[0], query_text
