"""Self-tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import defq  # noqa: E402
import defq.cli  # noqa: E402,F401 - the tracer wraps cli.main
from defq import INF, compute_ranking, parse_kb, rank_of_formula  # noqa: E402

from ladder import family, ladder_kb, ladder_queries  # noqa: E402
from measure import Outcome, charged, classify, percentile, run_child  # noqa: E402
from tracing import BOUNDARIES, KEYS, Tracer, layer_metrics, merge, self_times  # noqa: E402
from workloads import (  # noqa: E402
    LADDER,
    MODELS,
    POOL_QUERIES,
    VARIANTS,
    expected_answer,
    ladder_ops,
    load_expected,
    models_ops,
    suite_seeds,
)

SMALL_RUNGS = [(a, d) for a, d, *_ in LADDER + MODELS if a <= 12]


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for atoms, defaults in SMALL_RUNGS + [(20, 8), (20, 16)]:
        assert ladder_kb(atoms, defaults, 3) == ladder_kb(atoms, defaults, 3)
        assert ladder_queries(atoms, defaults, 3, 4) == ladder_queries(atoms, defaults, 3, 4)
    assert ladder_ops(7) == ladder_ops(7)
    assert ladder_ops(7) != ladder_ops(8)
    assert models_ops(7) == models_ops(7)
    assert suite_seeds(7) == suite_seeds(7) != suite_seeds(8)


@pytest.mark.parametrize("atoms,defaults", sorted(set(SMALL_RUNGS)))
def test_generated_kbs_have_the_promised_shape(atoms, defaults):
    for variant in range(VARIANTS):
        kb = parse_kb(ladder_kb(atoms, defaults, variant))
        assert len(kb) == defaults
        assert len(kb.signature) == atoms  # every atom occurs
        assert defq.kb_satisfiable(kb)
        rt = compute_ranking(kb)
        assert INF not in rt.default_ranks
        assert sorted(set(rt.default_ranks)) == [0, 1]
        for text in ladder_queries(atoms, defaults, variant, POOL_QUERIES):
            query, qkb = kb.parse_query(text)
            assert qkb is kb
            assert rank_of_formula(query.antecedent, rt, kb) != INF


def test_family_sizes():
    assert len(family(8)) == 16  # wraps: 8 atoms carry 16 defaults
    assert len(family(9)) == 14


def test_methods_disagree_somewhere_in_the_pool():
    table = load_expected()
    rows = [row["answers"] for kb in table.values() for row in kb["queries"].values()]
    assert any(r.get("rc") is False and r.get("mp") is True for r in rows)
    assert any(r.get("mp") is False and r.get("lc") is True for r in rows)


# -- expected answers ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_every_op_a_seed_draws_has_a_confirmed_answer(seed):
    table = load_expected()
    for op in ladder_ops(seed) + models_ops(seed):
        assert isinstance(expected_answer(table, op), bool)


def test_table_entries_match_a_fresh_confirmed_build():
    from expected import entries
    from workloads import CLI_METHODS, kb_key, pool

    table = load_expected()
    for name, text, queries in pool([(8, 8)])[:2]:
        fresh = entries(name, text, queries, CLI_METHODS)["queries"]
        stored = table[kb_key(text)]["queries"]
        for q in queries:
            for method in CLI_METHODS:
                assert stored[q]["answers"][method] == fresh[q]["answers"][method]


# -- percentiles and failure charging ---------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile([3.0], 90) == 3.0
    assert percentile([5.0, 1.0], 50) == 1.0


@pytest.mark.parametrize("ops", [ladder_ops(0), models_ops(0)])
def test_op_lists_leave_ten_samples_above_p90(ops):
    n = len(ops)
    assert n - math.ceil(0.9 * n) >= 10


def test_failed_ops_are_charged_the_limits():
    ok = Outcome("ok", 1.5, 40.0, 0, "yes\n", "")
    failed = Outcome("memory_error", 0.2, 90.0, 1, "", "MemoryError")
    assert charged(ok, 30.0, 2048) == (1.5, 40.0)
    assert charged(failed, 30.0, 2048) == (30.0, 2048.0)


# -- outcome classification -------------------------------------------------------


def test_classify():
    assert classify(0, "", False) == "ok"
    assert classify(4, "size cap exceeded", False) == "refused"
    assert classify(1, "Traceback...\nMemoryError\n", False) == "memory_error"
    assert classify(-9, "", False) == "killed"
    assert classify(2, "parse error", False) == "other_exit"
    assert classify(-9, "", True) == "timeout"


@pytest.mark.parametrize(
    "code,limit_s,cls",
    [
        ("pass", 10.0, "ok"),
        ("raise SystemExit(4)", 10.0, "refused"),
        ("x = bytearray(512 << 20)", 10.0, "memory_error"),
        ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", 10.0, "killed"),
        ("import time; time.sleep(5)", 0.3, "timeout"),
        ("raise SystemExit(3)", 10.0, "other_exit"),
    ],
)
def test_run_child_classifies_outcomes(tmp_path, code, limit_s, cls):
    outcome = run_child(
        [sys.executable, "-c", code], env={}, cap_mb=256, limit_s=limit_s, out_dir=tmp_path
    )
    assert outcome.cls == cls
    assert outcome.rss_mb > 0
    assert outcome.seconds < 5.0


# -- tracing -------------------------------------------------------------------


def _namespaces():
    mods = {n: m for n, m in sys.modules.items() if n == "defq" or n.startswith("defq.")}
    owners = [defq.logic.TruthTable, defq.semantics.PreferentialModel, defq.harness.KbGenerator]
    return {id(o): dict(vars(o)) for o in list(mods.values()) + owners}


def test_wrappers_are_installed_everywhere_and_restored():
    before = _namespaces()
    original = defq.closures.enumerate_bases
    with Tracer():
        assert defq.harness.enumerate_bases is not original
        assert defq.closures.enumerate_bases is defq.harness.enumerate_bases
        assert defq.enumerate_bases is defq.harness.enumerate_bases
        assert "__wrapped__" in vars(defq.logic.TruthTable.__init__)
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, name


def test_traced_answers_equal_untraced_and_spans_nest():
    text = ladder_kb(8, 16, 0)
    queries = ladder_queries(8, 16, 0, POOL_QUERIES)

    def answers():
        kb = parse_kb(text)
        out = []
        for q in queries:
            query, qkb = kb.parse_query(q)
            out.append(defq.harness.compare_all(qkb, query))
        return out

    plain = answers()
    with Tracer() as tracer:
        traced = answers()
    assert traced == plain
    spans = tracer.dump()
    assert len(spans["key"]) > 0
    assert all(s >= 0 for s in self_times(spans))
    metrics = layer_metrics(merge([spans, spans]))
    assert metrics["logic.truth_tables"] == 2 * spans["key"].count(KEYS.index("logic.truth_table"))
    assert metrics["semantics.worlds"] > 0
    assert 0.0 <= metrics["closures.bases_hit_ratio"] <= 1.0


def test_every_boundary_resolves():
    for boundary in BOUNDARIES:
        owner = getattr(defq, boundary.module)
        for part in boundary.name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), boundary


def test_benchmark_json_names_every_metric_the_run_reports():
    import json

    from run import UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    reported = set(layer_metrics(merge([]))) | {
        "cli.startup_s", "trace.overhead_ratio", "trace.prediction_met"
    }
    assert names == reported
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    assert {w["name"] for w in spec["workloads"]} == {"ladder", "models", "suite"}
