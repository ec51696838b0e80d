"""defq benchmark: one closed-loop client runs a seeded op list, one op at a
time, and prints the metrics of the run as its last line of output.

Usage, from the repository root:

    python3 bench/run.py --workload ladder|models|suite --seed N --seconds S --trace 0|1

Workloads:

- ``ladder``: each op is a ``defq query`` child for one of rc, lc, mp and the
  two relevant closures, on the four samples and the generated size ladder;
- ``models``: each op is a ``defq query --method mpr`` child on small
  generated KBs;
- ``suite``: each op is one in-process ``harness.run_random_suite`` trial
  (tier-1 parameters), in one worker child.

With ``--trace 0`` the op list runs in passes, as many as fit in ``--seconds``
(at least one), and the end-to-end metrics come out.  With ``--trace 1`` the
first ``TRACE_OPS`` ops run once untraced and once with the layer tracer
installed in the child, and the per-layer metrics come out.

Every answer is compared with ``expected.json`` (ladder, models) or with the
trial's own violation count (suite); a wrong answer makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from measure import CAP_MB, OP_LIMIT_S, charged, percentile, run_child
from tracing import LAYERS, layer_metrics, merge, write
from workloads import (
    SUITE_MAX_ATOMS,
    SUITE_MAX_DEFAULTS,
    expected_answer,
    ladder_ops,
    load_expected,
    models_ops,
    suite_seeds,
)

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 150.0  # ops not started by then are charged as timeouts
SETUP_REPEATS = 5  # set-up samples per pass
TRACE_OPS = {"ladder": None, "models": None, "suite": 100}  # None: the whole list

# Boundary metrics predicted to hold the most self time on each workload.
PREDICTED_TOP = {
    "ladder": ("closures.", "logic.truth_table_s"),
    "models": ("semantics.refinement_s",),
    "suite": ("harness.", "closures.comparator_s"),
}

SETUP_PARSE = (
    "import sys, defq\n"
    "for path in sys.argv[1:]:\n"
    "    defq.parse_kb(open(path, encoding='utf-8').read())\n"
)
SETUP_GENERATE = (
    "import json, sys\n"
    "from defq.harness import KbGenerator\n"
    "for seed in json.load(open(sys.argv[1])):\n"
    f"    KbGenerator(seed, {SUITE_MAX_ATOMS}, {SUITE_MAX_DEFAULTS}).knowledge_base(0)\n"
)


@dataclass
class OpResult:
    cls: str
    seconds: float  # charged latency
    rss_mb: float  # charged peak RSS
    answer: object = None
    correct: bool = True
    startup_s: float = 0.0


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.work = root / ".bench_work"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "kbs").mkdir(parents=True)
        (self.work / "spans").mkdir()
        # a fixed hash seed keeps set and dict iteration order, and with it
        # the engines' work, the same from run to run
        self.env = {"PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}
        self.started = time.monotonic()
        if workload == "suite":
            self.ops: list = suite_seeds(seed)
            self.seeds_path = self.work / "seeds.json"
            self.seeds_path.write_text(json.dumps(self.ops))
        else:
            self.ops = ladder_ops(seed) if workload == "ladder" else models_ops(seed)
            self.expected = load_expected()
            for op in self.ops:
                (self.work / "kbs" / f"{op.kb}.kb").write_text(op.text, encoding="utf-8")

    def child(self, argv: list[str], limit_s: float = OP_LIMIT_S):
        return run_child(
            [sys.executable, *argv], env=self.env, cap_mb=CAP_MB, limit_s=limit_s, out_dir=self.work
        )

    def over_budget(self) -> bool:
        return time.monotonic() - self.started > RUN_BUDGET_S

    # -- set-up ---------------------------------------------------------------

    def setup_argv(self) -> list[str]:
        if self.workload == "suite":
            return ["-c", SETUP_GENERATE, str(self.seeds_path)]
        return ["-c", SETUP_PARSE, *sorted(str(p) for p in (self.work / "kbs").iterdir())]

    def setup_once(self) -> float:
        """Time for a fresh interpreter to import defq and parse every KB
        text of the op list (the suite: generate its trial KBs)."""
        outcome = self.child(self.setup_argv())
        if not outcome.ok:
            raise SystemExit(f"set-up failed ({outcome.cls}): {outcome.stderr[-2000:]}")
        return outcome.seconds

    # -- one pass over ops ---------------------------------------------------------

    def run_pass(self, ops: list, traced: bool) -> tuple[list[OpResult], list[dict]]:
        if self.workload == "suite":
            return self.suite_pass(ops, traced)
        results, dumps = [], []
        for index, op in enumerate(ops):
            if self.over_budget():
                results.append(OpResult("timeout", OP_LIMIT_S, float(CAP_MB)))
                continue
            kb_path = str(self.work / "kbs" / f"{op.kb}.kb")
            args = ["query", kb_path, op.query, "--method", op.method]
            spans_path = self.work / "spans" / f"{index}.json"
            argv = [str(HERE / "traced_cli.py"), str(spans_path), *args] if traced else ["-m", "defq", *args]
            spawned = time.monotonic_ns()
            outcome = self.child(argv)
            seconds, rss = charged(outcome, OP_LIMIT_S, CAP_MB)
            result = OpResult(outcome.cls, seconds, rss)
            if outcome.ok:
                result.answer = outcome.stdout.split("\n", 1)[0].strip() == "yes"
                result.correct = result.answer == expected_answer(self.expected, op)
            if traced and spans_path.exists():
                dump = json.loads(spans_path.read_text())
                dump["op"] = [index] * len(dump["op"])
                mains = [s for k, s in zip(dump["key"], dump["start"]) if dump["keys"][k] == "cli.main"]
                result.startup_s = (mains[0] - spawned) / 1e9 if mains else 0.0
                dumps.append(dump)
            results.append(result)
        return results, dumps

    def suite_pass(self, seeds: list[int], traced: bool) -> tuple[list[OpResult], list[dict]]:
        seeds_path = self.work / "pass-seeds.json"
        seeds_path.write_text(json.dumps(seeds))
        spans_path = self.work / "spans" / "suite.json"
        argv = [str(HERE / "suite_worker.py"), str(seeds_path), str(OP_LIMIT_S)]
        if traced:
            argv.append(str(spans_path))
        remaining = max(1.0, RUN_BUDGET_S - (time.monotonic() - self.started))
        outcome = self.child(argv, limit_s=remaining)
        lines = [json.loads(line) for line in outcome.stdout.splitlines() if line.startswith("{")]
        lost = "timeout" if outcome.cls == "timeout" else "killed"
        results = []
        for index in range(len(seeds)):
            record = lines[index] if index < len(lines) else {"cls": lost, "seconds": OP_LIMIT_S}
            ok = record["cls"] == "ok"
            result = OpResult(
                record["cls"],
                record["seconds"] if ok else OP_LIMIT_S,
                outcome.rss_mb if ok else float(CAP_MB),
            )
            if ok:
                result.answer = record["answers"]
                result.correct = record["violations"] == 0
            results.append(result)
        dumps = [json.loads(spans_path.read_text())] if traced and spans_path.exists() else []
        return results, dumps


def end_to_end(bench: Bench, seconds: float) -> tuple[list[OpResult], dict[str, float], int]:
    """Passes over the op list, each cut into ``SETUP_REPEATS`` chunks with
    a set-up sample before each chunk.  The machine's speed drifts over
    seconds, so set-up samples spread over the run give a steadier median
    than samples taken back to back."""
    bench.setup_once()  # untimed: compiles the bytecode, caches the inputs
    chunk = -(-len(bench.ops) // SETUP_REPEATS)
    setups: list[float] = []
    results: list[OpResult] = []
    walls: list[float] = []
    measuring = time.monotonic()
    while True:
        ops: list[OpResult] = []
        for start in range(0, len(bench.ops), chunk):
            setups.append(bench.setup_once())
            ops += bench.run_pass(bench.ops[start:start + chunk], traced=False)[0]
        results += ops
        walls.append(sum(r.seconds for r in ops))
        elapsed = time.monotonic() - measuring
        if elapsed + elapsed / len(walls) > seconds or bench.over_budget():
            break
    latencies = [r.seconds for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "answered_share": sum(r.cls == "ok" for r in results) / len(results),
    }
    return results, metrics, len(walls)


def per_layer(bench: Bench) -> tuple[list[OpResult], dict[str, float], bool]:
    limit = TRACE_OPS[bench.workload]
    ops = bench.ops[:limit] if limit else bench.ops
    bench.setup_once()  # untimed: compiles the bytecode, caches the inputs
    plain, _ = bench.run_pass(ops, traced=False)
    traced, dumps = bench.run_pass(ops, traced=True)
    same = all(p.answer == t.answer for p, t in zip(plain, traced))
    spans = merge(dumps)
    write(str(bench.work / f"spans-{bench.workload}.json"), spans)
    metrics = layer_metrics(spans)
    metrics["cli.startup_s"] = sum(r.startup_s for r in traced)
    metrics["trace.overhead_ratio"] = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    boundaries = {k: v for k, v in metrics.items()
                  if k.endswith("_s") and not k.endswith(".self_s") and k.split(".")[0] in LAYERS
                  and k != "cli.startup_s"}
    top = max(boundaries, key=boundaries.get)
    met = any(top == p or (p.endswith(".") and top.startswith(p)) for p in PREDICTED_TOP[bench.workload])
    metrics["trace.prediction_met"] = int(met)
    layers = ", ".join(f"{layer} {metrics[layer + '.self_s']:.3f}s" for layer in LAYERS)
    print(f"self time by layer: {layers}")
    print(f"top boundary by self time: {top} {boundaries[top]:.3f}s; predicted "
          f"{' or '.join(PREDICTED_TOP[bench.workload])}: {'met' if met else 'NOT met (prediction wrong)'}")
    if not same:
        print("traced answers differ from untraced answers")
    return plain + traced, metrics, same


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
         "peak_rss_mb": "MB", "answered_share": "share"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_met"):
        return "flag"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ladder", "models", "suite"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "defq" / "__init__.py").is_file():
        print(f"no defq sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = Bench(root, args.workload, args.seed)
    if args.trace:
        results, metrics, same = per_layer(bench)
    else:
        results, metrics, passes = end_to_end(bench, args.seconds)
        same = True
        print(f"passes {passes}, ops per pass {len(bench.ops)}")

    wrong = sum(not r.correct for r in results)
    failed = sum(r.cls != "ok" for r in results)
    classes = {c: sum(r.cls == c for r in results) for c in sorted({r.cls for r in results})}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit(name)}")
    print(f"wrong_answers {wrong} count")
    print(f"failed_share {failed / len(results):.6g} share ({classes})")
    correct = wrong == 0 and same
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
