"""Child process of the ``suite`` workload: runs one-trial random suites in
process, one at a time, and prints one JSON line per op.

Usage: ``python3 bench/suite_worker.py <seeds.json> <op limit s> [<spans.json>]``.
With a spans path the layer tracer is installed around the ops and its spans
are written there at the end.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from tracing import Tracer, write


def run_op(seed: int) -> dict:
    from defq import harness
    from defq.logic import SizeCapExceeded

    try:
        results, summary = harness.run_random_suite(seed, count=1)
    except MemoryError:
        return {"cls": "memory_error"}
    except SizeCapExceeded:
        return {"cls": "refused"}
    except Exception:  # noqa: BLE001 - an op that crashes is an outcome, not a stop
        traceback.print_exc()
        return {"cls": "other_exit"}
    return {
        "cls": "ok",
        "violations": summary["violations"],
        "answers": [list(row) for row in results[0].queries],
    }


def main() -> int:
    seeds = json.loads(open(sys.argv[1], encoding="utf-8").read())
    limit_s = float(sys.argv[2])
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = Tracer().install() if spans_path else None
    try:
        for op, seed in enumerate(seeds):
            if tracer:
                tracer.op = op
            started = time.perf_counter()
            record = run_op(seed)
            record["seconds"] = time.perf_counter() - started
            if record["cls"] == "ok" and record["seconds"] > limit_s:
                record["cls"] = "timeout"
            print(json.dumps(record), flush=True)
    finally:
        if tracer:
            tracer.restore()
            write(spans_path, tracer.dump())
    return 0


if __name__ == "__main__":
    sys.exit(main())
