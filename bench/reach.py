"""Probe the rungs the timed workloads leave out and report how each op ends.

Usage, from the repository root: ``python3 bench/reach.py``.

These ops do not get an answer from defq today (out of memory under the
address-space cap, or over the per-op time limit), so the workloads, whose
ops must all answer, cannot hold them.  Each op runs as a ``defq query``
child under the same caps as the benchmark's ops; its outcome class is
printed, then the share of ops that did not answer.  A change that extends
defq's reach lowers that share.  Answers seen here are not checked: these
ops have no confirmed answer.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from ladder import ladder_kb, ladder_queries
from measure import CAP_MB, OP_LIMIT_S, run_child

# The ladder's 20x16 rung, and the models rungs past 10 atoms.
REACH = (
    (20, 16, ("rc", "lc", "mp", "basic-relevant", "minimal-relevant")),
    (12, 8, ("mpr",)),
    (20, 8, ("mpr",)),
)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "defq" / "__init__.py").is_file():
        print(f"no defq sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / "reach"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {"PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}
    outcomes = []
    for atoms, defaults, methods in REACH:
        kb = work / f"{atoms}x{defaults}.kb"
        kb.write_text(ladder_kb(atoms, defaults, 0), encoding="utf-8")
        query = ladder_queries(atoms, defaults, 0, 1)[0]
        for method in methods:
            argv = [sys.executable, "-m", "defq", "query", str(kb), query, "--method", method]
            outcome = run_child(argv, env=env, cap_mb=CAP_MB, limit_s=OP_LIMIT_S, out_dir=work)
            outcomes.append(outcome.cls)
            print(f"{atoms}x{defaults} {method}: {outcome.cls} after {outcome.seconds:.2f} s, "
                  f"peak RSS {outcome.rss_mb:.0f} MB", flush=True)
    failed = sum(cls != "ok" for cls in outcomes)
    print(json.dumps({"attempted": len(outcomes), "failed": failed,
                      "failed_share": failed / len(outcomes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
