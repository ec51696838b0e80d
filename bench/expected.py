"""Build ``expected.json``: the confirmed answer of every op the ladder and
models workloads can draw.

Run from the repository root: ``python3 bench/expected.py``.  Each answer is
computed in-process by the engine under test and confirmed by another route
before it is written; the build stops on the first disagreement.

- rc: the minimal canonical ranked model (A |~ B iff the least rank of an
  A-world is below the least rank of an (A & !B)-world, or no A-world exists)
  up to 16 atoms, where its world-by-world scan is cheap, and rc => mp;
- mp: ``oracle_mp_query`` on KBs with at most 8 defaults, and the inclusions
  rc => mp and minimal-relevant => mp everywhere;
- lc: mp => lc;
- basic/minimal relevant: basic => minimal => mp;
- mpr: mp => mpr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from defq import compute_ranking, oracle_mp_query, parse_kb  # noqa: E402
from defq.harness import closure_query  # noqa: E402
from defq.logic import land, lnot  # noqa: E402
from defq.semantics import minimal_canonical_model  # noqa: E402

from workloads import CLI_METHODS, EXPECTED, LADDER, MODELS, kb_key, pool, sample_pool  # noqa: E402

ORACLE_MAX_DEFAULTS = 8
CANONICAL_MAX_ATOMS = 16

INCLUSIONS = (
    ("rc", "mp"),
    ("mp", "lc"),
    ("basic-relevant", "minimal-relevant"),
    ("minimal-relevant", "mp"),
    ("mp", "mpr"),
)


def canonical_rc(kb, query) -> bool:
    model = minimal_canonical_model(kb, compute_ranking(kb))
    rank_a = model.formula_rank(query.antecedent)
    if rank_a is None:
        return True
    rank_conflict = model.formula_rank(land(query.antecedent, lnot(query.consequent)))
    return rank_conflict is None or rank_a < rank_conflict


def confirm(name: str, kb, query, answers: dict[str, bool]) -> dict[str, str]:
    """Check ``answers`` by the routes in the module docstring; return the
    route that confirmed each method.  Raises on a disagreement."""
    routes: dict[str, list[str]] = {m: [] for m in answers}

    def fail(why: str) -> None:
        raise SystemExit(f"{name} {query.text()!r}: {why}")

    if "rc" in answers and len(kb.signature) <= CANONICAL_MAX_ATOMS:
        if canonical_rc(kb, query) != answers["rc"]:
            fail("rc disagrees with the canonical model")
        routes["rc"].append("canonical-model")
    if "mp" in answers and len(kb) <= ORACLE_MAX_DEFAULTS:
        if oracle_mp_query(kb, query) != answers["mp"]:
            fail("mp disagrees with the oracle")
        routes["mp"].append("oracle")
    for weaker, stronger in INCLUSIONS:
        if weaker in answers and stronger in answers:
            if answers[weaker] and not answers[stronger]:
                fail(f"inclusion {weaker} => {stronger} fails")
            routes[weaker].append(f"{weaker}=>{stronger}")
            routes[stronger].append(f"{weaker}=>{stronger}")
    unconfirmed = [m for m, r in routes.items() if not r]
    if unconfirmed:
        fail(f"no second route for {unconfirmed}")
    return {m: " ".join(r) for m, r in routes.items()}


def entries(name: str, text: str, queries: list[str], methods) -> dict:
    base = parse_kb(text)
    answers = {}
    for q in queries:
        query, kb = base.parse_query(q)
        rt = compute_ranking(kb)
        got = {m: closure_query(kb, rt, m)(query) for m in methods}
        answers[q] = {"answers": got, "confirmed_by": confirm(name, kb, query, got)}
    return {"kb": name, "queries": answers}


def build() -> dict:
    """Every pool KB once, asked every method any workload asks of it."""
    jobs: dict[str, tuple[str, str, list[str], set[str]]] = {}

    def add(name: str, text: str, queries: list[str], methods) -> None:
        jobs.setdefault(kb_key(text), (name, text, queries, set()))[3].update(methods)

    for name, text, queries in sample_pool():
        add(name, text, queries, CLI_METHODS)
    for rung in LADDER:
        for name, text, queries in pool([rung]):
            add(name, text, queries, rung[3])
    for name, text, queries in pool(MODELS):
        add(name, text, queries, ("mp", "mpr"))
    table = {}
    for key, (name, text, queries, methods) in jobs.items():
        table[key] = entries(name, text, queries, sorted(methods))
        print(f"{name}: {len(queries)} queries x {len(methods)} methods confirmed", flush=True)
    return table


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
