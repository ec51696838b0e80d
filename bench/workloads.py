"""The benchmark's three workloads as seeded op lists.

Every op list is built from the workload seed alone.  The ladder and models
ops draw their KBs and queries from a fixed pool (``VARIANTS`` generator
seeds per rung, ``POOL_QUERIES`` queries per KB), and ``expected.json`` holds
the confirmed answer of every pool op, so any seed can be checked.  The mix
of KBs, which sets most of the cost, is the same for every seed (see
``rung_ops``); the seed picks the queries and the order of the ops.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from ladder import SAMPLE_QUERIES, ladder_kb, ladder_queries, sample_text

EXPECTED = Path(__file__).resolve().parent / "expected.json"
CLI_METHODS = ("rc", "lc", "mp", "basic-relevant", "minimal-relevant")
VARIANTS = 4
POOL_QUERIES = 4

# (atoms, defaults, queries per op list, methods asked of each query).
# 16x16 asks lc and mp, the memory-heavy methods, two queries on every pool
# KB, so that the run's peak RSS hardly depends on which queries the seed
# drew (it ranges over 330-610 MB by query); the other methods ask one.  The 20x16 rung is left out: lc and mp run out of
# memory on it, the relevant closures take 8 s per query, longer than a run
# can afford, and its rc answers have no second route cheap enough to
# confirm them.
LADDER = (
    (8, 8, 2, CLI_METHODS),
    (12, 8, 2, CLI_METHODS),
    (16, 8, 2, CLI_METHODS),
    (8, 16, 1, CLI_METHODS),
    (12, 16, 1, CLI_METHODS),
    (16, 16, 8, ("lc", "mp")),
    (16, 16, 1, ("rc", "basic-relevant", "minimal-relevant")),
    (20, 8, 1, CLI_METHODS),
)

# (atoms, defaults, mpr ops per op list).  mpr time grows about 5x per atom
# (0.3 s at 8 atoms, 1.4 s at 9, 5 s at 10x16, 8 s at 10x8), so the wide
# rungs get few ops; 11 atoms and up do not fit a run.
MODELS = (
    (6, 8, 30),
    (7, 8, 25),
    (8, 8, 20),
    (8, 16, 20),
    (9, 8, 4),
    (10, 16, 1),
)

# The suite's trials are drawn per KB shape (atoms in use x defaults), the
# same number of each, because a trial's cost grows about 40-fold from a
# 1x1 KB to a 4x6 one and the shape mix would otherwise vary with the seed.
# The limits are run_random_suite's tier-1 defaults.
SUITE_MAX_ATOMS = 4
SUITE_MAX_DEFAULTS = 6
SUITE_PER_SHAPE = 8


@dataclass(frozen=True)
class QueryOp:
    """One ``defq query`` child: KB name (a file in the work directory),
    KB text, query text and method."""

    kb: str
    text: str
    query: str
    method: str


def kb_key(text: str) -> str:
    """Key of a KB text in ``expected.json``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def expected_answer(table: dict, op: QueryOp) -> bool:
    """The confirmed answer of a pool op; KeyError when the table lacks it."""
    return table[kb_key(op.text)]["queries"][op.query]["answers"][op.method]


def rung_name(atoms: int, defaults: int, variant: int) -> str:
    return f"ladder-{atoms}x{defaults}-v{variant}"


def pool(rungs) -> list[tuple[str, str, list[str]]]:
    """(KB name, KB text, queries) for every pool KB of the given rungs."""
    return [
        (rung_name(a, d, v), ladder_kb(a, d, v), ladder_queries(a, d, v, POOL_QUERIES))
        for a, d, *_ in rungs
        for v in range(VARIANTS)
    ]


def sample_pool() -> list[tuple[str, str, list[str]]]:
    return [(f"sample-{name}", sample_text(name), list(qs)) for name, qs in SAMPLE_QUERIES.items()]


def rung_ops(rng: random.Random, atoms: int, defaults: int, count: int, methods) -> list[QueryOp]:
    """``count`` queries on one rung, each asked of every method.  The k-th
    query is on pool KB k mod ``VARIANTS``; each KB's queries come in a
    seeded order, so a KB asked several times gets distinct queries."""
    orders = [
        rng.sample(ladder_queries(atoms, defaults, v, POOL_QUERIES), POOL_QUERIES)
        for v in range(VARIANTS)
    ]
    ops = []
    for k in range(count):
        v = k % VARIANTS
        query = orders[v][k // VARIANTS % POOL_QUERIES]
        text = ladder_kb(atoms, defaults, v)
        ops.extend(QueryOp(rung_name(atoms, defaults, v), text, query, m) for m in methods)
    return ops


def ladder_ops(seed: int) -> list[QueryOp]:
    """Samples (both queries, every method) and the rungs of ``LADDER``."""
    rng = random.Random(f"ladder-ops:{seed}")
    ops = [
        QueryOp(name, text, q, m) for name, text, qs in sample_pool() for q in qs for m in CLI_METHODS
    ]
    for atoms, defaults, count, methods in LADDER:
        ops += rung_ops(rng, atoms, defaults, count, methods)
    rng.shuffle(ops)
    return ops


def models_ops(seed: int) -> list[QueryOp]:
    rng = random.Random(f"models-ops:{seed}")
    ops = []
    for atoms, defaults, count in MODELS:
        ops += rung_ops(rng, atoms, defaults, count, ("mpr",))
    rng.shuffle(ops)
    return ops


def suite_seeds(seed: int) -> list[int]:
    """Seeds of the suite's one-trial ops, ``SUITE_PER_SHAPE`` of each KB
    shape.  Needs defq importable: the shape of a trial is that of the KB
    defq's own generator makes from the trial seed."""
    from defq.harness import KbGenerator

    rng = random.Random(f"suite-ops:{seed}")
    wanted = {
        (atoms, defaults): SUITE_PER_SHAPE
        for atoms in range(1, SUITE_MAX_ATOMS + 1)
        for defaults in range(1, SUITE_MAX_DEFAULTS + 1)
    }
    seeds = []
    while any(wanted.values()):
        trial = rng.randrange(1 << 31)
        kb = KbGenerator(trial, SUITE_MAX_ATOMS, SUITE_MAX_DEFAULTS).knowledge_base(0)
        shape = (len(kb.signature), len(kb))
        if wanted.get(shape):
            wanted[shape] -= 1
            seeds.append(trial)
    rng.shuffle(seeds)
    return seeds
