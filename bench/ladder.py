"""Seeded generator for the benchmark's size ladder of knowledge bases.

The family is the one the roadmap's baseline used: over atoms p0..p{n-1},
chain defaults ``p_i |~ p_{i+2}`` and exception defaults
``p_i & p_{i+1} |~ !p_{i+2}``.  For an even n the indices wrap modulo n, so
the family has 2n members (8 atoms can carry 16 defaults); for an odd n they
do not wrap, which leaves 2(n-2) members.

Why every generated KB is satisfiable with exactly two finite ranks: the
all-false valuation satisfies every materialization.  A chain antecedent
``p_i`` is consistent with the whole KB, because setting p_i and everything
the chains reach from it (every second atom from p_i on, modulo n when the
indices wrap) true never makes two neighbours true, so no exception fires;
all chains get rank 0.  An exception whose chain partner ``p_i |~ p_{i+2}`` is
present has an exceptional antecedent, and any exception antecedent is
consistent with the exceptions alone (make just its two atoms true), so each
exception gets rank 0 or 1 and at least one pair gives rank 1.  Every
satisfiable antecedent therefore has a finite rank.

Generation depends only on its arguments; this module imports nothing from
defq, so the benchmark can build inputs before it starts the program.
"""

from __future__ import annotations

import random
from pathlib import Path

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"

# The four shipped samples with the queries the README and the acceptance
# tests ask of them: the bottom rung of the ladder.
SAMPLE_QUERIES = {
    "taxes": ("Employee & Student |~ Young", "Student & Italian |~ !Pay_Taxes"),
    "conflict": ("Employee & Student |~ Young & !Pay_Taxes", "Employee & Student |~ Busy"),
    "merry": ("Student & Adult |~ Young", "Student & Adult |~ Young <-> Merry"),
    "residence": ("Italian & German |~ Has_Residence", "Italian |~ Has_Residence"),
}


def sample_text(name: str) -> str:
    return (SAMPLES_DIR / f"{name}.kb").read_text(encoding="utf-8")


def family(atoms: int) -> list[tuple[str, int]]:
    """All (kind, i) members of the family over ``atoms`` atoms; kind is
    ``"chain"`` or ``"exception"``."""
    if atoms < 3:
        raise ValueError("the family needs at least 3 atoms")
    starts = range(atoms) if atoms % 2 == 0 else range(atoms - 2)
    return [(kind, i) for i in starts for kind in ("chain", "exception")]


def _default_text(kind: str, i: int, atoms: int) -> str:
    a, b, c = (f"p{(i + d) % atoms}" for d in range(3))
    if kind == "chain":
        return f"{a} |~ {c}"
    return f"{a} & {b} |~ !{c}"


def _atoms_of(members: list[tuple[str, int]], atoms: int) -> set[int]:
    used: set[int] = set()
    for kind, i in members:
        used.update((i + d) % atoms for d in ((0, 2) if kind == "chain" else (0, 1, 2)))
    return used


def ladder_defaults(atoms: int, defaults: int, seed: int) -> list[tuple[str, int]]:
    """A seeded choice of ``defaults`` family members, in file order.

    The choice uses every atom and holds at least one chain/exception pair
    on the same index, which is what gives the KB its second finite rank.
    """
    pool = family(atoms)
    if defaults > len(pool):
        raise ValueError(f"{atoms} atoms carry at most {len(pool)} family defaults")
    rng = random.Random(f"ladder:{atoms}:{defaults}:{seed}")
    for _ in range(10_000):
        # a pair first, then greedily the members that cover the most new
        # atoms (random among ties), which tiles wide signatures with few defaults
        i = rng.choice(sorted({i for _, i in pool}))
        chosen = [("chain", i), ("exception", i)]
        while len(chosen) < defaults:
            covered = _atoms_of(chosen, atoms)
            rest = [m for m in pool if m not in chosen]
            gain = {m: len(_atoms_of([m], atoms) - covered) for m in rest}
            best = max(gain.values())
            chosen.append(rng.choice([m for m in rest if gain[m] == best]))
        if len(_atoms_of(chosen, atoms)) == atoms:
            rng.shuffle(chosen)
            return chosen
    raise ValueError(f"no {atoms}x{defaults} KB uses every atom")


def ladder_kb(atoms: int, defaults: int, seed: int) -> str:
    """KB text for one rung: one default per line."""
    header = f"# ladder rung {atoms} atoms x {defaults} defaults, seed {seed}\n"
    lines = (_default_text(kind, i, atoms) for kind, i in ladder_defaults(atoms, defaults, seed))
    return header + "".join(f"{line}\n" for line in lines)


def ladder_queries(atoms: int, defaults: int, seed: int, count: int) -> list[str]:
    """``count`` distinct queries for the rung, antecedents drawn from the
    chain and exception antecedents present in the KB (finite rank by the
    argument in the module docstring)."""
    chosen = ladder_defaults(atoms, defaults, seed)
    rng = random.Random(f"ladder-query:{atoms}:{defaults}:{seed}")
    p = [f"p{j}" for j in range(atoms)]
    pairs = sorted({i for kind, i in chosen if kind == "chain"} & {
        i for kind, i in chosen if kind == "exception"
    })
    starts = sorted({i for _, i in chosen})
    queries: list[str] = []
    for _ in range(1000):
        if len(queries) == count:
            return queries
        i = rng.choice(pairs if rng.random() < 0.7 else starts)
        a, b, c, d, e = (p[(i + k) % atoms] for k in range(5))
        antecedent = f"{a} & {b}" if rng.random() < 0.75 else a
        consequent = rng.choice((c, f"!{c}", d, e, f"{d} & {e}", f"{c} | {d}"))
        query = f"{antecedent} |~ {consequent}"
        if query not in queries:
            queries.append(query)
    raise ValueError(f"fewer than {count} distinct queries for {atoms}x{defaults}")
