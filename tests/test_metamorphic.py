"""Metamorphic relations over whole KBs.

Renaming the atoms through a bijection, with the new names in another
signature order so that the valuation indices move, changes no answer of
any method and no evidence: the default indices stay, and mpr's minimal
worlds map back name for name.  Appending an exact copy of a default changes
no answer of rc, mp, the two relevant closures or mpr; lc counts the copy
twice, so its answers may change (see ``REDUNDANT_KB_TEXT`` in
``conftest``).  Appending a satisfiable module over atoms of its own changes
no answer of the methods that answer on the query's part, to a query over
the first module; mpr's heights depend on every default, so it is left out
(``tests/test_query_part.py`` pins a query whose answer moves).  Widening the
signature by atoms no default uses changes no answer of any method, mpr
included: each violation class's worlds double with each new atom, one copy
per value of the atom, and every copy keeps the class's violation set and
height."""

import random
from pathlib import Path

import pytest

from defq import (
    Conditional,
    Formula,
    KbGenerator,
    KnowledgeBase,
    Signature,
    closure_query,
    compute_ranking,
    parse_kb,
)
from defq.cli import _query_evidence
from defq.closures import METHODS

from test_renumbering import sample_queries

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.kb"))

# every method whose answers an exact copy of a default leaves alone
COPY_METHODS = tuple(m for m in METHODS if m != "lc")
# every method that answers on the query's part
PART_METHODS = tuple(m for m in METHODS if m != "mpr")


def generated_pool():
    """KBs and queries past tier-1's 4 atoms x 6 defaults: 60 generated
    KBs of up to 6 atoms x 10 defaults, each with four generated queries,
    its own defaults and the queries ``sample_queries`` mixes from them."""
    gen = KbGenerator(seed=515151, max_atoms=6, max_defaults=10)
    for index in range(60):
        kb = gen.knowledge_base(index)
        queries = [gen.query(kb, index, w) for w in range(4)]
        yield kb, [*queries, *kb.conditionals, *sample_queries(kb)]


def sample_pool():
    for path in SAMPLES:
        kb = parse_kb(path.read_text())
        yield kb, sample_queries(kb)


POOLS = {"samples": sample_pool, "generated": generated_pool}


def renamed(f: Formula, names: dict) -> Formula:
    if f.op == "atom":
        return Formula("atom", (names[f.args[0]],))
    return Formula(f.op, tuple(renamed(g, names) for g in f.args))


def renamed_conditional(c: Conditional, names: dict) -> Conditional:
    return Conditional(renamed(c.antecedent, names), renamed(c.consequent, names))


def evidence(kb: KnowledgeBase, method: str, query: Conditional) -> dict:
    """The answer and the whole-KB evidence ``defq query --json`` gives."""
    rt = compute_ranking(kb)
    found = _query_evidence(kb, rt, method, query, range(len(kb)), len(kb))
    return {"answer": closure_query(kb, rt, method)(query), **found}


@pytest.mark.parametrize("pool", POOLS)
def test_renaming_atoms_changes_no_answer_or_evidence(pool):
    rng = random.Random(f"rename:{pool}")
    for kb, queries in POOLS[pool]():
        atoms = kb.signature.atoms
        fresh = [f"r{i}" for i in range(len(atoms))]
        rng.shuffle(fresh)
        names = dict(zip(atoms, fresh))  # old name -> new name
        back = {new: old for old, new in names.items()}
        # the new signature lists the atoms in reverse: atom i of kb is
        # atom n - 1 - i here, so the valuation indices move
        new = KnowledgeBase(
            [renamed_conditional(c, names) for c in kb],
            Signature(names[a] for a in reversed(atoms)),
        )
        assert compute_ranking(new).chain == compute_ranking(kb).chain
        for q in queries:
            for method in METHODS:
                expected = evidence(kb, method, q)
                got = evidence(new, method, renamed_conditional(q, names))
                if method == "mpr":
                    got["minimal_worlds"] = sorted(
                        sorted(back[a] for a in world) for world in got["minimal_worlds"]
                    )
                assert got == expected, (pool, q.text(), method)


@pytest.mark.parametrize("pool", POOLS)
def test_a_copied_default_changes_no_answer_but_lc(pool):
    for kb, queries in POOLS[pool]():
        for d, c in enumerate(kb):
            copied = KnowledgeBase([*kb, c], kb.signature)
            rt, copied_rt = compute_ranking(kb), compute_ranking(copied)
            assert copied_rt.default_ranks == (*rt.default_ranks, rt.default_ranks[d])
            for q in queries:
                for method in COPY_METHODS:
                    expected = closure_query(kb, rt, method)(q)
                    got = closure_query(copied, copied_rt, method)(q)
                    assert got == expected, (pool, d, q.text(), method)


@pytest.mark.parametrize("pool", POOLS)
def test_an_independent_module_changes_no_answer_but_mprs(pool):
    """The union's atom cap is below its signature size, so it builds no
    truth table of its own: each answer comes from the query's part."""
    modules = KbGenerator(seed=535353, max_atoms=6, max_defaults=10)
    for index, (kb, queries) in enumerate(POOLS[pool]()):
        module = modules.knowledge_base(index)
        names = {a: f"{a}_m" for a in module.signature}
        union = KnowledgeBase(
            [*kb, *(renamed_conditional(c, names) for c in module)],
            Signature([*kb.signature, *names.values()]),
            max_atoms=max(len(kb.signature), len(module.signature)),
            max_defaults=len(kb) + len(module),
        )
        assert union.max_atoms < len(union.signature)
        rt = compute_ranking(kb)
        for q in queries:
            part, _ = union.query_part(q)
            part_rt = compute_ranking(part)
            for method in PART_METHODS:
                expected = closure_query(kb, rt, method)(q)
                got = closure_query(part, part_rt, method)(q)
                assert got == expected, (pool, index, q.text(), method)


@pytest.mark.parametrize("pool", POOLS)
def test_fresh_atoms_change_no_answer(pool):
    """Two fresh atoms; the wider KB is answered whole, with no query part,
    so every engine, mpr's split included, sees each world four times."""
    for kb, queries in POOLS[pool]():
        wide = KnowledgeBase(list(kb), Signature([*kb.signature, "fresh0", "fresh1"]))
        rt, wide_rt = compute_ranking(kb), compute_ranking(wide)
        assert wide_rt.chain == rt.chain
        for q in queries:
            for method in METHODS:
                expected = closure_query(kb, rt, method)(q)
                got = closure_query(wide, wide_rt, method)(q)
                assert got == expected, (pool, q.text(), method)
