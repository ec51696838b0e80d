"""Renumbering the defaults changes nothing: the six answers stay, and every
default set the engines report (the chain, the lc and mp bases, the
justifications, the relevant trace) maps bit for bit under the permutation,
both in the library and in ``defq query --json``."""

import json
import random
from pathlib import Path

import pytest

from defq import (
    BASIC,
    INF,
    LC,
    MINIMAL,
    MP,
    Conditional,
    KbGenerator,
    KnowledgeBase,
    compare_all,
    compute_ranking,
    enumerate_bases,
    find_justifications,
    land,
    parse_kb,
    rank_of_formula,
    relevant_trace,
)
from defq.cli import main
from defq.logic import mask_indices

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.kb"))


def permuted(kb: KnowledgeBase, perm) -> KnowledgeBase:
    """The KB whose default i is ``kb``'s default ``perm[i]``."""
    conditionals = [kb.conditionals[d] for d in perm]
    return KnowledgeBase(conditionals, kb.signature, max_defaults=kb.max_defaults)


def renumber(perm):
    """Default mask of ``kb`` -> the same defaults' mask in ``permuted(kb, perm)``."""
    new_index = {d: i for i, d in enumerate(perm)}
    return lambda mask: sum(1 << new_index[d] for d in mask_indices(mask))


def permutations(n: int, seed: int):
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)
    return [list(reversed(range(n))), shuffled]


def sample_queries(kb: KnowledgeBase) -> list[Conditional]:
    """Each default's antecedent against the next default's consequent, and
    two defaults' antecedents together against a third's consequent."""
    cs = kb.conditionals
    n = len(cs)
    queries = [Conditional(c.antecedent, cs[(i + 1) % n].consequent) for i, c in enumerate(cs)]
    queries += [
        Conditional(land(c.antecedent, cs[(i + 1) % n].antecedent), cs[(i + 2) % n].consequent)
        for i, c in enumerate(cs)
    ]
    return queries


def assert_renumbering_changes_nothing(kb: KnowledgeBase, perm, queries) -> int:
    """Check every query; returns how many of them removed some default in
    the relevant closures."""
    new = permuted(kb, perm)
    m = renumber(perm)
    rt, new_rt = compute_ranking(kb), compute_ranking(new)
    assert new_rt.chain == tuple(m(c) for c in rt.chain)
    assert new_rt.slices == tuple(m(s) for s in rt.slices)
    assert new_rt.default_ranks == tuple(rt.default_ranks[d] for d in perm)
    removing = 0
    for q in queries:
        assert compare_all(new, q) == compare_all(kb, q), q.text()
        if rank_of_formula(q.antecedent, rt, kb) == INF:
            continue
        for ordering in (LC, MP):
            bases = enumerate_bases(kb, rt, q.antecedent, ordering)
            new_bases = enumerate_bases(new, new_rt, q.antecedent, ordering)
            assert sorted(new_bases) == sorted(m(b) for b in bases)
        justifications = find_justifications(kb, q.antecedent)
        new_justifications = find_justifications(new, q.antecedent)
        assert sorted(new_justifications) == sorted(m(j) for j in justifications)
        for variant in (BASIC, MINIMAL):
            trace = relevant_trace(kb, rt, q, variant)
            new_trace = relevant_trace(new, new_rt, q, variant)
            assert new_trace.answer == trace.answer
            for field in ("relevant", "removed", "remainder"):
                assert getattr(new_trace, field) == m(getattr(trace, field)), field
            removing += trace.removed != 0
    return removing


@pytest.mark.parametrize("path", SAMPLES, ids=[p.stem for p in SAMPLES])
def test_samples(path):
    kb = parse_kb(path.read_text())
    for perm in permutations(len(kb), 0):
        assert_renumbering_changes_nothing(kb, perm, sample_queries(kb))


def test_generated_pool():
    gen = KbGenerator(seed=848484, max_atoms=6, max_defaults=10)
    removing = 0
    for index in range(60):
        kb = gen.knowledge_base(index)
        queries = [gen.query(kb, index, w) for w in range(4)]
        queries += kb.conditionals
        for perm in permutations(len(kb), index):
            removing += assert_renumbering_changes_nothing(kb, perm, queries)
    assert removing > 0


# The modular sample with its student defaults first: a bird query's part
# keeps defaults 3-6, numbered 0-3 inside the part, so evidence printed
# without mapping part indices back would name the wrong defaults.
MODULAR_LINES = (
    "Student |~ !Pay_Taxes",
    "Student |~ Young",
    "Employee & Student |~ Pay_Taxes",
    "Bird |~ Flies",
    "Bird |~ Wings",
    "Penguin |~ Bird",
    "Penguin |~ !Flies",
)


def query_json(tmp_path, capsys, lines, query, method):
    path = tmp_path / "kb.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["query", str(path), query, "--method", method, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("method", ["lc", "mp", "basic-relevant", "minimal-relevant"])
@pytest.mark.parametrize("query", ["Penguin |~ Wings", "Penguin & Bird |~ Flies"])
def test_cli_evidence_maps_back_to_the_whole_kb(tmp_path, capsys, method, query):
    lines = list(MODULAR_LINES)
    for perm in permutations(len(lines), 1):
        new_index = {d: i for i, d in enumerate(perm)}
        before = query_json(tmp_path, capsys, lines, query, method)
        after = query_json(tmp_path, capsys, [lines[d] for d in perm], query, method)
        assert after["answer"] == before["answer"]

        def mapped(indices):
            return sorted(new_index[d] for d in indices)

        evidence, new_evidence = before["evidence"], after["evidence"]
        assert evidence.keys() == new_evidence.keys()
        for key, value in evidence.items():
            if key in ("bases", "justifications"):
                assert sorted(new_evidence[key]) == sorted(mapped(s) for s in value), key
            elif key in ("relevant", "removed", "remaining"):
                assert new_evidence[key] == mapped(value), key
            else:
                assert new_evidence[key] == value, key
