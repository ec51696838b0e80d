"""The query's part of a KB: every method but mpr answers on the defaults
that share atoms with the query, and gives the whole KB's answer and, mapped
back to the whole KB's indices, its evidence."""

from pathlib import Path

import pytest

from defq import harness, logic
from defq.cli import _query_evidence, main
from defq.closures import closure_query
from defq.harness import KbGenerator, cross_check
from defq.logic import Formula, TruthTable, mask_indices, to_text
from defq.ranking import compute_ranking, parse_kb

from test_acceptance import MODULAR_GOLDEN
from test_cli import CAP_KB_TEXT, WORST_CASE_KB_TEXT

METHODS = ("rc", "lc", "mp", "basic-relevant", "minimal-relevant", "mpr")

PART_METHODS = ("rc", "lc", "mp", "basic-relevant", "minimal-relevant")

# groups of defaults an untouched part of the KB may hold: satisfiable ones,
# which the part drops, and unsatisfiable ones, which make every rank infinite
EXTRA_GROUPS = (
    "",
    "true |~ true\n",
    "u |~ v\nu |~ !v\ntrue |~ u\n",
    "true |~ false\n",
)


def renamed(f: Formula, suffix: str) -> Formula:
    if f.op == "atom":
        return Formula("atom", (f.args[0] + suffix,))
    return Formula(f.op, tuple(renamed(g, suffix) for g in f.args))


def union_text(seed: int) -> str:
    """Two or three generated KBs with their atoms renamed apart, in one
    file with their defaults interleaved, plus one of ``EXTRA_GROUPS``."""
    gen = KbGenerator(seed, max_atoms=4, max_defaults=5)
    lines = []
    for g in range(2 + seed % 2):
        kb = gen.knowledge_base(g)
        lines.append([
            f"{to_text(renamed(c.antecedent, f'_{g}'))} |~ {to_text(renamed(c.consequent, f'_{g}'))}"
            for c in kb
        ])
    mixed = [line for row in zip(*lines) for line in row]
    mixed += [line for row in lines for line in row[min(map(len, lines)):]]
    return "".join(f"{line}\n" for line in mixed) + EXTRA_GROUPS[seed % len(EXTRA_GROUPS)]


def pool_queries(kb, seed):
    gen = KbGenerator(seed, depth=2)
    yield from (gen.query(kb, 0, w) for w in range(6))
    yield from kb.conditionals
    yield kb.parse_query("fresh |~ fresh")[0]


def test_part_answers_and_evidence_match_the_whole_kb():
    checked = split = with_evidence = 0
    for seed in range(300):
        whole = parse_kb(union_text(seed))
        for q in pool_queries(whole, seed):
            query, kb = whole.parse_query(q.text())
            part, kept = kb.query_part(query)
            if part is not kb:
                split += 1
            rt, part_rt = compute_ranking(kb), compute_ranking(part)
            everything = range(len(kb))
            for method in PART_METHODS:
                answer = closure_query(kb, rt, method)(query)
                assert closure_query(part, part_rt, method)(query) == answer, (
                    seed, query.text(), method,
                )
                expected = _query_evidence(kb, rt, method, query, everything, len(kb))
                got = _query_evidence(part, part_rt, method, query, kept, len(kb))
                assert got == expected, (seed, query.text(), method)
                with_evidence += len(expected) > 1
                checked += 1
    # the pool must exercise the split, and evidence beyond the antecedent rank
    assert split > 500 and with_evidence > 1000, (checked, split, with_evidence)


def test_unsatisfiable_group_keeps_every_rank_infinite():
    kb = parse_kb("a |~ b\nc |~ d\nc |~ !d\ntrue |~ c\nx |~ y\ntrue |~ true\n")
    query, kb = kb.parse_query("a |~ !b")
    part, kept = kb.query_part(query)
    assert kept == (0, 1, 2, 3)
    assert part.signature.atoms == ("a", "b", "c", "d")
    assert closure_query(part, compute_ranking(part), "rc")(query)


def test_atom_free_unsatisfiable_default_is_kept():
    kb = parse_kb("a |~ b\ntrue |~ false\ntrue |~ true\n")
    query, kb = kb.parse_query("a |~ b")
    assert kb.query_part(query)[1] == (0, 1)


def test_nothing_dropped_returns_the_kb_itself():
    whole = parse_kb(CAP_KB_TEXT)
    query, kb = whole.parse_query("p17 & p18 |~ p0")
    assert kb is whole  # the query adds no atom
    assert kb.query_part(query) == (kb, tuple(range(len(kb))))


def test_read_query_atoms_join_the_part_and_its_cap():
    kb = parse_kb(CAP_KB_TEXT)
    query = kb.read_query("p17 & zz |~ yy")
    assert len(kb.signature) == 20  # the KB is not extended
    part, kept = kb.query_part(query)  # nothing dropped: 22 atoms
    with pytest.raises(logic.SizeCapExceeded):
        compute_ranking(part)  # the cap is checked by the part's first truth table
    part, kept = kb.query_part(kb.read_query("q |~ r"))
    assert (kept, part.signature.atoms) == ((), ("q", "r"))
    kb = parse_kb(CAP_KB_TEXT, max_atoms=22)
    query, extended = kb.parse_query("p17 & zz |~ yy")  # built as the part is
    part, kept = kb.query_part(query)
    assert kept == tuple(range(len(kb)))
    assert part.signature.atoms == extended.signature.atoms == (*kb.signature.atoms, "zz", "yy")
    assert part.conditionals == extended.conditionals == kb.conditionals


def test_modular_sample_splits_into_its_taxonomies():
    text = (Path(__file__).resolve().parent.parent / "samples" / "modular.kb").read_text()
    kb = parse_kb(text)
    query, kb = kb.parse_query("Penguin |~ Wings")
    part, kept = kb.query_part(query)
    assert kept == (0, 1, 2, 3)
    assert part.signature.atoms == ("Bird", "Flies", "Wings", "Penguin")
    query, kb = kb.parse_query("Fish |~ Wings")
    assert kb.query_part(query)[1] == (0, 1, 2, 3)
    query, kb = kb.parse_query("Fish |~ Scales")
    part, kept = kb.query_part(query)
    assert (kept, part.signature.atoms) == ((), ("Fish", "Scales"))


@pytest.mark.parametrize("method", PART_METHODS)
def test_the_atom_cap_is_the_parts_not_a_dropped_groups(capsys, method):
    """Under ``--max-atoms 3`` the modular sample answers a query whose part
    holds 2 atoms and no default, though each taxonomy it drops has 4."""
    sample = Path(__file__).resolve().parent.parent / "samples" / "modular.kb"
    argv = ["query", str(sample), "Fish |~ Scales", "--method", method, "--max-atoms", "3"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("no\n", "")


def test_a_dropped_group_past_the_default_cap_is_refused(tmp_path, capsys):
    """A dropped group is tested under the larger of the cap and the default
    cap of 20 atoms: a 21-atom group needs ``--max-atoms 21``."""
    path = tmp_path / "wide.kb"
    wide = [f"q{i}" for i in range(21)]
    path.write_text(f"{' & '.join(wide[:10])} |~ {' | '.join(wide[10:])}\n")
    argv = ["query", str(path), "Fish |~ Scales", "--method", "mp"]
    assert main(argv) == 4
    assert "21 atoms exceeds the enumeration cap of 20" in capsys.readouterr().err
    assert main([*argv, "--max-atoms", "21"]) == 0
    assert capsys.readouterr() == ("no\n", "")


@pytest.fixture
def masks_built(monkeypatch):
    """Sizes (atom counts) of every atom mask and truth table built."""
    sizes = []
    atom_mask = logic._atom_mask
    init = TruthTable.__init__

    def counting_init(self, sig, *args):
        sizes.append(len(sig))
        init(self, sig, *args)

    monkeypatch.setattr(logic, "_atom_mask", lambda i, n: sizes.append(n) or atom_mask(i, n))
    monkeypatch.setattr(TruthTable, "__init__", counting_init)
    return sizes


def test_parse_kb_builds_no_mask(masks_built):
    kb = parse_kb(CAP_KB_TEXT)
    assert masks_built == []
    assert "default_masks" not in vars(kb) and "truth" not in vars(kb)
    assert len(kb.default_masks) == 16 and max(masks_built) == 20


def test_worst_case_mp_query_builds_no_twenty_atom_mask(masks_built, tmp_path, capsys):
    path = tmp_path / "worst.kb"
    path.write_text(WORST_CASE_KB_TEXT)
    assert main(["query", str(path), "p12 |~ p13", "--method", "mp"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert masks_built and max(masks_built) < 20


@pytest.mark.parametrize("query", sorted(MODULAR_GOLDEN))
def test_cli_answers_the_modular_goldens(query, capsys):
    sample = Path(__file__).resolve().parent.parent / "samples" / "modular.kb"
    for method, expected in zip(METHODS, MODULAR_GOLDEN[query]):
        assert main(["query", str(sample), query, "--method", method]) == 0
        assert capsys.readouterr().out == ("yes\n" if expected else "no\n"), method


# mpr does not split: ``query_part`` drops ``u |~ v``, and that changes mpr's
# answer.  On the part, the antecedent's worlds that violate {0, 1, 2} and
# those that violate {0, 3, 4} tie at height 3.  The dropped rank-0 default
# lengthens the chains below {0, 1, 2} (two rank-1 violations) more than those
# below {0, 3, 4}, so on the whole KB only the {0, 3, 4} worlds are minimal.
MPR_SPLIT_KB_TEXT = "s |~ !t\ns & t |~ g\ns & t |~ h\ns & t |~ k\nt |~ !s | m | k\nu |~ v\n"
MPR_SPLIT_QUERY = "s & t & ((!g & !h & k) | (g & h & !k & !m)) |~ !k"


def antecedent_heights(kb, query):
    """(height, violated defaults) of each violation class that holds an
    antecedent world, in mpr's refined model."""
    refined = harness.preferential_refinement(kb)
    heights = harness.height_ranks(refined)
    a = kb.truth.mask(query.antecedent)
    return sorted(
        (heights[c], tuple(mask_indices(refined.violations[c])))
        for c, worlds in enumerate(refined.classes)
        if worlds & a
    )


def test_mpr_on_the_part_differs_from_mpr_on_the_whole_kb(tmp_path, capsys):
    whole = parse_kb(MPR_SPLIT_KB_TEXT)
    query, whole = whole.parse_query(MPR_SPLIT_QUERY)
    part, kept = whole.query_part(query)
    assert kept == (0, 1, 2, 3, 4)
    rt, part_rt = compute_ranking(whole), compute_ranking(part)
    # METHODS order: rc, lc, mp, basic, minimal, mpr
    assert [closure_query(whole, rt, m)(query) for m in METHODS] == [
        False, True, False, False, False, True,
    ]
    assert [closure_query(part, part_rt, m)(query) for m in METHODS] == [
        False, True, False, False, False, False,
    ]
    assert antecedent_heights(part, query) == [(3, (0, 1, 2)), (3, (0, 3, 4))]
    assert antecedent_heights(whole, query)[:2] == [(4, (0, 3, 4)), (5, (0, 1, 2))]
    assert cross_check(whole, [query])[1] == []
    path = tmp_path / "split.kb"
    path.write_text(MPR_SPLIT_KB_TEXT)
    assert main(["query", str(path), MPR_SPLIT_QUERY, "--method", "mpr"]) == 0
    assert capsys.readouterr().out == "yes\n"
