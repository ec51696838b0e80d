"""Command-line interface: formats, flags, and exit codes."""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defq
from defq import cli, logic
from defq.logic import mask_indices
from defq.cli import ARGUMENTS, COMMANDS, build_parser, main, read_argv
from defq.closures import METHODS, closure_query
from defq.ranking import compute_ranking, parse_kb

from conftest import (
    CONFLICT_KB_TEXT,
    RESIDENCE_KB_TEXT,
    TAXES_KB_TEXT,
)
from test_acceptance import MODULAR_KB_TEXT

UNSAT_KB_TEXT = "true |~ a\ntrue |~ !a\n"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def kb_file(tmp_path):
    def write(text, name="kb.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_taxes_kb_listing(self, kb_file, capsys):
        code, out, _ = run(capsys, "rank", kb_file(TAXES_KB_TEXT))
        assert code == 0
        assert "0: rank 0" in out
        assert "1: rank 0" in out
        assert "2: rank 1" in out
        assert "order k: 2" in out
        assert "C0: {0, 1, 2}" in out
        assert "C1: {2}" in out
        assert "C2: {}" in out

    def test_infinite_ranks_render_as_inf(self, kb_file, capsys):
        code, out, _ = run(capsys, "rank", kb_file(RESIDENCE_KB_TEXT))
        assert code == 0
        for index in (2, 3, 4):
            assert f"{index}: rank inf" in out

    def test_empty_file(self, kb_file, capsys):
        code, out, _ = run(capsys, "rank", kb_file("# nothing here\n"))
        assert code == 0
        assert "order k: 0" in out

    def test_json_rank_marks_infinite(self, kb_file, capsys):
        code, out, _ = run(capsys, "rank", kb_file(RESIDENCE_KB_TEXT), "--json")
        assert code == 0
        payload = json.loads(out)
        by_index = {d["index"]: d for d in payload["defaults"]}
        assert by_index[0] == {
            "index": 0,
            "conditional": "Italian |~ Residence_in_Italy",
            "rank": 0,
            "infinite": False,
        }
        assert by_index[4]["rank"] is None
        assert by_index[4]["infinite"] is True
        assert payload["order_k"] == 1


class TestQuery:
    def test_mp_accepts_and_rc_rejects(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, out, _ = run(capsys, "query", path, "Employee & Student |~ Young", "--method", "mp")
        assert (code, out.strip()) == (0, "yes")
        code, out, _ = run(capsys, "query", path, "Employee & Student |~ Young", "--method", "rc")
        assert (code, out.strip()) == (0, "no")

    def test_lc_and_mp_split_on_swimmers(self, kb_file, capsys):
        from conftest import SWIMMER_KB_TEXT

        path = kb_file(SWIMMER_KB_TEXT)
        query = "Olympic_Swimmer & Adult & Employee |~ !Young"
        code, out, _ = run(capsys, "query", path, query, "--method", "lc")
        assert (code, out.strip()) == (0, "yes")
        code, out, _ = run(capsys, "query", path, query, "--method", "mp")
        assert (code, out.strip()) == (0, "no")

    def test_json_result_contains_evidence(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(
            capsys, "query", path, "Employee & Student |~ Busy", "--method", "mp", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] is True
        assert payload["method"] == "mp"
        assert payload["query"] == "Employee & Student |~ Busy"
        assert payload["evidence"]["bases"] == [[0, 1, 3], [2, 3]]
        assert "elapsed_ms" in payload

    def test_json_output_is_stable(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "query", path, "Employee & Student |~ Busy", "--method", "mpr", "--json"
            )
            payload = json.loads(out)
            payload.pop("elapsed_ms")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_plain_answer_builds_no_evidence(self, kb_file, capsys, monkeypatch):
        from defq import cli

        def refuse(*args):
            raise AssertionError("evidence built for a plain answer")

        monkeypatch.setattr(cli, "_query_evidence", refuse)
        path = kb_file(TAXES_KB_TEXT)
        for method in METHODS:
            code, out, _ = run(
                capsys, "query", path, "Employee & Student |~ Young", "--method", method
            )
            assert code == 0 and out.strip() in ("yes", "no")

    def test_explain_lists_relevant_trace(self, kb_file, capsys):
        path = kb_file(RESIDENCE_KB_TEXT)
        code, out, _ = run(
            capsys,
            "query",
            path,
            "Italian & German |~ Has_Residence",
            "--method",
            "basic-relevant",
            "--explain",
        )
        assert code == 0
        assert out.splitlines()[0] == "no"
        assert "justifications: [[0, 1, 4]]" in out
        assert "removed: [0, 1]" in out

    def test_parse_error_exits_2(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, _, err = run(capsys, "query", path, "Employee & |~ Young", "--method", "rc")
        assert code == 2
        assert "parse error" in err

    def test_kb_error_reports_line_number(self, kb_file, capsys):
        path = kb_file("Student |~ Young\nbroken line\n")
        code, _, err = run(capsys, "rank", path)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "formula", ["!" * 3000 + "a", "(" * 3000 + "a" + ")" * 3000], ids=["not", "parens"]
    )
    def test_deep_nesting_exits_2(self, kb_file, capsys, formula):
        path = kb_file(f"a |~ b\n{formula} |~ b\n")
        code, _, err = run(capsys, "rank", path)
        assert code == 2
        assert "line 2" in err and "nests deeper" in err

    @pytest.mark.parametrize(
        "argv", [["query", "{}", "a |~ b", "--method", "mp"], ["check", "{}"]],
        ids=["query", "check"],
    )
    def test_non_utf8_kb_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.kb"
        path.write_bytes(b"a |~ b\n\xff |~ c\n")
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        """A KB file saved with a UTF-8 byte-order mark reads as the file
        without it; a byte that is not UTF-8 after the mark still exits 2."""
        plain = SAMPLES / "taxes.kb"
        marked = tmp_path / "taxes.kb"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        listing = run(capsys, "rank", str(plain))
        assert listing[0] == 0
        assert run(capsys, "rank", str(marked)) == listing
        marked.write_bytes(b"\xef\xbb\xbfa |~ b\n\xff |~ c\n")
        code, out, err = run(capsys, "rank", str(marked))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "rank", "/nonexistent/kb.txt")
        assert code == 2

    def test_unsatisfiable_kb_exits_3_for_model_methods(self, kb_file, capsys):
        path = kb_file(UNSAT_KB_TEXT)
        code, _, err = run(capsys, "query", path, "a |~ a", "--method", "mpr")
        assert code == 3
        assert "unsatisfiable" in err

    def test_unsatisfiable_kb_is_fine_for_syntactic_methods(self, kb_file, capsys):
        path = kb_file(UNSAT_KB_TEXT)
        code, out, _ = run(capsys, "query", path, "a |~ a", "--method", "rc")
        assert (code, out.strip()) == (0, "yes")

    def test_atom_cap_exits_4(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, _, err = run(
            capsys, "query", path, "Student |~ Young", "--method", "rc", "--max-atoms", "2"
        )
        assert code == 4
        assert "size cap" in err

    def test_default_cap_exits_4(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, _, err = run(capsys, "rank", path, "--max-defaults", "2")
        assert code == 4


class TestBases:
    def test_conflict_kb_set_ordering_bases(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(capsys, "bases", path, "Employee & Student", "--method", "mp")
        assert code == 0
        assert out.splitlines() == ["{0, 1, 3}", "{2, 3}"]

    def test_conflict_kb_count_ordering_basis(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(capsys, "bases", path, "Employee & Student", "--method", "lc")
        assert code == 0
        assert out.splitlines() == ["{0, 1, 3}"]

    def test_infinite_rank_antecedent(self, kb_file, capsys):
        path = kb_file(RESIDENCE_KB_TEXT)
        code, out, _ = run(
            capsys, "bases", path, "Residence_in_Italy & !Has_Residence", "--method", "mp"
        )
        assert code == 0
        assert "infinite rank" in out

    @pytest.mark.parametrize("method", ["mp", "lc"])
    def test_json_names_the_antecedent_and_method_at_any_rank(self, kb_file, capsys, method):
        # an antecedent of infinite rank has no bases, and says so
        code, out, _ = run(
            capsys, "bases", kb_file(CONFLICT_KB_TEXT), "Employee & Student", "--method", method,
            "--json",
        )
        bases = [[0, 1, 3], [2, 3]] if method == "mp" else [[0, 1, 3]]
        assert (code, json.loads(out)) == (
            0, {"antecedent": "Employee & Student", "method": method, "bases": bases}
        )
        antecedent = "Residence_in_Italy & !Has_Residence"
        code, out, _ = run(
            capsys, "bases", kb_file(RESIDENCE_KB_TEXT), antecedent, "--method", method, "--json"
        )
        assert (code, json.loads(out)) == (
            0, {"antecedent": antecedent, "method": method, "bases": None, "infinite_rank": True}
        )

    @pytest.mark.parametrize("method", ["mp", "lc"])
    def test_bases_found_on_the_part_are_the_whole_kbs(self, kb_file, capsys, method):
        # the part drops the taxonomies the antecedent does not mention, and
        # their defaults join every base
        path = kb_file(MODULAR_KB_TEXT)
        whole = parse_kb(MODULAR_KB_TEXT)
        for antecedent in ("Penguin", "Employee & Student", "Penguin & Student", "Fish"):
            query, kb = whole.parse_query(f"{antecedent} |~ true")
            bases = defq.enumerate_bases(kb, compute_ranking(kb), query.antecedent, method)
            code, out, _ = run(capsys, "bases", path, antecedent, "--method", method, "--json")
            assert code == 0
            assert json.loads(out)["bases"] == [list(logic.mask_indices(b)) for b in bases]

    @pytest.mark.parametrize(
        "antecedent, message",
        [
            ("Student &", "offset 9: expected a formula"),
            ("Student |~ Young", "offset 8: unexpected '|~'"),
            ("", "offset 0: empty formula"),
        ],
    )
    def test_parse_errors_describe_the_antecedent_as_typed(
        self, kb_file, capsys, antecedent, message
    ):
        code, out, err = run(capsys, "bases", kb_file(TAXES_KB_TEXT), antecedent, "--method", "mp")
        assert (code, out, err) == (2, "", f"parse error: {message}\n")


class TestModel:
    def test_taxes_kb_dump_matches_strata(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, out, _ = run(capsys, "model", path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert sum("rc=0" in line for line in lines) == 9
        assert sum("rc=1" in line for line in lines) == 5
        assert sum("rc=2" in line for line in lines) == 2
        atom_lists = [
            tuple(part for part in line.split("}")[0].strip("{").split(", ") if part)
            for line in lines
        ]
        assert atom_lists == sorted(atom_lists)  # sorted by true-atom list

    def test_dump_carries_violations_and_heights(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, out, _ = run(capsys, "model", path)
        assert code == 0
        line = next(
            l for l in out.splitlines()
            if l.startswith("{Employee, Pay_Taxes, Student}")
        )
        assert "rc=1" in line and "fr=2" in line and "violated={0, 1}" in line

    @pytest.mark.parametrize(
        "name", ["taxes", "conflict", "merry", "residence", "modular", "ladder 12x8"]
    )
    def test_rows_match_a_sorted_row_list(self, kb_file, capsys, name):
        """Streamed in name order, the rows equal the sorted list of one row
        dict per world, in text and in JSON."""
        from defq import harness, semantics

        text = LADDER_12X8_KB_TEXT if name == "ladder 12x8" else (SAMPLES / f"{name}.kb").read_text()
        kb = parse_kb(text)
        canonical = semantics.minimal_canonical_model(kb)
        refined = harness.preferential_refinement(kb)
        rows = []
        for worlds, violations, height in zip(
            refined.classes, refined.violations, harness.layer_ranks(refined)
        ):
            rc = next(r for r, stratum in enumerate(canonical.strata) if stratum & worlds)
            rows.extend(
                {"atoms": sorted(a for i, a in enumerate(kb.signature.atoms) if j >> i & 1),
                 "rc_rank": rc, "fr_rank": height, "violated": list(mask_indices(violations))}
                for j in mask_indices(worlds)
            )
        rows.sort(key=lambda row: row["atoms"])
        lines = "".join(
            f"{{{', '.join(row['atoms'])}}}  rc={row['rc_rank']}  fr={row['fr_rank']}  "
            f"violated={{{', '.join(map(str, row['violated']))}}}\n"
            for row in rows
        )
        path = kb_file(text)
        assert run(capsys, "model", path) == (0, lines, "")
        dumped = json.dumps({"worlds": rows}, indent=2, sort_keys=True) + "\n"
        assert run(capsys, "model", path, "--json") == (0, dumped, "")

    def test_unsatisfiable_kb_exits_3(self, kb_file, capsys):
        code, _, err = run(capsys, "model", kb_file(UNSAT_KB_TEXT))
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [["model"], ["model", "--json"], ["query", "p0 & p1 |~ p2", "--method", "mpr"],
         ["query", "p0 & p1 |~ p2", "--method", "mpr", "--explain"],
         ["query", "p0 & p1 |~ p2", "--method", "mpr", "--json"]],
        ids=["model", "model json", "mpr", "mpr explain", "mpr json"],
    )
    def test_mpr_answers_without_the_reference_construction(
        self, kb_file, capsys, monkeypatch, argv
    ):
        """The reference refinement, its height collapse and every ranked
        model's query stay off the engine path: mpr and ``model`` answer with
        each of them raising."""
        from defq import harness

        def refuse(*args):
            raise AssertionError("the reference construction ran")

        for name in ("preferential_refinement", "layer_ranks", "height_ranks", "rank_by_height",
                     "mpr_model", "satisfies", "minimal_worlds"):
            monkeypatch.setattr(harness, name, refuse)
        command, *rest = argv
        code, out, err = run(capsys, command, kb_file(LADDER_12X8_KB_TEXT), *rest)
        assert (code, err) == (0, "")
        assert out

    def test_last_chain_position_admitting_no_world(self, kb_file, capsys):
        # chain ({0, 1, 2}, {1, 2}) with equal masks: every world has rank 0
        code, out, _ = run(capsys, "model", kb_file("z |~ z\nx |~ y\nx |~ !y\n"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("rc=0" in line for line in lines)


# KBs under 3 atoms (fewer than 8 worlds, so a one-byte violation column),
# a KB without defaults, and clash KBs whose worlds are not all on the model
SMALL_MODEL_KB_TEXTS = {
    "no atoms": "true |~ true\n",
    "one atom": "true |~ a\n",
    "one atom, clash": "a |~ false\n",
    "two atoms": "a |~ b\nb |~ !a\n",
    "two atoms, clash": "a |~ false\ntrue |~ b\n",
    "no defaults": "# nothing\n",
    "clash": "a |~ b\na |~ !b\nc |~ d\n",
}


def _reference_model_rows(kb):
    """One row per world of the reference refinement, sorted by atom list:
    the world's violation set by ``reference.violated``, its rc rank from
    the canonical strata and its height by longest chain.  A world in no
    class of the refinement is off the model and has no row."""
    from defq import harness, semantics
    from reference import default_mask, true_atoms, violated

    canonical = semantics.minimal_canonical_model(kb)
    refined = harness.preferential_refinement(kb)
    heights = harness.height_ranks(refined)
    rows = []
    for j in range(1 << len(kb.signature)):
        c = next((c for c, worlds in enumerate(refined.classes) if worlds >> j & 1), None)
        if c is None:
            assert not canonical.world_mask >> j & 1
            continue
        assert refined.violations[c] == default_mask(violated(kb, j))
        rows.append({
            "atoms": sorted(true_atoms(kb.signature.atoms, j)),
            "rc_rank": next(r for r, stratum in enumerate(canonical.strata) if stratum >> j & 1),
            "fr_rank": heights[c],
            "violated": sorted(violated(kb, j)),
        })
    return sorted(rows, key=lambda row: row["atoms"])


def _model_kb_texts():
    """The samples, the small and clash KBs above, and the generated pool
    of ``test_metamorphic`` (60 KBs of up to 6 atoms x 10 defaults)."""
    from test_metamorphic import generated_pool

    texts = {path.stem: path.read_text() for path in sorted(SAMPLES.glob("*.kb"))}
    texts.update(SMALL_MODEL_KB_TEXTS)
    for index, (kb, _) in enumerate(generated_pool()):
        texts[f"generated {index}"] = "".join(f"{c.text()}\n" for c in kb)
    return texts


class TestModelAgainstTheReference:
    """``model`` keys each world by its violation set: its rows equal those
    built world by world from the reference definitions."""

    def test_rows_equal_the_reference_rows(self, kb_file, capsys):
        clashes = 0
        for name, text in _model_kb_texts().items():
            kb = parse_kb(text)
            rows = _reference_model_rows(kb)
            clashes += len(rows) < 1 << len(kb.signature)
            path = kb_file(text)
            code, out, err = run(capsys, "model", path, "--json")
            assert (code, err) == (0, ""), name
            assert json.loads(out) == {"worlds": rows}, name
            lines = "".join(
                f"{{{', '.join(row['atoms'])}}}  rc={row['rc_rank']}  fr={row['fr_rank']}  "
                f"violated={{{', '.join(map(str, row['violated']))}}}\n"
                for row in rows
            )
            assert run(capsys, "model", path) == (0, lines, ""), name
        assert clashes >= 3  # the clash KBs, and some generated KBs, have worlds off the model

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_only_default_masks_are_listed(self, kb_file, capsys, monkeypatch, extra):
        """No world mask is scanned: every mask ``cmd_model`` lists bit by
        bit is a violation set, at most one bit per default."""
        listed = []
        indices = cli.mask_indices

        def recorded(mask):
            listed.append(mask)
            return indices(mask)

        monkeypatch.setattr(cli, "mask_indices", recorded)
        for text in (LADDER_12X8_KB_TEXT, (SAMPLES / "modular.kb").read_text()):
            listed.clear()
            assert run(capsys, "model", kb_file(text), *extra)[0] == 0
            assert listed
            assert max(m.bit_length() for m in listed) <= len(parse_kb(text))

    @pytest.mark.parametrize("extra", [["--explain"], ["--json"]])
    def test_mpr_evidence_reuses_its_answers_split(self, kb_file, capsys, monkeypatch, extra):
        """An mpr query with its evidence splits the KB's worlds once, for
        the heights, and the antecedent's worlds once."""
        from defq import semantics

        splits = []
        split = semantics.violation_classes

        def counted(kb, within):
            splits.append(within)
            return split(kb, within)

        monkeypatch.setattr(semantics, "violation_classes", counted)
        query, kb = parse_kb(LADDER_12X8_KB_TEXT).parse_query("p0 & p1 |~ p2")
        path = kb_file(LADDER_12X8_KB_TEXT)
        code, _, err = run(capsys, "query", path, "p0 & p1 |~ p2", "--method", "mpr", *extra)
        assert (code, err) == (0, "")
        assert splits == [kb.truth.full, kb.mask(query.antecedent)]


class TestCompare:
    def test_renders_all_six_methods(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(capsys, "compare", path, "Employee & Student |~ Young & !Pay_Taxes")
        assert code == 0
        assert out.splitlines() == [
            "rc: no",
            "mp: no",
            "lc: yes",
            "basic-relevant: no",
            "minimal-relevant: no",
            "mpr: yes",
        ]

    def test_redundant_kb_split_between_lc_and_mpr(self, kb_file, capsys):
        from conftest import REDUNDANT_KB_TEXT

        path = kb_file(REDUNDANT_KB_TEXT)
        code, out, _ = run(capsys, "compare", path, "a & c |~ e")
        rows = dict(line.split(": ") for line in out.splitlines())
        assert rows["lc"] == "yes"
        assert rows["mpr"] == "no"


class TestCheck:
    def test_random_mode_reports_clean_summary(self, capsys):
        code, out, _ = run(capsys, "check", "--random", "--seed", "7", "--count", "3")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("trial=") for line in lines) == 3
        assert lines[-1].startswith("summary trials=3")
        assert "violations=0" in lines[-1]

    def test_file_mode_runs_generated_queries(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(capsys, "check", path, "--count", "4")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("query ") for line in lines) == 4
        assert lines[-1].startswith("summary queries=4 violations=0")

    def test_file_mode_atom_flag_caps_the_file(self, kb_file, capsys):
        code, out, err = run(capsys, "check", kb_file(TAXES_KB_TEXT), "--max-atoms", "2")
        assert (code, out) == (4, "")
        assert "4 atoms exceeds the enumeration cap of 2" in err

    def test_file_mode_default_flag_caps_the_file(self, kb_file, capsys):
        code, out, err = run(capsys, "check", kb_file(TAXES_KB_TEXT), "--max-defaults", "2")
        assert (code, out) == (4, "")
        assert "3 defaults exceeds the cap of 2" in err

    def test_file_mode_output_without_size_flags(self, kb_file, capsys):
        code, out, err = run(capsys, "check", kb_file(TAXES_KB_TEXT), "--count", "3", "--seed", "3")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "query 'Employee |~ !Pay_Taxes <-> (Employee <-> Student) <-> Employee <-> Student'"
            " rc=0 mp=0 lc=0 basic-relevant=0 minimal-relevant=0 mpr=0",
            "query 'Student |~ Student | Employee'"
            " rc=1 mp=1 lc=1 basic-relevant=1 minimal-relevant=1 mpr=1",
            "query '(Young -> !Young) | !Employee |~ !!Pay_Taxes'"
            " rc=0 mp=0 lc=0 basic-relevant=0 minimal-relevant=0 mpr=0",
            "summary queries=3 violations=0",
        ]

    def test_file_mode_json(self, kb_file, capsys):
        path = kb_file(CONFLICT_KB_TEXT)
        code, out, _ = run(capsys, "check", path, "--count", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["queries"]) == 4
        for q_text, matrix in payload["queries"]:
            assert "|~" in q_text
            assert set(matrix) == set(METHODS)
        assert payload["problems"] == []
        assert payload["summary"] == {"queries": 4, "violations": 0}

    def test_file_mode_json_reports_a_broken_order_and_exits_1(
        self, kb_file, capsys, monkeypatch
    ):
        from defq import harness

        monkeypatch.setattr(
            harness, "_strict_order_problem", lambda below: "refined-order-not-strict stub"
        )
        code, out, _ = run(capsys, "check", kb_file(CONFLICT_KB_TEXT), "--count", "2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["problems"] == ["refined-order-not-strict stub"]
        assert payload["summary"]["violations"] == 1

    def test_random_mode_json(self, capsys):
        code, out, _ = run(capsys, "check", "--random", "--seed", "7", "--count", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert [trial["index"] for trial in payload["trials"]] == [0, 1, 2]
        for trial in payload["trials"]:
            assert trial["seed"] == 7 and trial["problems"] == []
            assert len(trial["queries"]) == 5
            for q_text, matrix in trial["queries"]:
                assert set(matrix) == set(METHODS)
        assert payload["summary"]["trials"] == 3
        assert payload["summary"]["violations"] == 0
        keys = {"index", "seed", "kb_lines", "atoms", "defaults", "queries", "checks", "problems"}
        assert all(set(trial) == keys for trial in payload["trials"])

    @pytest.mark.parametrize("flag, value", [("--max-atoms", "9"), ("--max-defaults", "11")])
    def test_random_mode_refuses_sizes_past_its_pair_checks(self, capsys, flag, value):
        code, out, err = run(capsys, "check", "--random", flag, value)
        assert (code, out) == (4, "")
        assert "random checks enumerate all valuation and subset pairs" in err

    def test_check_requires_file_or_random(self, capsys):
        with pytest.raises(SystemExit):
            main(["check"])

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-atoms", "0"), ("--max-atoms", "-1"), ("--max-defaults", "0"),
         ("--max-defaults", "-4"), ("--count", "-2")],
    )
    def test_random_mode_rejects_out_of_range_sizes(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--random", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: defq check")
        assert f"defq check: error: argument {flag}: must be at least" in captured.err
        assert "Traceback" not in captured.err


# 20 atoms x 16 defaults, the advertised cap, from the chain/exception family
# (p_i |~ p_{i+2} and p_i & p_{i+1} |~ !p_{i+2}, indices modulo 20).
CAP_KB_TEXT = """\
p14 & p15 |~ !p16
p4 & p5 |~ !p6
p12 |~ p14
p17 & p18 |~ !p19
p18 |~ p0
p5 |~ p7
p18 & p19 |~ !p0
p0 & p1 |~ !p2
p3 & p4 |~ !p5
p19 & p0 |~ !p1
p7 & p8 |~ !p9
p10 & p11 |~ !p12
p11 & p12 |~ !p13
p9 |~ p11
p15 |~ p17
p17 |~ p19
"""

# 20 atoms x 8 defaults from the same family, for the model-based mpr.
MPR_KB_TEXT = """\
p4 & p5 |~ !p6
p12 & p13 |~ !p14
p9 & p10 |~ !p11
p15 & p16 |~ !p17
p9 |~ p11
p18 & p19 |~ !p0
p7 & p8 |~ !p9
p1 & p2 |~ !p3
"""

# 20 atoms x 16 defaults with 2^16 violation classes: twelve unconditional
# defaults plus four independent ones.
WORST_CASE_KB_TEXT = "".join(f"true |~ p{i}\n" for i in range(12)) + "".join(
    f"p{i} |~ p{i + 1}\n" for i in (12, 14, 16, 18)
)

# 20 atoms x 15 defaults, every one conditioned on c, so no query part is
# smaller than the whole KB.  ``check`` refuses it up front with exit 4: its
# reference refinement would hold one 2^20-bit world mask per violation class.
CONNECTED_WORST_CASE_KB_TEXT = "".join(f"c |~ p{i}\n" for i in range(11)) + "".join(
    f"c & p{i} |~ p{i + 1}\n" for i in (11, 13, 15, 17)
)

# bench/ladder.py's ladder_kb(12, 8, 0): 4,096 worlds, whose ``model --json``
# (835,506 bytes) is many times a pipe's buffer
LADDER_12X8_KB_TEXT = """\
p8 |~ p10
p0 & p1 |~ !p2
p9 & p10 |~ !p11
p1 & p2 |~ !p3
p6 |~ p8
p5 & p6 |~ !p7
p9 |~ p11
p3 & p4 |~ !p5
"""

CHILD_ADDRESS_SPACE = 1 << 30
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(defq.__file__).resolve().parent.parent))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _run_under_one_gigabyte(*argv):
    return subprocess.run(
        [sys.executable, "-m", "defq", *map(str, argv)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
        preexec_fn=_limit_address_space,
    )


def _run_with_peak_rss(*argv):
    """``python -m defq argv`` under the 1 GiB limit and 120 s of CPU: its
    exit code, stderr and peak RSS in bytes, read from this child's own
    resource usage."""

    def limit():
        _limit_address_space()
        resource.setrlimit(resource.RLIMIT_CPU, (120, 120))

    with open(os.devnull, "w") as out, tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "defq", *map(str, argv)],
            stdout=out, stderr=err, text=True, env=CHILD_ENV, preexec_fn=limit,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return child.returncode, err.read(), usage.ru_maxrss * 1024


def _query_under_one_gigabyte(path, query, method):
    return _run_under_one_gigabyte("query", path, query, "--method", method, "--json")


def _answers_under_one_gigabyte(tmp_path, kb_text, query, methods):
    path = tmp_path / "kb.kb"
    path.write_text(kb_text)
    answers = {}
    for method in methods:
        done = _query_under_one_gigabyte(path, query, method)
        assert done.returncode == 0, (method, done.stderr)
        answers[method] = json.loads(done.stdout)["answer"]
    return answers


class TestAtomCapOnQueryPart:
    """A KB loads whatever its signature size: the atom cap is checked where
    a truth table is made.  rc, lc, mp and the relevant closures (and
    ``bases``) build theirs on the query's part; mpr and the other commands
    build theirs on the whole KB."""

    PART_METHODS = ("rc", "lc", "mp", "basic-relevant", "minimal-relevant")

    @pytest.mark.parametrize("method", PART_METHODS)
    def test_new_atoms_outside_the_kb_answer(self, kb_file, capsys, method):
        code, out, err = run(capsys, "query", kb_file(CAP_KB_TEXT), "q |~ r", "--method", method)
        assert (code, out, err) == (0, "no\n", "")

    def test_new_atoms_outside_the_kb_refuse_mpr(self, kb_file, capsys):
        code, _, err = run(capsys, "query", kb_file(CAP_KB_TEXT), "q |~ r", "--method", "mpr")
        assert code == 4
        assert "22 atoms exceeds the enumeration cap of 20" in err

    def test_bases_check_the_cap_on_the_antecedents_part(self, kb_file, capsys):
        path = kb_file(TAXES_KB_TEXT)
        code, out, err = run(capsys, "bases", path, "Fresh", "--method", "mp", "--max-atoms", "4")
        assert (code, out, err) == (0, "{0, 1, 2}\n", "")
        code, _, err = run(
            capsys, "bases", path, "Student & Fresh", "--method", "mp", "--max-atoms", "4"
        )
        assert code == 4
        assert "5 atoms exceeds the enumeration cap of 4" in err

    @pytest.mark.parametrize("method", PART_METHODS + ("mpr",))
    def test_a_part_over_the_cap_is_refused(self, kb_file, capsys, method):
        code, _, err = run(
            capsys, "query", kb_file(CAP_KB_TEXT), "p0 & zz |~ p2", "--method", method
        )
        assert code == 4
        assert "21 atoms exceeds the enumeration cap of 20" in err

    @pytest.mark.parametrize("extra", [[], ["--explain"], ["--json"]])
    @pytest.mark.parametrize("method", PART_METHODS)
    def test_an_eight_atom_kb_answers_on_its_four_atom_part(self, kb_file, capsys, method, extra):
        argv = ["query", kb_file(MODULAR_KB_TEXT), "Penguin |~ Wings", "--method", method, *extra]
        outputs = []
        for caps in ([], ["--max-atoms", "4"]):
            code, out, err = run(capsys, *argv, *caps)
            assert (code, err) == (0, ""), caps
            if extra == ["--json"]:
                out = json.loads(out)
                del out["elapsed_ms"]
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_bases_on_an_eight_atom_kb_answer_on_the_antecedents_part(self, kb_file, capsys):
        path = kb_file(MODULAR_KB_TEXT)
        code, out, err = run(capsys, "bases", path, "Penguin", "--method", "mp", "--max-atoms", "4")
        assert (code, out, err) == (0, "{1, 2, 3, 4, 5, 6}\n", "")

    @pytest.mark.parametrize(
        "argv",
        [["rank"], ["model"], ["compare", "Penguin |~ Wings"], ["check"],
         ["query", "Penguin |~ Wings", "--method", "mpr"]],
        ids=["rank", "model", "compare", "check", "mpr"],
    )
    def test_whole_kb_commands_check_the_cap_on_the_whole_kb(self, kb_file, capsys, argv):
        command, *rest = argv
        code, out, err = run(capsys, command, kb_file(MODULAR_KB_TEXT), *rest, "--max-atoms", "4")
        assert (code, out) == (4, "")
        assert "8 atoms exceeds the enumeration cap of 4" in err


# bench/ladder.py's ladder_kb(8, 8, 0)
LADDER_8X8_KB_TEXT = """\
p1 & p2 |~ !p3
p7 & p0 |~ !p1
p0 |~ p2
p3 & p4 |~ !p5
p5 |~ p7
p4 & p5 |~ !p6
p5 & p6 |~ !p7
p1 |~ p3
"""

# each sample KB's text and a query on it, whose antecedent ``bases`` takes
SWEEP_QUERIES = {
    "conflict": "Employee & Student |~ Busy",
    "merry": "Student & Adult |~ Young",
    "modular": "Penguin |~ Wings",
    "residence": "Italian & German |~ Has_Residence",
    "taxes": "Employee & Student |~ Young",
}
SWEEP_KBS = {
    **{path.stem: (path.read_text(), SWEEP_QUERIES[path.stem]) for path in SAMPLES.glob("*.kb")},
    "ladder 8x8": (LADDER_8X8_KB_TEXT, "p0 & p1 |~ p2"),
    "ladder 12x8": (LADDER_12X8_KB_TEXT, "p0 & p1 |~ p2"),
}


class TestExitCodeSweep:
    """Every command on every sample KB and two ladder KBs exits with a
    documented code and raises nothing: at the default caps, and with
    ``--max-atoms`` or ``--max-defaults`` one below what the command needs
    (its largest truth table, or the KB's defaults), where it exits 4."""

    @pytest.mark.parametrize("name", SWEEP_KBS)
    def test_every_command_exits_0_to_4(self, kb_file, capsys, monkeypatch, name):
        text, query = SWEEP_KBS[name]
        path = kb_file(text)
        antecedent = query.split("|~")[0].strip()
        commands = [
            ["rank", path], ["model", path], ["compare", path, query], ["check", path],
            *(["query", path, query, "--method", m] for m in METHODS),
            *(["bases", path, antecedent, "--method", m] for m in ("mp", "lc")),
        ]
        assert {argv[0] for argv in commands} == set(COMMANDS)
        sizes = []  # the atom count of every truth table made
        init = logic.TruthTable.__init__

        def counting_init(self, sig, *args):
            sizes.append(len(sig))
            init(self, sig, *args)

        monkeypatch.setattr(logic.TruthTable, "__init__", counting_init)
        defaults = len(parse_kb(text))
        for argv in commands:
            sizes.clear()
            assert main(argv) in range(5), argv
            for flag, need in (("--max-atoms", max(sizes)), ("--max-defaults", defaults)):
                assert main([*argv, flag, str(need - 1)]) == 4, (argv, flag)
            capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--max-atoms", "--max-defaults"])
    @pytest.mark.parametrize(
        "value, message", [("-1", "must be at least 0, got -1"), ("x", "invalid int value: 'x'")]
    )
    def test_a_size_flag_below_zero_or_not_an_integer_is_a_usage_error(self, capsys, flag, value, message):
        taxes = str(SAMPLES / "taxes.kb")
        for argv in (
            ["rank", taxes], ["model", taxes], ["compare", taxes, "Student |~ Young"],
            ["query", taxes, "Student |~ Young", "--method", "rc"],
            ["bases", taxes, "Student", "--method", "mp"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"defq {argv[0]}: error: argument {flag}: {message}\n" in captured.err
            assert "Traceback" not in captured.err


class TestBoundedMemory:
    @pytest.mark.parametrize("query", ["p17 & p18 |~ p0", "p18 & p19 |~ !p0"])
    def test_cap_sized_kb_answers_under_one_gigabyte(self, tmp_path, query):
        answers = _answers_under_one_gigabyte(
            tmp_path, CAP_KB_TEXT, query, ("rc", "lc", "mp", "basic-relevant", "minimal-relevant")
        )
        assert answers["mp"] or not answers["rc"]
        assert answers["lc"] or not answers["mp"]
        assert answers["minimal-relevant"] or not answers["basic-relevant"]
        assert answers["mp"] or not answers["minimal-relevant"]

    def test_cap_sized_kb_answers_mpr_under_one_gigabyte(self, tmp_path):
        answers = _answers_under_one_gigabyte(tmp_path, CAP_KB_TEXT, "p17 & p18 |~ p0", ("mp", "mpr"))
        assert answers["mpr"] or not answers["mp"]

    @pytest.mark.parametrize("query", ["p9 |~ p11 | p12", "p7 & p8 & p10 |~ !p11"])
    def test_twenty_atom_mpr_answers_under_one_gigabyte(self, tmp_path, query):
        answers = _answers_under_one_gigabyte(tmp_path, MPR_KB_TEXT, query, ("mp", "mpr"))
        assert answers["mpr"] or not answers["mp"]

    def test_parsed_cap_kb_keeps_only_its_default_masks(self):
        """Parsing keeps one 2^20-bit mask per default plus a few more."""
        tracemalloc.start()
        try:
            kb = parse_kb(CAP_KB_TEXT)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live < (len(kb) + 3) * 2**20 // 8

    @pytest.mark.parametrize(
        "kb_text, query",
        [(WORST_CASE_KB_TEXT, "p12 |~ p13"), (CONNECTED_WORST_CASE_KB_TEXT, "c & p11 |~ p12")],
        ids=["worst", "connected"],
    )
    def test_worst_case_kbs_answer_mpr_under_one_gigabyte(self, tmp_path, kb_text, query):
        answers = _answers_under_one_gigabyte(tmp_path, kb_text, query, ("mp", "mpr"))
        assert answers["mpr"] or not answers["mp"]

    def test_out_of_memory_exits_4_without_traceback(self, tmp_path):
        # check's reference refinement would hold a world mask and a
        # predecessor mask per violation class, over 4 GiB on both worst
        # cases; check counts the classes first and refuses, far below 1 GiB
        for kb_text in (CONNECTED_WORST_CASE_KB_TEXT, WORST_CASE_KB_TEXT):
            path = tmp_path / "kb.kb"
            path.write_text(kb_text)
            code, stderr, peak = _run_with_peak_rss("check", path, "--count", "1")
            assert code == 4, stderr
            assert stderr.startswith("size cap exceeded: the reference refinement of ")
            assert "Traceback" not in stderr
            assert peak < 100 * 2**20

    def test_memory_error_in_a_command_exits_4_without_traceback(self, capsys, monkeypatch):
        def exhausted(kb):
            raise MemoryError

        monkeypatch.setattr(cli, "compute_ranking", exhausted)
        code, out, err = run(capsys, "rank", str(SAMPLES / "taxes.kb"))
        assert (code, out) == (4, "")
        assert err.startswith("memory limit reached")
        assert "Traceback" not in err


# argparse and what its messages pull in; a canonical command line loads none
PARSER_MODULES = ("argparse", "gettext", "locale")


class TestStartup:
    def test_import_leaves_dataclasses_and_inspect_out(self):
        probe = "import defq.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @staticmethod
    def run_loading(*argv):
        """``defq <argv>`` on the taxes sample in a fresh interpreter: its
        stdout lines, then the sorted list of the defq and parser modules
        it loaded, as printed."""
        probe = (
            "import sys, defq.cli\n"
            "code = defq.cli.main(sys.argv[1:])\n"
            f"print(sorted(m for m in sys.modules if m in {PARSER_MODULES + ('json',)} "
            "or m.startswith('defq')))\n"
            "sys.exit(code)\n"
        )
        command, *rest = argv
        taxes = Path(__file__).resolve().parent.parent / "samples" / "taxes.kb"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe, command, str(taxes), *rest],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        *out, loaded = done.stdout.splitlines()
        return out, loaded

    @pytest.mark.parametrize(
        "method, absent",
        [("mp", ["defq.harness", "defq.semantics", "json", *PARSER_MODULES]),
         ("mpr", ["defq.harness", "json", *PARSER_MODULES])],
    )
    def test_query_imports_only_its_engine(self, method, absent):
        out, loaded = self.run_loading("query", "Employee & Student |~ Young", "--method", method)
        assert out == ["yes"]
        assert "defq.closures" in loaded
        assert not [name for name in absent if repr(name) in loaded]

    def test_compare_leaves_the_harness_and_argparse_out(self):
        """``compare`` runs the six engines through ``closures.compare_all``,
        and a size flag in canonical form is read without argparse."""
        out, loaded = self.run_loading("compare", "Student |~ Young", "--max-atoms", "4")
        assert out == [f"{method}: yes" for method in METHODS]
        assert "'defq.closures'" in loaded
        assert not [name for name in ("defq.harness", *PARSER_MODULES) if repr(name) in loaded]

    def test_model_leaves_the_harness_out(self):
        """``model`` reads mpr's heights from ``semantics``, as mpr's query
        does, and never loads the reference construction's module."""
        out, loaded = self.run_loading("model")
        assert len(out) == 16  # one row per world of the 4-atom sample
        assert "'defq.semantics'" in loaded
        assert "'defq.harness'" not in loaded


USAGE = "usage: defq [-h] {rank,query,bases,model,compare,check} ...\n"


class TestParser:
    """Help and usage errors come from the argparse parser that
    ``build_parser`` makes of the whole argument table."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_subparser_prints_the_same_help_and_usage(self, capsys, command):
        parser = build_parser()
        assert parser.format_usage() == USAGE
        printed = []
        for parse in (main, parser.parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([command, "--help"])
            assert exc.value.code == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert printed[0].out.startswith(f"usage: defq {command} [-h]")
        assert printed[0].err == ""

    @pytest.mark.parametrize(
        "argv, messages",
        [
            ([], ["the following arguments are required: command"]),
            # argparse quotes the choices (3.10.13, 3.12.1, 3.13.0) or, in later
            # patch releases such as 3.13.13, prints them bare
            (["bogus"], [
                "argument command: invalid choice: 'bogus' (choose from "
                "'rank', 'query', 'bases', 'model', 'compare', 'check')",
                "argument command: invalid choice: 'bogus' (choose from "
                "rank, query, bases, model, compare, check)",
            ]),
            (["check"], ["check needs a KB file or --random"]),
            (["check", "/nonexistent.kb", "--random", "--count", "1"],
             ["check takes a KB file or --random, not both"]),
        ],
    )
    def test_top_level_errors(self, capsys, argv, messages):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err in [f"{USAGE}defq: error: {m}\n" for m in messages]


PARSER = build_parser()

# The spellings a command line is made of: each command's flags, exact and
# abbreviated, in "=" form and with good and bad values, plus help, "--" and
# words that look like flags or negative numbers.
FLAG_WORDS = sorted({name for _, _, arguments in ARGUMENTS.values()
                     for name, _ in arguments if name.startswith("-")})
VALUES = st.sampled_from(["mp", "lc", "rc", "mpr", "basic-relevant", "bogus", "0", "4", "-1",
                          " 5", "5_0", "1e3", "x", "", "-", "-x", "--", "kb.txt", "a |~ b"])
WORDS = st.one_of(
    st.sampled_from(FLAG_WORDS),
    st.sampled_from(FLAG_WORDS).map(lambda flag: flag[: len(flag) // 2 + 2]),
    st.tuples(st.sampled_from(FLAG_WORDS), VALUES).map("=".join),
    st.sampled_from(["-h", "--help", "--bogus"]),
    VALUES,
    st.text(alphabet="-=ab4 |~", max_size=4),
)


@st.composite
def command_lines(draw, canonical=False):
    """A command, its positionals, then its flags, each with a value when it
    takes one.  Unless ``canonical``, a word or value is at times some other
    spelling, and one word may be added, dropped or moved."""

    def mostly(good):
        if canonical or draw(st.integers(0, 3)):
            return draw(good)
        return draw(WORDS)

    command = draw(st.sampled_from(COMMANDS))
    arguments = dict(ARGUMENTS[command][2])
    count = sum(not name.startswith("-") for name in arguments)
    argv = [command, *(mostly(st.sampled_from(["kb.txt", "a |~ b", "true", "!a"]))
                       for _ in range(count))]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from([name for name in arguments if name.startswith("-")]))
        keywords = arguments[flag]
        if keywords.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in keywords:
            argv += [flag, mostly(st.sampled_from(keywords["choices"]))]
        else:
            argv += [flag, mostly(st.integers(0, 30).map(str))]
    if not canonical and draw(st.integers(0, 3)) == 0:  # a stray, missing or moved word
        at = draw(st.integers(1, len(argv)))
        if draw(st.booleans()) or at == len(argv):
            argv.insert(at, draw(WORDS))
        else:
            argv.insert(draw(st.integers(1, len(argv) - 1)), argv.pop(at))
    return argv


def _parse(argv):
    """``PARSER.parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


class TestReadArgv:
    """``read_argv`` reads a subset of what argparse accepts, to the same
    namespace, and that subset holds every command line the benchmark and
    CI time."""

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_what_it_reads_argparse_reads_the_same(self, argv):
        args = read_argv(argv)
        if args is not None:
            parsed = _parse(argv)
            assert parsed is not None, argv
            assert vars(args) == vars(parsed), argv

    @settings(max_examples=200, deadline=None)
    @given(command_lines(canonical=True))
    def test_canonical_command_lines_are_read(self, argv):
        parsed = _parse(argv)
        if argv[0] != "check" and parsed is not None:  # check is left to argparse
            args = read_argv(argv)
            assert args is not None, argv
            assert vars(args) == vars(parsed), argv

    @pytest.mark.parametrize(
        "extra",
        [[], ["--json"], ["--explain"], ["--explain", "--json"], ["--max-atoms", "20"],
         ["--max-defaults", "16", "--json"],
         ["--json", "--max-atoms", "12", "--max-defaults", "8"]],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_every_timed_query_is_read(self, method, extra):
        for query in ("Employee & Student |~ Young", "!p3 & p4 |~ p6 -> p7", "(a) |~ b <-> c"):
            argv = ["query", str(SAMPLES / "taxes.kb"), query, "--method", method, *extra]
            args = read_argv(argv)
            assert args is not None and vars(args) == vars(PARSER.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "kb"], ["rank", "kb", "--json"], ["model", "kb"], ["model", "kb", "--json"],
            ["bases", "kb", "true", "--method", "mp"], ["bases", "kb", "Fresh", "--method", "lc",
                                                        "--max-atoms", "4", "--json"],
            ["compare", "kb", "true |~ true"], ["compare", "kb", "a |~ b", "--json"],
        ],
    )
    def test_other_canonical_commands_are_read(self, argv):
        args = read_argv(argv)
        assert args is not None and vars(args) == vars(PARSER.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["bogus"], ["rank"], ["rank", "kb", "extra"], ["rank", "-h"],
            ["rank", "kb", "--help"],
            ["rank", "--json", "kb"], ["rank", "kb", "--js"], ["rank", "kb", "--max-atoms=4"],
            ["rank", "kb", "--max-atoms", "-1"], ["rank", "kb", "--max-atoms", "x"],
            ["rank", "kb", "--max-atoms"], ["rank", "--", "kb"], ["rank", "-kb"],
            ["query", "kb", "a |~ b"], ["query", "kb", "a |~ b", "--method", "bogus"],
            ["query", "kb", "a |~ b", "--meth", "mp"], ["query", "kb", "a |~ b", "--method=mp"],
            ["bases", "kb", "a", "--method", "rc"], ["check", "--random"], ["check", "kb"],
        ],
    )
    def test_other_spellings_are_left_to_argparse(self, argv):
        assert read_argv(argv) is None

    def test_unusual_spellings_still_answer(self, capsys):
        taxes = str(SAMPLES / "taxes.kb")
        for argv in (
            ["query", taxes, "Student |~ Young", "--meth", "mp"],
            ["query", taxes, "Student |~ Young", "--method=mp"],
            ["query", "--method", "mp", taxes, "Student |~ Young"],
        ):
            assert run(capsys, *argv) == (0, "yes\n", "")


class TestAntecedentOnce:
    """A query builds the atom masks of its antecedent and consequent once
    each; the default masks and the ranking are built before counting."""

    @pytest.mark.parametrize("method", ("rc", "lc", "mp", "basic-relevant", "minimal-relevant"))
    def test_query_builds_each_atom_mask_once(self, monkeypatch, method):
        query, kb = parse_kb(CAP_KB_TEXT).parse_query("p17 & p18 |~ p0")
        rt = compute_ranking(kb)
        built = []
        atom_mask = logic._atom_mask
        monkeypatch.setattr(logic, "_atom_mask", lambda i, n: built.append(i) or atom_mask(i, n))
        closure_query(kb, rt, method)(query)
        assert sorted(built) == sorted(kb.signature.index(a) for a in ("p17", "p18", "p0"))


class TestEvidenceReusesTheTrace:
    """``--json`` evidence of a query works from the KB's kept formula masks
    (and, for the relevant closures, the kept justifications), so it builds
    no atom mask the plain answer did not."""

    @pytest.mark.parametrize("method", METHODS)
    def test_json_builds_no_more_masks_than_the_plain_answer(
        self, monkeypatch, capsys, tmp_path, method
    ):
        path = tmp_path / "cap.kb"
        path.write_text(CAP_KB_TEXT)
        built = []
        atom_mask = logic._atom_mask
        monkeypatch.setattr(logic, "_atom_mask", lambda i, n: built.append(i) or atom_mask(i, n))
        counts = []
        for extra in ([], ["--json"]):
            built.clear()
            assert main(["query", str(path), "p17 & p18 |~ p0", "--method", method, *extra]) == 0
            counts.append(len(built))
        capsys.readouterr()
        assert counts[0] == counts[1]


ELAPSED_MS = re.compile(r'"elapsed_ms": [0-9.]+')
# stdout buffered, as a user's shell runs it, so output the entry flushes
# itself would be lost if it did not
BUFFERED_ENV = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}


def _entry(argv, env=BUFFERED_ENV, **streams):
    """``python -m defq argv`` in a child: its exit code, stdout and stderr
    (``elapsed_ms`` masked).  ``streams`` replace the captured ones."""
    done = subprocess.run(
        [sys.executable, "-m", "defq", *argv], text=True, env=env, timeout=120,
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
    )
    return done.returncode, ELAPSED_MS.sub("", done.stdout or ""), done.stderr


def _in_process(capsys, argv):
    """``main(argv)`` in this process, its argparse exit taken as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, ELAPSED_MS.sub("", captured.out), captured.err


def _kb_paths(argv, tmp_path):
    """``argv`` with "unsat.kb" as an unsatisfiable KB file and any other
    word ending in ".kb" as that sample."""
    (tmp_path / "unsat.kb").write_text(UNSAT_KB_TEXT)
    return [str(tmp_path / w) if w == "unsat.kb" else str(SAMPLES / w) if w.endswith(".kb") else w
            for w in argv]


class TestEntry:
    """``python -m defq`` ends through ``cli.run``, which flushes, keeps
    main's exit code and skips the interpreter's teardown: it prints what
    ``main`` prints, and output that cannot be written still exits 2."""

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--explain"]])
    @pytest.mark.parametrize("method", METHODS)
    def test_query_matches_main(self, capsys, method, extra):
        argv = ["query", str(SAMPLES / "taxes.kb"), "Employee & Student |~ Young",
                "--method", method, *extra]
        assert _entry(argv) == _in_process(capsys, argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["rank", "taxes.kb"], 0),
            (["rank", "residence.kb", "--json"], 0),
            (["bases", "conflict.kb", "Employee & Student", "--method", "mp"], 0),
            (["bases", "conflict.kb", "Employee & Student", "--method", "lc", "--json"], 0),
            (["--help"], 0),
            (["query", "--help"], 0),
            (["query", "taxes.kb"], 2),  # usage error
            (["query", "taxes.kb", "Student |~", "--method", "mp"], 2),  # parse error
            (["query", "unsat.kb", "a |~ a", "--method", "mpr"], 3),
            (["query", "taxes.kb", "Student |~ Young", "--method", "mp", "--max-atoms", "1"], 4),
        ],
    )
    def test_commands_and_exits_match_main(self, capsys, tmp_path, argv, code):
        argv = _kb_paths(argv, tmp_path)
        got = _entry(argv)
        assert got == _in_process(capsys, argv)
        assert got[0] == code

    @pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED off and on
    def test_a_large_output_arrives_whole(self, capsys, tmp_path, unbuffered):
        path = tmp_path / "ladder.kb"
        path.write_text(LADDER_12X8_KB_TEXT)
        got = _entry(["model", str(path), "--json"], env=dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered))
        assert got == _in_process(capsys, ["model", str(path), "--json"])
        assert len(json.loads(got[1])["worlds"]) == 4096

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_main_writes_to_a_text_only_stdout(self, capsys, tmp_path, extra):
        """A caller may swap stdout for a stream with no byte buffer."""
        path = tmp_path / "ladder.kb"
        path.write_text(LADDER_12X8_KB_TEXT)
        _, expected, _ = _in_process(capsys, ["model", str(path), *extra])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["model", str(path), *extra]) == 0
        assert out.getvalue() == expected

    @pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED off and on
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_a_broken_pipe_exits_2_with_one_error_line(self, tmp_path, extra, unbuffered):
        path = tmp_path / "ladder.kb"
        path.write_text(LADDER_12X8_KB_TEXT)
        child = subprocess.Popen(
            [sys.executable, "-m", "defq", "model", str(path), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered),
        )
        child.stdout.read(10)
        child.stdout.close()  # the reader goes before the output, several pipe buffers, is written
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_a_full_device_exits_2(self, extra):
        argv = ["query", str(SAMPLES / "taxes.kb"), "Student |~ Young", "--method", "mp", *extra]
        with open("/dev/full", "w") as full:
            code, _, err = _entry(argv, stdout=full)
        assert (code, err) == (2, "error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])  # PYTHONUNBUFFERED off and on
    @pytest.mark.parametrize("argv", [["--help"], ["query", "--help"]])
    def test_help_on_a_full_device_exits_2(self, argv, unbuffered):
        """argparse's own help writer drops the write's error; help goes
        through ``_write`` instead, so it exits as any other output does."""
        with open("/dev/full", "w") as full:
            code, _, err = _entry(argv, env=dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered),
                                  stdout=full)
        assert (code, err) == (2, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_a_closed_stdout_exits_0(self, extra):
        argv = ["query", str(SAMPLES / "taxes.kb"), "Student |~ Young", "--method", "mp", *extra]
        code, _, err = _entry(argv, stdout=None, preexec_fn=lambda: os.close(1))
        assert (code, err) == (0, "")

    def test_a_closed_stderr_keeps_a_parse_errors_exit(self):
        argv = ["query", str(SAMPLES / "taxes.kb"), "Student |~", "--method", "mp"]
        code, out, _ = _entry(argv, stderr=None, preexec_fn=lambda: os.close(2))
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv, code",
        [(["query", "taxes.kb", "Student |~", "--method", "mp"], 2),
         (["query", "unsat.kb", "a |~ a", "--method", "mpr"], 3),
         (["query", "taxes.kb", "Student |~ Young", "--method", "mp", "--max-atoms", "1"], 4)],
    )
    def test_an_unwritable_stderr_keeps_each_exit(self, tmp_path, argv, code):
        argv = _kb_paths(argv, tmp_path)
        with open(tmp_path / "unsat.kb") as read_only:  # writes to it fail
            got, out, _ = _entry(argv, stderr=read_only)
        assert (got, out) == (code, "")


class _NoWrites(io.StringIO):
    def write(self, text):
        raise AssertionError(f"stdout written outside _write: {text!r}")


class TestOneWriter:
    """Every command, and help, writes stdout only through ``cli._write``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "taxes.kb"],
            ["rank", "taxes.kb", "--json"],
            ["query", "modular.kb", "Penguin |~ Wings", "--method", "mp", "--explain"],
            ["query", "modular.kb", "Penguin |~ Wings", "--method", "mpr", "--json"],
            ["bases", "conflict.kb", "Employee & Student", "--method", "mp"],
            ["bases", "conflict.kb", "Employee & Student", "--method", "lc", "--json"],
            ["bases", "unsat.kb", "true", "--method", "mp"],  # infinite rank
            ["bases", "unsat.kb", "true", "--method", "mp", "--json"],
            ["model", "taxes.kb"],
            ["model", "taxes.kb", "--json"],
            ["compare", "taxes.kb", "Student |~ Young"],
            ["compare", "taxes.kb", "Student |~ Young", "--json"],
            ["check", "taxes.kb", "--count", "3"],
            ["check", "taxes.kb", "--count", "3", "--json"],
            ["check", "--random", "--count", "2"],
            ["check", "--random", "--count", "2", "--json"],
            ["--help"],
            ["check", "--help"],
        ],
    )
    def test_stdout_goes_through_write(self, capsys, monkeypatch, tmp_path, argv):
        argv = _kb_paths(argv, tmp_path)
        expected = _in_process(capsys, argv)
        pieces = []
        monkeypatch.setattr(cli, "_write", pieces.extend)
        monkeypatch.setattr(sys, "stdout", _NoWrites())
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        got = code, ELAPSED_MS.sub("", "".join(pieces)), capsys.readouterr().err
        assert got == expected
        assert got[1]
