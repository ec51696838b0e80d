"""Command-line interface: formats, flags, and exit codes."""

import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import defq
from defq import logic
from defq.cli import COMMANDS, build_parser, main
from defq.harness import METHODS, closure_query
from defq.ranking import compute_ranking, parse_kb

from conftest import (
    CONFLICT_KB_TEXT,
    RESIDENCE_KB_TEXT,
    TAXES_KB_TEXT,
)

UNSAT_KB_TEXT = "true |~ a\ntrue |~ !a\n"


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

    def test_unsatisfiable_kb_exits_3(self, kb_file, capsys):
        code, _, err = run(capsys, "model", kb_file(UNSAT_KB_TEXT))
        assert code == 3

    def test_last_chain_position_admitting_no_world(self, kb_file, capsys):
        # chain ({0, 1, 2}, {1, 2}) with equal masks: every world has rank 0
        code, out, _ = run(capsys, "model", kb_file("z |~ z\nx |~ y\nx |~ !y\n"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("rc=0" in line for line in lines)


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

    def test_check_requires_file_or_random(self, capsys):
        with pytest.raises(SystemExit):
            main(["check"])


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
# defaults plus four independent ones.  mp answers it; mpr runs out of memory.
WORST_CASE_KB_TEXT = "".join(f"true |~ p{i}\n" for i in range(12)) + "".join(
    f"p{i} |~ p{i + 1}\n" for i in (12, 14, 16, 18)
)

CHILD_ADDRESS_SPACE = 1 << 30
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(defq.__file__).resolve().parent.parent))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _query_under_one_gigabyte(path, query, method):
    return subprocess.run(
        [sys.executable, "-m", "defq", "query", str(path), query, "--method", method, "--json"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
        preexec_fn=_limit_address_space,
    )


def _answers_under_one_gigabyte(tmp_path, kb_text, query, methods):
    path = tmp_path / "kb.kb"
    path.write_text(kb_text)
    answers = {}
    for method in methods:
        done = _query_under_one_gigabyte(path, query, method)
        assert done.returncode == 0, (method, done.stderr)
        answers[method] = json.loads(done.stdout)["answer"]
    return answers


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

    def test_out_of_memory_exits_4_without_traceback(self, tmp_path):
        path = tmp_path / "worst.kb"
        path.write_text(WORST_CASE_KB_TEXT)
        assert _query_under_one_gigabyte(path, "p12 |~ p13", "mp").returncode == 0
        done = _query_under_one_gigabyte(path, "p12 |~ p13", "mpr")
        assert done.returncode == 4, done.stderr
        assert "memory limit" in done.stderr
        assert "Traceback" not in done.stderr


class TestStartup:
    def test_import_leaves_dataclasses_and_inspect_out(self):
        probe = "import defq.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "method, absent",
        [("mp", ["defq.harness", "defq.semantics", "json"]), ("mpr", ["defq.harness", "json"])],
    )
    def test_query_imports_only_its_engine(self, method, absent):
        probe = (
            "import sys, defq.cli\n"
            "code = defq.cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m == 'json' or m.startswith('defq')))\n"
            "sys.exit(code)\n"
        )
        taxes = Path(__file__).resolve().parent.parent / "samples" / "taxes.kb"
        query = "Employee & Student |~ Young"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe, "query", str(taxes), query, "--method", method],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        answer, loaded = done.stdout.splitlines()
        assert answer == "yes"
        assert "defq.closures" in loaded
        assert not [name for name in absent if repr(name) in loaded]


USAGE = "usage: defq [-h] {rank,query,bases,model,compare,check} ...\n"


class TestParser:
    """Building only the named subcommand's parser changes no output."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_subparser_prints_the_same_help_and_usage(self, capsys, command):
        printed = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            printed.append((capsys.readouterr().out, parser.format_usage()))
        assert printed[0] == printed[1]
        assert printed[0][1] == USAGE

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
        ],
    )
    def test_top_level_errors(self, capsys, argv, messages):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err in [f"{USAGE}defq: error: {m}\n" for m in messages]


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
    """``--json`` evidence of a relevant query reuses the answer's trace, so
    it builds no atom mask the plain answer did not."""

    @pytest.mark.parametrize("method", ("basic-relevant", "minimal-relevant"))
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
