"""Command-line front end.

Subcommands: rank, query, bases, model, compare, check.  Knowledge bases are
text files with one ``A |~ B`` default per line; ``#`` starts a comment and
line order assigns the 0-based default indices used in all output.

Exit codes: 0 success (query answers are ``yes``/``no`` on stdout), 1 check
suite found violations, 2 parse error, 3 unsatisfiable KB for model-based
methods, 4 size cap exceeded or memory limit reached.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Sequence

# Each command imports what it alone needs (json, harness, semantics) where
# it runs, so a query loads only the engine it asks for.
from . import closures
from .logic import (
    DEFAULT_ATOM_CAP,
    ParseError,
    SizeCapExceeded,
    land,
    lnot,
    mask_indices,
    to_text,
)
from .ranking import (
    DEFAULT_KB_CAP,
    INF,
    Conditional,
    KnowledgeBase,
    Rank,
    UnsatisfiableKB,
    compute_ranking,
    parse_kb,
    rank_of_formula,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_UNSAT = 3
EXIT_CAP = 4


def _rank_text(r: Rank) -> str:
    return "inf" if r == INF else str(int(r))


def _rank_json(r: Rank) -> dict[str, Any]:
    if r == INF:
        return {"rank": None, "infinite": True}
    return {"rank": int(r), "infinite": False}


def _emit_json(payload: Any) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_kb(args: argparse.Namespace) -> KnowledgeBase:
    with open(args.kb_file, encoding="utf-8") as handle:
        text = handle.read()
    return parse_kb(text, max_atoms=args.max_atoms, max_defaults=args.max_defaults)


def _true_atoms(kb: KnowledgeBase, j: int) -> list[str]:
    """Sorted names of the atoms true at valuation index j."""
    return sorted(a for i, a in enumerate(kb.signature.atoms) if j >> i & 1)


def _index_set_text(members) -> str:
    return "{" + ", ".join(str(i) for i in sorted(members)) + "}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rank(args: argparse.Namespace) -> int:
    kb = _load_kb(args)
    rt = compute_ranking(kb)
    if args.json:
        payload = {
            "defaults": [
                dict(index=c.index, conditional=c.text(), **_rank_json(rt.default_ranks[c.index]))
                for c in kb.conditionals
            ],
            "order_k": rt.order_k,
            "chain": [sorted(members) for members in rt.chain],
        }
        _emit_json(payload)
        return EXIT_OK
    for c in kb.conditionals:
        print(f"{c.index}: rank {_rank_text(rt.default_ranks[c.index])}    {c.text()}")
    print(f"order k: {rt.order_k}")
    print("chain:")
    for i, members in enumerate(rt.chain):
        print(f"  C{i}: {_index_set_text(members)}")
    return EXIT_OK


def _query_evidence(
    kb: KnowledgeBase, rt, method: str, query: Conditional, kept: Sequence[int], size: int
) -> dict[str, Any]:
    """The evidence behind an answer found on ``kb``, the query's part of a
    KB of ``size`` defaults whose d-th kept default is ``kept[d]`` there.
    Default sets come out in the whole KB's indices: the defaults the part
    dropped join every base and the relevant remainder."""
    untouched = sorted(set(range(size)).difference(kept))

    def whole(members, plus: Sequence[int] = ()) -> list[int]:
        return sorted([*(kept[d] for d in members), *plus])

    evidence: dict[str, Any] = {}
    rank_a = rank_of_formula(query.antecedent, rt, kb)
    evidence["antecedent_rank"] = _rank_json(rank_a)
    if method == "rc":
        conflict = land(query.antecedent, lnot(query.consequent))
        evidence["conflict_rank"] = _rank_json(rank_of_formula(conflict, rt, kb))
    elif method in ("mp", "lc") and rank_a != INF:
        bases = closures.enumerate_bases(kb, rt, query.antecedent, method)
        evidence["bases"] = sorted(whole(b, untouched) for b in bases)
    elif method in ("basic-relevant", "minimal-relevant") and rank_a != INF:
        variant = closures.BASIC if method == "basic-relevant" else closures.MINIMAL
        trace = closures.relevant_trace(kb, rt, query, variant)  # the answer's trace, kept
        evidence["justifications"] = sorted(whole(j) for j in trace.justifications)
        evidence["relevant"] = whole(trace.relevant)
        evidence["removed"] = whole(trace.removed)
        evidence["remaining"] = whole(trace.remainder, untouched)
    elif method == "mpr":
        from . import semantics

        model = semantics.mpr_model(kb, rt)
        minimal = semantics.minimal_worlds(model, query.antecedent)
        evidence["minimal_worlds"] = sorted(_true_atoms(kb, j) for j in mask_indices(minimal))
    return evidence


def cmd_query(args: argparse.Namespace) -> int:
    kb = _load_kb(args)
    query, kb = kb.parse_query(args.query)
    size, kept = len(kb), range(len(kb))
    if args.method != "mpr":  # mpr's heights depend on every default
        kb, kept = kb.query_part(query)
    rt = compute_ranking(kb)
    ask = closures.closure_query(kb, rt, args.method)  # may import an engine: not timed
    started = time.perf_counter()
    answer = ask(query)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json or args.explain:
        evidence = _query_evidence(kb, rt, args.method, query, kept, size)
    if args.json:
        _emit_json(
            {
                "method": args.method,
                "query": query.text(),
                "answer": answer,
                "evidence": evidence,
                "elapsed_ms": round(elapsed_ms, 3),
            }
        )
        return EXIT_OK
    print("yes" if answer else "no")
    if args.explain:
        for key, value in sorted(evidence.items()):
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_bases(args: argparse.Namespace) -> int:
    # the placeholder consequent adds no atoms: the signature grows by the antecedent's
    query, kb = _load_kb(args).parse_query(f"{args.antecedent} |~ true")
    antecedent = query.antecedent
    rt = compute_ranking(kb)
    if rank_of_formula(antecedent, rt, kb) == INF:
        if args.json:
            _emit_json({"antecedent": to_text(antecedent), "bases": None, "infinite_rank": True})
        else:
            print("antecedent has infinite rank: no bases")
        return EXIT_OK
    bases = closures.enumerate_bases(kb, rt, antecedent, args.method)
    if args.json:
        _emit_json(
            {
                "antecedent": to_text(antecedent),
                "method": args.method,
                "bases": [sorted(b) for b in bases],
            }
        )
        return EXIT_OK
    for base in bases:
        print(_index_set_text(base))
    return EXIT_OK


def cmd_model(args: argparse.Namespace) -> int:
    from . import semantics

    kb = _load_kb(args)
    rt = compute_ranking(kb)
    canonical = semantics.minimal_canonical_model(kb, rt)
    refined = semantics.preferential_refinement(canonical, kb)
    rc_rank = {j: r for r, stratum in enumerate(canonical.strata) for j in mask_indices(stratum)}
    rows = [
        {
            "atoms": _true_atoms(kb, j),
            "rc_rank": rc_rank[j],
            "fr_rank": height,
            "violated": sorted(refined.violated(c)),
        }
        for c, height in enumerate(semantics.height_ranks(refined))
        for j in mask_indices(refined.classes[c])
    ]
    rows.sort(key=lambda row: row["atoms"])
    if args.json:
        _emit_json({"worlds": rows})
        return EXIT_OK
    for row in rows:
        atoms = "{" + ", ".join(row["atoms"]) + "}"
        violated = "{" + ", ".join(str(i) for i in row["violated"]) + "}"
        print(f"{atoms}  rc={row['rc_rank']}  fr={row['fr_rank']}  violated={violated}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from . import harness

    kb = _load_kb(args)
    query, kb = kb.parse_query(args.query)
    matrix = harness.compare_all(kb, query)
    if args.json:
        _emit_json({"query": query.text(), "matrix": matrix.as_dict()})
        return EXIT_OK
    for method, answer in matrix.as_dict().items():
        print(f"{method}: {'yes' if answer else 'no'}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from . import harness

    if args.kb_file and not args.random:
        # size flags bound generated KBs; a KB file loads under the normal caps
        with open(args.kb_file, encoding="utf-8") as handle:
            kb = parse_kb(handle.read())
        gen = harness.KbGenerator(args.seed, max_atoms=max(len(kb.signature), 1))
        rt = compute_ranking(kb)
        queries = [gen.query(kb, 0, w) for w in range(args.count)]
        problems: list[str] = []
        rows = []
        for q in queries:
            matrix = harness.compare_all(kb, q)
            rows.append((q.text(), matrix.as_dict()))
            problems.extend(
                f"inclusion {name} {q.text()!r}" for name in matrix.inclusion_violations()
            )
        model_problems, _ = harness._model_agreement_problems(kb, rt, queries)
        problems.extend(model_problems)
        if args.json:
            summary = {"queries": len(rows), "violations": len(problems)}
            _emit_json({"queries": rows, "problems": problems, "summary": summary})
        else:
            for q_text, matrix_dict in rows:
                cells = " ".join(f"{k}={int(v)}" for k, v in matrix_dict.items())
                print(f"query {q_text!r} {cells}")
            for problem in problems:
                print(f"violation {problem}")
            print(f"summary queries={len(rows)} violations={len(problems)}")
        return EXIT_VIOLATIONS if problems else EXIT_OK

    if args.max_atoms > 8 or args.max_defaults > 10:
        raise SizeCapExceeded(
            "random checks enumerate all valuation and subset pairs; "
            "use --max-atoms <= 8 and --max-defaults <= 10"
        )
    results, summary = harness.run_random_suite(
        seed=args.seed,
        count=args.count,
        max_atoms=args.max_atoms,
        max_defaults=args.max_defaults,
    )
    if args.json:
        _emit_json({"trials": [t._asdict() for t in results], "summary": summary})
        return EXIT_VIOLATIONS if summary["violations"] else EXIT_OK
    for trial in results:
        print(
            f"trial={trial.index} seed={trial.seed} atoms={trial.atoms} "
            f"defaults={trial.defaults} checks={trial.checks} "
            f"violations={len(trial.problems)}"
        )
        for problem in trial.problems:
            print(f"violation trial={trial.index} {problem}")
    print(
        "summary trials={trials} queries={queries} checks={checks} "
        "violations={violations}".format(**summary)
    )
    return EXIT_VIOLATIONS if summary["violations"] else EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


COMMANDS = ("rank", "query", "bases", "model", "compare", "check")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``defq`` parser.  When ``command`` names a subcommand only its
    subparser is built; the output (help, usage, errors) stays the same."""
    wanted = (command,) if command in COMMANDS else COMMANDS
    parser = argparse.ArgumentParser(
        prog="defq",
        description="Defeasible entailment over propositional conditional knowledge bases.",
    )
    # a lone subparser would shrink the usage line's choices, so spell them all
    metavar = None if len(wanted) > 1 else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add_caps(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-atoms", type=int, default=DEFAULT_ATOM_CAP,
                       help="signature size cap (default %(default)s)")
        p.add_argument("--max-defaults", type=int, default=DEFAULT_KB_CAP,
                       help="knowledge-base size cap (default %(default)s)")
        p.add_argument("--json", action="store_true", help="structured output")

    if "rank" in wanted:
        p_rank = sub.add_parser("rank", help="default ranks and the exceptionality chain")
        p_rank.add_argument("kb_file")
        add_caps(p_rank)
        p_rank.set_defaults(func=cmd_rank)

    if "query" in wanted:
        p_query = sub.add_parser("query", help="answer a defeasible query")
        p_query.add_argument("kb_file")
        p_query.add_argument("query", help="conditional, e.g. 'a & b |~ c'")
        p_query.add_argument(
            "--method",
            choices=closures.METHODS,
            required=True,
            help="which consequence relation to use",
        )
        p_query.add_argument("--explain", action="store_true",
                             help="include the evidence behind the answer")
        add_caps(p_query)
        p_query.set_defaults(func=cmd_query)

    if "bases" in wanted:
        p_bases = sub.add_parser("bases", help="maximally serious consistent bases")
        p_bases.add_argument("kb_file")
        p_bases.add_argument("antecedent")
        p_bases.add_argument("--method", choices=(closures.MP, closures.LC), required=True)
        add_caps(p_bases)
        p_bases.set_defaults(func=cmd_bases)

    if "model" in wanted:
        p_model = sub.add_parser("model", help="dump the canonical model's worlds")
        p_model.add_argument("kb_file")
        add_caps(p_model)
        p_model.set_defaults(func=cmd_model)

    if "compare" in wanted:
        p_compare = sub.add_parser("compare", help="run all six engines on one query")
        p_compare.add_argument("kb_file")
        p_compare.add_argument("query")
        add_caps(p_compare)
        p_compare.set_defaults(func=cmd_compare)

    if "check" in wanted:
        p_check = sub.add_parser("check", help="consistency checks across the engines")
        p_check.add_argument("kb_file", nargs="?", default=None)
        p_check.add_argument("--random", action="store_true",
                             help="generate random KBs instead of reading one")
        p_check.add_argument("--seed", type=int, default=0)
        p_check.add_argument("--count", type=int, default=20,
                             help="number of random KBs, or queries in file mode")
        # here the size flags bound the *generated* KBs, and the exhaustive
        # pairwise checks need them small
        p_check.add_argument("--max-atoms", type=int, default=4,
                             help="atoms per generated KB (default %(default)s)")
        p_check.add_argument("--max-defaults", type=int, default=6,
                             help="defaults per generated KB (default %(default)s)")
        p_check.add_argument("--json", action="store_true", help="structured output")
        p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command == "check" and not args.random and args.kb_file is None:
        parser.error("check needs a KB file or --random")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsatisfiableKB as exc:
        print(f"unsatisfiable knowledge base: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("memory limit reached: the process ran out of memory before an answer; "
              "use a smaller KB or raise the memory limit", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
