"""Command-line front end.

Subcommands: rank, query, bases, model, compare, check.  Knowledge bases are
text files with one ``A |~ B`` default per line; ``#`` starts a comment and
line order assigns the 0-based default indices used in all output.

Exit codes: 0 success (query answers are ``yes``/``no`` on stdout), 1 check
suite found violations, 2 parse error or usage error, a KB file that cannot
be read, or output that cannot be written, 3 unsatisfiable KB for
model-based methods, 4 size cap exceeded or memory limit reached.  They hold
whether or not stderr can take the error message.

Each ``cmd_*`` function computes and returns its exit code with two lazy
renderings of its output, JSON pieces and text pieces.  ``main`` alone reads
``--json`` and passes the chosen rendering to ``_write``, the one writer of
stdout, so the other rendering never starts.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NoReturn, Sequence

# Each command imports what it alone needs (harness, semantics) where it
# runs, so a query loads only the engine it asks for; json loads only when a
# JSON rendering is written, and argparse only for help, usage errors and
# unusual spellings (see read_argv).
from . import closures
from .logic import (
    DEFAULT_ATOM_CAP,
    ParseError,
    TRUE,
    SizeCapExceeded,
    mask_indices,
    parse_formula,
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
    mask_rank,
    parse_kb,
    rank_of_formula,
)

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_UNSAT = 3
EXIT_CAP = 4

# the size of a random check's generated KBs when no size flag is given
RANDOM_ATOMS = 4
RANDOM_DEFAULTS = 6

# what a command returns: its exit code, then its output as JSON and as text
Output = tuple[int, Iterable[str], Iterable[str]]


def _rank_text(r: Rank) -> str:
    return "inf" if r == INF else str(int(r))


def _rank_json(r: Rank) -> dict[str, Any]:
    if r == INF:
        return {"rank": None, "infinite": True}
    return {"rank": int(r), "infinite": False}


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout in batches of 4,096, so a long output is
    never held whole (one write per piece would be slower).  A closed stdout
    takes nothing, as with ``print``.  Batches go to the byte stream under
    stdout when it has one, and a short write is retried: an unbuffered
    stdout (``python -u``) drops what a short write leaves over, and a pipe
    whose reader has gone gives one before its broken-pipe error.  It
    flushes before it returns, so an unwritable stdout raises here."""
    out = sys.stdout
    if out is None:
        return
    binary = getattr(out, "buffer", None)
    out.flush()  # text printed earlier goes first
    pieces = iter(pieces)
    while batch := "".join(islice(pieces, 4096)):
        if binary is None:
            out.write(batch)
            continue
        data = memoryview(batch.encode(out.encoding))
        while data:
            data = data[binary.write(data):]
    out.flush()


def _json(payload: Any) -> Iterator[str]:
    """``payload`` as indented JSON and a newline, in the encoder's chunks;
    ``json`` loads when the first chunk is asked for."""
    import json

    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    yield "\n"


def _json_list(items: Iterable[str]) -> str:
    """A list of JSON texts laid out as json's ``indent=2`` lays out a list
    three levels deep, as each field of a ``model`` row is."""
    inner = ",\n        ".join(items)
    return f"[\n        {inner}\n      ]" if inner else "[]"


def _load_kb(args: Namespace) -> KnowledgeBase:
    """The KB file under the size flags as caps; an unset flag keeps the usual cap."""
    with open(args.kb_file, encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse_kb(text, max_atoms=DEFAULT_ATOM_CAP if args.max_atoms is None else args.max_atoms,
                    max_defaults=DEFAULT_KB_CAP if args.max_defaults is None else args.max_defaults)


def _true_atoms(kb: KnowledgeBase, j: int) -> list[str]:
    """Sorted names of the atoms true at valuation index j."""
    return sorted(a for i, a in enumerate(kb.signature.atoms) if j >> i & 1)


def _index_set_text(indices: Iterable[int]) -> str:
    """Default indices as ``{i, j, ...}``."""
    return "{" + ", ".join(str(i) for i in indices) + "}"


def _whole_indices(members: int, kept: Sequence[int], plus: Sequence[int] = ()) -> list[int]:
    """The default mask ``members`` of a query's part, whose d-th default is
    ``kept[d]`` in the whole KB, as sorted whole-KB indices, with ``plus``."""
    return sorted([*(kept[d] for d in mask_indices(members)), *plus])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rank(args: Namespace) -> Output:
    kb = _load_kb(args)
    rt = compute_ranking(kb)
    payload = {
        "defaults": [dict(index=d, conditional=c.text(), **_rank_json(rt.default_ranks[d]))
                     for d, c in enumerate(kb.conditionals)],
        "order_k": rt.order_k,
        "chain": [list(mask_indices(members)) for members in rt.chain],
    }
    return EXIT_OK, _json(payload), chain(
        (f"{d}: rank {_rank_text(rt.default_ranks[d])}    {c.text()}\n"
         for d, c in enumerate(kb.conditionals)),
        [f"order k: {rt.order_k}\nchain:\n"],
        (f"  C{i}: {_index_set_text(mask_indices(m))}\n" for i, m in enumerate(rt.chain)),
    )


def _query_evidence(
    kb: KnowledgeBase, method: str, query: Conditional, kept: Sequence[int], size: int
) -> dict[str, Any]:
    """The evidence behind an answer found on ``kb``, the query's part of a
    KB of ``size`` defaults whose d-th kept default is ``kept[d]`` there,
    read off the part's own ranking.  The part's default masks come out as
    lists of the whole KB's indices: the defaults the part dropped join
    every base and the relevant remainder."""
    untouched = sorted(set(range(size)).difference(kept))
    rt = compute_ranking(kb)
    rank_a = rank_of_formula(query.antecedent, rt, kb)
    evidence: dict[str, Any] = {"antecedent_rank": _rank_json(rank_a)}
    if method == "rc":  # the rank of A & !B, from the masks the answer kept
        conflict = kb.mask(query.antecedent) & ~kb.mask(query.consequent)
        evidence["conflict_rank"] = _rank_json(mask_rank(conflict, rt))
    elif method in ("mp", "lc") and rank_a != INF:
        bases = closures.enumerate_bases(kb, rt, query.antecedent, method)
        evidence["bases"] = sorted(_whole_indices(b, kept, untouched) for b in bases)
    elif method in (closures.BASIC, closures.MINIMAL) and rank_a != INF:
        trace = closures.relevant_trace(kb, query, method)  # from the kept justifications
        evidence["justifications"] = sorted(_whole_indices(j, kept) for j in trace.justifications)
        evidence["relevant"] = _whole_indices(trace.relevant, kept)
        evidence["removed"] = _whole_indices(trace.removed, kept)
        evidence["remaining"] = _whole_indices(trace.remainder, kept, untouched)
    elif method == "mpr":
        from . import semantics

        minimal = semantics.least_height_worlds(kb, kb.mask(query.antecedent))
        evidence["minimal_worlds"] = sorted(_true_atoms(kb, j) for j in mask_indices(minimal))
    return evidence


def cmd_query(args: Namespace) -> Output:
    kb = _load_kb(args)
    size = len(kb)
    if args.method == "mpr":  # mpr's heights depend on every default
        query, kb = kb.parse_query(args.query)
        kept = range(size)
    else:  # the atom cap applies to the query's part, not to the whole KB
        query = kb.read_query(args.query)
        kb, kept = kb.query_part(query)
    ask = closures.closure_query(kb, compute_ranking(kb), args.method)  # may import: not timed
    started = time.perf_counter()
    answer = ask(query)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    # a plain answer finds no evidence, so its text lists none
    evidence = (_query_evidence(kb, args.method, query, kept, size)
                if args.json or args.explain else {})
    payload = {"method": args.method, "query": query.text(), "answer": answer,
               "evidence": evidence, "elapsed_ms": round(elapsed_ms, 3)}
    return EXIT_OK, _json(payload), chain(
        ["yes\n" if answer else "no\n"],
        (f"{key}: {value}\n" for key, value in sorted(evidence.items())),
    )


def cmd_bases(args: Namespace) -> Output:
    whole = _load_kb(args)
    antecedent = parse_formula(args.antecedent)
    # the consequent true adds no atoms, so the part is the antecedent's; the
    # atom cap applies to its truth table, as in cmd_query
    query = Conditional(antecedent, TRUE)
    kb, kept = whole.query_part(query)
    bases = _query_evidence(kb, args.method, query, kept, len(whole)).get("bases")
    payload = {"antecedent": to_text(antecedent), "method": args.method, "bases": bases}
    if bases is None:  # the antecedent has infinite rank
        payload["infinite_rank"] = True
        return EXIT_OK, _json(payload), ["antecedent has infinite rank: no bases\n"]
    return EXIT_OK, _json(payload), (f"{_index_set_text(base)}\n" for base in bases)


def _worlds_by_name(atoms: Sequence[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Every valuation index over ``atoms`` with the sorted names of its true
    atoms, in the order of those name lists: a depth-first walk that adds
    atoms in name order, so a list comes before its extensions and after
    every list with a smaller name at the first place they differ."""
    order = sorted(range(len(atoms)), key=atoms.__getitem__)
    stack = [(0, 0, ())]
    while stack:
        j, start, names = stack.pop()
        yield j, names
        for k in reversed(range(start, len(order))):  # the smallest name pops first
            stack.append((j | 1 << order[k], k + 1, (*names, atoms[order[k]])))


def cmd_model(args: Namespace) -> Output:
    from . import semantics

    kb = _load_kb(args)
    rt = compute_ranking(kb)
    # a world's class is its violation set; a set with no height is off the model
    heights = semantics.mpr_heights(kb)
    # a set's rc rank: the first chain position whose defaults it all satisfies
    rc = {v: next(i for i, members in enumerate(rt.chain) if v & members == 0) for v in heights}
    # bit j of default d's column is set when world j violates d: a byte read per default
    columns = [((kb.truth.full ^ m).to_bytes(max(1, 1 << len(kb.signature) >> 3), "little"), 1 << d)
               for d, m in enumerate(kb.default_masks)]
    worlds = ((sum(d for column, d in columns if column[k] & bit), names)
              for j, names in _worlds_by_name(kb.signature.atoms)
              for k, bit in [(j >> 3, 1 << (j & 7))])  # world j's byte and bit

    # both renderings read the one ``worlds`` stream: neither starts until asked
    def as_json() -> Iterator[str]:
        # the text of {"worlds": rows} under json's indent=2 and sort_keys,
        # one row at a time; a satisfiable KB has a world, so rows is not empty
        tails = {v: f'"fr_rank": {h},\n      "rc_rank": {rc[v]},\n      '
                    f'"violated": {_json_list(map(str, mask_indices(v)))}\n    }}'
                 for v, h in heights.items()}
        quote = '"{}"'.format  # atom names are ASCII identifiers: JSON escapes none
        rows = (f'\n    {{\n      "atoms": {_json_list(map(quote, names))},\n      {tails[v]}'
                for v, names in worlds if v in tails)
        yield '{\n  "worlds": [' + next(rows)
        yield from (f",{row}" for row in rows)
        yield "\n  ]\n}\n"

    def as_text() -> Iterator[str]:
        tails = {v: f"  rc={rc[v]}  fr={h}  violated={_index_set_text(mask_indices(v))}\n"
                 for v, h in heights.items()}
        yield from ("{" + ", ".join(names) + "}" + tails[v] for v, names in worlds if v in tails)

    return EXIT_OK, as_json(), as_text()


def cmd_compare(args: Namespace) -> Output:
    kb = _load_kb(args)
    query, kb = kb.parse_query(args.query)
    answers = closures.compare_all(kb, query)
    return EXIT_OK, _json({"query": query.text(), "matrix": answers}), (
        f"{method}: {'yes' if answer else 'no'}\n" for method, answer in answers.items())


def cmd_check(args: Namespace) -> Output:
    from . import harness

    if args.kb_file is not None:
        kb = _load_kb(args)
        gen = harness.KbGenerator(args.seed)
        queries = [gen.query(kb, 0, w) for w in range(args.count)]
        rows, problems, _ = harness.cross_check(kb, queries)
        payload = {"queries": rows, "problems": problems,
                   "summary": {"queries": len(rows), "violations": len(problems)}}
        return EXIT_VIOLATIONS if problems else EXIT_OK, _json(payload), chain(
            (f"query {q_text!r} {' '.join(f'{k}={int(v)}' for k, v in matrix.items())}\n"
             for q_text, matrix in rows),
            (f"violation {problem}\n" for problem in problems),
            [f"summary queries={len(rows)} violations={len(problems)}\n"],
        )

    max_atoms = args.max_atoms or RANDOM_ATOMS
    max_defaults = args.max_defaults or RANDOM_DEFAULTS
    if max_atoms > 8 or max_defaults > 10:
        raise SizeCapExceeded("random checks enumerate all valuation and subset pairs; "
                              "use --max-atoms <= 8 and --max-defaults <= 10")
    results, summary = harness.run_random_suite(seed=args.seed, count=args.count,
                                                max_atoms=max_atoms, max_defaults=max_defaults)

    def as_text() -> Iterator[str]:
        for trial in results:
            yield (f"trial={trial.index} seed={trial.seed} atoms={trial.atoms} "
                   f"defaults={trial.defaults} checks={trial.checks} "
                   f"violations={len(trial.problems)}\n")
            yield from (f"violation trial={trial.index} {problem}\n" for problem in trial.problems)
        yield ("summary trials={trials} queries={queries} checks={checks} "
               "violations={violations}\n".format(**summary))

    payload = {"trials": [t._asdict() for t in results], "summary": summary}
    return EXIT_VIOLATIONS if summary["violations"] else EXIT_OK, _json(payload), as_text()


# ---------------------------------------------------------------------------
# Arguments, parser and entry point
# ---------------------------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """Argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError  # only a refused value loads argparse

            raise ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse words a ValueError as "invalid int value: ..."
    return parse


_JSON = ("--json", {"action": "store_true", "help": "structured output"})
_CAPS = (
    ("--max-atoms", {"type": _int_at_least(0), "default": DEFAULT_ATOM_CAP,
                     "help": "signature size cap (default %(default)s)"}),
    ("--max-defaults", {"type": _int_at_least(0), "default": DEFAULT_KB_CAP,
                        "help": "knowledge-base size cap (default %(default)s)"}),
    _JSON,
)

# Each subcommand's summary, function and arguments, in help order.  An
# argument is an ``add_argument`` name and its keywords; flags start with
# "-".  ``build_parser`` and ``read_argv`` both read this table.
ARGUMENTS: dict[str, tuple[str, Callable[[Namespace], Output], tuple[tuple[str, dict], ...]]] = {
    "rank": ("default ranks and the exceptionality chain", cmd_rank, (("kb_file", {}), *_CAPS)),
    "query": ("answer a defeasible query", cmd_query, (
        ("kb_file", {}),
        ("query", {"help": "conditional, e.g. 'a & b |~ c'"}),
        ("--method", {"choices": closures.METHODS, "required": True,
                      "help": "which consequence relation to use"}),
        ("--explain", {"action": "store_true", "help": "include the evidence behind the answer"}),
        *_CAPS,
    )),
    "bases": ("maximally serious consistent bases", cmd_bases, (
        ("kb_file", {}),
        ("antecedent", {}),
        ("--method", {"choices": (closures.MP, closures.LC), "required": True}),
        *_CAPS,
    )),
    "model": ("dump the canonical model's worlds", cmd_model, (("kb_file", {}), *_CAPS)),
    "compare": ("run all six engines on one query", cmd_compare,
                (("kb_file", {}), ("query", {}), *_CAPS)),
    "check": ("consistency checks across the engines", cmd_check, (
        ("kb_file", {"nargs": "?", "default": None}),
        ("--random", {"action": "store_true",
                      "help": "generate random KBs instead of reading one"}),
        ("--seed", {"type": int, "default": 0}),
        ("--count", {"type": _int_at_least(0), "default": 20,
                     "help": "number of random KBs, or queries in file mode"}),
        # in random mode the size flags bound the *generated* KBs, and the
        # exhaustive pairwise checks need them small; a KB file takes them as
        # the usual caps
        ("--max-atoms", {"type": _int_at_least(1), "default": None,
                         "help": f"atoms per generated KB (default {RANDOM_ATOMS}), or the "
                         f"signature size cap of a KB file (default {DEFAULT_ATOM_CAP})"}),
        ("--max-defaults", {"type": _int_at_least(1), "default": None,
                            "help": f"defaults per generated KB (default {RANDOM_DEFAULTS}), or "
                            f"the size cap of a KB file (default {DEFAULT_KB_CAP})"}),
        _JSON,
    )),
}
COMMANDS = tuple(ARGUMENTS)


def build_parser() -> ArgumentParser:
    """The ``defq`` argparse parser, built from ``ARGUMENTS``.  Help goes
    through ``_write``: argparse's writer drops an unwritable stdout's error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file: Any = None) -> None:
            if file is not None:
                return super().print_help(file)
            _write([self.format_help()])

    parser = Parser(
        prog="defq",
        description="Defeasible entailment over propositional conditional knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, arguments) in ARGUMENTS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes ``build_parser().parse_args(argv)`` would set, read
    without argparse, for an ``argv`` in canonical form: the command, its
    positionals, then exact long flags, each value a word of its own that
    does not start with "-".  Returns None for anything else (help, "--",
    "=" forms, abbreviations, unknown flags, missing or extra words, bad
    values, optional positionals), which argparse answers or rejects."""
    if not argv or argv[0] not in ARGUMENTS:
        return None
    _, func, arguments = ARGUMENTS[argv[0]]
    values: dict[str, Any] = {"command": argv[0], "func": func}
    flags: dict[str, tuple[str, dict]] = {}  # flag -> its attribute and keywords
    words = iter(argv[1:])
    for name, keywords in arguments:
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            flags[name] = dest, keywords
            switch = keywords.get("action") == "store_true"
            values[dest] = False if switch else keywords.get("default")
            continue
        word = next(words, "-")  # a missing word declines like a flag
        if "nargs" in keywords or word.startswith("-"):
            return None
        values[name] = word
    missing = {name for name, (_, keywords) in flags.items() if keywords.get("required")}
    for word in words:
        if word not in flags:
            return None
        dest, keywords = flags[word]
        missing.discard(word)
        if keywords.get("action") == "store_true":
            value: Any = True
        else:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except Exception:  # argparse reports what the flag's type refuses
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        values[dest] = value
    return None if missing else SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = read_argv(argv)
        if args is None:  # help, usage errors and unusual spellings
            parser = build_parser()
            args = parser.parse_args(argv)
            if args.command == "check" and not args.random and args.kb_file is None:
                parser.error("check needs a KB file or --random")
            if args.command == "check" and args.random and args.kb_file is not None:
                parser.error("check takes a KB file or --random, not both")
        code, as_json, as_text = args.func(args)
        _write(as_json if args.json else as_text)
        return code
    except (ParseError, UnicodeDecodeError) as exc:  # a KB file that is not UTF-8 text
        _report(f"parse error: {exc}")
        return EXIT_PARSE
    except UnsatisfiableKB as exc:
        _report(f"unsatisfiable knowledge base: {exc}")
        return EXIT_UNSAT
    except SizeCapExceeded as exc:
        _report(f"size cap exceeded: {exc}")
        return EXIT_CAP
    except MemoryError:
        _report("memory limit reached: the process ran out of memory before an answer; "
                "use a smaller KB or raise the memory limit")
        return EXIT_CAP
    except OSError as exc:  # a KB file that cannot be read, or output that cannot be written
        _report(f"error: {exc}")
        return EXIT_PARSE


def _report(message: str) -> None:
    """Print an error message on stderr.  A closed or unwritable stderr
    loses it, and the exit code still says what went wrong."""
    if sys.stderr is None:
        return
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        pass


def run() -> NoReturn:
    """The ``defq`` program, for ``python -m defq`` and the console script:
    ``main`` on the command line, then an exit that skips the interpreter's
    teardown.  Freeing every module and object costs a query about 10 ms,
    more than its engine work, and a finished process needs none of it.
    Nothing is left to flush: ``_write`` flushes stdout, and stderr takes
    whole lines, which Python flushes as they come.  ``main`` itself returns
    normally, for tests and library callers."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's help (0) and usage errors (2)
        code = exc.code
    os._exit(code)


if __name__ == "__main__":
    run()
