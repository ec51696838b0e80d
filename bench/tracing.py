"""Span tracing of defq's layer boundaries, installed from outside the program.

``Tracer.install`` replaces each boundary function listed in ``BOUNDARIES``
with a wrapper that records a span (boundary key, start, end, parent span,
op id), in every ``defq`` module namespace that holds the function under
some name, so that calls through ``from .closures import enumerate_bases``
are seen too.  Methods are wrapped on their class.  ``restore`` puts every
original back.  Spans stay in memory, in flat arrays, until ``dump``.

A span's self time is its duration minus the durations of its child spans;
calls are sequential, so the children never overlap.  Layer metrics are sums
over all spans of the traced ops.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("logic", "ranking", "closures", "semantics", "harness", "cli")


def _memo_hit(slot: str, key: Callable[[tuple], Any] | None = None) -> Callable[[tuple], bool]:
    """Memo-hit test for a function whose first argument is the KB and whose
    result is cached in ``kb.cache[slot]`` (under ``key(args)`` when given)."""

    def hit(args: tuple) -> bool:
        entry = args[0].cache.get(slot)
        if key is None or entry is None:
            return entry is not None
        return key(args) in entry

    return hit


@dataclass(frozen=True)
class Boundary:
    """One wrapped function.  ``key`` names the metric family; ``hit`` tells
    a memo hit before the call; ``found`` measures the work in a result."""

    key: str
    module: str
    name: str
    hit: Callable[[tuple], bool] | None = None
    found: Callable[[Any], int] | None = None


BOUNDARIES = (
    Boundary("logic.truth_table", "logic", "TruthTable.__init__"),
    Boundary("logic.parse", "logic", "parse_formula"),
    Boundary("logic.parse", "logic", "parse_conditional_parts"),
    Boundary("logic.parse", "ranking", "parse_kb"),
    Boundary("ranking.ranking", "ranking", "compute_ranking",
             hit=_memo_hit("ranking"), found=lambda rt: len(rt.chain)),
    Boundary("ranking.rank_of_formula", "ranking", "rank_of_formula"),
    Boundary("ranking.query", "ranking", "rc_query"),
    Boundary("closures.bases", "closures", "enumerate_bases",
             hit=_memo_hit("bases", lambda a: (a[3], a[2])), found=len),
    Boundary("closures.justifications", "closures", "find_justifications",
             hit=_memo_hit("justifications", lambda a: a[1]), found=len),
    Boundary("closures.relevant", "closures", "relevant_trace"),
    Boundary("closures.relevant", "closures", "relevant_query"),
    Boundary("closures.query", "closures", "mp_query"),
    Boundary("closures.query", "closures", "lc_query"),
    Boundary("closures.comparator", "closures", "mp_less_serious"),
    Boundary("closures.comparator", "closures", "lex_less_serious"),
    Boundary("closures.comparator", "closures", "brewka_subset_less"),
    Boundary("semantics.canonical", "semantics", "minimal_canonical_model",
             hit=_memo_hit("min_canonical"), found=lambda m: len(m.worlds)),
    Boundary("semantics.refinement", "semantics", "preferential_refinement",
             found=lambda m: len(m.below)),
    Boundary("semantics.order_verify", "semantics", "PreferentialModel.__init__"),
    Boundary("semantics.height", "semantics", "height_ranks"),
    Boundary("semantics.height", "semantics", "rank_by_height"),
    Boundary("semantics.layer", "semantics", "layer_ranks"),
    Boundary("semantics.satisfies", "semantics", "satisfies"),
    Boundary("semantics.satisfies", "semantics", "minimal_worlds"),
    Boundary("semantics.query", "semantics", "mpr_model"),
    Boundary("semantics.query", "semantics", "mpr_query"),
    Boundary("harness.generate", "harness", "KbGenerator.knowledge_base"),
    Boundary("harness.generate", "harness", "KbGenerator.query"),
    Boundary("harness.generate", "harness", "KbGenerator.triple"),
    Boundary("harness.compare_all", "harness", "compare_all"),
    Boundary("harness.oracle", "harness", "oracle_mp_query"),
    Boundary("harness.postulates", "harness", "check_postulates"),
    Boundary("harness.suite", "harness", "run_random_suite"),
    Boundary("cli.main", "cli", "main"),
)

KEYS = tuple(dict.fromkeys(b.key for b in BOUNDARIES))

# (metric, boundary key, what is counted): "calls" counts spans, "found"
# sums the work counts of memo misses, "hit_ratio" is memo hits per call.
COUNTS = (
    ("logic.truth_tables", "logic.truth_table", "calls"),
    ("ranking.chain_len", "ranking.ranking", "found"),
    ("ranking.rank_of_formula_calls", "ranking.rank_of_formula", "calls"),
    ("closures.bases_calls", "closures.bases", "calls"),
    ("closures.bases_found", "closures.bases", "found"),
    ("closures.bases_hit_ratio", "closures.bases", "hit_ratio"),
    ("closures.justifications_found", "closures.justifications", "found"),
    ("closures.comparator_calls", "closures.comparator", "calls"),
    ("semantics.worlds", "semantics.canonical", "found"),
    ("semantics.order_pairs", "semantics.refinement", "found"),
    ("harness.oracle_calls", "harness.oracle", "calls"),
)

_FIELDS = ("key", "start", "end", "parent", "op", "hit", "found")


class Tracer:
    """Collects spans from the installed wrappers.  Not thread-safe: defq
    runs single-threaded and so does every traced op."""

    def __init__(self) -> None:
        self.spans = {field: array("q") for field in _FIELDS}
        self.op = 0
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module in {b.module for b in BOUNDARIES}:
            importlib.import_module(f"defq.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "defq" or name.startswith("defq."))]
        for boundary in BOUNDARIES:
            module = importlib.import_module(f"defq.{boundary.module}")
            owner_name, _, attr = boundary.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, self._wrap(boundary, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(boundary, original)
            for namespace in modules:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._replace(namespace, name, wrapper)
        return self

    def _replace(self, owner: Any, name: str, wrapper: Any) -> None:
        self._restore.append((owner, name, getattr(owner, "__dict__", {})[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        key = KEYS.index(boundary.key)
        spans = self.spans
        stack = self._stack
        clock = time.monotonic_ns

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            hit = boundary.hit(args) if boundary.hit else False
            index = len(spans["key"])
            for field, value in zip(_FIELDS, (key, 0, 0, stack[-1], self.op, hit, 0)):
                spans[field].append(value)
            stack.append(index)
            spans["start"][index] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans["end"][index] = clock()
                stack.pop()
            if boundary.found and not hit:
                spans["found"][index] = boundary.found(result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """Spans as plain lists, with the key names, for ``json.dump``."""
        return {"keys": list(KEYS), **{f: self.spans[f].tolist() for f in _FIELDS}}


def merge(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    """One span table from several, parent indices shifted to stay valid.
    Each dump's ops keep the op ids they were recorded with."""
    merged: dict[str, Any] = {"keys": list(KEYS), **{f: [] for f in _FIELDS}}
    for dump in dumps:
        if dump["keys"] != list(KEYS):
            raise ValueError("span dump from a different boundary list")
        offset = len(merged["key"])
        for f in _FIELDS:
            values = dump[f]
            if f == "parent":
                values = [p + offset if p >= 0 else -1 for p in values]
            merged[f].extend(values)
    return merged


def self_times(spans: dict[str, Any]) -> list[int]:
    """Self time of each span in nanoseconds."""
    durations = [e - s for s, e in zip(spans["start"], spans["end"])]
    selfs = list(durations)
    for index, parent in enumerate(spans["parent"]):
        if parent >= 0:
            selfs[parent] -= durations[index]
    return selfs


def layer_metrics(spans: dict[str, Any]) -> dict[str, float]:
    """``<key>_s`` self seconds per boundary key, ``<layer>.self_s`` per
    layer, and the counts in ``COUNTS``."""
    keys = spans["keys"]
    seconds = dict.fromkeys(keys, 0)
    calls = dict.fromkeys(keys, 0)
    hits = dict.fromkeys(keys, 0)
    found = dict.fromkeys(keys, 0)
    for key, own, hit, work in zip(spans["key"], self_times(spans), spans["hit"], spans["found"]):
        name = keys[key]
        seconds[name] += own
        calls[name] += 1
        hits[name] += hit
        found[name] += work
    metrics = {f"{k}_s": ns / 1e9 for k, ns in seconds.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            ns for k, ns in seconds.items() if k.startswith(layer + ".")
        ) / 1e9
    for metric, key, kind in COUNTS:
        if kind == "calls":
            metrics[metric] = calls[key]
        elif kind == "found":
            metrics[metric] = found[key]
        else:
            metrics[metric] = hits[key] / calls[key] if calls[key] else 0.0
    return metrics


def write(path: str, spans: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
