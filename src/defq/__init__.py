"""defq: defeasible entailment over finite propositional conditional KBs.

Six query engines over knowledge bases of defaults ``A |~ B``: rational
closure, MP closure, lexicographic closure, basic and minimal relevant
closure, and the rational extension of the MP closure, with syntactic
(maximally serious consistent bases) and semantic (canonical ranked model)
routes cross-verified against each other.

The names below are exported from the modules that define them and load on
first use, so importing ``defq`` (or running one CLI command) imports only
the engines that are actually used.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "closures": "BASIC LC MINIMAL MP RelevantTrace closure_query enumerate_bases "
    "find_justifications lc_query lex_less_serious mp_less_serious mp_query numeric_tuple "
    "relevant_query relevant_trace",
    "harness": "KbGenerator PreferentialModel brewka_subset_less check_postulates compare_all "
    "cross_check height_ranks inclusion_violations layer_ranks minimal_worlds mpr_model "
    "oracle_mp_query preferential_refinement rank_by_height run_random_suite satisfies",
    "logic": "DEFAULT_ATOM_CAP FALSE TRUE Formula LogicError ParseError Signature SizeCapExceeded "
    "TruthTable UnknownAtomError atom iff implies land lnot lor mask_indices parse_formula "
    "to_text",
    "ranking": "DEFAULT_KB_CAP INF Conditional KnowledgeBase RankingTable UnsatisfiableKB "
    "compute_ranking kb_satisfiable parse_kb rank_of_formula rc_query",
    "semantics": "RankedModel least_height_worlds minimal_canonical_model mpr_query "
    "violation_classes violation_heights",
}
# export name -> defining module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
