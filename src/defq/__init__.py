"""defq: defeasible entailment over finite propositional conditional KBs.

Six query engines over knowledge bases of defaults ``A |~ B``: rational
closure, MP closure, lexicographic closure, basic and minimal relevant
closure, and the rational extension of the MP closure, with syntactic
(maximally serious consistent bases) and semantic (canonical ranked model)
routes cross-verified against each other.
"""

from .closures import (
    BASIC,
    LC,
    MINIMAL,
    MP,
    RankPartition,
    RelevantTrace,
    brewka_subset_less,
    enumerate_bases,
    find_justifications,
    lc_query,
    lex_less_serious,
    mp_less_serious,
    mp_query,
    numeric_tuple,
    partition,
    relevant_query,
    relevant_trace,
)
from .harness import (
    ClosureMatrix,
    KbGenerator,
    check_postulates,
    closure_query,
    compare_all,
    oracle_mp_query,
    run_random_suite,
)
from .logic import (
    DEFAULT_ATOM_CAP,
    FALSE,
    TRUE,
    Formula,
    LogicError,
    ParseError,
    Signature,
    SizeCapExceeded,
    TruthTable,
    UnknownAtomError,
    Valuation,
    all_valuations,
    atom,
    evaluate,
    iff,
    implies,
    land,
    lnot,
    lor,
    mask_indices,
    parse_formula,
    to_text,
)
from .ranking import (
    DEFAULT_KB_CAP,
    INF,
    Conditional,
    KnowledgeBase,
    RankingTable,
    compute_ranking,
    is_exceptional,
    kb_satisfiable,
    parse_kb,
    rank_of_formula,
    rc_query,
    violated_defaults,
)
from .semantics import (
    PreferentialModel,
    RankedModel,
    UnsatisfiableKB,
    height_ranks,
    is_refinement_fixed_point,
    layer_ranks,
    minimal_canonical_model,
    minimal_worlds,
    mpr_model,
    mpr_query,
    preferential_refinement,
    rank_by_height,
    satisfies,
)

__version__ = "0.1.0"
