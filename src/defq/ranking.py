"""Conditional knowledge bases and the rational-closure ranking.

A knowledge base is an ordered sequence of defaults ``A |~ B``.  Repeatedly
keeping the defaults whose antecedent is refuted by the materialization of
the current set yields a shrinking chain of subsets; the chain stabilizes
and assigns every default (and every formula) a rank, with ``INF`` for
antecedents that stay refuted all the way down.  Rational-closure query
answering compares the rank of the antecedent with the rank of the
antecedent conjoined with the negated consequent.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .logic import (
    DEFAULT_ATOM_CAP,
    Formula,
    LogicError,
    ParseError,
    Signature,
    SizeCapExceeded,
    TruthTable,
    Valuation,
    implies,
    land,
    lnot,
    parse_conditional_parts,
    to_text,
)

DEFAULT_KB_CAP = 16

INF = math.inf
Rank = Union[int, float]


class UnsatisfiableKB(LogicError):
    """No valuation satisfies the KB's materialization: no models exist."""


class Conditional(NamedTuple):
    """A default ``antecedent |~ consequent`` at a fixed KB position."""

    antecedent: Formula
    consequent: Formula
    index: int

    def materialization(self) -> Formula:
        return implies(self.antecedent, self.consequent)

    def text(self) -> str:
        return f"{to_text(self.antecedent)} |~ {to_text(self.consequent)}"

    def __str__(self) -> str:
        return self.text()


class KnowledgeBase:
    """Immutable ordered sequence of defaults with its derived signature.

    Holds the truth mask of each default's materialization ``A -> B``
    (``default_masks``, the table every engine works from and the only
    2^n-bit state it keeps), a ``TruthTable`` for other formulas, and pure
    memo caches (ranking, formula ranks, bases, justifications, models);
    concurrent readers are safe because cache fills are idempotent.
    """

    def __init__(
        self,
        conditionals: Sequence[Conditional],
        signature: Signature,
        max_atoms: int = DEFAULT_ATOM_CAP,
        max_defaults: int = DEFAULT_KB_CAP,
    ):
        if len(conditionals) > max_defaults:
            raise SizeCapExceeded(
                f"{len(conditionals)} defaults exceeds the cap of {max_defaults}"
            )
        for i, c in enumerate(conditionals):
            if c.index != i:
                raise ValueError("conditional indices must be contiguous from 0")
        self.conditionals: tuple[Conditional, ...] = tuple(conditionals)
        self.signature = signature
        self.max_atoms = max_atoms
        self.max_defaults = max_defaults
        self.truth = TruthTable(signature, max_atoms)
        self.default_masks: tuple[int, ...] = tuple(
            self.truth.mask(c.materialization()) for c in self.conditionals
        )
        self.cache: dict = {}

    def __len__(self) -> int:
        return len(self.conditionals)

    def __iter__(self) -> Iterator[Conditional]:
        return iter(self.conditionals)

    @property
    def indices(self) -> frozenset[int]:
        return frozenset(range(len(self.conditionals)))

    def members_mask(self, members: Iterable[int]) -> int:
        """Truth mask of the materialization of the selected defaults."""
        result = self.truth.full
        for i in members:
            result &= self.default_masks[i]
        return result

    def parse_query(self, text: str) -> tuple[Conditional, "KnowledgeBase"]:
        """Parse ``A |~ B``, extending the signature with new query atoms.

        Returns the query and the knowledge base to evaluate it against: a
        fresh one when the signature grew (this instance is never mutated),
        otherwise this instance itself.  Default ranks are unaffected by
        fresh atoms, so rankings computed before and after agree.
        """
        sig = self.signature.copy()
        antecedent, consequent = parse_conditional_parts(text, sig)
        query = Conditional(antecedent, consequent, index=-1)
        if len(sig) == len(self.signature):
            return query, self
        extended = KnowledgeBase(
            self.conditionals, sig, max_atoms=self.max_atoms, max_defaults=self.max_defaults
        )
        return query, extended


def parse_kb(
    text: str,
    max_atoms: int = DEFAULT_ATOM_CAP,
    max_defaults: int = DEFAULT_KB_CAP,
) -> KnowledgeBase:
    """Parse knowledge-base text: one ``A |~ B`` per line.

    ``#`` starts a comment; blank lines are ignored; line order defines the
    0-based default indices.  Parse errors carry the 1-based line number.
    """
    sig = Signature()
    conditionals: list[Conditional] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            antecedent, consequent = parse_conditional_parts(line, sig)
        except ParseError as exc:
            raise ParseError(str(exc.args[0]).split(": ", 1)[-1], exc.offset, lineno) from None
        conditionals.append(Conditional(antecedent, consequent, len(conditionals)))
    return KnowledgeBase(conditionals, sig, max_atoms=max_atoms, max_defaults=max_defaults)


# ---------------------------------------------------------------------------
# Ranking construction
# ---------------------------------------------------------------------------


class RankingTable(NamedTuple):
    """The exceptionality chain and the ranks it induces.

    ``chain[i]`` is the i-th subset of default indices; the last entry is the
    stable one (its exceptional part is itself).  ``default_ranks[d]`` is the
    chain position where default d drops out, or ``INF`` when it never does.
    """

    chain: tuple[frozenset[int], ...]
    default_ranks: tuple[Rank, ...]

    @property
    def fixpoint(self) -> frozenset[int]:
        return self.chain[-1]

    @property
    def order_k(self) -> int:
        """One past the highest finite rank in use.  Consecutive chain
        entries always differ, so this is the index of the stable entry."""
        return len(self.chain) - 1


def is_exceptional(a: Formula, members: Iterable[int], kb: KnowledgeBase) -> bool:
    """True iff the materialization of the selected defaults refutes ``a``."""
    return kb.members_mask(members) & kb.truth.mask(a) == 0


def compute_ranking(kb: KnowledgeBase) -> RankingTable:
    """Iterate the exceptionality step from the full KB to its fixpoint."""
    cached = kb.cache.get("ranking")
    if cached is not None:
        return cached

    antecedents = [kb.truth.mask(c.antecedent) for c in kb.conditionals]
    chain: list[frozenset[int]] = [kb.indices]
    while True:
        current = chain[-1]
        members = kb.members_mask(current)
        nxt = frozenset(i for i in current if members & antecedents[i] == 0)
        if nxt == current:
            break
        chain.append(nxt)

    ranks: list[Rank] = [INF] * len(kb)  # the fixpoint's members keep INF
    for i, members in enumerate(chain[:-1]):
        for d in members - chain[i + 1]:
            ranks[d] = i

    table = RankingTable(tuple(chain), tuple(ranks))
    kb.cache["ranking"] = table
    return table


def rank_of_formula(
    a: Formula, rt: RankingTable, kb: KnowledgeBase, a_mask: int | None = None
) -> Rank:
    """Least chain position whose materialization does not refute ``a``;
    ``a_mask`` is ``a``'s truth mask when the caller has already built it."""
    memo = kb.cache.setdefault("formula_ranks", {})
    cached = memo.get(a)
    if cached is not None:
        return cached
    if a_mask is None:
        a_mask = kb.truth.mask(a)
    result: Rank = INF
    for i, members in enumerate(rt.chain):
        if kb.members_mask(members) & a_mask:
            result = i
            break
    memo[a] = result
    return result


def rc_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Rational-closure membership of ``A |~ B``.

    Accepts iff rank(A) < rank(A & !B), or rank(A) is infinite.  ``INF`` is
    never below itself, so the infinite case is decided by the explicit
    clause alone.
    """
    a_mask = kb.truth.mask(query.antecedent)
    rank_a = rank_of_formula(query.antecedent, rt, kb, a_mask)
    if rank_a == INF:
        return True
    conflict = land(query.antecedent, lnot(query.consequent))
    return rank_a < rank_of_formula(conflict, rt, kb, a_mask & ~kb.truth.mask(query.consequent))


def kb_satisfiable(kb: KnowledgeBase) -> bool:
    """True iff some valuation satisfies the whole KB's materialization."""
    return kb.members_mask(range(len(kb))) != 0


def violated_defaults(v: Valuation, kb: KnowledgeBase) -> frozenset[int]:
    """Indices of defaults whose antecedent holds and consequent fails at ``v``."""
    if v.atoms != kb.signature.atoms:
        raise ValueError(
            f"valuation atoms {v.atoms!r} do not match KB signature {kb.signature.atoms!r}"
        )
    j = v.bits
    return frozenset(i for i, mask in enumerate(kb.default_masks) if not mask >> j & 1)
