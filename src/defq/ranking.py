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
from functools import cached_property
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
    atoms_of,
    check_atom_cap,
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

    def atoms(self) -> tuple[str, ...]:
        """Atom names of the antecedent, then the consequent's new ones."""
        return tuple(dict.fromkeys(atoms_of(self.antecedent) + atoms_of(self.consequent)))

    def text(self) -> str:
        return f"{to_text(self.antecedent)} |~ {to_text(self.consequent)}"

    def __str__(self) -> str:
        return self.text()


class KnowledgeBase:
    """Immutable ordered sequence of defaults with its derived signature.

    Holds the truth mask of each default's materialization ``A -> B``
    (``default_masks``, the table every engine works from and the only
    2^n-bit state it keeps), a ``TruthTable`` for other formulas, and pure
    memo caches (ranking, formula ranks, bases, justifications, the last
    relevant trace, models); concurrent readers are safe because cache fills
    are idempotent.  ``truth`` and ``default_masks`` are built the first time
    they are read, so parsing builds no mask; both caps are checked here.
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
        check_atom_cap(signature, max_atoms)
        self.conditionals: tuple[Conditional, ...] = tuple(conditionals)
        self.signature = signature
        self.max_atoms = max_atoms
        self.max_defaults = max_defaults
        self.cache: dict = {}

    @cached_property
    def truth(self) -> TruthTable:
        return TruthTable(self.signature, self.max_atoms)

    @cached_property
    def default_masks(self) -> tuple[int, ...]:
        return tuple(self.truth.mask(c.materialization()) for c in self.conditionals)

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
        masks = self.default_masks  # one read: the lazy attribute is slower to load
        for i in members:
            result &= masks[i]
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

    def query_part(self, query: Conditional) -> tuple["KnowledgeBase", tuple[int, ...]]:
        """The KB that rc, lc, mp and the relevant closures answer ``query``
        on, and the index in this KB of each default it keeps.

        The defaults fall into groups joined by shared atoms; an atom-free
        default is a group of its own.  The part keeps the groups that share
        an atom with the query and every group whose materialization is
        unsatisfiable.  Each dropped group is satisfiable and shares no atom
        with the kept groups or the query, so it makes no formula over
        their atoms exceptional: the kept defaults keep their ranks, every
        base (and every relevant remainder) of the whole KB is one of the
        part's plus every dropped default, the justifications are the
        part's, and the answers agree (the relevance half of syntax
        splitting).  An unsatisfiable group refutes the materialization of
        the first chain position, so every rank is infinite, and it is kept
        for that.  ``query`` must be over this KB's signature (see
        ``parse_query``).  Returns this KB itself when it drops nothing.
        """
        n = len(self.conditionals)
        parent = list(range(n + 1))  # union-find over the defaults, then the query

        def root(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        holder: dict[str, int] = {}  # atom -> first node that mentions it
        for node, c in enumerate(self.conditionals + (query,)):
            for name in c.atoms():
                parent[root(node)] = root(holder.setdefault(name, node))
        groups: dict[int, list[int]] = {}
        for d in range(n):
            groups.setdefault(root(d), []).append(d)
        query_group = root(n)
        kept = sorted(
            d
            for g, members in groups.items()
            if g == query_group or not self._satisfiable(members)
            for d in members
        )
        if len(kept) == n:
            return self, tuple(kept)
        used = {name for d in kept for name in self.conditionals[d].atoms()}
        used.update(query.atoms())
        part = KnowledgeBase(
            [Conditional(self.conditionals[d].antecedent, self.conditionals[d].consequent, i)
             for i, d in enumerate(kept)],
            Signature(a for a in self.signature.atoms if a in used),
            max_atoms=self.max_atoms,
            max_defaults=self.max_defaults,
        )
        return part, tuple(kept)

    def _satisfiable(self, members: Sequence[int]) -> bool:
        """Whether the selected defaults' materializations hold together,
        decided over their own atoms only."""
        chosen = [self.conditionals[d] for d in members]
        sig = Signature(name for c in chosen for name in c.atoms())
        return TruthTable(sig, self.max_atoms).conjunction_mask(
            c.materialization() for c in chosen
        ) != 0


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
