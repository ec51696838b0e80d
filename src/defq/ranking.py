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
from functools import cached_property, wraps
from typing import Callable, Container, Hashable, Iterator, NamedTuple, Sequence, Union

from .logic import (
    DEFAULT_ATOM_CAP,
    Formula,
    LogicError,
    ParseError,
    Signature,
    SizeCapExceeded,
    TruthTable,
    atoms_of,
    implies,
    mask_indices,
    parse_conditional_parts,
    to_text,
)

DEFAULT_KB_CAP = 16

INF = math.inf
Rank = Union[int, float]


class UnsatisfiableKB(LogicError):
    """No valuation satisfies the KB's materialization: no models exist."""


def per_kb(slot: str, key: Callable[..., Hashable] = lambda *args: None) -> Callable:
    """Memoize ``f(kb, *args)`` in ``kb.cache[slot]``, a dict keyed by
    ``key(*args)``; the default key keeps one result per KB.  The slot is
    stored once its first result exists, so a call that raises leaves none.
    Results are pure, so concurrent fills are idempotent."""

    def memoize(f: Callable) -> Callable:
        @wraps(f)
        def memoized(kb: "KnowledgeBase", *args):
            k = key(*args)
            try:
                return kb.cache[slot][k]
            except KeyError:
                pass
            result = f(kb, *args)
            kb.cache.setdefault(slot, {})[k] = result
            return result

        return memoized

    return memoize


class Conditional(NamedTuple):
    """A default ``antecedent |~ consequent``; its index is its KB position."""

    antecedent: Formula
    consequent: Formula

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
    (``default_masks``, the table every engine works from), a ``TruthTable``
    for other formulas, and ``cache``, the memo that ``per_kb`` fills.
    ``truth`` and ``default_masks`` are built the first time they are read,
    so parsing builds no mask.  The default cap is checked here; the atom
    cap (``max_atoms``) when ``truth`` is built, so a KB of any signature
    size loads and a query's part can answer under the cap.
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

    @per_kb("masks", lambda f: f)
    def mask(self, f: Formula) -> int:
        """Truth mask of ``f``, built on the first request and kept."""
        return self.truth.mask(f)

    def members_mask(self, members: int) -> int:
        """Truth mask of the materialization of the defaults in the default
        mask ``members`` (bit d for default d)."""
        result = self.truth.full
        masks = self.default_masks  # one read: the lazy attribute is slower to load
        for d in mask_indices(members):
            result &= masks[d]
        return result

    def read_query(self, text: str) -> Conditional:
        """Parse ``A |~ B``, which may mention atoms outside this KB's
        signature; ``parse_query`` and ``query_part`` put them after its
        atoms.  No KB is built, so no cap is checked."""
        return Conditional(*parse_conditional_parts(text))

    def parse_query(self, text: str) -> tuple[Conditional, "KnowledgeBase"]:
        """Parse ``A |~ B`` and pick the knowledge base to answer it on.

        Returns the query and that KB: a fresh one whose signature lists the
        query's new atoms after this KB's when it has any, otherwise this
        instance itself.  Default ranks are unaffected by fresh atoms, so
        rankings computed before and after agree.
        """
        query = self.read_query(text)
        return query, self._kb_for(query, range(len(self)), self.signature)

    def query_part(self, query: Conditional) -> tuple["KnowledgeBase", tuple[int, ...]]:
        """The KB that rc, lc, mp and the relevant closures answer ``query``
        on, and the index in this KB of each default it keeps.

        The defaults fall into groups joined by shared atoms, found by
        merging each default's atom set into every group whose atoms it
        meets; an atom-free default is a group of its own.  The part keeps
        the groups whose atoms meet the query's and every group whose
        materialization is unsatisfiable.  Each dropped group is satisfiable
        and shares no atom with the kept groups or the query, so it makes no
        formula over their atoms exceptional: the kept defaults keep their
        ranks, every base (and every relevant remainder) of the whole KB is
        one of the part's plus every dropped default, the justifications are
        the part's, and the answers agree (the relevance half of syntax
        splitting).  An unsatisfiable group refutes the materialization of
        the first chain position, so every rank is infinite, and it is kept
        for that.  ``query`` may mention atoms outside this KB's signature
        (see ``read_query``); they follow the kept atoms in the part's
        signature.  The atom cap is the part's, checked when its masks are
        first built; a dropped group's satisfiability is tested over its own
        atoms under the larger of the cap and ``DEFAULT_ATOM_CAP``.  Returns
        this KB itself when it drops nothing and the query adds no atom.
        """
        groups: list[tuple[set[str], list[int]]] = []  # each group's atoms and defaults
        for d, c in enumerate(self.conditionals):
            atoms, members, apart = set(c.atoms()), [d], []
            for group in groups:
                if atoms.isdisjoint(group[0]):
                    apart.append(group)
                else:
                    atoms |= group[0]
                    members += group[1]
            groups = [*apart, (atoms, members)]
        asked = set(query.atoms())
        used = set(asked)  # the part's atoms
        kept: list[int] = []
        for atoms, members in groups:
            if asked.isdisjoint(atoms):  # dropped if satisfiable, decided over its own atoms
                table = TruthTable(Signature(atoms), max(self.max_atoms, DEFAULT_ATOM_CAP))
                if table.conjunction_mask(self.conditionals[d].materialization() for d in members):
                    continue
            kept += members
            used |= atoms
        kept.sort()
        return self._kb_for(query, kept, used), tuple(kept)

    def _kb_for(
        self, query: Conditional, kept: Sequence[int], atoms: Container[str]
    ) -> "KnowledgeBase":
        """The KB that ``query`` is answered on: the defaults at the sorted
        indices ``kept`` over the signature's atoms in ``atoms``, then the
        query's atoms outside the signature, under this KB's caps.  This KB
        itself when that keeps every default and adds no atom."""
        new = [name for name in query.atoms() if name not in self.signature]
        if len(kept) == len(self.conditionals) and not new:
            return self
        return KnowledgeBase(
            [self.conditionals[d] for d in kept],
            Signature([*(a for a in self.signature.atoms if a in atoms), *new]),
            max_atoms=self.max_atoms,
            max_defaults=self.max_defaults,
        )


def parse_kb(
    text: str,
    max_atoms: int = DEFAULT_ATOM_CAP,
    max_defaults: int = DEFAULT_KB_CAP,
) -> KnowledgeBase:
    """Parse knowledge-base text: one ``A |~ B`` per line.

    ``#`` starts a comment; blank lines are ignored; line order defines the
    0-based default indices.  Parse errors carry the 1-based line number.
    The signature lists the atoms in the order they first occur in the
    defaults, each default's antecedent before its consequent.
    """
    conditionals: list[Conditional] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            conditionals.append(Conditional(*parse_conditional_parts(line)))
        except ParseError as exc:
            raise ParseError(exc.message, exc.offset, lineno) from None
    sig = Signature(name for c in conditionals for name in c.atoms())
    return KnowledgeBase(conditionals, sig, max_atoms=max_atoms, max_defaults=max_defaults)


# ---------------------------------------------------------------------------
# Ranking construction
# ---------------------------------------------------------------------------


class RankingTable(NamedTuple):
    """The exceptionality chain and the ranks it induces.

    ``chain[i]`` is the i-th subset of the defaults as a default mask (bit
    d for default d); the last entry is the stable one (its exceptional
    part is itself).  ``default_ranks[d]`` is the chain position where
    default d drops out, or ``INF`` when it never does.
    ``slices`` holds the rank slices as default masks, in the order the
    seriousness orderings compare them: the infinite slice first, then the
    finite ranks from ``order_k - 1`` down to 0.  Every per-rank view of the
    defaults (the closures' orderings, the MP refinement) reads them here.
    ``worlds[i]`` is the truth mask of the materialization of ``chain[i]``.
    """

    chain: tuple[int, ...]
    default_ranks: tuple[Rank, ...]
    slices: tuple[int, ...]
    worlds: tuple[int, ...]

    @property
    def order_k(self) -> int:
        """One past the highest finite rank in use.  Consecutive chain
        entries always differ, so this is the index of the stable entry."""
        return len(self.chain) - 1


@per_kb("ranking")
def compute_ranking(kb: KnowledgeBase) -> RankingTable:
    """Iterate the exceptionality step from the full KB until the chain is stable."""
    antecedents = [kb.truth.mask(c.antecedent) for c in kb.conditionals]
    chain = [(1 << len(kb)) - 1]
    worlds = []
    while True:
        current = chain[-1]
        members = kb.members_mask(current)
        worlds.append(members)
        nxt = sum(1 << d for d in mask_indices(current) if members & antecedents[d] == 0)
        if nxt == current:
            break
        chain.append(nxt)

    top = len(chain) - 1
    ranks: list[Rank] = [INF] * len(kb)  # the stable entry's members keep INF
    slices = [chain[top]] + [0] * top  # the stable entry is the infinite slice
    for i in range(top):
        dropped = chain[i] & ~chain[i + 1]
        slices[top - i] = dropped
        for d in mask_indices(dropped):
            ranks[d] = i

    return RankingTable(tuple(chain), tuple(ranks), tuple(slices), tuple(worlds))


def mask_rank(a: int, rt: RankingTable) -> Rank:
    """Least chain position whose materialization holds at some world of
    the truth mask ``a``, or ``INF``."""
    return next((i for i, worlds in enumerate(rt.worlds) if worlds & a), INF)


def rank_of_formula(a: Formula, rt: RankingTable, kb: KnowledgeBase) -> Rank:
    """Least chain position whose materialization does not refute ``a``."""
    return mask_rank(kb.mask(a), rt)


def rc_query(kb: KnowledgeBase, rt: RankingTable, query: Conditional) -> bool:
    """Rational-closure membership of ``A |~ B``.

    Accepts iff rank(A) < rank(A & !B), or rank(A) is infinite.  ``INF`` is
    never below itself, so the infinite case is decided by the explicit
    clause alone.  Both ranks are taken on truth masks, so no formula is
    built for A & !B.
    """
    a = kb.mask(query.antecedent)
    rank_a = mask_rank(a, rt)
    if rank_a == INF:
        return True
    return rank_a < mask_rank(a & ~kb.mask(query.consequent), rt)


def kb_satisfiable(kb: KnowledgeBase) -> bool:
    """True iff some valuation satisfies the whole KB's materialization."""
    return kb.members_mask((1 << len(kb)) - 1) != 0
