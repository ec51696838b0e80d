"""Propositional core: formula trees, parsing, valuations, classical entailment.

Everything downstream reduces to classical consequence over a finite
signature.  Entailment is decided by exhaustive valuation enumeration,
realized as truth-table bitmasks: a formula's semantics over an n-atom
signature is an integer whose bit j records its truth at valuation index j
(atom i true at index j iff bit i of j is set).  A hard cap on the signature
size keeps the enumeration desk-scale.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_ATOM_CAP = 20

# Each connective and each parenthesis opens one nesting level (a chain
# ``a & b & c`` nests two).  The parser, the printer and the mask builder
# recurse once or a few times per level, so the cap keeps them well inside
# Python's recursion limit.
MAX_NESTING = 100

_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class LogicError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LogicError):
    """Malformed formula or knowledge-base text.

    ``offset`` is the byte offset of the offending token within the parsed
    string; ``line`` is filled in by knowledge-base file parsing.
    """

    def __init__(self, message: str, offset: int = 0, line: int | None = None):
        self.offset = offset
        self.line = line
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"{where}offset {offset}: {message}")


class SizeCapExceeded(LogicError):
    """Signature or knowledge base exceeds the configured enumeration cap."""


class UnknownAtomError(LogicError):
    """A formula mentions an atom outside the valuation's signature."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

ATOM = "atom"
TRUE_OP = "true"
FALSE_OP = "false"
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "implies"
IFF = "iff"

_BINARY = (AND, OR, IMPLIES, IFF)


class Formula(NamedTuple):
    """Immutable propositional formula tree.

    ``args`` holds the atom name (for ``atom`` nodes) or the subformulas.
    Formulas compare structurally; semantic equivalence is a separate check
    via :meth:`TruthTable.entails` in both directions.
    """

    op: str
    args: tuple = ()

    def __repr__(self) -> str:
        return f"Formula({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


TRUE = Formula(TRUE_OP)
FALSE = Formula(FALSE_OP)


def atom(name: str) -> Formula:
    if not _ATOM_NAME.match(name):
        raise ValueError(f"invalid atom name: {name!r}")
    return Formula(ATOM, (name,))


def lnot(f: Formula) -> Formula:
    return Formula(NOT, (f,))


def land(f: Formula, g: Formula) -> Formula:
    return Formula(AND, (f, g))


def lor(f: Formula, g: Formula) -> Formula:
    return Formula(OR, (f, g))


def implies(f: Formula, g: Formula) -> Formula:
    return Formula(IMPLIES, (f, g))


def iff(f: Formula, g: Formula) -> Formula:
    return Formula(IFF, (f, g))


def atoms_of(f: Formula) -> tuple[str, ...]:
    """Atom names of ``f`` in first-occurrence (textual) order."""
    seen: dict[str, None] = {}

    def walk(g: Formula) -> None:
        if g.op == ATOM:
            seen.setdefault(g.args[0])
        else:
            for sub in g.args:
                walk(sub)

    walk(f)
    return tuple(seen)


# Precedence used by both the parser and the printer (low to high).
_PREC = {IFF: 1, IMPLIES: 2, OR: 3, AND: 4, NOT: 5}
_OP_TEXT = {IFF: "<->", IMPLIES: "->", OR: "|", AND: "&"}
_RIGHT_ASSOC = {IFF, IMPLIES}


def to_text(f: Formula) -> str:
    """Render a formula in the concrete grammar; parse(to_text(f)) == f."""
    if f.op == ATOM:
        return f.args[0]
    if f.op == TRUE_OP:
        return "true"
    if f.op == FALSE_OP:
        return "false"
    if f.op == NOT:
        (g,) = f.args
        inner = to_text(g)
        if g.op in _BINARY:
            inner = f"({inner})"
        return f"!{inner}"
    left, right = f.args
    prec = _PREC[f.op]

    def wrap(g: Formula, tight: bool) -> str:
        text = to_text(g)
        if g.op in _PREC and g.op != NOT:
            gp = _PREC[g.op]
            if gp < prec or (gp == prec and tight):
                return f"({text})"
        return text

    if f.op in _RIGHT_ASSOC:
        return f"{wrap(left, True)} {_OP_TEXT[f.op]} {wrap(right, False)}"
    return f"{wrap(left, False)} {_OP_TEXT[f.op]} {wrap(right, True)}"


# ---------------------------------------------------------------------------
# Signatures and valuations
# ---------------------------------------------------------------------------


class Signature:
    """Ordered finite atom set.

    Order is first occurrence in the knowledge-base text, with query atoms
    appended afterwards; it determines the valuation enumeration order and
    makes all output reproducible.  Used as an accumulator while parsing and
    treated as immutable once a knowledge base has been built.
    """

    __slots__ = ("_names", "_index")

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Register an atom; returns its index (existing or new)."""
        idx = self._index.get(name)
        if idx is None:
            if not _ATOM_NAME.match(name):
                raise ValueError(f"invalid atom name: {name!r}")
            idx = len(self._names)
            self._names.append(name)
            self._index[name] = idx
        return idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(f"atom {name!r} not in signature") from None

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self._names)

    def copy(self) -> "Signature":
        return Signature(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"Signature({self._names!r})"


class Valuation(NamedTuple):
    """Total truth assignment over a fixed atom tuple.

    ``bits`` packs the assignment: atom ``atoms[i]`` is true iff bit i is
    set.  Two valuations are equal iff they have the same atoms and agree on
    every one of them, which is exactly equality of the two fields here.
    """

    atoms: tuple[str, ...]
    bits: int

    def value(self, name: str) -> bool:
        try:
            i = self.atoms.index(name)
        except ValueError:
            raise UnknownAtomError(f"atom {name!r} not in signature") from None
        return bool((self.bits >> i) & 1)

    def true_atoms(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.atoms) if (self.bits >> i) & 1)

    def as_dict(self) -> dict[str, bool]:
        return {a: bool((self.bits >> i) & 1) for i, a in enumerate(self.atoms)}


def evaluate(f: Formula, v: Valuation) -> bool:
    """Classical truth of ``f`` under ``v`` (the slow reference semantics)."""
    op = f.op
    if op == ATOM:
        return v.value(f.args[0])
    if op == TRUE_OP:
        return True
    if op == FALSE_OP:
        return False
    if op == NOT:
        return not evaluate(f.args[0], v)
    a = evaluate(f.args[0], v)
    if op == AND:
        return a and evaluate(f.args[1], v)
    if op == OR:
        return a or evaluate(f.args[1], v)
    if op == IMPLIES:
        return (not a) or evaluate(f.args[1], v)
    if op == IFF:
        return a == evaluate(f.args[1], v)
    raise LogicError(f"unknown operator {op!r}")


def check_atom_cap(sig: Signature, max_atoms: int) -> None:
    """Raise ``SizeCapExceeded`` when ``sig`` has more than ``max_atoms`` atoms."""
    if len(sig) > max_atoms:
        raise SizeCapExceeded(f"{len(sig)} atoms exceeds the enumeration cap of {max_atoms}")


def all_valuations(sig: Signature, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Valuation]:
    """All 2^|sig| valuations, in binary counting order over the signature."""
    check_atom_cap(sig, max_atoms)
    names = sig.atoms
    return [Valuation(names, j) for j in range(1 << len(sig))]


# ---------------------------------------------------------------------------
# Truth-table kernel
# ---------------------------------------------------------------------------


def mask_indices(mask: int) -> Iterator[int]:
    """Valuation indices of the set bits of ``mask``, ascending, found in one
    scan of its binary text rather than one 2^n-bit shift per index."""
    text = bin(mask)[:1:-1]
    j = text.find("1")
    while j >= 0:
        yield j
        j = text.find("1", j + 1)


def _atom_mask(i: int, n: int) -> int:
    """Truth mask of atom i over n atoms: bit j is bit i of j.

    One period is 2^i zeros then 2^i ones; doubling the copied span fills
    the 2^n bits in n - i - 1 shift-ors, with no big-integer division.
    """
    half = 1 << i
    mask = ((1 << half) - 1) << half
    span = half << 1
    while span < 1 << n:
        mask |= mask << span
        span <<= 1
    return mask


class TruthTable:
    """Truth masks of formulas over one signature, evaluated on demand.

    Bit j of ``mask(f)`` is the truth of ``f`` at valuation index j, and each
    connective is one big-integer operation over the 2^n-bit space.  Nothing
    is cached: each call walks ``f`` and builds the atom masks it meets, so
    the table holds only ``full`` and callers keep the masks they reuse.
    """

    def __init__(self, sig: Signature, max_atoms: int = DEFAULT_ATOM_CAP):
        check_atom_cap(sig, max_atoms)
        self.signature = sig
        self.n = n = len(sig)
        self.full = (1 << (1 << n)) - 1

    def mask(self, f: Formula) -> int:
        op = f.op
        if op == ATOM:
            return _atom_mask(self.signature.index(f.args[0]), self.n)
        if op == TRUE_OP:
            return self.full
        if op == FALSE_OP:
            return 0
        if op == NOT:
            return self.full ^ self.mask(f.args[0])
        if op == AND:
            return self.mask(f.args[0]) & self.mask(f.args[1])
        if op == OR:
            return self.mask(f.args[0]) | self.mask(f.args[1])
        if op == IMPLIES:
            return (self.full ^ self.mask(f.args[0])) | self.mask(f.args[1])
        if op == IFF:
            return self.full ^ (self.mask(f.args[0]) ^ self.mask(f.args[1]))
        raise LogicError(f"unknown operator {op!r}")

    def conjunction_mask(self, formulas: Iterable[Formula]) -> int:
        result = self.full
        for f in formulas:
            result &= self.mask(f)
            if not result:
                break
        return result

    def entails(self, premises: Iterable[Formula], goal: Formula) -> bool:
        """True iff every valuation satisfying all premises satisfies the goal."""
        return self.conjunction_mask(premises) & (self.full ^ self.mask(goal)) == 0

    def is_consistent(self, formulas: Iterable[Formula]) -> bool:
        """True iff some valuation over the signature satisfies every formula."""
        return self.conjunction_mask(formulas) != 0

    def is_tautology(self, f: Formula) -> bool:
        return self.mask(f) == self.full


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (precedence low to high):  <->   ->   |   &   !   primary
# ``->`` and ``<->`` are right-associative; ``|`` and ``&`` left-associative.
# Whitespace is insignificant.  ``|~`` separates the two sides of a
# conditional and may appear exactly once, at the top level only.
# ---------------------------------------------------------------------------

_TOKEN_SPEC = [
    ("cond", r"\|~"),
    ("iff", r"<->"),
    ("implies", r"->"),
    ("or", r"\|"),
    ("and", r"&"),
    ("not", r"!"),
    ("lparen", r"\("),
    ("rparen", r"\)"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("ws", r"[ \t\r\n]+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset=pos)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            if kind == "ident" and value in ("true", "false"):
                kind = value
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: Sequence[_Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", offset=tok.pos)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", offset=tok.pos)
        return tok

    def formula(self) -> Formula:
        return self.iff_level()

    def iff_level(self) -> Formula:
        left = self.implies_level()
        if self.peek().kind == "iff":
            self.nest(self.take())
            left = iff(left, self.iff_level())
            self.depth -= 1
        return left

    def implies_level(self) -> Formula:
        left = self.or_level()
        if self.peek().kind == "implies":
            self.nest(self.take())
            left = implies(left, self.implies_level())
            self.depth -= 1
        return left

    def or_level(self) -> Formula:
        start = self.depth
        left = self.and_level()
        while self.peek().kind == "or":
            self.nest(self.take())
            left = lor(left, self.and_level())
        self.depth = start
        return left

    def and_level(self) -> Formula:
        start = self.depth
        left = self.unary()
        while self.peek().kind == "and":
            self.nest(self.take())
            left = land(left, self.unary())
        self.depth = start
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.nest(self.take())
            inner = self.unary()
            self.depth -= 1
            return lnot(inner)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok.kind == "lparen":
            self.nest(tok)
            inner = self.formula()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if tok.kind == "true":
            return TRUE
        if tok.kind == "false":
            return FALSE
        if tok.kind == "ident":
            self.sig.add(tok.text)
            return Formula(ATOM, (tok.text,))
        raise ParseError("expected a formula", offset=tok.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula, appending newly seen atoms to ``sig`` in textual order."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty formula", offset=0)
    parser = _Parser(tokens, sig)
    result = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", offset=trailing.pos)
    return result


def parse_conditional_parts(text: str, sig: Signature) -> tuple[Formula, Formula]:
    """Parse ``A |~ B`` into its antecedent and consequent."""
    tokens = _tokenize(text)
    splits = [i for i, t in enumerate(tokens) if t.kind == "cond"]
    if not splits:
        raise ParseError("expected '|~' between antecedent and consequent", offset=0)
    if len(splits) > 1:
        raise ParseError("more than one '|~'", offset=tokens[splits[1]].pos)
    cut = splits[0]
    left = tokens[:cut] + [_Token("end", "", tokens[cut].pos)]
    right = tokens[cut + 1 :]
    if left[0].kind == "end":
        raise ParseError("empty antecedent", offset=0)
    if right[0].kind == "end":
        raise ParseError("empty consequent", offset=right[0].pos)

    lhs_parser = _Parser(left, sig)
    antecedent = lhs_parser.formula()
    tok = lhs_parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", offset=tok.pos)
    rhs_parser = _Parser(right, sig)
    consequent = rhs_parser.formula()
    tok = rhs_parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", offset=tok.pos)
    return antecedent, consequent
