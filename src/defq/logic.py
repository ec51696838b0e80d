"""Propositional core: formula trees, parsing, truth masks, classical entailment.

Everything downstream reduces to classical consequence over a finite
signature.  Entailment is decided by exhaustive valuation enumeration,
realized as truth-table bitmasks: a formula's semantics over an n-atom
signature is an integer whose bit j records its truth at valuation index j
(atom i true at index j iff bit i of j is set).  A hard cap on the signature
size, checked when a truth table is made, keeps the enumeration desk-scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_ATOM_CAP = 20

# Each connective and each parenthesis opens one nesting level (a chain
# ``a & b & c`` nests two).  The parser, the printer and the mask builder
# recurse once or a few times per level, so the cap keeps them well inside
# Python's recursion limit.
MAX_NESTING = 100


def _is_atom_name(name: str) -> bool:
    """An ASCII identifier: ``[A-Za-z_][A-Za-z0-9_]*``."""
    return name.isascii() and name.isidentifier()


class LogicError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LogicError):
    """Malformed formula or knowledge-base text.

    ``message`` says what is wrong, ``offset`` is the byte offset of the
    offending token within the parsed string, and ``line`` is filled in by
    knowledge-base file parsing.
    """

    def __init__(self, message: str, offset: int = 0, line: int | None = None):
        self.message = message
        self.offset = offset
        self.line = line
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"{where}offset {offset}: {message}")


class SizeCapExceeded(LogicError):
    """Signature or knowledge base exceeds the configured enumeration cap."""


class UnknownAtomError(LogicError):
    """A formula mentions an atom outside the signature."""


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

class Formula(NamedTuple):
    """Immutable propositional formula tree.

    ``args`` holds the atom name (for ``atom`` nodes) or the subformulas.
    Formulas compare structurally; semantic equivalence is equality of
    their truth masks (the tests check it with ``reference.entails`` in both
    directions).
    """

    op: str
    args: tuple = ()

    def __repr__(self) -> str:
        return f"Formula({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


TRUE = Formula(TRUE_OP)
FALSE = Formula(FALSE_OP)
_CONSTANTS = {TRUE_OP: TRUE, FALSE_OP: FALSE}  # a constant's text is its op name


def atom(name: str) -> Formula:
    if not _is_atom_name(name):
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


# The connectives' concrete syntax, read by the tokenizer, the parser and the
# printer.  ``_PREC`` ranks the binary connectives from loosest to tightest;
# ``!`` binds tighter than any of them.
_OP_TEXT = {IFF: "<->", IMPLIES: "->", OR: "|", AND: "&", NOT: "!"}
_PREC = {IFF: 1, IMPLIES: 2, OR: 3, AND: 4}
_RIGHT_ASSOC = {IFF, IMPLIES}


def to_text(f: Formula) -> str:
    """Render a formula in the concrete grammar; parse(to_text(f)) == f."""
    if f.op == ATOM:
        return f.args[0]
    if f.op in _CONSTANTS:
        return f.op
    if f.op == NOT:
        (g,) = f.args
        inner = to_text(g)
        if g.op in _PREC:
            inner = f"({inner})"
        return _OP_TEXT[NOT] + inner
    left, right = f.args
    prec = _PREC[f.op]

    def wrap(g: Formula, tight: bool) -> str:
        text = to_text(g)
        if g.op in _PREC:
            gp = _PREC[g.op]
            if gp < prec or (gp == prec and tight):
                return f"({text})"
        return text

    if f.op in _RIGHT_ASSOC:
        return f"{wrap(left, True)} {_OP_TEXT[f.op]} {wrap(right, False)}"
    return f"{wrap(left, False)} {_OP_TEXT[f.op]} {wrap(right, True)}"


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class Signature:
    """Immutable ordered finite atom set: ``names`` in first-occurrence order.

    A knowledge base's signature lists its atoms in the order they first
    occur in its defaults (``parse_kb``), and a query's new atoms follow
    them; the order determines the valuation enumeration order and makes
    all output reproducible.  Each name must be an ASCII identifier.
    """

    __slots__ = ("_index",)

    def __init__(self, names: Iterable[str] = ()):
        self._index = {name: i for i, name in enumerate(dict.fromkeys(names))}  # the atom order
        for name in self._index:
            if not _is_atom_name(name):
                raise ValueError(f"invalid atom name: {name!r}")

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(f"atom {name!r} not in signature") from None

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"Signature({list(self._index)!r})"


# ---------------------------------------------------------------------------
# Truth-table kernel
# ---------------------------------------------------------------------------


def mask_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending (valuation indices
    of a truth mask, default indices of a default mask), found in one scan
    of its binary text rather than one 2^n-bit shift per index."""
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
    connective is one big-integer operation over the 2^n-bit space.  Each
    call walks ``f`` and builds the atom masks it meets; the table holds
    only ``full``.  Making one is where the atom cap is checked: a
    signature of more than ``max_atoms`` atoms raises ``SizeCapExceeded``.
    """

    def __init__(self, sig: Signature, max_atoms: int = DEFAULT_ATOM_CAP):
        if len(sig) > max_atoms:
            raise SizeCapExceeded(f"{len(sig)} atoms exceeds the enumeration cap of {max_atoms}")
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

    def is_tautology(self, f: Formula) -> bool:
        return self.mask(f) == self.full


# ---------------------------------------------------------------------------
# Parsing
#
# The binary connectives bind and associate as ``_PREC`` and ``_RIGHT_ASSOC``
# say.  Whitespace is insignificant.  ``|~`` separates the two sides of a
# conditional and may appear exactly once, at the top level only.
# ---------------------------------------------------------------------------

# Each symbol and its token kind, "|~" before the connective "|", which is
# its prefix.  Identifiers and whitespace are scanned character by character.
_SYMBOLS = (
    ("|~", "cond"),
    *((text, op) for op, text in _OP_TEXT.items()),
    ("(", "lparen"),
    (")", "rparen"),
)
_WHITESPACE = frozenset(" \t\r\n")
# an identifier's characters, [A-Za-z0-9_]; its first is no digit
_WORD_CHARS = frozenset("_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


class _Token(NamedTuple):
    kind: str  # a connective's op name, a constant, or a kind from _SYMBOLS, "ident" or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, end = 0, len(text)
    while pos < end:
        c = text[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c in _WORD_CHARS and not c.isdigit():
            start = pos
            pos += 1
            while pos < end and text[pos] in _WORD_CHARS:
                pos += 1
            word = text[start:pos]
            tokens.append(_Token(word if word in _CONSTANTS else "ident", word, start))
        else:
            for symbol, kind in _SYMBOLS:
                if text.startswith(symbol, pos):
                    tokens.append(_Token(kind, symbol, pos))
                    pos += len(symbol)
                    break
            else:
                raise ParseError(f"unexpected character {c!r}", offset=pos)
    tokens.append(_Token("end", "", end))
    return tokens


class _Parser:
    """Precedence climbing over ``_PREC`` and ``_RIGHT_ASSOC``.

    ``depth`` counts the open nesting levels: each connective and each
    parenthesis opens one, and the levels of a chain of one connective
    (``a & b & c`` opens two) stay open until the chain ends.  ``formula``
    restores ``depth`` when a chain ends and when it returns, which closes
    the levels its operands opened.
    """

    def __init__(self, tokens: Sequence[_Token]):
        self.tokens = tokens
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

    def formula(self, floor: int = 0) -> Formula:
        """A unary, then every binary connective that binds at least as
        tightly as ``floor`` (0 admits them all), each with its right
        operand.  A left-associative connective's right operand holds only
        tighter connectives; a right-associative one's holds its own too."""
        start = self.depth
        left = self.unary()
        chain = None
        while (op := self.peek().kind) in _PREC and _PREC[op] >= floor:
            if op != chain:  # the chain of a tighter connective has ended
                chain = op
                self.depth = start
            self.nest(self.take())
            right_floor = _PREC[op] if op in _RIGHT_ASSOC else _PREC[op] + 1
            left = Formula(op, (left, self.formula(right_floor)))
        self.depth = start
        return left

    def unary(self) -> Formula:
        """A negation, a parenthesized formula, a constant or an atom."""
        tok = self.take()
        if tok.kind == "ident":
            return Formula(ATOM, (tok.text,))
        if tok.kind in _CONSTANTS:
            return _CONSTANTS[tok.kind]
        if tok.kind not in (NOT, "lparen"):
            raise ParseError("expected a formula", offset=tok.pos)
        self.nest(tok)
        if tok.kind == NOT:
            return lnot(self.unary())
        inner = self.formula()
        closing = self.take()
        if closing.kind != "rparen":
            raise ParseError("expected ')'", offset=closing.pos)
        return inner


def _parse_to_end(tokens: list[_Token]) -> Formula:
    """Parse ``tokens`` as one formula that must reach their end token."""
    parser = _Parser(tokens)
    result = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", offset=trailing.pos)
    return result


def parse_formula(text: str) -> Formula:
    """Parse a formula from its text alone; ``atoms_of`` lists its atoms."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty formula", offset=0)
    return _parse_to_end(tokens)


def parse_conditional_parts(text: str) -> tuple[Formula, Formula]:
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
    return _parse_to_end(left), _parse_to_end(right)
