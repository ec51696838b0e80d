"""Propositional core: parsing, truth masks against the reference evaluation, entailment."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defq import (
    FALSE,
    TRUE,
    Formula,
    KbGenerator,
    ParseError,
    Signature,
    SizeCapExceeded,
    TruthTable,
    UnknownAtomError,
    atom,
    iff,
    implies,
    land,
    lnot,
    lor,
    parse_formula,
    parse_kb,
    to_text,
)
from defq.logic import (
    MAX_NESTING,
    _is_atom_name,
    _tokenize,
    atoms_of,
    mask_indices,
    parse_conditional_parts,
)
from reference import entails, evaluate, is_consistent, valuation


def parse(text: str) -> Formula:
    return parse_formula(text)


class TestParser:
    def test_negation_binds_tighter_than_and(self):
        assert parse("!p & q") == land(lnot(atom("p")), atom("q"))

    def test_implication_is_right_associative(self):
        assert parse("a -> b -> c") == implies(atom("a"), implies(atom("b"), atom("c")))

    def test_constants(self):
        assert parse("true") == TRUE
        assert parse("false") == FALSE

    def test_precedence_ladder(self):
        # <->  binds loosest, then ->, |, &, !
        f = parse("a <-> b -> c | d & !e")
        assert f == iff(
            atom("a"),
            implies(atom("b"), lor(atom("c"), land(atom("d"), lnot(atom("e"))))),
        )

    def test_parentheses_override(self):
        assert parse("(a -> b) -> c") == implies(implies(atom("a"), atom("b")), atom("c"))

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("a & ")
        assert exc.value.offset == 4
        with pytest.raises(ParseError) as exc:
            parse("a ? b")
        assert exc.value.offset == 2

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("a b")

    def test_atoms_accumulate_in_textual_order(self):
        f = parse("x & (y | x) -> z")
        assert Signature(atoms_of(f)).atoms == ("x", "y", "z")

    def test_conditional_splits_on_single_arrow(self):
        a, c = parse_conditional_parts("p & q |~ r | s")
        assert a == land(atom("p"), atom("q"))
        assert c == lor(atom("r"), atom("s"))

    def test_conditional_rejects_missing_or_duplicate_arrow(self):
        with pytest.raises(ParseError):
            parse_conditional_parts("p & q")
        with pytest.raises(ParseError):
            parse_conditional_parts("p |~ q |~ r")


# The grammar's tokens as one regular expression, the tokenizer's reference:
# alternatives are tried in order, so "|~" comes before the connective "|".
REFERENCE_TOKENS = re.compile(
    r"(?P<cond>\|~)|(?P<iff><->)|(?P<implies>->)|(?P<or>\|)|(?P<and>&)|(?P<not>!)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<ws>[ \t\r\n]+)"
)


def reference_tokens(text):
    """(kind, text, pos) of each token, then the end token; or the offset of
    the first character no token matches."""
    tokens, pos = [], 0
    while pos < len(text):
        m = REFERENCE_TOKENS.match(text, pos)
        if m is None:
            return pos
        if m.lastgroup != "ws":
            kind = m.group() if m.group() in ("true", "false") else m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return [*tokens, ("end", "", len(text))]


# every symbol's characters, symbol prefixes, digits, non-ASCII letters and
# digits, and whitespace the grammar does and does not skip
TOKEN_ALPHABET = "ab_Z09|~-<>!&() \t\r\n\x0b?éℌ٣"


class TestTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=24) | st.sampled_from(["true", "false1", "|~|", "<-", "<->>"]))
    def test_matches_the_regular_expression(self, text):
        expected = reference_tokens(text)
        if isinstance(expected, int):
            with pytest.raises(ParseError) as exc:
                _tokenize(text)
            assert exc.value.offset == expected
            assert str(exc.value) == f"offset {expected}: unexpected character {text[expected]!r}"
        else:
            assert [tuple(t) for t in _tokenize(text)] == expected

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=6))
    def test_atom_names_are_ascii_identifiers(self, name):
        assert _is_atom_name(name) == bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name))

    def test_logic_holds_no_regular_expression(self):
        from defq import logic

        assert "re" not in vars(logic)
        assert not [v for v in vars(logic).values() if isinstance(v, re.Pattern)]


# (function, input, message, offset): the exact text of every parse error
TOO_DEEP = "formula nests deeper than 100 levels"  # MAX_NESTING is 100
PARSE_ERRORS = [
    ("formula", "", "empty formula", 0),
    ("formula", "   ", "empty formula", 0),
    ("conditional", "  |~ b", "empty antecedent", 0),
    ("conditional", "a |~  ", "empty consequent", 6),
    ("conditional", "a & b", "expected '|~' between antecedent and consequent", 0),
    ("conditional", "a |~ b |~ c", "more than one '|~'", 7),
    ("formula", "a ? b", "unexpected character '?'", 2),
    ("conditional", "a & |~ b", "expected a formula", 4),
    ("formula", "a & )", "expected a formula", 4),
    ("formula", "(a b", "expected ')'", 3),
    ("conditional", "(a |~ b", "expected ')'", 3),
    ("formula", "a b", "unexpected 'b'", 2),
    ("formula", "a -> b)", "unexpected ')'", 6),
    ("formula", "!" * (MAX_NESTING + 1) + "a", TOO_DEEP, 100),
    ("formula", "(" * (MAX_NESTING + 1) + "a", TOO_DEEP, 100),
    ("formula", " & ".join(["a"] * (MAX_NESTING + 2)), TOO_DEEP, 402),
    ("formula", " -> ".join(["a"] * (MAX_NESTING + 2)), TOO_DEEP, 502),
    ("formula", " <-> ".join(["a"] * (MAX_NESTING + 2)), TOO_DEEP, 602),
]


@pytest.mark.parametrize(
    "function, text, message, offset",
    PARSE_ERRORS,
    ids=[f"{function}:{text[:12]}" for function, text, *_ in PARSE_ERRORS],
)
def test_parse_error_text(function, text, message, offset):
    parse_fn = parse_formula if function == "formula" else parse_conditional_parts
    with pytest.raises(ParseError) as exc:
        parse_fn(text)
    assert (str(exc.value), exc.value.offset, exc.value.line) == (
        f"offset {offset}: {message}", offset, None,
    )


def test_kb_parse_error_text_names_the_line():
    with pytest.raises(ParseError) as exc:
        parse_kb("a |~ b\n# comment\n\n(a |~ b\n")
    assert (str(exc.value), exc.value.offset, exc.value.line) == (
        "line 4, offset 3: expected ')'", 3, 4,
    )


SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.kb"))
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def generated_kb_texts():
    gen = KbGenerator(seed=343434, max_atoms=6, max_defaults=8)
    for index in range(30):
        yield "\n".join(c.text() for c in gen.knowledge_base(index)) + "\n"


@pytest.mark.parametrize(
    "text",
    [*(path.read_text() for path in SAMPLES), *generated_kb_texts()],
    ids=[*(path.stem for path in SAMPLES), *(f"generated-{i}" for i in range(30))],
)
def test_kb_signature_lists_atoms_in_first_occurrence_order(text):
    names = (
        name
        for line in text.splitlines()
        for name in IDENT.findall(line.split("#", 1)[0])
        if name not in ("true", "false")
    )
    assert parse_kb(text).signature.atoms == tuple(dict.fromkeys(names))


class TestSignature:
    def test_names_keep_their_first_occurrence_order(self):
        sig = Signature(["b", "a", "b", "c", "a"])
        assert sig.atoms == ("b", "a", "c")
        assert [sig.index(name) for name in "bac"] == [0, 1, 2]

    @pytest.mark.parametrize("name", ["", "1a", "a-b", "é", "a b"])
    def test_invalid_names_are_refused(self, name):
        with pytest.raises(ValueError, match="invalid atom name"):
            Signature(["a", name])

    def test_has_no_mutator(self):
        assert not hasattr(Signature(), "add") and not hasattr(Signature(), "copy")
        with pytest.raises(AttributeError):
            Signature().extra = 1


class TestNestingCap:
    def deep(self):
        n = MAX_NESTING
        return {
            "not": ("!" * n + "a", "!" * (n + 1) + "a"),
            "parens": ("(" * n + "a" + ")" * n, "(" * (n + 1) + "a" + ")" * (n + 1)),
            "and-chain": (" & ".join(["a"] * (n + 1)), " & ".join(["a"] * (n + 2))),
            "implies-chain": (" -> ".join(["a"] * (n + 1)), " -> ".join(["a"] * (n + 2))),
            # a chain's levels close when it ends, so its tree can be twice as deep
            "deep-chain-operand": (
                "(" + "!" * (n - 1) + "a)" + " & a" * n,
                "(" + "!" * (n - 1) + "a)" + " & a" * (n + 1),
            ),
        }

    def test_formulas_at_the_cap_parse_print_and_mask(self):
        for at_cap, _ in self.deep().values():
            f = parse_formula(at_cap)
            assert parse_formula(to_text(f)) == f
            TruthTable(Signature(atoms_of(f))).mask(f)

    def test_one_level_past_the_cap_is_a_parse_error(self):
        for _, past_cap in self.deep().values():
            with pytest.raises(ParseError, match="nests deeper"):
                parse(past_cap)

    def test_thousands_of_levels_fail_without_recursion_error(self):
        with pytest.raises(ParseError):
            parse_conditional_parts("!" * 3000 + "a |~ b")


class TestEvaluate:
    """The reference semantics and the truth masks on hand-checked cases."""

    def test_implication_false_antecedent(self):
        f = implies(atom("a"), atom("b"))
        assert evaluate(f, valuation(("a", "b"), 0b00)) is True
        assert TruthTable(Signature(["a", "b"])).mask(f) & 1

    def test_contradiction_everywhere(self):
        f = land(atom("a"), lnot(atom("a")))
        for j in range(2):
            assert evaluate(f, valuation(("a",), j)) is False
        assert TruthTable(Signature(["a"])).mask(f) == 0

    def test_biconditional_both_true(self):
        f = iff(atom("a"), atom("b"))
        assert evaluate(f, valuation(("a", "b"), 0b11)) is True
        assert TruthTable(Signature(["a", "b"])).mask(f) >> 0b11 & 1

    def test_unresolved_atom_raises(self):
        with pytest.raises(UnknownAtomError):
            TruthTable(Signature(["a"])).mask(atom("z"))


class TestAllValuations:
    """The valuation space of a truth table: index j sets atom i iff bit i
    of j is set, in binary counting order over the signature."""

    def test_single_atom_order(self):
        tt = TruthTable(Signature(["a"]))
        assert tt.full == 0b11
        assert [bool(tt.mask(atom("a")) >> j & 1) for j in range(2)] == [False, True]

    def test_empty_signature_has_one_valuation(self):
        tt = TruthTable(Signature())
        assert tt.full == 1
        assert tt.mask(TRUE) == 1

    def test_four_atoms_sixteen_valuations(self):
        sig = Signature(list("abcd"))
        tt = TruthTable(sig)
        assert tt.full == (1 << 16) - 1
        masks = [tt.mask(atom(name)) for name in sig.atoms]
        columns = {tuple(m >> j & 1 for m in masks) for j in range(16)}
        assert len(columns) == 16

    def test_cap_exceeded(self):
        sig = Signature([f"p{i}" for i in range(21)])
        with pytest.raises(SizeCapExceeded):
            TruthTable(sig)


class TestAtomMasks:
    def test_atom_masks_match_evaluation(self):
        for n in range(11):
            sig = Signature([f"p{i}" for i in range(n)])
            tt = TruthTable(sig)
            valuations = [valuation(sig.atoms, j) for j in range(1 << n)]
            for name in sig.atoms:
                mask = tt.mask(atom(name))
                for j, v in enumerate(valuations):
                    assert bool(mask >> j & 1) == evaluate(atom(name), v)

    def test_atom_masks_match_division_formula(self):
        # the big-integer division construction the doubling one replaced
        for n in range(17):
            sig = Signature([f"p{i}" for i in range(n)])
            tt = TruthTable(sig)
            for i, name in enumerate(sig.atoms):
                expected = (tt.full // ((1 << (1 << i)) + 1)) << (1 << i)
                assert tt.mask(atom(name)) == expected


class TestMaskIndices:
    @given(st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_lists_the_set_bits_in_ascending_order(self, mask):
        expected = [j for j in range(mask.bit_length()) if mask >> j & 1]
        assert list(mask_indices(mask)) == expected


class TestEntailment:
    def test_modus_ponens(self):
        tt = TruthTable(Signature(["a", "b"]))
        assert entails(tt, {implies(atom("a"), atom("b")), atom("a")}, atom("b"))

    def test_excluded_middle_from_nothing(self):
        tt = TruthTable(Signature(["a"]))
        assert entails(tt, set(), lor(atom("a"), lnot(atom("a"))))

    def test_employed_students_are_young(self):
        premises = [
            parse_formula("Student -> Young"),
            parse_formula("Employee & Student -> Pay_Taxes"),
            parse_formula("Employee & Student"),
        ]
        goal = parse_formula("Young")
        sig = Signature(a for f in [*premises, goal] for a in atoms_of(f))
        assert entails(TruthTable(sig), set(premises), goal)

    def test_inconsistent_pair(self):
        tt = TruthTable(Signature(["a"]))
        assert not is_consistent(tt, {atom("a"), lnot(atom("a"))})

    def test_empty_set_is_consistent(self):
        assert is_consistent(TruthTable(Signature()), set())

    def test_formulas_compare_structurally_not_semantically(self):
        # equivalence is a separate check: entailment in both directions
        tt = TruthTable(Signature(["a", "b"]))
        left = land(atom("a"), atom("b"))
        right = land(atom("b"), atom("a"))
        assert left != right
        assert entails(tt, {left}, right) and entails(tt, {right}, left)

    def test_bright_kb_default_selection_is_consistent(self):
        formulas = [
            parse_formula("Student -> !Pay_Taxes"),
            parse_formula("Student -> Bright"),
            parse_formula("Employee & Student -> Busy"),
            parse_formula("Employee & Student"),
        ]
        sig = Signature(a for f in formulas for a in atoms_of(f))
        assert is_consistent(TruthTable(sig), set(formulas))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

ATOM_NAMES = ("a", "b", "c")


def formulas(max_leaves: int = 5) -> st.SearchStrategy[Formula]:
    leaves = st.one_of(
        st.sampled_from([atom(n) for n in ATOM_NAMES]),
        st.sampled_from([TRUE, FALSE]),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(lnot),
            st.tuples(sub, sub).map(lambda p: land(*p)),
            st.tuples(sub, sub).map(lambda p: lor(*p)),
            st.tuples(sub, sub).map(lambda p: implies(*p)),
            st.tuples(sub, sub).map(lambda p: iff(*p)),
        ),
        max_leaves=max_leaves,
    )


SIG = Signature(ATOM_NAMES)


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(to_text(f)) == f


@given(formulas())
def test_truth_masks_agree_with_direct_evaluation(f):
    tt = TruthTable(SIG)
    mask = tt.mask(f)
    for j in range(1 << len(SIG)):
        assert bool((mask >> j) & 1) == evaluate(f, valuation(SIG.atoms, j))


@given(formulas(3), formulas(3), formulas(3))
@settings(max_examples=60)
def test_deduction_theorem(g, a, b):
    tt = TruthTable(SIG)
    assert entails(tt, {g, a}, b) == entails(tt, {g}, implies(a, b))


@given(formulas())
def test_tautology_iff_negation_unsatisfiable(f):
    tt = TruthTable(SIG)
    assert entails(tt, set(), f) == (not is_consistent(tt, {lnot(f)}))
    assert entails(tt, set(), f) == tt.is_tautology(f)


@given(formulas(), formulas())
@settings(max_examples=60)
def test_entailment_monotone_in_premises(a, b):
    tt = TruthTable(SIG)
    if entails(tt, set(), b):
        assert entails(tt, {a}, b)
