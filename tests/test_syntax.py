"""Parser, sort inference and printing."""

import re
from dataclasses import MISSING, fields
from fractions import Fraction
from random import Random
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, strategies as st

from conftest import R1_TEXT, SIGMA_EXAMPLE_TEXT
from genrand import pair

from tracecheck.syntax import (
    And,
    Arith,
    AtIndex,
    AtTime,
    Exists,
    Forall,
    Formula,
    I2T,
    Implies,
    Interval,
    Lit,
    Not,
    Or,
    ParseError,
    Rel,
    Sort,
    T2I,
    Term,
    Var,
    children,
    format_formula,
    free_vars,
    load_property,
    parse,
    signals_of,
    tokenize,
)

SIG = frozenset({"ang-rate", "mode", "spd"})


class TestLexer:
    def test_hyphen_joins_identifiers(self):
        toks = [t.text for t in tokenize("ang-rate @i x") if t.kind != "eof"]
        assert toks == ["ang-rate", "@i", "x"]

    def test_hyphen_before_digit_is_minus(self):
        kinds = [(t.kind, t.text) for t in tokenize("a -1") if t.kind != "eof"]
        assert kinds == [("ident", "a"), ("punct", "-"), ("number", "1")]

    def test_spaced_minus_is_subtraction(self):
        toks = [t.text for t in tokenize("x - y") if t.kind != "eof"]
        assert toks == ["x", "-", "y"]

    def test_greek_identifiers(self):
        toks = [t.text for t in tokenize("σ0 τ0 ρ0") if t.kind != "eof"]
        assert toks == ["σ0", "τ0", "ρ0"]

    def test_number_forms(self):
        toks = [t.text for t in tokenize("1 2.5 3e-2") if t.kind != "eof"]
        assert toks == ["1", "2.5", "3e-2"]

    @pytest.mark.parametrize(
        "text", ["(x @i \u0661) > 2.5", "(x @i 1) > \u0662.\u0665", "(x @i 1) > 1_0",
                 "exists s in [\u0660, 1] such that (x @i s) > 1", "(x @i 1) > 2\uff15"],
    )
    def test_numerals_are_ascii_digits_only(self, text):
        with pytest.raises(ParseError):
            parse(text, ["x"])

    def test_rejects_stray_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("a & b")

    @pytest.mark.parametrize(
        "text, col",
        [
            ("(mode @i 0) > 1e-99999999", 15),
            ("(mode @i 0) > -1e99999999", 15),
            ("exists σ0 in [0, 1e99999999] such that (mode @i σ0) > 0", 18),
        ],
    )
    def test_out_of_range_literal_is_a_parse_error(self, text, col):
        with pytest.raises(ParseError, match="not a number") as info:
            parse(text, SIG)
        assert (info.value.line, info.value.col) == (1, col)


class TestParseShapes:
    def test_sigma_example_shape(self):
        """exists σ0 in [3,5] such that (ang-rate @i σ0) < 2.5"""
        f = parse(SIGMA_EXAMPLE_TEXT, SIG)
        assert isinstance(f, Exists)
        assert f.var == "σ0"
        assert f.var_sort is Sort.INDEX
        assert f.interval == Interval(
            Fraction(3), False, Fraction(5), False, sort=Sort.INDEX
        )
        body = f.body
        assert body == Rel(
            "<",
            AtIndex("ang-rate", Var("σ0", Sort.INDEX)),
            Lit(Fraction(5, 2), Sort.VALUE),
        )

    def test_requirement_shape(self):
        """The mode-switch requirement: forall over an implication whose
        consequent is a time-quantified lookup at a shifted timestamp."""
        f = parse(R1_TEXT, SIG)
        assert isinstance(f, Forall)
        assert f.var_sort is Sort.INDEX
        assert (f.interval.lo, f.interval.hi) == (0, 5)
        assert isinstance(f.body, Implies)
        ante = f.body.left
        assert isinstance(ante, And)
        assert ante.left == Rel(
            "=", AtIndex("mode", Var("σ0", Sort.INDEX)), Lit(Fraction(0), Sort.VALUE)
        )
        assert ante.right.left.arg == Arith(
            "+", Var("σ0", Sort.INDEX), Lit(Fraction(1), Sort.INDEX), sort=Sort.INDEX
        )
        cons = f.body.right
        assert isinstance(cons, Exists)
        assert cons.var_sort is Sort.TIME
        lookup = cons.body.left
        assert isinstance(lookup, AtTime)
        assert lookup.arg == Arith(
            "+",
            Var("τ0", Sort.TIME),
            I2T(Var("σ0", Sort.INDEX)),
            sort=Sort.TIME,
        )

    def test_and_binds_tighter_than_implies(self):
        f = parse("1 < 2 and 2 < 3 implies 3 < 4")
        assert isinstance(f, Implies)
        assert isinstance(f.left, And)

    def test_implies_is_right_associative(self):
        f = parse("1 < 2 implies 2 < 3 implies 3 < 4")
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)
        assert isinstance(f.left, Rel)

    def test_or_binds_looser_than_and(self):
        f = parse("1 < 2 or 2 < 3 and 3 < 4")
        assert isinstance(f, Or)
        assert isinstance(f.right, And)

    def test_not_binds_tightest(self):
        f = parse("not 1 < 2 and 2 < 3")
        assert isinstance(f, And)
        assert isinstance(f.left, Not)

    def test_quantifier_body_is_greedy(self):
        f = parse("exists ρ0 such that ρ0 < 1 and 2 < 3")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_at_operand_is_primary(self):
        """`spd @t τ0 + 1` reads the signal first, then adds."""
        f = parse("exists τ0 in [0.0, 2.0] such that spd @t τ0 + 1 < 5", SIG)
        rel = f.body
        assert isinstance(rel.left, Arith)
        assert isinstance(rel.left.left, AtTime)

    def test_parenthesized_at_operand(self):
        f = parse("exists σ0 in [0, 3] such that (mode @i (σ0 + 1)) = 0", SIG)
        read = f.body.left
        assert isinstance(read, AtIndex)
        assert isinstance(read.arg, Arith)

    def test_real_quantifier_has_no_interval(self):
        f = parse("forall ρ0 such that ρ0 * 2 >= ρ0")
        assert isinstance(f, Forall)
        assert f.interval is None
        assert f.var_sort is Sort.VALUE

    def test_open_and_mixed_intervals(self):
        f = parse("exists τ0 in (0.0, 5.0] such that τ0 > 1")
        assert f.interval.lo_open and not f.interval.hi_open

    def test_conversions_nest(self):
        f = parse("exists σ0 in [0, 5] such that t2i(i2t(σ0)) = σ0", SIG)
        eq = f.body
        assert isinstance(eq.left, T2I)
        assert isinstance(eq.left.arg, I2T)

    def test_parenthesized_formula_atom(self):
        f = parse("(1 < 2 or 2 < 3) and 3 < 4")
        assert isinstance(f, And)
        assert isinstance(f.left, Or)


class TestSortInference:
    def test_at_index_forces_index_sort(self):
        f = parse("exists x in [0, 5] such that (mode @i x) = 1", SIG)
        assert f.var_sort is Sort.INDEX

    def test_at_time_forces_time_sort(self):
        f = parse("exists x in [0, 5] such that (spd @t x) = 1", SIG)
        assert f.var_sort is Sort.TIME

    def test_decimal_bounds_force_time(self):
        f = parse("exists x in [0.5, 5.0] such that i2t(0) < x")
        assert f.var_sort is Sort.TIME

    def test_prefix_breaks_ties(self):
        f = parse("exists τ9 in [0, 5] such that τ9 = τ9")
        assert f.var_sort is Sort.TIME
        g = parse("exists sigma_a in [0, 5] such that sigma_a = sigma_a")
        assert g.var_sort is Sort.INDEX

    def test_conversion_constrains_through_arithmetic(self):
        f = parse("exists x in [0, 5] such that i2t(x + 1) > 0.1")
        assert f.var_sort is Sort.INDEX

    def test_literal_only_relation_defaults_to_value(self):
        f = parse("1 < 2")
        assert f.left.sort is Sort.VALUE

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("mode < 3", "bare signal"),
            ("exists x in [0, 1] such that (nosig @i x) = 1", "unknown signal"),
            ("(ang-rate @i σ9) < 1", "unbound variable"),
            (
                "exists τ0 in [0, 1] such that exists σ0 in [0, 2] "
                "such that τ0 < σ0",
                "sort mismatch",
            ),
            ("exists q in [0, 1] such that q = q", "cannot infer"),
            ("exists σ0 in [0.5, 2.0] such that (mode @i σ0) = 1", "sort mismatch"),
            ("exists σ0 in [2, 1] such that (mode @i σ0) = 1", "exceeds upper"),
            ("exists σ0 in [0, 5] such that (mode @i (σ0 * σ0)) = 1", "constant operand"),
            ("exists mode in [0, 5] such that 1 < 2", "shadows a signal"),
            (
                "exists σ0 in [0, 1] such that (mode @i (σ0 + 0.5)) = 1",
                "non-integer literal",
            ),
            (
                "exists σ0 in [0, 1] such that exists σ0 in [0, 1] "
                "such that σ0 = σ0",
                "bound twice",
            ),
            ("exists τ0 in [0, 1] such that (mode @t τ0) <", "syntax error"),
            ("exists τ0 in [0, 1]", "'such'"),
            ("i2t(3) <", "expected"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse(text, SIG)

    def test_error_carries_position(self):
        try:
            parse("exists τ0 in [0, 1] such that\n(nosig @t τ0) = 1", SIG)
        except ParseError as e:
            assert e.line == 2
            assert e.col == 2
        else:
            pytest.fail("expected a ParseError")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "(mode @i 0) > 0" + ")" * 3000,  # deep for the parser
            " and ".join(["(mode @i 0) > 0"] * 3000),  # deep for the sort checker
        ],
        ids=["parentheses", "and-chain"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse(text, SIG)

    def test_siblings_may_reuse_a_name(self):
        f = parse(
            "(exists σ0 in [0, 1] such that (mode @i σ0) = 1) or "
            "(exists σ0 in [2, 3] such that (mode @i σ0) = 0)",
            SIG,
        )
        assert isinstance(f, Or)


class TestHelpers:
    def test_signals_of(self):
        f = parse(R1_TEXT, SIG)
        assert signals_of(f) == frozenset({"ang-rate", "mode"})

    def test_free_vars_of_closed_formula(self):
        assert free_vars(parse(R1_TEXT, SIG)) == frozenset()

    def test_free_vars_of_open_term(self):
        f = parse(SIGMA_EXAMPLE_TEXT, SIG)
        assert free_vars(f.body) == frozenset({"σ0"})

    @pytest.mark.parametrize("cls", get_args(Term) + get_args(Formula), ids=lambda c: c.__name__)
    def test_children_are_the_ast_typed_fields_in_order(self, cls):
        # every walker reaches the tree through children, so a node class it
        # missed would be skipped by all of them at once
        hints = get_type_hints(cls)
        values = {}
        for i, fl in enumerate(fields(cls)):
            if hints[fl.name] == Term:
                values[fl.name] = Var(f"v{i}")
            elif hints[fl.name] == Formula:
                values[fl.name] = Rel("<", Var(f"v{i}"), Lit(Fraction(i)))
            elif fl.default is MISSING:
                values[fl.name] = {str: "+", Fraction: Fraction(1)}.get(hints[fl.name])
        node = cls(**values)
        subtrees = [fl.name for fl in fields(cls) if hints[fl.name] in (Term, Formula)]
        assert children(node) == tuple(values[name] for name in subtrees)
        assert subtrees or cls in (Var, Lit)

    @pytest.mark.parametrize(
        "value", [None, 3, "x", Fraction(1), Interval(Fraction(0), False, Fraction(1), False)]
    )
    def test_children_of_a_non_node_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="not an AST node"):
            children(value)


class TestIntervalClip:
    """Interval.clip: the quantifier domain both decision routes use."""

    @staticmethod
    def iv(lo, lo_open, hi, hi_open, sort):
        return Interval(Fraction(lo), lo_open, Fraction(hi), hi_open, sort=sort)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_time_ends_beyond_the_bounds_become_closed(self, lo_open, hi_open):
        got = self.iv(-1, lo_open, 9, hi_open, Sort.TIME).clip(Fraction(0), Fraction("5.7"))
        assert got == self.iv(0, False, "5.7", False, Sort.TIME)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_time_ends_inside_the_bounds_keep_their_openness(self, lo_open, hi_open):
        got = self.iv(1, lo_open, 2, hi_open, Sort.TIME).clip(Fraction(0), Fraction(5))
        assert got == self.iv(1, lo_open, 2, hi_open, Sort.TIME)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_time_ends_on_the_bounds_keep_their_openness(self, lo_open, hi_open):
        got = self.iv(0, lo_open, 5, hi_open, Sort.TIME).clip(Fraction(0), Fraction(5))
        assert got == self.iv(0, lo_open, 5, hi_open, Sort.TIME)

    def test_index_ends_close_to_integers(self):
        assert self.iv(2, True, 6, True, Sort.INDEX).clip(0, 9) == self.iv(
            3, False, 5, False, Sort.INDEX
        )
        assert self.iv(2, False, 6, False, Sort.INDEX).clip(0, 9) == self.iv(
            2, False, 6, False, Sort.INDEX
        )

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_index_ends_clip_to_the_trace_bounds(self, lo_open, hi_open):
        got = self.iv(0, lo_open, 9, hi_open, Sort.INDEX).clip(0, 6)
        assert got == self.iv(1 if lo_open else 0, False, 6, False, Sort.INDEX)

    @pytest.mark.parametrize(
        "iv, bounds",
        [
            ((3, True, 4, True, Sort.INDEX), (0, 9)),  # no integer strictly between
            ((3, False, 3, True, Sort.INDEX), (0, 9)),
            ((2, False, 2, True, Sort.TIME), (0, 9)),  # a point with an open end
            ((2, True, 2, False, Sort.TIME), (0, 9)),
        ],
    )
    def test_empty_interval_clips_to_none(self, iv, bounds):
        assert self.iv(*iv).clip(*bounds) is None
        assert self.iv(*iv).clip(iv[0], iv[2]) is None

    @pytest.mark.parametrize(
        "iv, bounds",
        [
            ((7, False, 9, False, Sort.INDEX), (0, 6)),
            ((6, True, 9, False, Sort.INDEX), (0, 6)),
            ((6, False, 8, False, Sort.TIME), (0, Fraction("5.7"))),
            ((-3, False, -1, False, Sort.TIME), (0, 5)),
            ((5, True, 8, False, Sort.TIME), (0, 5)),  # touches the span only at an open end
            ((-1, False, 0, True, Sort.TIME), (0, 5)),
        ],
    )
    def test_interval_outside_the_bounds_clips_to_none(self, iv, bounds):
        assert self.iv(*iv).clip(*bounds) is None

    def test_single_point_at_a_bound_survives(self):
        assert self.iv(5, False, 8, False, Sort.TIME).clip(0, 5) == self.iv(
            5, False, 5, False, Sort.TIME
        )
        assert self.iv(6, False, 9, False, Sort.INDEX).clip(0, 6) == self.iv(
            6, False, 6, False, Sort.INDEX
        )


ROUNDTRIP_CORPUS = [
    SIGMA_EXAMPLE_TEXT,
    R1_TEXT,
    "1 < 2",
    "not (1 < 2 or 3 != 4)",
    "exists ρ0 such that ρ0 * 3 <= ρ0 + 1",
    "forall τ0 in (0.0, 5.7) such that (spd @t τ0) >= 0",
    "exists σ0 in [0, 6] such that (mode @i σ0) = 3 implies (spd @t i2t(σ0)) < 2",
    "forall σ0 in [1, 4] such that t2i(i2t(σ0) + 0.2) >= σ0 - 1",
    "exists τ0 in [0.2, 4.9] such that (ang-rate @t (2 * τ0 - 0.4)) > -5",
]


class TestFormat:
    @pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
    def test_parse_format_parse_roundtrip(self, text):
        f = parse(text, SIG)
        again = parse(format_formula(f), SIG)
        assert again == f

    def test_format_is_fully_parenthesized(self):
        out = format_formula(parse("1 < 2 and 2 < 3 or 3 < 4"))
        assert out == "(((1 < 2) and (2 < 3)) or (3 < 4))"

    def test_format_keeps_literal_spelling(self):
        out = format_formula(parse(SIGMA_EXAMPLE_TEXT, SIG))
        assert "2.5" in out

    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.fractions(
            min_value=-10, max_value=10, max_denominator=100
        ),
    )
    def test_roundtrip_with_generated_leaves(self, lo, hi, bound):
        if lo > hi:
            lo, hi = hi, lo
        text = (
            f"exists σ0 in [{lo}, {hi}] such that "
            f"(ang-rate @i σ0) < {float(bound)}"
        )
        f = parse(text, SIG)
        assert parse(format_formula(f), SIG) == f


class TestSeededMutants:
    """Mutants of the generated property texts and the worked examples: the
    parser refuses a text only with a ParseError, and what it accepts prints
    to a text that parses back to an equal tree.  The mutants stay shallow:
    deep nesting is tested in fresh processes (test_cli), because a test
    already runs deep in its own stack."""

    SEED = 1
    CASES = 5000
    CHARS = "()[],-+*<>=@ x0.5στ"
    TOKEN = re.compile(r"\s+|[()\[\],+*<>=!@-]+|[^\s()\[\],+*<>=!@-]+")
    SIGNALS = frozenset({"x", "y", "ang-rate", "mode"})

    def mutant(self, rng, texts):
        text = rng.choice(texts)
        toks = self.TOKEN.findall(text)
        k = rng.randrange(len(toks))
        a = rng.randrange(len(text) + 1)
        b = rng.randrange(a, len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0:  # drop a token
            return "".join(toks[:k] + toks[k + 1:])
        if kind == 1:  # duplicate a token
            return "".join(toks[:k + 1] + toks[k:])
        if kind == 2:  # splice two texts
            other = rng.choice(texts)
            return text[:a] + other[rng.randrange(len(other) + 1):]
        if kind == 3:  # swap a character
            return text[:a] + rng.choice(self.CHARS) + text[a + 1:]
        return f"{text[:a]}({text[a:b]}){text[b:]}"  # add parentheses

    def test_refusals_are_parse_errors_and_acceptances_round_trip(self):
        texts = [R1_TEXT, SIGMA_EXAMPLE_TEXT] + [pair(seed)[2] for seed in range(500)]
        rng = Random(self.SEED)
        accepted = 0
        for _ in range(self.CASES):
            text = self.mutant(rng, texts)
            try:
                f = parse(text, self.SIGNALS)
            except ParseError:
                continue
            assert parse(format_formula(f), self.SIGNALS) == f, text
            accepted += 1
        assert accepted > self.CASES // 10  # the mutants are not all refused


class TestPropertyFiles:
    def test_comments_and_declarations(self):
        body = (
            "# the angular-rate settles after a mode switch\n"
            "signal ang-rate : real\n"
            "signal mode : real\n"
            + R1_TEXT
            + "\n"
        )
        f, sig, declared = load_property(body)
        assert declared
        assert sig == frozenset({"ang-rate", "mode"})
        assert isinstance(f, Forall)

    def test_trace_header_is_fallback_signature(self):
        f, sig, declared = load_property(
            SIGMA_EXAMPLE_TEXT, trace_signals={"ang-rate", "mode"}
        )
        assert not declared
        assert sig == frozenset({"ang-rate", "mode"})

    def test_declarations_win_over_trace(self):
        text = "signal spd : real\n(spd @t 0.0) < 1"
        f, sig, declared = load_property(text, trace_signals={"other"})
        assert sig == frozenset({"spd"})

    def test_empty_file_is_an_error(self):
        with pytest.raises(ParseError, match="no formula"):
            load_property("# nothing here\n")

    def test_formula_may_span_lines(self):
        text = "exists σ0 in [3, 5]\nsuch that\n(ang-rate @i σ0) < 2.5"
        f, _, _ = load_property(text, trace_signals=SIG)
        assert isinstance(f, Exists)
