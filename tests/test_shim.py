"""Tests for the bundled SMT-LIB evaluator behind tracecheck-solve."""

import collections
import contextlib
import gc
import itertools
import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from weakref import ref

import pytest

from genrand import pair
from tracecheck import shim
from tracecheck.preprocess import PreprocessConfig, apply_a1, apply_a2
from tracecheck.semantics import DirectResult, check_direct
from tracecheck.shim import ShimError, parse_script, run_script
from tracecheck.smt import translate
from tracecheck.solver import Verdict, run_solver
from tracecheck.syntax import parse
from tracecheck.trace import MAX_DIGITS, PLAIN_DIGITS, Fixed, Record, Trace, Variable, format_rational


def status(text):
    out = run_script(text)
    assert out, "script produced no check-sat answer"
    return out[0]


def settle_script(n, mode="fixed"):
    """The settle property's script on an n-record 100 Hz trace (unsat)."""
    trace = Trace(
        records=tuple(
            Record(
                Fraction(j, 100),
                {"mode": Fraction(int(j == 0)), "spd": Fraction(4 if j == 50 else 10, 10)},
            )
            for j in range(n)
        ),
        signals=("mode", "spd"),
    )
    prop = parse(
        f"forall σ0 in [0, {n - 2}] such that ((mode @i σ0) = 1) implies "
        "(exists τ0 in [0.0, 1.0] such that ((spd @t (τ0 + i2t(σ0))) < 0.5))",
        signature=trace.signals,
    )
    return translate(trace, prop, mode=mode).text


class TestParsing:
    def test_nested_lists(self):
        forms = parse_script("(a (b c) 1.5) (d)")
        assert forms == [["a", ["b", "c"], Fraction(3, 2)], ["d"]]

    def test_only_whole_numeral_tokens_are_numbers(self):
        forms = parse_script("(a1 1a 1.5.2 1. 007 0.25)")
        assert forms == [["a1", "1a", "1.5.2", "1.", Fraction(7), Fraction(1, 4)]]

    def test_comments_stripped(self):
        forms = parse_script("; top\n(a ; trailing\n b)")
        assert forms == [["a", "b"]]

    def test_unbalanced_open(self):
        with pytest.raises(ShimError, match="unbalanced"):
            parse_script("(a (b)")

    def test_unbalanced_close(self):
        with pytest.raises(ShimError, match="unbalanced"):
            parse_script("(a))")

    def test_a_pin_line_at_depth_0_is_a_pin(self):
        forms = parse_script("(assert (= (select t 7) 0.25)) ; cell 7\n(check-sat)")
        assert forms == [("t", 7, Fraction(1, 4)), ["check-sat"]]

    def test_a_pin_index_is_an_int_at_any_length_up_to_the_numeral_bound(self):
        plain = "9" * PLAIN_DIGITS
        lines = [f"(assert (= (select t {j}) 1.0))" for j in ("7", plain, f"0{plain}", f"{plain}9")]
        assert parse_script("\n".join(lines)) == [
            ("t", 7, 1), ("t", 10**PLAIN_DIGITS - 1, 1), ("t", 10**PLAIN_DIGITS - 1, 1),
            ("t", 10 ** (PLAIN_DIGITS + 1) - 1, 1),
        ]
        with pytest.raises(ShimError, match="numeral out of range"):
            parse_script(f"(assert (= (select t {'1' * (MAX_DIGITS + 1)}) 1.0))")

    def test_a_pin_shaped_line_inside_an_open_form_is_tokenized(self):
        forms = parse_script("(a\n(assert (= (select t 0) 1.0))\n)")
        assert forms == [["a", ["assert", ["=", ["select", "t", 0], 1]]]]

    @pytest.mark.parametrize(
        "line", ["(assert (= 1.0 (select t 0)))", "(assert (= (select 1.0 0) 1.0))"],
    )
    def test_other_pin_shapes_take_the_generic_path(self, line):
        assert type(parse_script(line)[0]) is list

    def test_integral_numerals_are_ints(self):
        forms = parse_script("(a 3 3.0 007 0.5)")
        assert forms == [["a", 3, 3, 7, Fraction(1, 2)]]
        assert [type(x) for x in forms[0][1:]] == [int, int, int, Fraction]

    def test_deep_nesting_is_iterative(self):
        # the parser must not recurse per paren
        deep = "(" * 50_000 + "x" + ")" * 50_000
        forms = parse_script(deep)
        for _ in range(50_000 - 1):
            forms = forms[0]
        assert forms == [["x"]]


class TestGroundAssertions:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("(assert (= 1 2)) (check-sat)", "unsat"),
            ("(assert (= 1 1)) (check-sat)", "sat"),
            ("(assert (< 0.2 0.3)) (check-sat)", "sat"),
            ("(assert (= (/ 1.0 3.0) (/ 2.0 6.0))) (check-sat)", "sat"),
            ("(assert (= (- 2.5) (- 2.5))) (check-sat)", "sat"),
            ("(assert (not (= 1 2))) (check-sat)", "sat"),
        ],
    )
    def test_literal_scripts(self, text, want):
        assert status(text) == want

    def test_inner_let_shadows_outer(self):
        # y keeps the outer x; the inner x hides it only in its own body
        text = """
        (assert (= (let ((x 1)) (let ((y x)) (let ((x 2)) (+ (* 10 y) x)))) 12))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_division_by_zero_is_unknown(self):
        assert status("(assert (= (/ 1.0 0.0) 5.0)) (check-sat)") == "unknown"


class TestExactness:
    """Integral numerals are ints, and every quotient is an exact Fraction:
    a float anywhere would flip each of these answers."""

    def test_sum_of_tenths(self):
        assert status("(assert (= (+ (/ 1 10) (/ 2 10)) (/ 3 10))) (check-sat)") == "sat"

    def test_affine_root_with_integer_coefficients(self):
        text = """
        (assert (exists ((x Real)) (and (= (* 10 x) 1) (= (+ x (/ 2 10)) (/ 3 10)))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_midpoint_of_an_integer_window(self):
        # 10^17 + 1/2 is the only candidate inside; as a float it rounds to 10^17
        text = """
        (assert (exists ((x Real))
          (and (< 100000000000000000 x) (< x 100000000000000001))))
        (check-sat)
        """
        assert status(text) == "sat"


class TestRelations:
    """Every relation answers as plain Fraction comparison does."""

    NUMERALS = ("0.5", "1", "1.0", "2")
    RELATIONS = {
        "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt,
    }

    @pytest.mark.parametrize("op", sorted(RELATIONS))
    def test_numeral_pairs(self, op):
        for a, b in itertools.product(self.NUMERALS, repeat=2):
            holds = self.RELATIONS[op](Fraction(a), Fraction(b))
            text = f"(assert ({op} {a} {b})) (check-sat)"
            assert status(text) == ("sat" if holds else "unsat"), text


class TestNumerals:
    def test_out_of_range_numeral_is_a_short_error(self, tmp_path):
        p = tmp_path / "big.smt2"
        p.write_text(f"(assert (= 1 {'9' * 1500})) (check-sat)\n")
        code, out, err = shim.solve(str(p))
        assert (code, out) == (1, "")
        assert "numeral out of range" in err
        assert "internal error" not in err
        assert len(err) < 200
        assert run_solver(str(p)).status == "error"

    def test_integral_numerals_read_as_int(self):
        plain = "9" * PLAIN_DIGITS
        forms = parse_script(f"(assert (= 007 1.50)) (assert (= {plain} {plain}1))")
        assert forms == [
            ["assert", ["=", 7, Fraction(3, 2)]],
            ["assert", ["=", 10**PLAIN_DIGITS - 1, 10 ** (PLAIN_DIGITS + 1) - 9]],
        ]
        assert [type(f[1][1]) for f in forms] == [int, int]
        assert status("(assert (= 007 7)) (check-sat)") == "sat"
        assert status(f"(assert (= {'0' * 999}1 1)) (check-sat)") == "sat"
        with pytest.raises(ShimError, match="numeral out of range"):
            parse_script(f"(assert (= {'1' * (MAX_DIGITS + 1)} 1))")

    def test_each_numeral_is_parsed_once(self, monkeypatch):
        text = settle_script(1000)
        body = "\n".join(line.split(";")[0] for line in text.splitlines())
        distinct = {t for t in re.findall(r"[^\s()]+", body) if re.fullmatch(r"\d+(\.\d+)?", t)}
        calls = []

        def counting(tok):
            calls.append(tok)
            return Fraction(tok)

        monkeypatch.setattr(shim, "parse_rational", counting)
        assert run_script(text) == ["unsat"]
        assert 0 < len(calls) <= len(distinct)


class TestPins:
    def test_array_pin(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 3.5))
        (assert (> (select a 0) 3.0))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_conflicting_array_pins(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 3.5))
        (assert (= (select a 0) 3.0))
        (check-sat)
        """
        assert status(text) == "unsat"

    def test_duplicate_identical_pin_is_fine(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 3.5))
        (assert (= (select a 0) 3.5))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_negative_literal_pin(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) (- 2.5)))
        (assert (< (select a 0) 0.0))
        (check-sat)
        """
        assert status(text) == "sat"

    @pytest.mark.parametrize(
        "literal, value",
        [
            ("0.2", Fraction(1, 5)), ("(- 2.5)", Fraction(-5, 2)),
            ("(/ 1.0 3.0)", Fraction(1, 3)), ("(- (/ 1.0 3.0))", Fraction(-1, 3)),
            ("(/ 1.0 0.0)", None), ("(+ 1.0 2.0)", None), ("(- (- 1.0))", None),
            ("(to_real 1)", None), ("(- 3.0 1.0)", None),
        ],
    )
    def test_pin_values_are_the_translators_literals(self, literal, value):
        # a pin line holds one of the four shapes smt.smt_real writes; any
        # other value, or a zero divisor, leaves it an ordinary assertion
        [form] = parse_script(f"(assert (= (select a 3) {literal}))")
        if value is None:
            assert type(form) is list
        else:
            assert form == ("a", 3, value)

    def test_a_pin_beside_another_form_is_an_ordinary_assertion(self):
        # pins come one per line; cell 0 is read here, and nothing pins it
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 1.0)) (assert (< (select a 0) 2.0))
        (check-sat)
        """
        assert status(text) == "unknown"

    def test_comment_after_a_pin_line(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 3.5)) ; the first cell
        (assert (> (select a 0) 3.0))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_pin_line_before_its_declaration_is_an_error(self):
        text = """
        (assert (= (select a 0) 3.5))
        (declare-const a (Array Int Real))
        (check-sat)
        """
        with pytest.raises(ShimError, match="not a declared array"):
            run_script(text)

    def test_pin_line_conflicts_with_a_negative_pin(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 1.0))
        (assert (= (select a 0) (- 1.0)))
        (check-sat)
        """
        assert status(text) == "unsat"

    def test_unpinned_cell_is_unknown(self):
        text = """
        (declare-const a (Array Int Real))
        (assert (< (select a 0) 1.0))
        (check-sat)
        """
        assert status(text) == "unknown"


class TestIntQuantifiers:
    def test_bounded_exists_hit(self):
        text = "(assert (exists ((n Int)) (and (and (<= 0 n) (<= n 5)) (= n 3)))) (check-sat)"
        assert status(text) == "sat"

    def test_bounded_exists_miss(self):
        text = "(assert (exists ((n Int)) (and (and (<= 0 n) (<= n 5)) (= n 9)))) (check-sat)"
        assert status(text) == "unsat"

    def test_unbounded_exists_unknown(self):
        assert status("(assert (exists ((n Int)) (< 0 n))) (check-sat)") == "unknown"

    def test_or_bound_hull(self):
        # the window is only ever the translator's guard; bounds spread
        # over a disjunction give none, and an unbounded Int stays unknown
        text = """
        (assert (exists ((n Int))
          (or (and (<= 0 n) (<= n 1)) (and (<= 5 n) (<= n 6)))))
        (check-sat)
        """
        assert status(text) == "unknown"

    def test_an_end_bound_by_an_outer_binder(self):
        text = """
        (assert (exists ((m Int)) (and (and (<= 0 m) (<= m 3))
          (exists ((n Int)) (and (and (<= 0 n) (<= n m)) (= n 2))))))
        (check-sat)
        """
        assert status(text) == "sat"


class TestRealQuantifiers:
    def test_guarded_exists(self):
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 5.0)) (> t 4.5))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_empty_guard(self):
        text = """
        (assert (exists ((t Real)) (and (and (<= 3.0 t) (<= t 1.0)) (= t t))))
        (check-sat)
        """
        assert status(text) == "unsat"

    def test_equality_needs_root(self):
        # only the crossing of 2t = 7 at t = 3.5 satisfies the body
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 5.0)) (= (* 2.0 t) 7.0))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_narrow_band_needs_midpoint(self):
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 10.0))
          (and (> t 3.9) (< t 4.1)))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_zero_slope_is_constant(self):
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 10.0))
          (= (* 0.0 t) 7.77))))
        (check-sat)
        """
        assert status(text) == "unsat"

    def test_unbounded_tautology(self):
        assert status("(assert (exists ((r Real)) (= r r))) (check-sat)") == "sat"

    def test_floor_pattern_grid_hit(self):
        # floor(t / 0.5) = 2 exactly on t in [1.0, 1.4]
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.4))
          (= (to_int (* 2.0 t)) 2))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_floor_pattern_grid_miss_stays_decided(self):
        # floor(t / 0.5) <= 2 throughout [0, 1.4]: 5 is impossible, and the
        # steps collected as roots keep that a definite unsat, not unknown
        text = """
        (assert (exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.4))
          (= (to_int (* 2.0 t)) 5))))
        (check-sat)
        """
        assert status(text) == "unsat"

    def test_let_bound_name_in_floor_pattern(self):
        # the classifier must see y as the affine term x, not as a class tag
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 1))
        (assert (= (select a 1) 2))
        (assert (= (select a 2) 3))
        (assert (exists ((x Real)) (and (and (<= 0 x) (<= x 1))
          (= (let ((y x)) (select a (to_int (* 2.0 y)))) 2))))
        (check-sat)
        """
        assert status(text) == "sat"

    @pytest.mark.parametrize(
        "body, want",
        [
            ("(= (to_int (- 0.5)) (- 1))", "sat"),
            ("(= (to_int (- 0.5)) 0)", "unsat"),
            ("(= (to_int (/ 7 2)) 3)", "sat"),
            # a step no window end or midpoint hits, and a root at a ground floor
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 10.0)) (= (to_int t) 3)))", "sat"),
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0))"
             " (= (* 4.0 t) (let ((y (to_int 2.5))) y))))", "sat"),
            # the step at the window's end, an open window short of it, a falling floor
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0)) (= (to_int (* 3.0 t)) 3)))", "sat"),
            ("(exists ((t Real)) (and (and (< 0.0 t) (< t 1.0)) (= (to_int (* 3.0 t)) 3)))", "unsat"),
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0)) (< (to_int (* (- 3.0) t)) (- 2))))", "sat"),
            # falling floors whose value holds only between steps no midpoint of [0, 1] reaches
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0)) (= (to_int (* (- 3.0) t)) (- 1))))", "sat"),
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0))"
             " (= (to_int (+ (* (- 2.5) t) (/ 1 3))) (- 2))))", "sat"),
            # no window to count the steps in
            ("(exists ((r Real)) (= (to_int r) 7.5))", "unknown"),
            # more steps in the window than GRID_CAP
            ("(exists ((t Real)) (and (and (<= 0.0 t) (<= t 1.0)) (= (to_int (* 1000000.0 t)) (- 1))))",
             "unknown"),
        ],
    )
    def test_to_int(self, body, want):
        assert status(f"(assert {body}) (check-sat)") == want

    @pytest.mark.parametrize("mode", ["variable", "fixed"])
    @pytest.mark.parametrize(
        "text, want",
        [
            ("exists τ0 in [0.0, 2.0] such that exists σ1 in [0, 4] such that "
             "(x @t τ0) > (y @i σ1) + 100", "unsat"),
            ("forall τ0 in [0.0, 2.0] such that exists σ1 in [0, 4] such that "
             "(x @t τ0) = (y @i σ1)", "sat"),
            ("exists τ0 in [0.0, 2.0] such that exists τ1 in [0.0, 2.0] such that "
             "(x @t τ0) > (y @t τ1) + 3", "sat"),
        ],
    )
    def test_read_of_tau_against_an_inner_binder_stays_decided(self, text, want, mode):
        # for each value of the inner binder the atom only steps where the
        # outer read does, so the collected roots are still exhaustive
        trace = Trace(
            records=tuple(
                Record(Fraction(j, 2), {"x": Fraction(j + 1), "y": Fraction(5 - j)})
                for j in range(5)
            ),
            signals=("x", "y"),
        )
        script = translate(trace, parse(text, signature=trace.signals), mode=mode, negate=False)
        assert status(script.text) == want

    def test_unclassifiable_body_degrades_to_unknown(self, fig_trace):
        # a side sloped in tau0 against a side stepping with the inner
        # sigma1 flips off the collected roots; the property is really
        # false (i2t(σ1) is at most 1.8), but the honest answer is unknown
        f = parse(
            "exists τ0 in [0.0, 1.0] such that exists σ1 in [0, 3] such that "
            "i2t(σ1) > τ0 + 100.0",
            signature=fig_trace.signals,
        )
        assert run_script(translate(fig_trace, f, negate=False).text) == ["unknown"]

    def test_a_breakpoint_only_an_index_map_condition_yields(self):
        # x is 5 only on [1.1, 1.2): no window end or midpoint of [0, 3]
        # lands there, only the roots of the index map's ite conditions
        trace = Trace(
            records=tuple(
                Record(Fraction(t), {"x": Fraction(x)})
                for t, x in (("0", 0), ("1.1", 5), ("1.2", 0), ("3", 0))
            ),
            signals=("x",),
        )
        f = parse("exists tau0 in [0.0, 3.0] such that (x @t tau0) = 5", signature=("x",))
        for negate, want in ((False, "sat"), (True, "unsat")):
            script = translate(trace, f, mode="variable", negate=negate)
            assert status(script.text) == want
        assert check_direct(trace, f) == DirectResult(Verdict.SATISFIED)

    @pytest.mark.parametrize("lb, rb", ["[]", "(]", "[)", "()"])
    @pytest.mark.parametrize(
        "lo, hi",
        [("0.5", "0.8"), ("0.7", "1.0"), ("0.2", "1.0"), ("0.5", "1.4"), ("1.0", "1.0"), ("0.7", "0.7")],
        ids=["at-lo", "at-hi", "at-hi-and-inside", "at-both", "point-at-one", "point-between"],
    )
    def test_an_index_map_breakpoint_at_a_window_end(self, monkeypatch, lo, hi, lb, rb):
        # an index-map condition that crosses at an end keeps one truth value
        # on the open window, so only its taken branch is classified; the
        # ends themselves are candidates and must still read their own record
        # (with time running backwards, the record at lo differs from the
        # one just inside)
        trace = Trace(
            records=tuple(
                Record(Fraction(t), {"x": Fraction(x)})
                for t, x in (("0", 0), ("0.3", 1), ("0.5", 5), ("1.0", 0), ("1.4", 5), ("2.0", 1))
            ),
            signals=("x",),
        )
        empty = lo == hi and lb + rb != "[]"
        cases = []
        for word, atom in itertools.product(
            ("exists", "forall"),
            ("(x @t τ0) = 5", "(x @t τ0) = 0", "(x @t τ0) = 1", "(x @t (τ0 + 0.3)) > 1",
             "(x @t (1.5 - τ0)) = 5"),
        ):
            f = parse(f"{word} τ0 in {lb}{lo}, {hi}{rb} such that {atom}", signature=("x",))
            verdict = check_direct(trace, f).verdict
            assert (verdict is Verdict.INCONCLUSIVE) == empty  # the direct route refuses an empty window
            cases += [
                (translate(trace, f, mode="variable", negate=negate).text, verdict, negate)
                for negate in (True, False)
            ]
        agrees_with_direct_and_dense_grid(monkeypatch, cases)

    @pytest.mark.parametrize(
        "inner",
        [
            # the inner window must not read a at the outer x's floor (100.0)
            "(exists ((x Real)) (and (and (<= 5.0 x) (<= x 6.0)) (>= x (select a (to_int x)))))",
            # nor bound z by the outer x (at most 1.0) where the inner x is meant
            "(exists ((z Real)) (and (>= z 5.0)"
            " (exists ((x Real)) (and (and (<= 5.0 x) (<= x 6.0)) (<= z x)))))",
        ],
        ids=["own-name", "inner-name"],
    )
    def test_an_inner_binder_hides_the_outer_value_of_its_name(self, inner):
        text = f"""
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 100.0))
        (assert (= (select a 1) 100.0))
        (assert (= (select a 5) 1.0))
        (assert (= (select a 6) 1.0))
        (assert (exists ((x Real)) (and (and (<= 0.0 x) (<= x 1.0)) {inner})))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_a_constant_index_that_mentions_the_variable_reads_its_pin(self):
        # to_int (- v v) is 0 at every v, so the read is a[0] = 0.25 and the
        # body holds on (0.25, 0.3): the crossing at 0.25 must be a root
        text = """
        (declare-const a (Array Int Real))
        (assert (= (select a 0) 0.25))
        (assert (exists ((v Real)) (and (and (<= 0.0 v) (<= v 1.0))
          (and (< (select a (to_int (- v v))) v) (< v 0.3)))))
        (check-sat)
        """
        assert status(text) == "sat"

    def test_an_ite_on_a_stepping_condition_is_not_unknown_everywhere(self):
        # the condition a[floor v] < 0 steps with v and is false throughout,
        # so the ites are 5.25 and 5.3 and v = 5.27 is a witness; the branch
        # never taken is unknown, but the ite is not, and a stepping side
        # against v leaves the answer unknown, never unsat
        pins = "".join(f"(assert (= (select a {j}) 1.0))\n" for j in range(11))
        ite = "(ite (< (select a (to_int v)) 0.0) (+ v (select a 99)) {})"
        text = f"""
        (declare-const a (Array Int Real))
        {pins}
        (assert (exists ((v Real)) (and (and (<= 0.0 v) (<= v 10.0))
          (and (< {ite.format(5.25)} v) (< v {ite.format(5.3)})))))
        (check-sat)
        """
        assert status(text) == "unknown"


@pytest.mark.parametrize(
    "text, want",
    [
        # strictly inside the window only the rest of the body is evaluated;
        # at a strict end where the rest holds, the guard still says no
        ("(exists ((t Real)) (and (and (< 1.0 t) (<= t 2.0)) (<= t 1.0)))", "unsat"),
        ("(exists ((t Real)) (and (and (<= 0.0 t) (< t 1.0)) (>= t 1.0)))", "unsat"),
        ("(exists ((t Real)) (and (and (< 1.0 t) (< t 1.0)) (= t 1.0)))", "unsat"),
        ("(exists ((t Real)) (and (and (< 1.0 t) (<= t 2.0)) (<= t 1.5)))", "sat"),
        ("(exists ((n Int)) (and (and (< 1 n) (< n 3)) (or (= n 1) (= n 3))))", "unsat"),
        ("(exists ((n Int)) (and (and (< 1 n) (<= n 3)) (= n 3)))", "sat"),
        # an Int window with fractional ends: every integer in it is inside
        ("(exists ((n Int)) (and (and (<= 0.5 n) (<= n 2.5)) (= n 2)))", "sat"),
        ("(exists ((n Int)) (and (and (< 0.5 n) (< n 2.5)) (or (= (* 2 n) 1) (= (* 2 n) 5))))",
         "unsat"),
        ("(exists ((n Int)) (and (and (<= (/ 1 3) n) (<= n (/ 2 3))) (= n n)))", "unsat"),
        # an end that is unknown bounds nothing, and the guard stays in the body
        ("(exists ((t Real)) (and (and (<= (select a 0) t) (<= t 1.0)) (< t 5.0)))", "unknown"),
        ("(exists ((t Real)) (and (and (<= 0.0 t) (< t (select a 0))) (< t 5.0)))", "unknown"),
        ("(exists ((n Int)) (and (and (<= 0 n) (<= n (select a 0))) (= n 1)))", "unknown"),
    ],
)
def test_the_guard_is_left_out_only_strictly_inside_the_window(text, want):
    script = f"(declare-const a (Array Int Real)) (assert {text}) (check-sat)"
    assert status(script) == want


def point_window_chain(depth, innermost):
    """`depth` nested Int quantifiers, each over the one point 0, around `innermost`."""
    body = innermost
    for k in reversed(range(depth)):
        body = f"(exists ((x{k} Int)) (and (and (<= 0 x{k}) (<= x{k} 0)) {body}))"
    return f"(assert {body}) (check-sat)\n"


@pytest.mark.parametrize("innermost, want", [("(= x39 0)", "sat"), ("false", "unsat")])
def test_a_window_end_evaluates_the_rest_once(tmp_path, innermost, want):
    # each candidate is an end of its window; evaluating the whole body there
    # after the rest doubled the work per level: 2^40 evaluations here
    done = run_shim_process(tmp_path, point_window_chain(40, innermost), timeout=10)
    assert (done.returncode, done.stdout) == (0, f"{want}\n"), done.stderr


def test_the_warm_up_script_uses_the_whole_fragment():
    seen, stack = set(), [form for form in parse_script(shim._WARM_UP) if type(form) is list]
    while stack:
        node = stack.pop()
        if node and type(node[0]) is str:
            seen.add((node[0], len(node) - 1))
        stack += [x for x in node if type(x) is list]
    assert set(shim._Eval.FRAGMENT) <= seen
    assert run_script(shim._WARM_UP) == ["sat", "(model )"]


def test_many_coprime_denominators(monkeypatch):
    # 200 crossings at 1/p, p over the first 200 primes: the lcm the
    # candidates share has about 520 digits
    primes = [p for p in range(2, 1224) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 200
    real_roots, denominators = shim._Eval.real_roots, set()

    def collecting(self, *args):
        groups, complete = real_roots(self, *args)
        denominators.update(den for _, den in groups)
        return groups, complete

    monkeypatch.setattr(shim._Eval, "real_roots", collecting)

    def balanced(op, items):
        half = len(items) // 2
        return items[0] if half == 0 else f"({op} {balanced(op, items[:half])} {balanced(op, items[half:])})"

    hits = balanced("or", [f"(= (* {p} x) 1)" for p in primes])
    for rest, want in (
        (f"(and {hits} (> x (/ 1 3)))", "sat"),  # x = 1/2, the last crossing
        (f"(and {hits} (= (* 2 x) 3))", "unsat"),  # every candidate evaluated
    ):
        text = f"(assert (exists ((x Real)) (and (and (<= 0 x) (<= x 1)) {rest}))) (check-sat)"
        assert status(text) == want
    assert set(primes) <= denominators


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_each_checked_node_is_compiled_once(monkeypatch, mode):
    # a leaf object, which _Atoms shares between occurrences, is checked at
    # each one and compiled once
    calls, closures = collections.Counter(), collections.defaultdict(set)
    build = shim._Eval.build

    def counting(self, e, want, scope):
        fn = build(self, e, want, scope)
        calls[id(e)] += type(e) is list
        closures[id(e)].add(fn)
        return fn

    monkeypatch.setattr(shim._Eval, "build", counting)
    assert run_script(settle_script(200, mode)) == ["unsat"]
    assert calls and max(calls.values()) == 1
    assert max(map(len, closures.values())) == 1
    assert any(calls[key] == 0 for key in closures)  # some leaves were built


QUANTIFIED = "(assert (exists ((x Real)) (and (and (<= 0.0 x) (<= x 1.0)) (< x 0.5))))"


@pytest.mark.parametrize(
    "text",
    ["(assert (= 1 1)) (check-sat)", f"{QUANTIFIED} (check-sat)", f"{QUANTIFIED} (assert (frob 1))"],
    ids=["no quantifier", "quantifier", "quantifier, then a fault"],
)
def test_run_script_frees_its_evaluator(monkeypatch, text):
    # an exists closure holds the state that caches it; with the cycle
    # collector off, only reference counting can free that state
    states, init = [], shim._Eval.__init__

    def recording(self):
        init(self)
        states.append(ref(self))

    monkeypatch.setattr(shim._Eval, "__init__", recording)
    gc.disable()
    try:
        with contextlib.suppress(ShimError):
            run_script(text)
        freed = [state() is None for state in states]
    finally:
        gc.enable()
    assert freed == [True]


def test_the_index_map_is_classified_only_inside_the_window(monkeypatch):
    # the inner 1 s window holds about 100 records at 100 Hz whatever the
    # trace's length, so the classification of the variable-rate index map
    # may grow with the breakpoints inside it but not with the record count
    per_call = []
    classify, real_roots = shim._Eval.classify, shim._Eval.real_roots

    def counting_classify(self, *args):
        per_call[-1] += 1
        return classify(self, *args)

    def counting_real_roots(self, *args):
        per_call.append(0)
        return real_roots(self, *args)

    monkeypatch.setattr(shim._Eval, "classify", counting_classify)
    monkeypatch.setattr(shim._Eval, "real_roots", counting_real_roots)
    calls = {}
    for n in (200, 2_000):
        per_call.clear()
        assert run_script(settle_script(n, "variable")) == ["unsat"]
        calls[n] = max(per_call)
    assert calls[2_000] < 1.2 * calls[200], calls


def dense_grid_candidates(self, v, body, env, window):
    """A stand-in for `_Eval._real_candidates`: every multiple of 1/40 in
    the window, and its ends.  That is exhaustive when each point where an
    atom can flip is a multiple of 1/10 (a timestamp, a grid time or a
    bound)."""
    lo, hi = window
    assert lo is not None and hi is not None, "every time quantifier here is bounded"
    ticks = range(math.ceil(lo * 40), math.floor(hi * 40) + 1)
    return sorted({lo, hi, *(Fraction(k, 40) for k in ticks)}), True


def agrees_with_direct_and_dense_grid(monkeypatch, cases):
    """Each (script, direct verdict, negate) case answers as a definitive
    direct verdict says, and as it does on the dense grid."""
    analysed = [run_script(script) for script, _, _ in cases]
    for (_, verdict, negate), answer in zip(cases, analysed):
        if verdict is not Verdict.INCONCLUSIVE:
            assert answer[0] == ("unsat" if (verdict is Verdict.SATISFIED) == negate else "sat")
    monkeypatch.setattr(shim._Eval, "_real_candidates", dense_grid_candidates)
    assert [run_script(script) for script, _, _ in cases] == analysed


def test_candidate_analysis_agrees_with_a_dense_grid(monkeypatch):
    # the roots real_roots collects must decide every real quantifier the
    # way evaluating it at every point that can matter does
    scripts = []
    for seed in range(200):
        trace, f, _ = pair(seed)
        grid = apply_a2(trace, PreprocessConfig())  # on the grid of the raw times
        for t in [trace] if grid is trace else [trace, grid]:
            modes = ["variable"] + (["fixed"] if isinstance(t.rate, Fixed) else [])
            scripts += [
                translate(t, f, mode=mode, negate=negate).text
                for mode in modes for negate in (True, False)
            ]
    analysed = [run_script(text) for text in scripts]
    monkeypatch.setattr(shim._Eval, "_real_candidates", dense_grid_candidates)
    assert [run_script(text) for text in scripts] == analysed


def sorted_set_candidates(self, v, body, env, window):
    """`_Eval._real_candidates` as it was written on exact values: the roots
    as a set of Fractions, the fence and its midpoints, then
    `sorted(set(...))`."""
    groups, complete = self.real_roots(body, v, env, window)
    pts = sorted({Fraction(n, den) for nums, den in groups for n in nums})
    lo, hi = window
    fence = [(pts[0] if pts else 0) - 1 if lo is None else lo]
    fence.extend(p for p in pts if fence[0] < p and (hi is None or p < hi))
    if hi is None:
        tail = (pts[-1] if pts else 0) + 1
        if tail > fence[-1]:
            fence.append(tail)
    elif hi > fence[0]:
        fence.append(hi)
    candidates = fence + [shim._div(a + b, 2) for a, b in zip(fence, fence[1:])]
    return sorted(set(candidates)), complete


def test_one_pass_candidates_equal_the_sorted_set(monkeypatch):
    # the integer pass lists the same points in the same order, so every
    # real quantifier evaluates them as before, early exits included; an
    # integral point is an int, as an integral numeral is
    one_pass, compared = shim._Eval._real_candidates, []

    def both(self, v, body, env, window):
        candidates, complete = one_pass(self, v, body, env, window)
        got = list(candidates)
        assert (got, complete) == sorted_set_candidates(self, v, body, env, window)
        assert [type(c) for c in got] == [int if c.denominator == 1 else Fraction for c in got]
        compared.append(len(got))
        return got, complete

    monkeypatch.setattr(shim._Eval, "_real_candidates", both)
    scripts = [settle_script(1000, mode) for mode in ("fixed", "variable")]
    for seed in range(200):
        trace, f, _ = pair(seed)
        grid = apply_a2(trace, PreprocessConfig())
        for t in [trace] if grid is trace else [trace, grid]:
            modes = ["variable"] + (["fixed"] if isinstance(t.rate, Fixed) else [])
            scripts += [
                translate(t, f, mode=mode, negate=negate).text
                for mode in modes for negate in (True, False)
            ]
    for text in scripts:
        run_script(text)
    assert len(compared) > 400 and max(compared) > 100


def long_variable_rate_trace(seed):
    """40-150 records with gaps of 0.1-0.5 s, a speed dip one to three
    records after each mode event, and holes filled by A1."""
    rng = Random(seed)
    n = rng.randint(40, 150)
    mode = [int(rng.random() < 0.05) for _ in range(n)]
    spd = [Fraction(1)] * n
    for j in range(n - 3):
        if mode[j]:
            spd[j + rng.choice((1, 2, 2, 3))] = Fraction(2, 5)
    t, records = Fraction(rng.randint(0, 10), 10), []
    for j in range(n):
        values = {"mode": Fraction(mode[j]), "spd": spd[j]}
        if 0 < j < n - 1 and rng.random() < 0.15:
            del values[rng.choice(("mode", "spd"))]
        records.append(Record(t, values))
        t += Fraction(rng.choice((1, 2, 3, 5)), 10)
    return apply_a1(Trace(records=tuple(records), signals=("mode", "spd")), PreprocessConfig(strategy="A1"))


def test_candidate_analysis_agrees_with_a_dense_grid_on_long_traces(monkeypatch):
    # windows narrow against the trace's span, so the index map is pruned
    # deep below its root: the settle property, and a real quantifier under
    # another one; both are satisfied on some of these traces and violated
    # on others
    cases = []
    for seed in range(4):
        trace = long_variable_rate_trace(seed)
        assert isinstance(trace.rate, Variable)
        start = trace.t0 + Random(seed).randint(0, int(trace.tm - trace.t0) - 3)  # whole seconds in
        window = f"[{float(start)}, {float(start + 3)}]"
        for text in (
            f"forall σ0 in [0, {trace.last_index - 1}] such that ((mode @i σ0) = 1) implies "
            "(exists τ0 in [0.0, 1.0] such that ((spd @t (τ0 + i2t(σ0))) < 0.5))",
            f"exists τ0 in {window} such that ((spd @t τ0) < 0.5 and "
            f"forall τ1 in {window} such that (spd @t τ1) >= (spd @t τ0))",
        ):
            f = parse(text, signature=trace.signals)
            verdict = check_direct(trace, f).verdict
            assert verdict is not Verdict.INCONCLUSIVE
            cases += [
                (translate(trace, f, mode="variable", negate=negate).text, verdict, negate)
                for negate in (True, False)
            ]
    agrees_with_direct_and_dense_grid(monkeypatch, cases)


def flat_time_term(rng, depth):
    """A time term in τ0 of slope 0 or 1 that mostly mentions τ0 anyway:
    τ0, τ0 - τ0 + c, 2 * τ0 - τ0, or i2t(t2i(...)) of one."""
    r = rng.random()
    c = rng.choice(("0.5", "1", "1.9", "2.3", "3"))
    if depth <= 0 or r < 0.2:
        return rng.choice(("τ0", f"τ0 - τ0 + {c}"))
    if r < 0.45:
        return f"τ0 - τ0 + {c}"
    if r < 0.6:
        return "2 * τ0 - τ0"
    return f"i2t(t2i({flat_time_term(rng, depth - 1)}))"


def flat_time_property(rng):
    """One time quantifier over two atoms built from `flat_time_term`."""
    atoms = []
    for _ in range(2):
        op, r = rng.choice(("<", "<=", ">", ">=", "=")), rng.random()
        if r < 0.6:
            atoms.append(f"i2t(t2i({flat_time_term(rng, 2)})) {op} τ0")
        elif r < 0.75:
            atoms.append(f"τ0 {op} {rng.choice(('0.5', '0.95', '1.1', '2.25', '3.3'))}")
        else:
            read = f"{rng.choice(('ang-rate', 'mode'))} @t ({flat_time_term(rng, 2)})"
            atoms.append(f"({read}) {op} {rng.choice(('0', '3', '20.5', '21.1'))}")
    window = f"[{rng.choice(('0', '0.5', '1'))}, {rng.choice(('2', '3.7', '5'))}]"
    junction = rng.choice(("and", "or"))
    return f"{rng.choice(('exists', 'forall'))} τ0 in {window} such that ({atoms[0]}) {junction} ({atoms[1]})"


def test_both_index_maps_decide_flat_time_terms_alike(fig_trace):
    # τ0 - τ0 + 1 mentions τ0 but is one number on the whole window, and so
    # is t2i of it under either index map: no property may be sat under one
    # map and unsat under the other
    grid = apply_a2(fig_trace, PreprocessConfig())
    rng, clashes = Random(28), []
    for _ in range(400):
        text = flat_time_property(rng)
        f = parse(text, signature=grid.signals)
        answers = {run_script(translate(grid, f, mode=mode, negate=False).text)[0]
                   for mode in ("fixed", "variable")}
        if answers == {"sat", "unsat"}:
            clashes.append(text)
    assert clashes == []


# a[0..3] are pinned, a[4] and beyond are not
GRID_PINS = "".join(f"(assert (= (select a {j}) {x}))\n" for j, x in enumerate(("0.25", "1.5", "(- 0.5)", "2.0")))
GRID_NUMERALS = ("0", "1", "0.5", "0.25", "1.5", "2")


def fragment_term(rng, depth, names):
    """A random term over v, the let names in `names` and the array a."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(("v", "v", "(- v v)", "(* 0 v)", *names, *GRID_NUMERALS))
    sub = lambda: fragment_term(rng, depth - 1, names)  # noqa: E731
    if r < 0.45:
        return f"({rng.choice('+-*/')} {sub()} {sub()})"
    if r < 0.55:
        return f"(to_int {sub()})"
    if r < 0.75:
        index = rng.choice(("(to_int v)", str(rng.randint(0, 4)), f"(to_int {sub()})",
                            f"(to_int (+ (* 0 v) {rng.randint(0, 4)}))"))
        return f"(select a {index})"
    if r < 0.9:
        return f"(ite {fragment_formula(rng, 0, names)} {sub()} {sub()})"
    name = f"x{len(names)}"
    return f"(let (({name} {sub()})) {fragment_term(rng, depth - 1, names + (name,))})"


def fragment_formula(rng, depth, names):
    """A random formula of `fragment_term` relations; each has a second
    side that is often v or a numeral, so that it crosses v."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        sides = [fragment_term(rng, 2, names),
                 rng.choice(("v", rng.choice(GRID_NUMERALS), fragment_term(rng, 2, names)))]
        rng.shuffle(sides)
        return f"({rng.choice(('<', '<=', '=', '>=', '>'))} {sides[0]} {sides[1]})"
    if r < 0.9:
        junction = rng.choice(("and", "and", "or"))
        return f"({junction} {fragment_formula(rng, depth - 1, names)} {fragment_formula(rng, depth - 1, names)})"
    return f"(not {fragment_formula(rng, depth - 1, names)})"


def test_no_grid_point_satisfies_a_body_the_analysis_calls_unsat():
    # an unsat answer says the body is false or unknown at every point of
    # the window; each point k/96 is checked by an Int quantifier over k with
    # v written as k/96, which evaluates the body there exactly and without
    # the real-quantifier analysis
    rng, wrong = Random(28), []
    for _ in range(2000):
        hi, body = rng.choice((1, 2)), fragment_formula(rng, 2, ())
        head = f"(declare-const a (Array Int Real))\n{GRID_PINS}"
        script = f"{head}(assert (exists ((v Real)) (and (and (<= 0 v) (<= v {hi})) {body})))\n(check-sat)\n"
        if status(script) != "unsat":
            continue
        at_k = re.sub(r"\bv\b", "(/ k 96)", body)
        points = f"{head}(assert (exists ((k Int)) (and (and (<= 0 k) (<= k {96 * hi})) {at_k})))\n(check-sat)\n"
        if status(points) == "sat":
            wrong.append(body)
    assert wrong == []


class TestCommands:
    def test_get_model_after_sat(self):
        out = run_script("(assert (= 1 1)) (check-sat) (get-model)")
        assert out == ["sat", "(model )"]

    def test_get_model_after_unsat_prints_nothing(self):
        out = run_script("(assert (= 1 2)) (check-sat) (get-model)")
        assert out == ["unsat"]

    @pytest.mark.parametrize(
        "asserts, want",
        [
            ([], "sat"),
            (["(= 1 1)"], "sat"),
            (["(= 1 2)"], "unsat"),
            (["(< (select a 5) 1.0)"], "unknown"),
            (["(= 1 1)", "(< 0 (select a 0))", "(= (select a 0) 2.0)"], "sat"),
            (["(< (select a 5) 1.0)", "(= 1 2)", "(= 1 1)"], "unsat"),
            (["(< (select a 5) 1.0)", "(= 1 1)", "(= 1 1)"], "unknown"),
            (["(= 1 1)", "(= 1 1)", "(= 1 2)"], "unsat"),
        ],
    )
    def test_assertions_fold_left_to_right(self, asserts, want):
        # cell 0 is pinned to 2.0; cell 5 is never pinned, so reading it is unknown
        text = "(declare-const a (Array Int Real))\n(assert (= (select a 0) 2.0))\n"
        text += "".join(f"(assert {a})\n" for a in asserts) + "(check-sat)\n"
        assert status(text) == want

    @pytest.mark.parametrize(
        "formula, want",
        [
            ("(and U (= 1 1))", "unknown"), ("(and (= 1 1) U)", "unknown"),
            ("(and U (= 1 2))", "unsat"), ("(and (= 1 2) U)", "unsat"),
            ("(or U (= 1 2))", "unknown"), ("(or (= 1 2) U)", "unknown"),
            ("(or U (= 1 1))", "sat"), ("(or (= 1 1) U)", "sat"),
            ("(not U)", "unknown"),
        ],
    )
    def test_connectives_are_three_valued(self, formula, want):
        # U reads a cell nothing pins, so its truth is unknown
        text = "(declare-const a (Array Int Real))\n"
        text += f"(assert {formula.replace('U', '(< (select a 5) 1.0)')})\n(check-sat)\n"
        assert status(text) == want

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ShimError, match="unknown symbol"):
            run_script("(assert (= zork 1)) (check-sat)")


# SMT-LIB that smt.translate never emits, and ill-sorted formulas: each must
# stop with an error, never answer sat or unsat.
OUT_OF_FRAGMENT = {
    "forall": "(assert (forall ((n Int)) (< n 4)))",
    "implies": "(assert (=> false (= 1 2)))",
    "distinct": "(assert (distinct 1 2))",
    "two-operand to_int": "(assert (= (to_int 1 2) 1))",
    "Bool to_int": "(assert (= (to_int false) 0))",
    "true": "(assert true)",
    "declare-fun nullary": "(declare-fun x () Real)",
    "declare-fun with args": "(declare-fun f (Int) Real)",
    "declare-const Real": "(declare-const x Real)",
    "declare-const Int array": "(declare-const a (Array Int Int))",
    "set-option": "(set-option :produce-models true)",
    "set-info": "(set-info :status unknown)",
    "push": "(push 1)",
    "pop": "(pop 1)",
    "exit": "(exit)",
    "unknown command": "(frobnicate)",
    "numeral as a command": "1.0",
    "empty command": "()",
    "array as a value": "(declare-const a (Array Int Real)) (assert (= a a))",
    "undeclared array": "(assert (= (select b 0) 1.0))",  # a pin line
    "undeclared array in a term": "(assert (< (select b 0) 1.0))",
    "empty term": "(assert (= () 1))",
    "Bool binder": "(assert (exists ((b Bool)) false))",
    "relation of one": "(assert (< 1))",
    **{
        f"chain {op} {' '.join(chain)}": f"(assert ({op} {' '.join(chain)}))"
        for op in ("<", "<=", "=", ">=", ">")
        for chain in (("0.5", "1", "2"), ("2", "1", "1.0", "0.5"))
    },
    "Real assert": "(assert 1.0)",
    "Real under not": "(assert (not 0.0))",
    "Real under or": "(assert (or 0.0 2.0))",
    "Real under and": "(assert (and (= 1 1) 2.0))",
    "Real ite condition": "(assert (= (ite 1.0 1.0 2.0) 1.0))",
    "Real exists body": "(assert (exists ((x Real)) 1.0))",
    "Bool compared": "(assert (= false false))",
    "Bool summed": "(assert (< (+ false 1.0) 2.0))",
    "Bool index": "(declare-const a (Array Int Real)) (assert (= (select a false) 1.0))",
    "three-operand +": "(assert (= (+ 1 2 3) 6))",
    "three-operand and": "(assert (and false false false))",
    "two-binding let": "(assert (= (let ((x 1) (y 2)) (+ x y)) 3))",
    # two faults: the let's own sort is checked first
    "two-binding let around a formula": "(assert (let ((x 1) (y 2)) (= x y)))",
    "let around a formula": "(assert (let ((x 1)) (= x 1)))",
    "two-operand to_real": "(assert (= (to_real 1 2) 1.0))",
    "Bool to_real": "(assert (= (to_real false) 0.0))",
    "two-binder exists": (
        "(assert (exists ((a Int) (b Int))"
        " (and (and (<= 0 a) (<= a 2)) (and (and (<= 0 b) (<= b 2)) (= (+ a b) 4)))))"
    ),
    # SMT-LIB numerals are ASCII: other digits make an unknown symbol
    "non-ASCII numeral": "(assert (= 1 \u0661))",
    "non-ASCII pin index": (
        "(declare-const a (Array Int Real))\n(assert (= (select a \u0660) 1.0))\n"
        "(assert (= (select a 0) 2.0))"
    ),
    # checked before evaluation, so no short circuit hides these
    "Real under or after true": "(assert (or (= 1 1) 0.0))",
    "Real assert after false": "(assert false) (assert 1.0)",
    "unknown symbol after false": "(assert (and false (= zork 1)))",
    "unknown operator after false": "(assert (and false (frob 1)))",
    "relation of one after false": "(assert (and false (< 1)))",
    "Bool index after false": (
        "(declare-const t (Array Int Real)) (assert (and false (= (select t false) 1.0)))"
    ),
}


@pytest.mark.parametrize(
    "case, message",
    [
        ("two-binder exists", "exists takes one (name Int|Real) binder"),
        ("Bool binder", "exists takes one (name Int|Real) binder"),
        ("two-binding let", "let takes one (name term) binding"),
        # each case below has one fault, which the message names
        ("unknown symbol after false", "unknown symbol 'zork'"),
        ("array as a value", "unknown symbol 'a'"),
        ("non-ASCII pin index", "unknown symbol '\u0660'"),
        ("unknown operator after false", "unsupported operator 'frob' with 1 arguments"),
        ("chain < 0.5 1 2", "unsupported operator '<' with 3 arguments"),
        ("two-operand to_int", "unsupported operator 'to_int' with 2 arguments"),
        ("let around a formula", "('let' ...) is a number where a formula is expected"),
        ("Real assert after false", "1 is a number where a formula is expected"),
        ("Real under or after true", "0 is a number where a formula is expected"),
        ("Bool index after false", "'false' is a formula where a number is expected"),
        ("undeclared array", "select from 'b', which is not a declared array"),
        ("undeclared array in a term", "select from 'b', which is not a declared array"),
        ("empty term", "bad expression (...)"),
        ("push", "unsupported command ('push' ...)"),
        ("declare-const Real", "unsupported command ('declare-const' ...)"),
        ("numeral as a command", "unsupported command 1"),
        ("empty command", "unsupported command (...)"),
    ],
)
def test_a_malformed_binder_list_is_named(case, message):
    with pytest.raises(ShimError, match=re.escape(message)):
        run_script(f"{OUT_OF_FRAGMENT[case]} (check-sat)")


@pytest.mark.parametrize("text", list(OUT_OF_FRAGMENT.values()), ids=list(OUT_OF_FRAGMENT))
def test_out_of_fragment(tmp_path, text):
    script = f"{text} (check-sat)\n"
    with pytest.raises(ShimError):
        run_script(script)
    path = tmp_path / "q.smt2"
    path.write_text(script)
    code, out, err = shim.solve(str(path))
    assert (code, out) == (1, "") and err.strip()


def test_the_check_skips_pins(monkeypatch):
    n = 200
    text = settle_script(n)
    pins = len(re.findall(r"^\(assert \(= \(select ", text, re.M))
    others = len(re.findall(r"^\(assert ", text, re.M)) - pins
    assert pins == 2 * n and others >= 1  # mode and spd; i2t reads no timestamp array
    checked, depth = [], 0
    build = shim._Eval.build

    def counting(self, e, want, scope):
        nonlocal depth
        if depth == 0:  # an asserted formula, not a node inside one
            checked.append(e)
        depth += 1
        try:
            return build(self, e, want, scope)
        finally:
            depth -= 1

    monkeypatch.setattr(shim._Eval, "build", counting)
    assert run_script(text) == ["unsat"]
    assert len(checked) == others


class TestMain:
    def test_reads_file(self, tmp_path, capsys):
        p = tmp_path / "q.smt2"
        p.write_text("(assert (= 1 1)) (check-sat)\n")
        assert shim.main([str(p)]) == 0
        assert capsys.readouterr().out == "sat\n"

    def test_missing_file(self, capsys):
        assert shim.main(["/nonexistent/q.smt2"]) == 1
        assert "cannot read script" in capsys.readouterr().err

    def test_script_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "q.smt2"
        p.write_bytes(b"(assert (= 1 1))" + b"0" * 100_000 + b"\xff (check-sat)\n")
        assert shim.main([str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cannot read script: ") and "position 100016" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x" * 100_000 + "\n(check-sat)\n", f"unsupported command {'x' * 40!r}..."),
            (
                "(assert (= (select " + "y" * 100_000 + " 0) 1.0))\n(check-sat)\n",
                f"select from {'y' * 40!r}..., which is not a declared array",
            ),
        ],
        ids=["command", "pin"],
    )
    def test_a_huge_symbol_is_quoted_briefly(self, tmp_path, capsys, text, message):
        p = tmp_path / "q.smt2"
        p.write_text(text)
        assert shim.main([str(p)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{message}\n")
        assert len(err.encode()) < 1024

    def test_parse_error_reported(self, tmp_path, capsys):
        p = tmp_path / "q.smt2"
        p.write_text("(assert (= 1 1)\n")
        assert shim.main([str(p)]) == 1
        assert "unbalanced" in capsys.readouterr().err

    def test_recursion_error_message(self, tmp_path, capsys, monkeypatch):
        def boom(_):
            raise RecursionError()

        monkeypatch.setattr(shim, "run_script", boom)
        p = tmp_path / "q.smt2"
        p.write_text("(check-sat)\n")
        assert shim.main([str(p)]) == 1
        assert "max. recursion depth exceeded" in capsys.readouterr().err

    def test_memory_error_message(self, tmp_path, capsys, monkeypatch):
        def boom(_):
            raise MemoryError()

        monkeypatch.setattr(shim, "run_script", boom)
        p = tmp_path / "q.smt2"
        p.write_text("(check-sat)\n")
        assert shim.main([str(p)]) == 1
        assert "out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["(check-sat)\n", "(check-sat\n"], ids=["answer", "error"])
    def test_recursion_limit_is_restored(self, tmp_path, capsys, text):
        p = tmp_path / "q.smt2"
        p.write_text(text)
        limit = sys.getrecursionlimit()
        shim.main([str(p)])
        assert sys.getrecursionlimit() == limit

    def test_deep_evaluation_survives(self, tmp_path, capsys):
        # 5000-deep additions stay well within the recursion limit
        limit = sys.getrecursionlimit()
        try:
            expr = "1"
            for _ in range(5000):
                expr = f"(+ 1 {expr})"
            p = tmp_path / "deep.smt2"
            p.write_text(f"(assert (= {expr} 5001)) (check-sat)\n")
            assert shim.main([str(p)]) == 0
            assert capsys.readouterr().out == "sat\n"
        finally:
            sys.setrecursionlimit(limit)


def run_shim_process(tmp_path, text, timeout=120):
    """python -m tracecheck.shim on `text` in a fresh interpreter, within `timeout` seconds."""
    path = tmp_path / "deep.smt2"
    path.write_text(text)
    src = str(Path(shim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "tracecheck.shim", str(path)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestDeepScriptsInAFreshProcess:
    """Deep nesting must end in an answer or a message, never a crash."""

    def test_deep_select_index_under_a_real_quantifier(self, tmp_path):
        index = "0"
        for _ in range(20_000):
            index = f"(+ 0 {index})"
        text = (
            "(declare-const a (Array Int Real))\n"
            "(assert (= (select a 0) 1.0))\n"
            "(assert (exists ((x Real)) (and (and (<= 0.0 x) (<= x 1.0)) "
            f"(= (select a {index}) 1.0))))\n"
            "(check-sat)\n"
        )
        done = run_shim_process(tmp_path, text)
        assert (done.returncode, done.stdout) == (0, "sat\n"), done.stderr

    def test_a_deep_faulty_script_names_its_fault(self, tmp_path):
        expr = "zork"
        for _ in range(20_000):
            expr = f"(+ 1 {expr})"
        done = run_shim_process(tmp_path, f"(assert (= {expr} 1)) (check-sat)\n")
        assert (done.returncode, done.stdout) == (1, "")
        assert "unknown symbol 'zork'" in done.stderr

    def test_nesting_past_the_recursion_limit_is_reported(self, tmp_path):
        expr = "1"
        for _ in range(150_000):
            expr = f"(+ 1 {expr})"
        done = run_shim_process(tmp_path, f"(assert (= {expr} 150001)) (check-sat)\n")
        assert done.returncode == 1
        assert "max. recursion depth exceeded" in done.stderr


# --- end-to-end: translated scripts must land on the oracle's verdict ---

R1_GRID_MODE = "fixed"


class TestTranslatedScripts:
    """The scripts assert the negation, so satisfied means unsat.

    Expected statuses are hand-derived from the seven-record fixture
    (values 20.1, 22.2, 23.3, 20.4, 21.1, 3.2, 1.1 at times 0, 0.2, 0.9,
    1.8, 3.0, 4.9, 5.7; mode 0, 1, 0, 0, 3, 3, 3) and double-checked
    against the direct evaluator in test_semantics.
    """

    @pytest.mark.parametrize(
        "text,want",
        [
            # ang-rate at 3, 4, 5 is 20.4, 21.1, 3.2: never below 2.5
            ("exists σ0 in [3,5] such that (ang-rate @i σ0) < 2.5", "sat"),
            # widening to 6 reaches 1.1
            ("exists σ0 in [3,6] such that (ang-rate @i σ0) < 2.5", "unsat"),
            # only σ0 = 3 has mode 0 followed by mode 3; ang-rate drops
            # below 1.5 at τ0 = 3.9 (time 5.7, value 1.1)
            (
                "forall σ0 in [0,5] such that ((mode @i σ0) = 0 and "
                "(mode @i (σ0 + 1)) = 3) implies exists τ0 in [0,10] such that "
                "(ang-rate @t (τ0 + i2t(σ0))) < 1.5",
                "unsat",
            ),
            (
                "not (forall σ0 in [0,5] such that ((mode @i σ0) = 0 and "
                "(mode @i (σ0 + 1)) = 3) implies exists τ0 in [0,10] such that "
                "(ang-rate @t (τ0 + i2t(σ0))) < 1.5)",
                "sat",
            ),
            # reading at τ0 + 1.0 hits 23.3 (time 0.9) once τ0 = 0
            ("exists τ0 in [0.0, 4.0] such that (ang-rate @t (τ0 + 1.0)) > 23.0", "unsat"),
            # ι(2.5) = 3, so the read equals 20.4 on [1.8, 3.0)
            ("exists τ0 in [2.0, 3.0] such that (ang-rate @t τ0) = 20.4", "unsat"),
            # open interval just below the last record never reaches 1.1
            ("exists τ0 in (5.69, 5.7) such that (ang-rate @t τ0) < 2.0", "sat"),
            ("forall σ0 in [4,6] such that (mode @i σ0) = 3", "unsat"),
            ("forall σ0 in [0,6] such that (mode @i σ0) = 3", "sat"),
            # ι(2.5) on the variable-rate fixture is 3
            ("t2i(2.5) = 3", "unsat"),
            ("t2i(2.5) = 4", "sat"),
        ],
    )
    def test_variable_rate(self, fig_trace, text, want):
        f = parse(text, signature=tuple(fig_trace.signals))
        script = translate(fig_trace, f)
        assert run_script(script.text)[0] == want

    @pytest.mark.parametrize(
        "text,want",
        [
            # the resampled grid steps by 0.2 from 0 to 5.6 (29 records);
            # the mode switch 0 -> 3 happens between grid indices 14 and 15
            # which lies outside [0,5], so the rule holds vacuously
            (
                "forall σ0 in [0,5] such that ((mode @i σ0) = 0 and "
                "(mode @i (σ0 + 1)) = 3) implies exists τ0 in [0,10] such that "
                "(ang-rate @t (τ0 + i2t(σ0))) < 1.5",
                "unsat",
            ),
            # floor(2.5 / 0.2) = 12
            ("t2i(2.5) = 12", "unsat"),
            ("t2i(2.5) = 13", "sat"),
            # linear interpolation keeps ang-rate at 2.9375 on grid index
            # 25 (time 5.0), so [15,25] never dips below 2.5 ...
            ("exists σ0 in [15,25] such that (ang-rate @i σ0) < 2.5", "sat"),
            # ... while index 26 (time 5.2) reads 2.4125
            ("exists σ0 in [15,26] such that (ang-rate @i σ0) < 2.5", "unsat"),
        ],
    )
    def test_fixed_rate_grid(self, fig_trace, text, want):
        grid = apply_a2(fig_trace, PreprocessConfig())
        f = parse(text, signature=tuple(grid.signals))
        script = translate(grid, f, mode=R1_GRID_MODE)
        assert script.iota == "fixed-rate sr=0.2"
        assert run_script(script.text)[0] == want

    def test_fixed_and_variable_iota_agree_on_grid(self, fig_trace):
        grid = apply_a2(fig_trace, PreprocessConfig())
        for text in ("t2i(3.14) = 15", "t2i(0.0) = 0", "t2i(5.6) = 28"):
            f = parse(text, signature=tuple(grid.signals))
            fixed = run_script(translate(grid, f, mode=R1_GRID_MODE).text)
            variable = run_script(translate(grid, f, mode="variable").text)
            assert fixed == variable == ["unsat"]  # unsat scripts print no model

    def test_unassigned_cells_stay_unknown(self, fig_trace):
        from tracecheck.trace import Record, Trace

        records = [
            Record(Fraction(0), {"x": Fraction(1)}),
            Record(Fraction(1), {}),
        ]
        holey = Trace(records, signals=("x",))
        f = parse("forall σ0 in [0,1] such that (x @i σ0) > 0.0", signature=("x",))
        script = translate(holey, f)
        assert run_script(script.text) == ["unknown"]  # nothing after unknown


# --- i2t on a fixed-rate trace: a term, against the pinned timestamp array ---

# thirds and sevenths are written (/ p q)
FIXED_STEPS = (Fraction(1, 3), Fraction(2, 7), Fraction(1, 10), Fraction(5))
FIXED_STARTS = (Fraction(0), Fraction(-2, 3), Fraction(7, 5), Fraction(100))


def fixed_rate_i2t_case(rng, sr, t0):
    """A 2-8 record trace t_j = t0 + j * sr and a property reading i2t under
    an index quantifier, compared directly or inside an @t read under a
    time quantifier."""
    n = rng.randint(2, 8)
    trace = Trace(
        records=tuple(Record(t0 + j * sr, {"x": Fraction(rng.randint(-2, 2))}) for j in range(n)),
        signals=("x",),
    )
    m = n - 1
    lo = rng.randint(0, m)
    head = f"{rng.choice(('exists', 'forall'))} σ0 in [{lo}, {rng.randint(lo, m)}] such that"
    op = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
    # den * t_j is an integer, so even a step of 1/3 compares exactly
    den = math.lcm(sr.denominator, t0.denominator)
    near = den * (t0 + rng.randint(0, m) * sr) + rng.choice((-1, 0, 0, 1))
    shift = rng.randint(-1, 1)
    shifted = ("σ0 - 1", "σ0", "σ0 + 1")[shift + 1]  # may leave [0, m]
    # a time window from a, the one-decimal time at or just after t0, and
    # τ0 - a, its offset into the window
    a = Fraction(math.ceil(t0 * 10), 10)
    width = Fraction(rng.choice((0, 3, 10, 25, 70)), 10)
    window = f"[{format_rational(a)}, {format_rational(a + width)}]"
    offset = f"τ0 - {format_rational(a)}" if a >= 0 else f"τ0 + {format_rational(-a)}"
    time_head = f"{rng.choice(('exists', 'forall'))} τ0 in {window} such that"
    value = rng.choice((str(rng.randint(-2, 2)), "(x @i σ0)"))
    body = rng.choice((
        f"{den} * i2t(σ0) {op} {near}",
        f"{den} * i2t({shifted}) - {den} * i2t(σ0) {op} {den * shift * sr}",
        f"(x @t i2t(σ0)) {op} (x @i σ0)",
        f"{time_head} (x @t ({offset} + i2t(σ0))) {op} {value}",
        f"{time_head} τ0 {op} i2t(σ0)",
    ))
    return trace, parse(f"{head} ({body})", signature=trace.signals)


@pytest.mark.parametrize("sr", FIXED_STEPS, ids=format_rational)
@pytest.mark.parametrize("t0", FIXED_STARTS, ids=format_rational)
def test_fixed_rate_i2t_agrees_with_the_timestamp_array(sr, t0):
    # the fixed-rate i2t term must answer as the variable-rate route, which
    # reads the pinned timestamp array, and as a definitive direct verdict
    rng = Random(f"{sr} {t0}")
    decided = 0
    for _ in range(30):
        trace, f = fixed_rate_i2t_case(rng, sr, t0)
        assert trace.rate == Fixed(sr)
        verdict = check_direct(trace, f).verdict
        for negate in (True, False):
            fixed = translate(trace, f, mode="fixed", negate=negate).text
            variable = translate(trace, f, mode="variable", negate=negate).text
            assert "(to_real " in fixed and "(select t " not in fixed
            assert "(declare-const t " in variable
            answer = run_script(fixed)[0]
            assert answer == run_script(variable)[0], (str(f), negate)
            if verdict is not Verdict.INCONCLUSIVE:
                decided += 1
                assert answer == ("unsat" if (verdict is Verdict.SATISFIED) == negate else "sat"), f
    assert decided >= 40  # of 60; the rest read past the trace's span or index range


def test_settle_reads_i2t_through_to_real():
    # the time window's read is linear in τ0 only while to_real of the
    # bound σ0 classifies with slope 0; else the real quantifier is unknown
    text = settle_script(200)
    assert "(to_real " in text
    assert run_script(text) == ["unsat"]
