"""Script generation: encodings, folding, determinism, the expansion cap."""

import functools
import re
from fractions import Fraction

import pytest

from conftest import R1_TEXT, make_fig_trace
from genrand import pair

from tracecheck.preprocess import PreprocessConfig, apply_a2
from tracecheck.semantics import check_direct
from tracecheck.shim import (
    _PIN_RE,
    NUM,
    _Eval,
    _guard_ends,
    parse_script,
    run_script,
)
from tracecheck.smt import (
    DEFAULT_EXPANSION_CAP,
    ExpansionCapError,
    TranslateError,
    _iota_tree,
    _Tx,
    choose_iota_mode,
    smt_int,
    smt_real,
    translate,
)
from tracecheck.syntax import Exists, Forall, Lit, Sort, children, parse
from tracecheck.trace import Fixed, Record, Trace, format_rational, iota_variable, load_trace

F = Fraction


def parse_fig(text):
    return parse(text, {"ang-rate", "mode"})


@pytest.fixture
def grid_trace(fig_trace):
    return apply_a2(fig_trace, PreprocessConfig())


class TestLiterals:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (F("0.2"), "0.2"),
            (F(3), "3.0"),
            (F("-2.5"), "(- 2.5)"),
            (F(1, 3), "(/ 1.0 3.0)"),
            (F(-1, 3), "(- (/ 1.0 3.0))"),
            (F(0), "0.0"),
        ],
    )
    def test_real_literals_are_exact(self, value, expected):
        assert smt_real(value) == expected

    def test_int_literals(self):
        assert smt_int(F(5)) == "5"
        assert smt_int(-3) == "(- 3)"


class TestIotaModeChoice:
    def test_variable_rate_trace_gets_the_chain_encoding(self, fig_trace):
        assert choose_iota_mode(fig_trace) == "variable"

    def test_resampled_trace_gets_the_floor_encoding(self, grid_trace):
        assert choose_iota_mode(grid_trace) == "fixed"
        script = translate(grid_trace, parse("t2i(2.5) = 12", grid_trace.signals))
        assert script.iota == "fixed-rate sr=0.2"
        assert script.text.splitlines()[1] == "; iota mode: fixed-rate sr=0.2"

    def test_explicit_fixed_on_variable_trace_is_refused(self, fig_trace):
        with pytest.raises(TranslateError, match="needs a fixed-rate trace"):
            choose_iota_mode(fig_trace, "fixed")

    def test_translate_resolves_fixed_against_the_trace(self, fig_trace):
        # no caller can hand translate a rate the trace does not have: on the
        # variable-rate fig trace a fixed-rate floor would misread t2i(2.5)
        f = parse("t2i(2.5) = 3", fig_trace.signals)
        with pytest.raises(TranslateError, match="needs a fixed-rate trace"):
            translate(fig_trace, f, mode="fixed")

    def test_shifted_fixed_rate_trace_gets_the_floor_encoding(self):
        shifted = load_trace("timestamp,x\n1.0,0\n1.5,1\n2.0,2\n")
        assert choose_iota_mode(shifted) == choose_iota_mode(shifted, "fixed") == "fixed"
        for t in (F(1), F("1.2"), F("1.5"), F("1.99"), F(2)):
            # floor((t - 1.0) / 0.5): the shim reads t2i(t) = j as sat only at iota_variable's j
            for j in range(3):
                f = parse(f"t2i({format_rational(t)}) = {j}", shifted.signals)
                script = translate(shifted, f, negate=False)
                assert "(to_int (* 2.0 (- " in script.text
                want = "sat" if j == iota_variable(shifted, t) else "unsat"
                assert run_script(script.text)[0] == want, (t, j)

    def test_explicit_variable_always_works(self, grid_trace):
        assert choose_iota_mode(grid_trace, "variable") == "variable"

    def test_unknown_mode_name(self, fig_trace):
        with pytest.raises(TranslateError, match="unknown iota mode"):
            choose_iota_mode(fig_trace, "cubic")


class TestTraceAssertions:
    def test_every_cell_is_asserted(self, fig_trace):
        # i2t on a variable-rate trace reads the timestamp array, so t is pinned too
        script = translate(fig_trace, parse_fig("(ang-rate @t i2t(1)) > (mode @i 0)"))
        lines = script.text.splitlines()
        assert "(declare-const t (Array Int Real))" in lines
        for j, (t, ar, mode) in enumerate(
            [
                ("0.0", "20.1", "0.0"),
                ("0.2", "22.2", "1.0"),
                ("0.9", "23.3", "0.0"),
                ("1.8", "20.4", "0.0"),
                ("3.0", "21.1", "3.0"),
                ("4.9", "3.2", "3.0"),
                ("5.7", "1.1", "3.0"),
            ]
        ):
            assert f"(assert (= (select t {j}) {t}))" in lines
            assert f"(assert (= (select v_ang_rate {j}) {ar}))" in lines
            assert f"(assert (= (select v_mode {j}) {mode}))" in lines

    def test_only_the_arrays_the_property_reads_are_declared(self, fig_trace, grid_trace):
        # the variable-rate index map compares against literals and the
        # fixed-rate i2t is a term, so neither reads t
        for trace, text, arrays in (
            (fig_trace, "(mode @i 0) = 0", ["v_mode"]),
            (fig_trace, "(mode @t 2.5) = 0", ["v_mode"]),
            (fig_trace, "(ang-rate @t i2t(1)) > 0", ["t", "v_ang_rate"]),
            (grid_trace, "(ang-rate @t i2t(1)) > 0", ["v_ang_rate"]),
            (grid_trace, "i2t(1) > 0", []),
        ):
            script = translate(trace, parse(text, trace.signals)).text
            assert re.findall(r"^\(declare-const (\S+) ", script, re.M) == arrays, text
            pinned = re.findall(r"^\(assert \(= \(select (\S+) 0\) ", script, re.M)
            assert pinned == arrays, text
            assert ("(select t " in script) == ("t" in arrays), text

    def test_unassigned_cells_are_left_unconstrained(self):
        trace = load_trace("timestamp,x\n0,1\n1,\n2,3\n")
        script = translate(trace, parse("(x @i 0) = 1", {"x"}))
        assert "(assert (= (select v_x 0) 1.0))" in script.text
        assert "(assert (= (select v_x 2) 3.0))" in script.text
        assert script.text.count("(assert (= (select v_x") == 2

    def test_header_and_logic(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @i 0) = 0"))
        lines = script.text.splitlines()
        assert lines[0].startswith("; tracecheck ")
        assert "; iota mode: variable-rate" in lines
        assert "(set-logic AUFLIRA)" in lines
        assert lines[-2] == "(check-sat)"
        assert lines[-1] == "(get-model)"

    def test_signal_names_are_sanitized_and_mapped(self, fig_trace):
        script = translate(fig_trace, parse_fig("(ang-rate @i 0) > 0"))
        assert script.name_map == {"ang-rate": "v_ang_rate", "mode": "v_mode"}
        assert "; signal: ang-rate -> v_ang_rate" in script.text

    def test_colliding_sanitized_names_are_freshened(self):
        trace = load_trace("timestamp,a-b,a_b\n0,1,2\n1,3,4\n")
        script = translate(trace, parse("(a-b @i 0) = 1", {"a-b", "a_b"}))
        assert len(set(script.name_map.values())) == 2
        assert sorted(script.name_map.values()) == ["v_a_b", "v_a_b_2"]


class TestFormulaEncoding:
    def test_negation_wraps_the_property(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @i 0) = 0"))
        assert "(assert (not (= (select v_mode" in script.text

    def test_unnegated_translation_on_request(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @i 0) = 0"), negate=False)
        assert "(assert (= (select v_mode" in script.text

    def test_quantifier_guard_intersects_the_span(self, fig_trace):
        script = translate(
            fig_trace,
            parse_fig("exists τ0 in [0, 10] such that (ang-rate @t τ0) < 1.5"),
        )
        assert "(and (<= 0.0 tau0) (<= tau0 5.7))" in script.text

    def test_open_bounds_use_strict_comparisons(self, fig_trace):
        script = translate(
            fig_trace,
            parse_fig("exists τ0 in (0.5, 2.0) such that (ang-rate @t τ0) < 99"),
        )
        assert "(and (< 0.5 tau0) (< tau0 2.0))" in script.text

    def test_index_guard_intersects_the_index_range(self, fig_trace):
        script = translate(
            fig_trace, parse_fig("exists σ0 in [4, 11] such that (mode @i σ0) = 3")
        )
        assert "(and (<= 4 sigma0) (<= sigma0 6))" in script.text

    def test_empty_index_domain_folds_to_false(self, fig_trace):
        script = translate(
            fig_trace, parse_fig("exists σ0 in [7, 9] such that (mode @i σ0) = 3")
        )
        assert "(assert (not false))" in script.text

    def test_empty_time_domain_folds_to_false(self, fig_trace):
        script = translate(
            fig_trace,
            parse_fig("exists τ0 in [6.0, 9.0] such that (ang-rate @t τ0) < 1"),
        )
        assert "(assert (not false))" in script.text

    @pytest.mark.parametrize(
        "text, assertion",
        [
            (
                "(mode @i 0) = 0 and (mode @i 1) = 1",
                "(assert (and (= (select v_mode (let ((x1 0)) (ite (< x1 0) 0 (ite (> x1 6) 6 x1)))) 0.0) "
                "(= (select v_mode (let ((x2 1)) (ite (< x2 0) 0 (ite (> x2 6) 6 x2)))) 1.0)))",
            ),
            (
                "not (1 < 2) or not (exists ρ0 such that ρ0 > 1)",
                "(assert (or (not (< 1.0 2.0)) (not (exists ((rho0 Real)) (> rho0 1.0)))))",
            ),
            ("forall ρ0 such that ρ0 > 1", "(assert (not (exists ((rho0 Real)) (not (> rho0 1.0)))))"),
            ("forall σ0 in [7, 9] such that (mode @i σ0) = 3", "(assert (not false))"),
            (
                "forall τ0 in [1.0, 2.0] such that (mode @t τ0) < 3 implies (ang-rate @t τ0) > 0",
                "(assert (not (exists ((tau0 Real)) (and (and (<= 1.0 tau0) (<= tau0 2.0)) (not (or "
                "(not (< (select v_mode (let ((x1 tau0)) (ite (< x1 1.8) (ite (< x1 0.2) 0 (ite (< x1 0.9) 1 2)) "
                "(ite (< x1 4.9) (ite (< x1 3.0) 3 4) (ite (< x1 5.7) 5 6))))) 3.0)) "
                "(> (select v_ang_rate (let ((x2 tau0)) (ite (< x2 1.8) (ite (< x2 0.2) 0 (ite (< x2 0.9) 1 2)) "
                "(ite (< x2 4.9) (ite (< x2 3.0) 3 4) (ite (< x2 5.7) 5 6))))) 0.0)))))))",
            ),
        ],
    )
    def test_each_connective_is_written_as_smt_lib_has_it(self, fig_trace, text, assertion):
        """`and`, `or` and `not` are SMT-LIB's own; `implies` is (or (not p) q),
        and `forall` the negated exists of the negated body, guard first."""
        script = translate(fig_trace, parse_fig(text), negate=False)
        assert script.text.splitlines()[-3] == assertion

    def test_r1_and_the_settle_property_keep_their_forall_and_implies(self, fig_trace):
        r1 = translate(fig_trace, parse_fig(R1_TEXT)).text.splitlines()[-3]
        assert r1 == (
            "(assert (not (not (exists ((sigma0 Int)) (and (and (<= 0 sigma0) (<= sigma0 5)) (not (or (not "
            "(and (= (select v_mode (let ((x1 sigma0)) (ite (< x1 0) 0 (ite (> x1 6) 6 x1)))) 0.0) "
            "(= (select v_mode (let ((x2 (+ sigma0 1))) (ite (< x2 0) 0 (ite (> x2 6) 6 x2)))) 3.0))) "
            "(exists ((tau0 Real)) (and (and (<= 0.0 tau0) (<= tau0 5.7)) (< (select v_ang_rate "
            "(let ((x4 (+ tau0 (select t (let ((x3 sigma0)) (ite (< x3 0) 0 (ite (> x3 6) 6 x3))))))) "
            "(ite (< x4 1.8) (ite (< x4 0.2) 0 (ite (< x4 0.9) 1 2)) (ite (< x4 4.9) (ite (< x4 3.0) 3 4) "
            "(ite (< x4 5.7) 5 6))))) 1.5))))))))))"
        )
        f = parse(
            "forall sigma0 in [0, 4] such that ((mode @i sigma0) = 1) implies "
            "(exists tau0 in [0.0, 0.05] such that ((spd @t (tau0 + i2t(sigma0))) < 0.5))",
            ("mode", "spd"),
        )
        settle = Trace(
            records=tuple(
                Record(F(j, 100), {"mode": F(int(j % 3 == 0)), "spd": F(4 if j % 3 == 1 else 10, 10)})
                for j in range(6)
            ),
            signals=("mode", "spd"),
        )
        assert translate(settle, f).text.splitlines()[-3] == (
            "(assert (not (not (exists ((sigma0 Int)) (and (and (<= 0 sigma0) (<= sigma0 4)) (not (or (not "
            "(= (select v_mode (let ((x1 sigma0)) (ite (< x1 0) 0 (ite (> x1 5) 5 x1)))) 1.0)) "
            "(exists ((tau0 Real)) (and (and (<= 0.0 tau0) (<= tau0 0.05)) (< (select v_spd "
            "(let ((x3 (to_int (* 100.0 (+ tau0 (* 0.01 (to_real (let ((x2 sigma0)) "
            "(ite (< x2 0) 0 (ite (> x2 5) 5 x2)))))))))) (ite (< x3 0) 0 (ite (> x3 5) 5 x3)))) 0.5))))))))))"
        )

    def test_anything_but_a_formula_is_a_type_error(self, fig_trace):
        with pytest.raises(TypeError, match="not a formula"):
            translate(fig_trace, Lit(F(1)))

    def test_disequality_becomes_negated_equality(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @i 0) != 1"), negate=False)
        assert "(not (= (select v_mode" in script.text

    def test_real_quantifier_is_unguarded(self, fig_trace):
        script = translate(
            fig_trace, parse_fig("exists ρ0 such that ρ0 > 1"), negate=False
        )
        assert "(exists ((rho0 Real)) (> rho0 1.0))" in script.text

    def test_index_reads_are_clamped(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @i 3) = 0"), negate=False)
        assert "(ite (< x1 0) 0 (ite (> x1 6) 6 x1))" in script.text

    def test_variable_rate_chain_compares_against_every_timestamp(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @t 2.5) = 0"), negate=False)
        tree = (
            "(ite (< x1 1.8) (ite (< x1 0.2) 0 (ite (< x1 0.9) 1 2)) "
            "(ite (< x1 4.9) (ite (< x1 3.0) 3 4) (ite (< x1 5.7) 5 6)))"
        )
        assert tree in script.text
        for t in ("0.2", "0.9", "1.8", "3.0", "4.9", "5.7"):
            assert f"(< x1 {t})" in tree
        assert script.iota_ite_count == 6

    def test_fixed_rate_index_and_time_are_terms(self, grid_trace):
        """The @t read's index is one to_int term, floor(t * 5) for sr = 0.2,
        clamped into [0, m] through a let; i2t(j) is 0.2 * j, with the Int
        index made Real by to_real, and no timestamp array."""
        script = translate(
            grid_trace, parse(R1_TEXT, grid_trace.signals)
        )
        assert script.iota == "fixed-rate sr=0.2"
        assert script.floor_count == 1  # the @t read; @i reads need no floor
        assert "(let ((x4 (to_int (* 5.0 (+ tau0 (* 0.2 (to_real (let ((x3 sigma0)) " in script.text
        assert "(ite (< x4 0) 0 (ite (> x4 28) 28 x4))" in script.text
        assert "(select t " not in script.text

    def test_floor_binding_survives_negative_polarity(self, grid_trace):
        """The floor is a term, so no read binds an integer of its own, under
        either polarity: every Int binder is an index quantifier."""
        for text in (
            "forall τ0 in [0.0, 2.0] such that (mode @t τ0) < 9",
            "exists τ0 in [0.0, 2.0] such that not ((mode @t τ0) < 9)",
            R1_TEXT,
        ):
            f = parse(text, grid_trace.signals)
            for negate in (True, False):
                script = translate(grid_trace, f, negate=negate)
                assert script.floor_count >= 1
                assert "(exists ((k" not in script.text
                binders = re.findall(r"\(exists \(\((\S+) Int\)\)", script.text)
                assert binders == ["sigma0"] * ("σ0" in text)

    def test_t2i_value_is_the_raw_floor(self, grid_trace):
        script = translate(grid_trace, parse("t2i(2.5) = 12", grid_trace.signals))
        assert "(= (to_int (* 5.0 2.5)) 12)" in script.text


def variable_trace(times):
    records = tuple(Record(timestamp=t, values={"x": F(j)}) for j, t in enumerate(times))
    return Trace(records=records, signals=("x",))


def select_index(tree: str, t: Fraction) -> int:
    """Follow an emitted index map, (ite (< x lit) below above), down to its leaf."""
    node = parse_script(tree)[0]
    while isinstance(node, list):
        assert node[0] == "ite" and node[1][:2] == ["<", "x"]
        node = node[2] if t < F(node[1][2]) else node[3]
    return int(node)


def nesting_depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


class TestVariableRateIndexMap:
    @pytest.mark.parametrize("m", list(range(41)) + [63, 64, 100])
    def test_tree_agrees_with_iota_variable(self, m):
        # irregular gaps of 0.1 to 0.7, so no two traces share a shape
        times = [F(1)]
        for j in range(m):
            times.append(times[-1] + F((3 * j + m) % 7 + 1, 10))
        trace = variable_trace(times)
        ctx = _Tx(trace, "variable", {}, DEFAULT_EXPANSION_CAP, set())
        tree = _iota_tree("x", ctx)
        assert ctx.iota_ites == m
        probes = list(times) + [(a + b) / 2 for a, b in zip(times, times[1:])]
        for t in probes:
            assert select_index(tree, t) == iota_variable(trace, t)
        # outside the span the map clamps to the first and last index
        assert select_index(tree, times[0] - 1) == 0
        assert select_index(tree, times[-1]) == m
        assert select_index(tree, times[-1] + 1) == m

    def test_nesting_grows_with_log_of_trace_length(self):
        trace = variable_trace([F(j, 10) + F(j % 3, 1000) for j in range(4096)])
        f = parse("exists τ0 in [0, 400] such that (x @t τ0) > 0", {"x"})
        script = translate(trace, f, mode="variable")
        assert script.iota_ite_count == 4095
        assert nesting_depth(script.text) <= 40


class TestEmptyDomains:
    """Both routes clip a quantifier's interval the same way: the script
    says `false` exactly where the direct route finds no domain."""

    NO_DOMAIN = ("is empty", "exceeds the trace bounds", "lies outside the trace span")

    @pytest.mark.parametrize(
        "var, read, points",
        [
            ("σ0", "@i", [0, 2, 3, 6, 7, 9]),
            ("τ0", "@t", [F(-1), F(0), F("0.2"), F(3), F("5.7"), F(6), F(8)]),
        ],
    )
    def test_false_exactly_where_the_direct_route_has_no_domain(
        self, fig_trace, var, read, points
    ):
        seen = set()
        for a in points:
            for b in (p for p in points if p >= a):
                for lo in "[(":
                    for hi in "])":
                        text = f"{lo}{format_rational(a)}, {format_rational(b)}{hi}"
                        f = parse_fig(
                            f"exists {var} in {text} such that (ang-rate {read} {var}) > -1000"
                        )
                        script = translate(fig_trace, f, negate=False).text
                        reason = check_direct(fig_trace, f).reason
                        no_domain = any(words in reason for words in self.NO_DOMAIN)
                        assert ("(assert false)" in script) == no_domain, (text, reason)
                        seen.add(no_domain)
        assert seen == {True, False}


class TestDeterminismAndCounts:
    def test_byte_identical_across_runs(self, fig_trace):
        f = parse_fig(R1_TEXT)
        a = translate(fig_trace, f)
        b = translate(fig_trace, f)
        assert a.text == b.text

    def test_quantifier_count_matches_source_under_variable_rate(self, fig_trace):
        """The translator neither adds nor drops quantifiers, and the
        variable-rate encoding introduces no binders of its own."""

        def count_source_quantifiers(f):
            if isinstance(f, (Exists, Forall)):
                return 1 + count_source_quantifiers(f.body)
            if hasattr(f, "left"):
                return count_source_quantifiers(f.left) + count_source_quantifiers(
                    f.right
                )
            if hasattr(f, "sub"):
                return count_source_quantifiers(f.sub)
            return 0

        for text in [
            R1_TEXT,
            "exists σ0 in [3, 5] such that (ang-rate @i σ0) < 2.5",
            "forall τ0 in [0.0, 5.7] such that (ang-rate @t τ0) > 0 or "
            "(exists σ0 in [0, 6] such that (mode @i σ0) = 3)",
        ]:
            f = parse_fig(text)
            script = translate(fig_trace, f, mode="variable")
            assert script.quantifier_count == count_source_quantifiers(f)
            assert script.text.count("(exists (") == script.quantifier_count

    def test_fixed_rate_adds_exactly_the_floor_binders(self, grid_trace):
        """Each fixed-rate conversion is one to_int term and no binder."""
        f = parse(R1_TEXT, grid_trace.signals)
        script = translate(grid_trace, f)
        assert script.text.count("(exists (") == script.quantifier_count
        assert script.text.count("(to_int ") == script.floor_count == 1


class TestExpansionCap:
    def test_under_the_cap_is_fine(self, fig_trace):
        script = translate(fig_trace, parse_fig("(mode @t 2.5) = 0"), cap=6)
        assert script.iota_ite_count == 6

    def test_over_the_cap_is_refused(self, fig_trace):
        with pytest.raises(ExpansionCapError, match="resample"):
            translate(fig_trace, parse_fig("(mode @t 2.5) = 0"), cap=5)

    def test_cap_counts_every_chain(self, fig_trace):
        with pytest.raises(ExpansionCapError):
            translate(
                fig_trace,
                parse_fig("(mode @t 2.5) = 0 and (mode @t 3.5) = 3"),
                cap=11,
            )

    def test_default_cap_is_generous(self):
        assert DEFAULT_EXPANSION_CAP == 50_000


def check_fragment(text):
    """The shim's fragment check on every form of a script, which
    `run_script` makes as it reads each one: it raises ShimError for a form
    outside the fragment, or for a pin line, whose shape the regex that
    reads it fixes, on an undeclared array."""
    run_script(text)


class TestShimFragment:
    """Every script the translator emits stays inside the fragment the
    bundled evaluator reads; something new must fail here first."""

    @staticmethod
    def scripts(trace, f):
        modes = ["variable"]
        if isinstance(trace.rate, Fixed):
            modes.append("fixed")
        for mode in modes:
            for negate in (True, False):
                yield translate(trace, f, mode=mode, negate=negate).text

    @classmethod
    @functools.cache
    def genrand_scripts(cls):
        return [text for seed in range(100) for text in cls.scripts(*pair(seed)[:2])]

    def test_genrand_seeds(self):
        for text in self.genrand_scripts():
            check_fragment(text)

    def test_every_pin_line_takes_the_pin_reader(self):
        # the trace is pinned by every assertion before the property's; a
        # property that reads no array has none (genrand assigns every cell)
        for text in self.genrand_scripts():
            pins = [line for line in text.splitlines() if line.startswith("(assert ")][:-1]
            assert bool(pins) == ("(declare-const " in text), text
            for line in pins:
                assert _PIN_RE.fullmatch(line), line

    def test_every_declared_array_is_read(self):
        # a declaration or pin column the property never selects from is
        # dead weight in the script
        for text in self.genrand_scripts():
            forms = [form for form in parse_script(text) if type(form) is list]
            declared = [form[1] for form in forms if form[0] == "declare-const"]
            read, stack = set(), [[form for form in forms if form[0] == "assert"][-1][1]]
            while stack:
                node = stack.pop()
                if type(node) is list:
                    if node[:1] == ["select"]:
                        read.add(node[1])
                    stack += node
            assert set(declared) <= read, text

    def test_every_interval_quantifier_takes_the_guard_reader(self):
        # a guard the shim cannot read leaves an Int quantifier unknown and
        # a real one unbounded, so each exists must yield its clipped interval
        def windows(f, trace):  # per quantifier the translator emits, in order
            if isinstance(f, (Exists, Forall)):
                index = f.var_sort is Sort.INDEX
                if f.interval is None:
                    yield None
                elif (dom := f.interval.clip(*((0, trace.last_index) if index else trace.span))):
                    yield ("Int" if index else "Real", dom.lo, dom.hi)
                else:
                    return  # emitted as false, body and all
            for sub in children(f):
                yield from windows(sub, trace)

        checked = 0
        for seed in range(100):
            trace, f, _ = pair(seed)
            want = list(windows(f, trace))
            for text in self.scripts(trace, f):
                prop = [form for form in parse_script(text) if form[0] == "assert"][-1][1]
                got, stack = [], [prop]
                while stack:
                    node = stack.pop()
                    if type(node) is not list:
                        continue
                    if node[0] == "exists":
                        [[v, sort]], body = node[1], node[2]
                        ends = _guard_ends(v, body)
                        if ends:
                            ends = [_Eval().build(end, NUM, frozenset())({}) for end in ends]
                        got.append(ends and (sort, *ends))
                    stack += reversed(node[1:])
                assert len(got) == len(want), text
                for g, w in zip(got, want):
                    if w is not None:
                        assert g == w, text
                        checked += 1
        assert checked > 300  # 408 exists nodes in these scripts

    def test_the_fragment_has_no_unused_operator(self):
        seen = set()
        for text in self.genrand_scripts():
            stack = [form for form in parse_script(text) if type(form) is list]
            while stack:
                node = stack.pop()
                if node and type(node[0]) is str:
                    seen.add((node[0], len(node) - 1))
                stack += [x for x in node if type(x) is list]
        assert set(_Eval.FRAGMENT) <= seen

    def test_r1_and_the_settle_shape(self, fig_trace, grid_trace):
        for trace in (fig_trace, grid_trace):
            for text in self.scripts(trace, parse(R1_TEXT, trace.signals)):
                check_fragment(text)
        n = 60
        # On a grid starting at 5 s the fixed-rate map takes its shifted form.
        for t0, floor in ((0, "(to_int (* 100.0 (+ tau0"), (5, "(to_int (* 100.0 (- (+ tau0")):
            f = parse(
                f"forall sigma0 in [0, {n - 2}] such that ((mode @i sigma0) = 1) implies "
                f"(exists tau0 in [{t0}.0, {t0 + 1}.0] such that "
                "((spd @t (tau0 + i2t(sigma0))) < 0.5))",
                ("mode", "spd"),
            )
            settle = Trace(
                records=tuple(
                    Record(
                        t0 + F(j, 100),
                        {"mode": F(int(j % 20 == 0)), "spd": F(4 if j % 20 == 5 else 10, 10)},
                    )
                    for j in range(n)
                ),
                signals=("mode", "spd"),
            )
            texts = list(self.scripts(settle, f))
            assert sum(floor in text for text in texts) == 2
            for text in texts:
                check_fragment(text)
