"""Direct-evaluation oracle: terms, three-valued logic, quantifiers."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import R1_TEXT, SIGMA_EXAMPLE_TEXT, make_fig_trace

from tracecheck.semantics import (
    DirectResult,
    EvalError,
    OutsideFragment,
    _all,
    _any,
    _ev,
    _not,
    _time_candidates,
    check_direct,
    eval_term,
    evaluate,
)
from tracecheck.smt import translate
from tracecheck.solver import Verdict, run_solver, verdict_of
from tracecheck.syntax import (
    And,
    Arith,
    AtIndex,
    AtTime,
    Exists,
    Forall,
    I2T,
    Implies,
    Interval,
    Lit,
    Not,
    Or,
    Rel,
    Sort,
    T2I,
    Var,
    parse,
)
from tracecheck.trace import Record, Trace, load_trace

SIG = frozenset({"ang-rate", "mode"})
F = Fraction


def parse_fig(text):
    return parse(text, SIG)


class TestEvalTerm:
    """Term denotations on the angular-rate trace."""

    def test_i2t_maps_index_to_timestamp(self, fig_trace):
        term = parse_fig("i2t(2) = 0.9").left
        assert eval_term(fig_trace, term) == F("0.9")

    def test_t2i_maps_timestamp_to_latest_index(self, fig_trace):
        term = parse_fig("t2i(3.3) = 4").left
        assert eval_term(fig_trace, term) == 4

    def test_at_index_reads_the_record(self, fig_trace):
        term = parse_fig("(ang-rate @i 5) = 0").left
        assert eval_term(fig_trace, term) == F("3.2")

    def test_at_time_reads_through_the_index_map(self, fig_trace):
        term = parse_fig("(ang-rate @t 2.5) = 0").left
        assert eval_term(fig_trace, term) == F("20.4")

    def test_arithmetic_is_exact(self, fig_trace):
        term = parse_fig("i2t(1) + 2 * i2t(2) - 0.1 = 0").left
        assert eval_term(fig_trace, term) == F("0.2") + 2 * F("0.9") - F("0.1")

    def test_index_out_of_range(self, fig_trace):
        term = parse_fig("i2t(7) = 0").left
        with pytest.raises(EvalError, match=r"out of range \[0, 6\]"):
            eval_term(fig_trace, term)

    def test_timestamp_out_of_span(self, fig_trace):
        term = parse_fig("t2i(6.0) = 0").left
        with pytest.raises(EvalError, match="outside trace span"):
            eval_term(fig_trace, term)

    def test_variables_come_from_the_environment(self, fig_trace):
        term = parse_fig("exists σ0 in [0, 6] such that i2t(σ0) = 0").body.left
        assert eval_term(fig_trace, term, {"σ0": F(4)}) == F(3)


class TestCheckDirect:
    def test_sigma_example_is_violated(self, fig_trace):
        """No index in [3,5] has ang-rate below 2.5 (values 20.4, 21.1, 3.2)."""
        res = check_direct(fig_trace, parse_fig(SIGMA_EXAMPLE_TEXT))
        assert res == DirectResult(Verdict.VIOLATED)

    def test_widened_sigma_example_is_satisfied(self, fig_trace):
        res = check_direct(
            fig_trace,
            parse_fig("exists σ0 in [3, 6] such that (ang-rate @i σ0) < 2.5"),
        )
        assert res.verdict is Verdict.SATISFIED

    def test_requirement_holds_on_the_fig_trace(self, fig_trace):
        """The only mode switch is at index 3->4; the settle witness is the
        very last record (read at exactly tau0 = 3.9, a shifted record
        timestamp, which is why candidate enumeration must include it)."""
        res = check_direct(fig_trace, parse_fig(R1_TEXT))
        assert res == DirectResult(Verdict.SATISFIED)

    def test_negated_requirement_is_violated(self, fig_trace):
        res = check_direct(fig_trace, Not(parse_fig(R1_TEXT)))
        assert res.verdict is Verdict.VIOLATED

    def test_settle_window_witness_at_breakpoint(self, fig_trace):
        """Direct form of the R1 consequent at the switch index."""
        res = check_direct(
            fig_trace,
            parse_fig(
                "exists τ0 in [0, 10] such that (ang-rate @t (τ0 + 1.8)) < 1.5"
            ),
        )
        assert res.verdict is Verdict.SATISFIED

    def test_equality_needs_the_crossing_candidate(self, fig_trace):
        res = check_direct(
            fig_trace, parse_fig("exists τ0 in [0.0, 5.7] such that τ0 = 2.5")
        )
        assert res.verdict is Verdict.SATISFIED

    def test_open_interval_excludes_its_endpoint(self, fig_trace):
        closed = parse_fig("exists τ0 in [5.7, 5.7] such that (ang-rate @t τ0) < 1.5")
        assert check_direct(fig_trace, closed).verdict is Verdict.SATISFIED
        half_open = parse_fig(
            "exists τ0 in [5.0, 5.7) such that (ang-rate @t τ0) < 1.5"
        )
        assert check_direct(fig_trace, half_open).verdict is Verdict.VIOLATED

    def test_index_interval_beyond_trace_is_inconclusive(self, fig_trace):
        res = check_direct(
            fig_trace, parse_fig("exists σ0 in [7, 9] such that (mode @i σ0) = 3")
        )
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "exceeds the trace bounds [0, 6]" in res.reason

    def test_interval_reasons_print_the_bounds_as_written(self, fig_trace):
        res = check_direct(
            fig_trace, parse_fig("exists τ0 in [6.0, 9.50] such that (mode @t τ0) = 3")
        )
        assert res.reason == "time interval [6.0, 9.50] lies outside the trace span [0, 5.7]"

    def test_index_quantifier_keeps_no_list_of_its_instances(self):
        n = 20_000
        trace = Trace.of_ticks(range(n), 10, [{"x": Fraction(1)}] * n, ("x",))
        f = parse(f"forall s in [0, {n}] such that (x @i s) >= 0", ("x",))
        tracemalloc.start()
        try:
            res = check_direct(trace, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verdict is Verdict.SATISFIED
        assert peak < 200_000  # a list of the 20,000 instances takes ~2 MB

    def test_index_interval_is_clipped_not_erred_when_overlapping(self, fig_trace):
        res = check_direct(
            fig_trace, parse_fig("forall σ0 in [5, 9] such that (mode @i σ0) = 3")
        )
        assert res.verdict is Verdict.SATISFIED

    def test_time_interval_outside_span_is_inconclusive(self, fig_trace):
        res = check_direct(
            fig_trace, parse_fig("exists τ0 in [6.0, 8.0] such that (ang-rate @t τ0) < 5")
        )
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "outside the trace span" in res.reason

    def test_real_quantifier_is_outside_the_fragment(self, fig_trace):
        res = check_direct(fig_trace, parse_fig("exists ρ0 such that ρ0 < 1"))
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "fragment" in res.reason

    @pytest.mark.parametrize(
        "text, reason",
        [
            # a conversion over tau0 in a read's argument
            (
                "exists τ0 in [0.0, 5.0] such that (ang-rate @t i2t(t2i(τ0))) < 99",
                "conversions stacked over the quantified variable 'τ0'",
            ),
            # the same in a side of a time relation
            (
                "exists τ0 in [0.0, 5.0] such that i2t(t2i(τ0)) < τ0 + 1",
                "conversions stacked over the quantified variable 'τ0'",
            ),
            # a deeper-bound variable in a read's argument
            (
                "exists τ0 in [0.0, 1.0] such that exists τ1 in [0.0, 1.0] "
                "such that (ang-rate @t (τ0 + τ1)) < 99",
                "argument mixes 'τ0' with the deeper-bound variable 'τ1'",
            ),
            # the same in a side of a time relation
            (
                "exists τ0 in [0.0, 1.0] such that exists τ1 in [0.0, 1.0] "
                "such that τ0 < τ1 + 1",
                "argument mixes 'τ0' with the deeper-bound variable 'τ1'",
            ),
            # refusals are checked before any read is evaluated, so the
            # failing read i2t(99) does not hide the deeper-bound variable
            (
                "exists τ0 in [0.0, 1.0] such that exists τ1 in [0.0, 1.0] "
                "such that (ang-rate @t (i2t(99) + τ0 + τ1)) < 99",
                "argument mixes 'τ0' with the deeper-bound variable 'τ1'",
            ),
        ],
    )
    def test_refusals_name_their_reason(self, fig_trace, text, reason):
        res = check_direct(fig_trace, parse_fig(text))
        assert res == DirectResult(
            Verdict.INCONCLUSIVE, f"outside the direct-evaluation fragment: {reason}"
        )

    def test_a_probe_whose_constant_read_fails_adds_no_points(self, fig_trace):
        """i2t(99) does not denote on a 7-record trace: its probe adds no
        breakpoints, and the true disjunct still decides."""
        good = "(ang-rate @t τ0) < 1.5"
        probed = parse_fig(
            f"exists τ0 in [0.0, 5.7] such that {good} or (ang-rate @t (τ0 + i2t(99))) < 0"
        )
        alone = parse_fig(f"exists τ0 in [0.0, 5.7] such that {good}")
        dom = Interval(F(0), False, F("5.7"), False, Sort.TIME)
        assert _time_candidates(fig_trace, dom, probed.body, "τ0", {}) == _time_candidates(
            fig_trace, dom, alone.body, "τ0", {}
        )
        assert check_direct(fig_trace, probed) == DirectResult(Verdict.SATISFIED)

    def test_scaled_time_variable_is_inside_the_fragment(self, fig_trace):
        res = check_direct(
            fig_trace,
            parse_fig(
                "exists τ0 in [0.0, 2.9] such that (ang-rate @t (2 * τ0)) < 1.5"
            ),
        )
        # 2*tau0 = 5.7 at tau0 = 2.85, inside the window
        assert res.verdict is Verdict.SATISFIED


class TestThreeValued:
    def test_true_disjunct_absorbs_a_failing_one(self):
        trace = load_trace("timestamp,x\n0,1\n1,\n2,3\n")
        f = parse("exists σ0 in [0, 2] such that (x @i σ0) = 3", {"x"})
        assert check_direct(trace, f).verdict is Verdict.SATISFIED

    def test_unassigned_read_without_a_decider_is_inconclusive(self):
        trace = load_trace("timestamp,x\n0,1\n1,\n2,3\n")
        f = parse("exists σ0 in [0, 2] such that (x @i σ0) = 99", {"x"})
        res = check_direct(trace, f)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "unassigned" in res.reason

    def test_false_conjunct_absorbs_a_failing_one(self):
        trace = load_trace("timestamp,x\n0,1\n1,\n2,3\n")
        f = parse("forall σ0 in [0, 2] such that (x @i σ0) = 1", {"x"})
        assert check_direct(trace, f).verdict is Verdict.VIOLATED

    def test_error_beyond_span_absorbed_by_witness(self, fig_trace):
        """Shifted reads past the last record fail for large tau0, but the
        witness earlier in the window already decides the disjunction."""
        f = parse_fig(
            "exists τ0 in [0, 10] such that (ang-rate @t (τ0 + 1.8)) < 1.5"
        )
        assert check_direct(fig_trace, f).verdict is Verdict.SATISFIED

    def test_implication_with_failing_consequent(self, fig_trace):
        f = parse_fig(
            "forall σ0 in [0, 5] such that "
            "(mode @i σ0) = 7 implies (ang-rate @i (σ0 + 99)) < 0"
        )
        # antecedent is false everywhere, so the broken consequent never runs
        assert check_direct(fig_trace, f).verdict is Verdict.SATISFIED

    def test_negation_flips_cleanly(self, fig_trace):
        f = parse_fig(SIGMA_EXAMPLE_TEXT)
        assert evaluate(fig_trace, f) is False
        assert evaluate(fig_trace, Not(f)) is True

    def test_negation_keeps_errors(self, fig_trace):
        f = parse_fig("exists σ0 in [7, 9] such that (mode @i σ0) = 3")
        with pytest.raises(EvalError):
            evaluate(fig_trace, Not(f))


# One atom per truth value on a three-record trace; each side errs in its own words.
TRUTH_ATOMS = {
    True: ("(x @i 0) = 1", "(x @i 1) = 2"),
    False: ("(x @i 0) = 2", "(x @i 1) = 1"),
    "error": ("(x @i 7) = 1", "(x @i 8) = 1"),
}


def two_sided(trace, f):
    """The connective's value with both sides evaluated before combining."""
    left, right = _ev(trace, f.left, {}), _ev(trace, f.right, {})
    if isinstance(f, And):
        return _all([left, right])
    if isinstance(f, Or):
        return _any([left, right])
    return _any([_not(left), right])


class TestConnectives:
    """Left-to-right connectives decide exactly as the two-sided combination."""

    @pytest.mark.parametrize("right", [True, False, "error"])
    @pytest.mark.parametrize("left", [True, False, "error"])
    @pytest.mark.parametrize("op", ["and", "or", "implies"])
    def test_truth_table(self, op, left, right):
        trace = load_trace("timestamp,x\n0,1\n1,2\n2,3\n")
        f = parse(f"({TRUTH_ATOMS[left][0]}) {op} ({TRUTH_ATOMS[right][1]})", {"x"})
        want = two_sided(trace, f)
        if isinstance(want, EvalError):
            want = DirectResult(Verdict.INCONCLUSIVE, str(want))
        else:
            want = DirectResult(Verdict.SATISFIED if want else Verdict.VIOLATED)
        assert check_direct(trace, f) == want
        if left == right == "error":  # the first error is the one reported
            assert "index 7" in want.reason

    @pytest.mark.parametrize(
        "right",
        [
            "(exists τ0 in [0.0, 1.0] such that exists τ1 in [0.0, 1.0] "
            "such that (ang-rate @t (τ0 + τ1)) < 99)",
            # an interval-less quantifier is refused only when it is reached
            "(exists r such that (ang-rate @i 0) < r)",
        ],
        ids=["stacked-conversions", "interval-less"],
    )
    @pytest.mark.parametrize(
        "left, op, verdict",
        [
            ("(ang-rate @i 0) > 100", "and", Verdict.VIOLATED),
            ("(ang-rate @i 0) < 100", "or", Verdict.SATISFIED),
            ("(ang-rate @i 0) > 100", "implies", Verdict.SATISFIED),
        ],
    )
    def test_decisive_left_skips_a_right_side_outside_the_fragment(
        self, fig_trace, tmp_path, left, op, verdict, right
    ):
        f = parse_fig(f"{left} {op} {right}")
        assert check_direct(fig_trace, f) == DirectResult(verdict)
        script = tmp_path / "q.smt2"
        script.write_text(translate(fig_trace, f).text)
        assert verdict_of(run_solver(str(script)))[0] is verdict
        # an undecisive left side still needs the right side, which is outside
        undecisive = parse_fig(f"not ({left}) {op} {right}")
        res = check_direct(fig_trace, undecisive)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "outside the direct-evaluation fragment" in res.reason


@st.composite
def windowed_probes(draw):
    """A variable-rate trace off zero, an affine probe a*tau0 + b and a window."""
    t0 = Fraction(draw(st.integers(-30, 30).filter(bool)), 10)
    gaps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    times = [t0]
    for g in gaps:
        times.append(times[-1] + Fraction(g, 10))
    trace = Trace(tuple(Record(t, {"x": Fraction(1)}) for t in times), ("x",))
    a = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 10)]))
    b = Fraction(draw(st.integers(-40, 40)), 10)
    # window ends sit on a timestamp's preimage or on the 0.05 grid
    ends = st.one_of(
        st.sampled_from([(t - b) / a for t in times]),
        st.integers(-150, 150).map(lambda k: Fraction(k, 20)),
    )
    lo, hi = sorted((draw(ends), draw(ends)))
    dom = Interval(lo, draw(st.booleans()), hi, draw(st.booleans()), Sort.TIME)
    return trace, a, b, dom


def full_scan_candidates(trace, a, b, dom):
    """Candidates from every timestamp's preimage, kept when inside the window."""
    inside = sorted(p for p in {(t - b) / a for t in trace.timestamps} if dom.lo < p < dom.hi)
    fence = [dom.lo] + inside + [dom.hi]
    candidates = ([] if dom.lo_open else [dom.lo]) + inside
    if not dom.hi_open and dom.hi != dom.lo:
        candidates.append(dom.hi)
    candidates += [(p + q) / 2 for p, q in zip(fence, fence[1:])]
    return sorted(set(candidates))


class TestWindowedBreakpoints:
    @settings(max_examples=200, deadline=None)
    @given(case=windowed_probes(), via_t2i=st.booleans())
    def test_bisected_window_equals_a_full_scan(self, case, via_t2i):
        trace, a, b, dom = case
        arg = Arith("+", Arith("*", Lit(a), Var("τ0", Sort.TIME)), Lit(b), Sort.TIME)
        read = T2I(arg) if via_t2i else AtTime("x", arg)
        probe = Rel(">", read, Lit(Fraction(0)))
        got = _time_candidates(trace, dom, probe, "τ0", {})
        assert got == full_scan_candidates(trace, a, b, dom)


DUALITY_POOL = [
    "forall σ0 in [0, 6] such that (mode @i σ0) <= 3",
    "forall σ0 in [2, 4] such that (ang-rate @i σ0) > 20",
    "forall τ0 in [0.0, 5.7] such that (ang-rate @t τ0) > 1.0",
    "forall τ0 in [0.2, 4.9] such that (mode @t τ0) = 0 or (mode @t τ0) > 0",
]


class TestDuality:
    @pytest.mark.parametrize("text", DUALITY_POOL)
    def test_forall_equals_not_exists_not(self, fig_trace, text):
        f = parse_fig(text)
        dual = Not(Exists(f.var, f.var_sort, f.interval, Not(f.body)))
        assert evaluate(fig_trace, f) == evaluate(fig_trace, dual)

    @pytest.mark.parametrize("text", DUALITY_POOL + [SIGMA_EXAMPLE_TEXT, R1_TEXT])
    def test_excluded_middle_when_defined(self, fig_trace, text):
        f = parse_fig(text)
        assert evaluate(fig_trace, f) != evaluate(fig_trace, Not(f))


# ---------------------------------------------------------------------------
# Differential check against a deliberately naive evaluator
# ---------------------------------------------------------------------------

def naive_term(trace, term, env):
    from tracecheck import syntax as sx

    if isinstance(term, sx.Lit):
        return term.value
    if isinstance(term, sx.Var):
        return env[term.name]
    if isinstance(term, sx.Arith):
        a = naive_term(trace, term.left, env)
        b = naive_term(trace, term.right, env)
        return a + b if term.op == "+" else a - b if term.op == "-" else a * b
    if isinstance(term, sx.I2T):
        j = int(naive_term(trace, term.arg, env))
        if not 0 <= j < len(trace.records):
            raise EvalError("naive: index range")
        return trace.timestamps[j]
    if isinstance(term, sx.T2I):
        t = naive_term(trace, term.arg, env)
        return Fraction(naive_iota(trace, t))
    if isinstance(term, sx.AtIndex):
        j = int(naive_term(trace, term.arg, env))
        if not 0 <= j < len(trace.records):
            raise EvalError("naive: index range")
        return trace.records[j].values[term.signal]
    if isinstance(term, sx.AtTime):
        t = naive_term(trace, term.arg, env)
        return trace.records[naive_iota(trace, t)].values[term.signal]
    raise TypeError(term)


def naive_iota(trace, t):
    if t < trace.timestamps[0] or t > trace.timestamps[-1]:
        raise EvalError("naive: time range")
    best = 0
    for j, tj in enumerate(trace.timestamps):
        if tj <= t:
            best = j
    return best


def naive_time_candidates(trace, iv):
    """Every record timestamp, every pairwise difference of timestamps
    shifted by every plausible tenth, the window bounds, and midpoints.
    Wasteful, but independent of the production breakpoint analysis."""
    base = set(trace.timestamps)
    for ta in trace.timestamps:
        for tb in trace.timestamps:
            base.add(ta - tb)
    shifted = set()
    for p in base:
        for k in range(-12, 13):
            shifted.add(p + Fraction(k, 10))
    lo = max(iv.lo, trace.timestamps[0])
    hi = min(iv.hi, trace.timestamps[-1])
    if lo > hi:
        raise EvalError("naive: empty window")
    inside = sorted(p for p in shifted if lo <= p <= hi)
    fence = [lo] + inside + [hi]
    out = set()
    for a, b in zip(fence, fence[1:]):
        out.add((a + b) / 2)
    for p in fence:
        if (p != lo or not iv.lo_open) and (p != hi or not iv.hi_open):
            out.add(p)
    return sorted(out)


def naive_eval(trace, f, env):
    from tracecheck import syntax as sx

    if isinstance(f, sx.Rel):
        try:
            a = naive_term(trace, f.left, env)
            b = naive_term(trace, f.right, env)
        except (EvalError, KeyError):
            return None
        return {
            "<": a < b, "<=": a <= b, "=": a == b,
            "!=": a != b, ">=": a >= b, ">": a > b,
        }[f.op]
    if isinstance(f, sx.Not):
        r = naive_eval(trace, f.sub, env)
        return None if r is None else not r
    if isinstance(f, (sx.And, sx.Or, sx.Implies)):
        a = naive_eval(trace, f.left, env)
        b = naive_eval(trace, f.right, env)
        if isinstance(f, sx.Implies):
            a = None if a is None else not a
        if isinstance(f, sx.And):
            if a is False or b is False:
                return False
            return None if (a is None or b is None) else True
        if a is True or b is True:
            return True
        return None if (a is None or b is None) else False
    if isinstance(f, (sx.Exists, sx.Forall)):
        if f.var_sort is sx.Sort.INDEX:
            lo = int(f.interval.lo) + (1 if f.interval.lo_open else 0)
            hi = int(f.interval.hi) - (1 if f.interval.hi_open else 0)
            values = [Fraction(j) for j in range(max(lo, 0), min(hi, len(trace.records) - 1) + 1)]
            if not values:
                return None
        else:
            try:
                values = naive_time_candidates(trace, f.interval)
            except EvalError:
                return None
            if not values:
                return None
        results = [naive_eval(trace, f.body, {**env, f.var: v}) for v in values]
        if isinstance(f, sx.Exists):
            if True in results:
                return True
            return None if None in results else False
        if False in results:
            return False
        return None if None in results else True
    raise TypeError(f)


def naive_verdict(trace, f):
    r = naive_eval(trace, f, {})
    if r is None:
        return Verdict.INCONCLUSIVE
    return Verdict.SATISFIED if r else Verdict.VIOLATED


DIFFERENTIAL_POOL = [
    "exists τ0 in [0.0, 9.9] such that (x @t τ0) > 1.1",
    "forall τ0 in [0.0, 9.9] such that (x @t τ0) <= 4.0",
    "exists σ0 in [0, 5] such that (x @i σ0) = 0.5 or (x @i σ0) < 0",
    "forall σ0 in [0, 3] such that (x @i σ0) >= -5.0 implies (x @t (i2t(σ0) + 0.1)) > -99",
    "exists τ0 in [0.1, 3.0] such that (x @t (τ0 + 0.2)) > 0 and not (x @t τ0) = 0",
    "exists σ0 in [0, 4] such that exists τ0 in [0.0, 2.0] such that (x @t (τ0 + i2t(σ0))) = (x @i σ0)",
    "forall τ0 in (0.0, 2.5) such that (x @t τ0) != 0.3",
    "exists τ0 in [0.0, 9.0] such that τ0 > 1.3 and (x @t (τ0 - 0.4)) <= 2.0",
]


@st.composite
def small_traces(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    times = [Fraction(0)]
    for g in gaps:
        times.append(times[-1] + Fraction(g, 10))
    vals = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    records = tuple(Record(t, {"x": Fraction(v, 10)}) for t, v in zip(times, vals))
    return Trace(records, ("x",))


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(trace=small_traces(), pick=st.integers(0, len(DIFFERENTIAL_POOL) - 1))
    def test_matches_naive_evaluator_on_small_traces(self, trace, pick):
        f = parse(DIFFERENTIAL_POOL[pick], {"x"})
        got = check_direct(trace, f).verdict
        want = naive_verdict(trace, f)
        assert got == want

    @pytest.mark.parametrize("text", DIFFERENTIAL_POOL)
    def test_matches_naive_evaluator_on_the_fig_trace(self, text):
        trace = make_fig_trace()
        renamed = text.replace("(x ", "(ang-rate ")
        f = parse(renamed, SIG)
        assert check_direct(trace, f).verdict == naive_verdict(trace, f)
