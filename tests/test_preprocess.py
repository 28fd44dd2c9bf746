"""Preprocessing: filtering, A1/A2 strategies, exact interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracecheck.preprocess import (
    Interpolant,
    InterpolationKind,
    PreprocessConfig,
    PreprocessError,
    apply_a1,
    apply_a2,
    filter_unused,
    parse_keyvalues,
)
from tracecheck.pipeline import CheckOptions, apply_config_keys
from tracecheck.trace import Fixed, Variable, load_trace, value_at

CONST = InterpolationKind.CONSTANT
LINEAR = InterpolationKind.LINEAR
CUBIC = InterpolationKind.CUBIC


class TestInterpolate:
    def test_constant_holds_previous(self):
        assert Interpolant(CONST, [(0, 5), (2, 7)]).at(Fraction("1.9")) == 5

    def test_linear_proportional(self):
        assert Interpolant(LINEAR, [(0, 0), (4, 8)]).at(3) == 6

    def test_cubic_passes_through_knots(self):
        samples = [(0, 0), (1, 1), (2, 0), (3, 1)]
        for x, y in samples:
            assert Interpolant(CUBIC, samples).at(x) == y

    def test_boundary_clamps_to_nearest_sample(self):
        samples = [(1, 10), (2, 20)]
        for kind in InterpolationKind:
            assert Interpolant(kind, samples).at(0) == 10
            assert Interpolant(kind, samples).at(5) == 20

    def test_single_sample_is_constant_everywhere(self):
        for kind in InterpolationKind:
            assert Interpolant(kind, [(3, 42)]).at(0) == 42
            assert Interpolant(kind, [(3, 42)]).at(9) == 42

    def test_two_sample_cubic_degenerates_to_linear(self):
        assert Interpolant(CUBIC, [(0, 0), (4, 8)]).at(3) == 6

    def test_non_increasing_samples_rejected(self):
        with pytest.raises(PreprocessError):
            Interpolant(LINEAR, [(0, 1), (0, 2)]).at(0)

    @given(
        xs=st.lists(st.integers(0, 60), min_size=3, max_size=8, unique=True),
        ys=st.lists(st.integers(-20, 20), min_size=8, max_size=8),
        num=st.integers(0, 240),
    )
    @settings(max_examples=60, deadline=None)
    def test_cubic_matches_scipy_pchip(self, xs, ys, num):
        from scipy.interpolate import PchipInterpolator

        xs = sorted(xs)
        ys = ys[: len(xs)]
        f = Interpolant(CUBIC, list(zip(map(Fraction, xs), map(Fraction, ys))))
        ref = PchipInterpolator(xs, ys)
        t = Fraction(num, 4)
        t = max(Fraction(xs[0]), min(Fraction(xs[-1]), t))
        ours = float(f.at(t))
        theirs = float(ref(float(t)))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)

    @given(
        ys=st.lists(st.integers(0, 50), min_size=4, max_size=8),
        num=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_data_stays_monotone(self, ys, num):
        ys = sorted(ys)
        samples = [(Fraction(i), Fraction(y)) for i, y in enumerate(ys)]
        hi = Fraction(len(ys) - 1)
        a = Fraction(num, 100) * hi
        b = min(a + Fraction(1, 7), hi)
        for kind in InterpolationKind:
            f = Interpolant(kind, samples)
            assert f.at(a) <= f.at(b)


class TestFilterUnused:
    def test_rows_assigning_only_unused_dropped(self):
        trace = load_trace(
            "timestamp,a,b\n0,1,\n1,,9\n2,2,\n3,,8\n4,3,7\n"
        )
        out = filter_unused(trace, {"a"})
        assert out.last_index == 2
        assert out.signals == ("a",)
        assert [r.timestamp for r in out.records] == [0, 2, 4]
        assert [r.values["a"] for r in out.records] == [1, 2, 3]
        assert value_at(out, "a", 1) == 2

    def test_rate_is_derived_from_the_kept_records(self):
        trace = load_trace("timestamp,a,b\n0,1,\n0.5,,9\n1,2,\n1.7,,8\n2,3,\n")
        assert trace.rate == Variable()
        assert filter_unused(trace, {"a"}).rate == Fixed(Fraction(1))
        assert apply_a2(trace, PreprocessConfig()).rate == Fixed(Fraction(3, 10))

    def test_all_signals_used_is_identity(self, fig_trace):
        out = filter_unused(fig_trace, set(fig_trace.signals))
        assert out.records == fig_trace.records

    def test_nothing_to_drop_returns_the_input(self, fig_trace):
        assert filter_unused(fig_trace, set(fig_trace.signals)) is fig_trace

    def test_unused_signal_still_rebuilds(self, fig_trace):
        out = filter_unused(fig_trace, {"mode"})
        assert out is not fig_trace
        assert out.signals == ("mode",)
        assert [r.values for r in out.records] == [
            {"mode": r.values["mode"]} for r in fig_trace.records
        ]

    def test_all_hole_record_still_rebuilds(self):
        trace = load_trace("timestamp,a,b\n0,1,2\n1,,\n2,3,4\n")
        out = filter_unused(trace, {"a", "b"})
        assert out is not trace
        assert [r.timestamp for r in out.records] == [0, 2]
        assert out.signals == ("a", "b")

    def test_empty_result_is_error(self):
        trace = load_trace("timestamp,a,b\n0,,1\n1,,2\n")
        with pytest.raises(PreprocessError, match="no relevant records"):
            filter_unused(trace, {"a"})

    def test_unknown_used_signal_is_error(self, fig_trace):
        with pytest.raises(PreprocessError, match="not in trace"):
            filter_unused(fig_trace, {"mode", "altitude"})


class TestApplyA1:
    # Hand-derived expectations for the 6-row fixture (the spreadsheet oracle):
    # x assigned at t=1 (10) and t=4 (16).
    #   linear:   t=0 -> 10 (clamp), t=2 -> 10+6*(1/3)=12, t=3 -> 14, t=5 -> 16
    #   constant: t=0 -> 10 (clamp), t=2 -> 10, t=3 -> 10, t=5 -> 16
    SIX_ROWS = "timestamp,x,y\n0,,1\n1,10,2\n2,,3\n3,,4\n4,16,5\n5,,6\n"

    def test_linear_fill(self):
        trace = load_trace(self.SIX_ROWS)
        out = apply_a1(trace, PreprocessConfig(strategy="A1", default_kind=LINEAR))
        assert [r.values["x"] for r in out.records] == [10, 10, 12, 14, 16, 16]

    def test_constant_fill(self):
        trace = load_trace(self.SIX_ROWS)
        out = apply_a1(
            trace, PreprocessConfig(strategy="A1", per_signal={"x": CONST})
        )
        assert [r.values["x"] for r in out.records] == [10, 10, 10, 10, 16, 16]

    def test_simple_midpoint_examples(self):
        trace = load_trace("timestamp,s\n0,1.0\n1,\n2,3.0\n")
        linear = apply_a1(trace, PreprocessConfig(default_kind=LINEAR))
        assert linear.records[1].values["s"] == 2
        held = apply_a1(trace, PreprocessConfig(per_signal={"s": CONST}))
        assert held.records[1].values["s"] == 1

    def test_preserves_count_timestamps_and_assigned_values(self, fig_trace):
        out = apply_a1(fig_trace, PreprocessConfig())
        assert len(out) == len(fig_trace)
        assert out.timestamps == fig_trace.timestamps
        assert out.records == fig_trace.records  # fig trace is already total

    def test_never_assigned_signal_is_error(self):
        trace = load_trace("timestamp,a,b\n0,1,\n1,2,\n")
        with pytest.raises(PreprocessError, match="'b' has no assigned samples"):
            apply_a1(trace, PreprocessConfig())


class TestApplyA2:
    def test_fig_trace_sr_is_min_gap(self, fig_trace):
        out = apply_a2(fig_trace, PreprocessConfig())
        assert out.rate == Fixed(Fraction("0.2"))
        # grid 0, 0.2, ..., 5.6: the off-grid t_m=5.7 is dropped
        assert out.timestamps[0] == 0
        assert out.timestamps[-1] == Fraction("5.6")
        assert len(out) == 29

    def test_fig_trace_interpolated_value(self, fig_trace):
        out = apply_a2(fig_trace, PreprocessConfig(default_kind=LINEAR))
        # t=0.4 sits 2/7 of the way from (0.2, 22.2) to (0.9, 23.3)
        expected = Fraction("22.2") + (Fraction("23.3") - Fraction("22.2")) * Fraction(2, 7)
        assert out.records[2].values["ang-rate"] == expected

    def test_mode_hold_keeps_integers(self, fig_trace):
        out = apply_a2(fig_trace, PreprocessConfig(per_signal={"mode": CONST}))
        modes = [r.values["mode"] for r in out.records]
        assert set(modes) <= {0, 1, 3}
        assert modes[0] == 0 and modes[1] == 1 and modes[15] == 3

    def test_already_fixed_total_trace_is_identity(self):
        trace = load_trace("timestamp,a\n0,1\n0.5,2\n1.0,4\n1.5,0\n")
        out = apply_a2(trace, PreprocessConfig())
        assert out.records == trace.records
        assert out.rate == Fixed(Fraction(1, 2))

    def test_on_grid_hole_free_trace_is_returned_as_is(self):
        trace = load_trace("timestamp,a,b\n0.5,1,2\n1,2,3\n1.5,4,5\n2,0,1\n")
        assert apply_a2(trace, PreprocessConfig()) is trace

    def test_a_gap_one_step_off_still_resamples(self):
        # the rate classifier and A2 both want exact gaps
        tiny = Fraction(1, 10**13)
        trace = load_trace(
            f"timestamp,a\n0,1\n0.5,2\n{1 + tiny},4\n1.5,0\n"
        )
        assert trace.rate == Variable()
        out = apply_a2(trace, PreprocessConfig())
        assert out is not trace
        assert out.rate == Fixed(Fraction(1, 2) - tiny)
        assert out.timestamps[2] == 1 - 2 * tiny

    def test_an_empty_cell_still_resamples(self):
        trace = load_trace("timestamp,a,b\n0,1,2\n1,,3\n2,4,5\n")
        out = apply_a2(trace, PreprocessConfig(default_kind=LINEAR))
        assert out is not trace
        assert out.timestamps == trace.timestamps
        assert out.records[1].values == {"a": Fraction(5, 2), "b": 3}

    def test_two_record_trace_keeps_endpoints(self):
        trace = load_trace("timestamp,a\n0,0\n1,10\n")
        out = apply_a2(trace, PreprocessConfig(default_kind=LINEAR))
        assert [(r.timestamp, r.values["a"]) for r in out.records] == [(0, 0), (1, 10)]

    def test_single_record_rejected(self):
        trace = load_trace("timestamp,a\n0,1\n")
        with pytest.raises(PreprocessError, match="at least 2"):
            apply_a2(trace, PreprocessConfig())

    def test_degenerate_rate_rejected(self):
        trace = load_trace("timestamp,a\n0,1\n0.0000000000001,2\n1,3\n")
        with pytest.raises(PreprocessError, match="degenerate sample rate"):
            apply_a2(trace, PreprocessConfig())

    def test_degenerate_rate_rejected_on_grid(self):
        # Every gap is exactly 10^-10 s and no cell is empty, so the trace is
        # its own grid; the floor is still checked before it is returned.
        trace = load_trace("timestamp,a\n0,1\n0.0000000001,2\n0.0000000002,3\n")
        assert trace.rate == Fixed(Fraction(1, 10**10))
        with pytest.raises(PreprocessError, match="degenerate sample rate 0.0000000001 "):
            apply_a2(trace, PreprocessConfig())

    def test_oversized_grid_rejected_before_building(self):
        trace = load_trace("timestamp,a\n0,1\n0.000000001,2\n1000,3\n")
        with pytest.raises(PreprocessError, match="1000000000001 grid records.*strategy A1"):
            apply_a2(trace, PreprocessConfig())

    @given(
        gaps=st.lists(st.integers(1, 10), min_size=1, max_size=6),
        vals=st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_always_classifies_fixed(self, gaps, vals):
        rows = ["timestamp,a"]
        t = Fraction(0)
        rows.append(f"0,{vals[0]}")
        for i, g in enumerate(gaps):
            t += Fraction(g, 10)
            rows.append(f"{float(t)},{vals[i + 1]}")
        trace = load_trace("\n".join(rows) + "\n")
        out = apply_a2(trace, PreprocessConfig())
        assert out.rate == Fixed(min(Fraction(g, 10) for g in gaps))


class TestConfigFile:
    def test_parse_and_build(self):
        text = """
        # kinds per signal
        strategy = A1
        default = cubic
        mode = constant
        ang-rate = linear
        solver.cmd = z3 -smt2
        """
        keys = parse_keyvalues(text)
        cfg = apply_config_keys(CheckOptions(), keys).preprocess
        assert cfg.strategy == "A1"
        assert cfg.default_kind == CUBIC
        assert cfg.per_signal == {"mode": CONST, "ang-rate": LINEAR}
        assert keys["solver.cmd"] == "z3 -smt2"

    def test_bad_kind_rejected(self):
        with pytest.raises(PreprocessError, match="unknown interpolation kind"):
            apply_config_keys(CheckOptions(), {"default": "quadratic"})

    def test_bad_strategy_rejected(self):
        with pytest.raises(PreprocessError, match="strategy"):
            apply_config_keys(CheckOptions(), {"strategy": "A3"})

    def test_missing_equals_rejected(self):
        with pytest.raises(PreprocessError, match="line 1"):
            parse_keyvalues("just words")
