"""Trace model: loading, rate classification, iota lookups, serialization."""

import time
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from tracecheck.pipeline import StageError, read_trace
from tracecheck.trace import (
    DenominatorError,
    DomainError,
    Fixed,
    MAX_DIGITS,
    MAX_EXPONENT,
    PLAIN_DIGITS,
    Record,
    Trace,
    TraceError,
    TraceFormatError,
    Variable,
    format_rational,
    iota_fixed,
    iota_variable,
    load_trace,
    parse_rational,
    serialize_trace,
    value_at,
)

from conftest import FIG_CSV, make_fig_trace


class TestLoad:
    def test_fig_csv_loads_with_m_6(self):
        trace = load_trace(FIG_CSV)
        assert trace.last_index == 6
        assert set(trace.signals) == {"mode", "ang-rate"}
        assert trace.timestamps == tuple(
            Fraction(t) for t in ["0", "0.2", "0.9", "1.8", "3", "4.9", "5.7"]
        )
        assert isinstance(trace.rate, Variable)

    def test_header_only_is_empty_trace(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            load_trace("timestamp,a\n")

    def test_non_monotonic_reports_row(self):
        csv = "timestamp,a\n0,1\n0.2,1\n0.2,1\n"
        with pytest.raises(TraceFormatError, match="non-monotonic timestamp at row 3"):
            load_trace(csv)

    def test_non_monotonic_row_counts_blank_rows(self):
        # the row is the CSV's, blank rows included, not the record's ordinal
        csv = "timestamp,a\n0,1\n\n0.2,1\n , \n0.1,1\n"
        with pytest.raises(TraceFormatError, match="non-monotonic timestamp at row 5"):
            load_trace(csv)
        records = load_trace(csv.replace("0.1,1", "0.3,1")).records
        with pytest.raises(TraceFormatError, match="non-monotonic timestamp at row 3"):
            Trace(records=records[:2] + records[:1], signals=("a",))

    def test_malformed_cell_reports_row(self):
        with pytest.raises(TraceFormatError, match="row 2.*oops"):
            load_trace("timestamp,a\n0,1\n1,oops\n")

    def test_repeated_cells_keep_their_values(self):
        # a run of equal cells, the same text after a hole, after another
        # value and with padding, and a hole repeated
        trace = load_trace(
            "timestamp,a,b\n0,1.5,2\n1,1.5,\n2,,\n3,1.5,2\n4,7,3\n5,1.5,3\n6, 1.5,2\n"
        )
        a = [r.values.get("a") for r in trace.records]
        b = [r.values.get("b") for r in trace.records]
        half = Fraction(3, 2)
        assert a == [half, half, None, half, 7, half, half]
        assert b == [2, None, None, 2, 3, 3, 2]

    def test_malformed_cell_after_a_run_reports_its_own_row(self):
        with pytest.raises(TraceFormatError, match="row 4: malformed value 'x1' for signal 'a'"):
            load_trace("timestamp,a\n0,1\n1,1\n2,\n3,x1\n4,x1\n")
        with pytest.raises(TraceFormatError, match="row 3: malformed value 'x' for signal 'b'"):
            load_trace("timestamp,a,b\n0,1,2\n1,1,2\n2,1,x\n")

    def test_index_column_mismatch(self):
        with pytest.raises(TraceFormatError, match="row 2.*index"):
            load_trace("timestamp,index,a\n0,0,1\n1,3,1\n")

    @pytest.mark.parametrize("cell", ["\u0661", "0_1", "\uff11"])
    def test_index_column_takes_ascii_digits_only(self, cell):
        with pytest.raises(TraceFormatError, match="row 2: malformed index"):
            load_trace(f"timestamp,index,a\n0,0,1\n1,{cell},1\n")

    def test_index_column_accepted_when_consistent(self):
        trace = load_trace("timestamp,index,a\n0,0,1\n1,1,2\n")
        assert [r.values["a"] for r in trace.records] == [1, 2]

    def test_timestamp_must_be_first_column(self):
        with pytest.raises(TraceFormatError, match="timestamp"):
            load_trace("a,timestamp\n1,0\n")

    def test_empty_cells_are_unassigned(self):
        trace = load_trace("timestamp,a,b\n0,1,\n1,,2\n")
        assert trace.records[0].values.keys() == {"a"}
        assert trace.records[1].values.keys() == {"b"}

    @pytest.mark.parametrize(
        "cell",
        ["inf", "-Infinity", "nan", "sNaN", "1/0", "1e-99999999", "1e99999999",
         # only ASCII digits, and no `_` between them
         "\u0661", "\u0662.\u0665", "\u0661/\u0663", "1_0", "1_0.5", "1/1_0", "1e1_0",
         "\uff11", "\u00b2"],
    )
    def test_unusable_number_is_a_format_error(self, cell):
        with pytest.raises(TraceFormatError, match="row 2: malformed value"):
            load_trace(f"timestamp,a\n0,1\n1,{cell}\n")
        with pytest.raises(TraceFormatError, match="row 1: malformed timestamp"):
            load_trace(f"timestamp,a\n{cell},1\n")

    def test_a_field_past_the_csv_limit_is_a_format_error(self):
        with pytest.raises(TraceFormatError, match="line 2: field larger than field limit"):
            load_trace("timestamp,a\n0," + "9" * 200_000 + "\n")

    def test_messages_cut_the_cells_they_quote(self):
        with pytest.raises(TraceFormatError) as e:
            load_trace("timestamp,a\n0,1\n1," + "x" * 100_000 + "\n")
        assert str(e.value) == f"row 2: malformed value {'x' * 40!r}... for signal 'a'"

    @given(
        st.one_of(
            st.text(max_size=30),
            st.from_regex(
                r"[-+]?(inf|Infinity|nan|sNaN|\d{1,4}(\.\d{1,4})?([eE][-+]?\d{1,9})?|\d+/\d+)",
                fullmatch=True,
            ),
        )
    )
    def test_any_cell_loads_or_raises_trace_error(self, cell):
        quoted = '"' + cell.replace('"', '""') + '"'
        text = f"timestamp,a\n0,{quoted}\n{quoted},1\n"
        try:
            trace = load_trace(text)
        except TraceError:
            return
        assert isinstance(trace, Trace)


class TestClassifyRate:
    def test_fig_timestamps_are_variable(self, fig_trace):
        assert fig_trace.rate == Variable()

    def test_constant_gaps_fixed(self):
        trace = load_trace("timestamp,a\n0,1\n0.5,1\n1.0,1\n1.5,1\n")
        assert trace.rate == Fixed(Fraction(1, 2))

    def test_gaps_must_be_exact(self):
        # the fixed-rate index map is floor((t - t0) / sr): a gap off by
        # any amount would move some reading to the wrong record
        sr = Fraction(1, 2)
        for jitter, rate in (
            (Fraction(0), Fixed(sr)),
            (Fraction(1, 10**20), Variable()),
            (Fraction(-1, 10**20), Variable()),
        ):
            trace = load_trace(
                f"timestamp,a\n0,1\n0.5,1\n{format_rational(2 * sr + jitter)},1\n"
            )
            assert trace.rate == rate
        assert load_trace("timestamp,x\n0,0\n0.1,1\n0.1999999999,2\n").rate == Variable()

    def test_single_record_variable_by_convention(self):
        trace = load_trace("timestamp,a\n1.0,2\n")
        assert trace.rate == Variable()


class TestIota:
    def test_worked_example_2_5(self, fig_trace):
        assert iota_variable(fig_trace, Fraction("2.5")) == 3

    def test_first_timestamp(self, fig_trace):
        assert iota_variable(fig_trace, 0) == 0

    def test_last_timestamp(self, fig_trace):
        assert iota_variable(fig_trace, Fraction("5.7")) == 6

    def test_bracket_sweep(self, fig_trace):
        # For every j and every t in [t_j, t_{j+1}), iota gives j.
        ts = fig_trace.timestamps
        for j in range(len(ts) - 1):
            assert iota_variable(fig_trace, ts[j]) == j
            mid = (ts[j] + ts[j + 1]) / 2
            assert iota_variable(fig_trace, mid) == j
        assert iota_variable(fig_trace, ts[-1]) == len(ts) - 1

    def test_out_of_range_rejected(self, fig_trace):
        with pytest.raises(DomainError):
            iota_variable(fig_trace, Fraction("-0.1"))
        with pytest.raises(DomainError):
            iota_variable(fig_trace, Fraction("5.71"))

    def test_single_record_only_t0(self):
        trace = load_trace("timestamp,a\n1.0,2\n")
        assert iota_variable(trace, 1) == 0
        with pytest.raises(DomainError):
            iota_variable(trace, Fraction("1.1"))

    def test_iota_fixed_examples(self):
        assert iota_fixed(Fraction("0.5"), Fraction("1.3")) == 2
        assert iota_fixed(Fraction("0.5"), Fraction("1.0")) == 2
        assert iota_fixed(Fraction("2.0"), 0) == 0

    def test_iota_fixed_rejects_negative(self):
        with pytest.raises(DomainError):
            iota_fixed(Fraction("0.5"), Fraction("-0.1"))

    @given(st.integers(0, 40), st.integers(1, 9))
    def test_fixed_agrees_with_variable_on_zero_origin_grid(self, steps, srq):
        # On a Fixed(sr) trace starting at 0 the two lookups coincide.
        sr = Fraction(srq, 4)
        n = steps + 2
        trace = Trace(
            records=tuple(
                Record(timestamp=j * sr, values={"a": Fraction(0)})
                for j in range(n)
            ),
            signals=("a",),
        )
        assert trace.rate == Fixed(sr)
        for j in range(n - 1):
            for t in (j * sr, j * sr + sr / 3):
                assert iota_variable(trace, t) == iota_fixed(sr, t)
        assert iota_variable(trace, trace.tm) == iota_fixed(sr, trace.tm)

    @given(st.integers(0, 40), st.integers(1, 9), st.integers(-20, 20))
    def test_fixed_agrees_with_variable_on_a_shifted_grid(self, steps, srq, t0q):
        sr, t0 = Fraction(srq, 4), Fraction(t0q, 10)
        trace = Trace(
            records=tuple(
                Record(timestamp=t0 + j * sr, values={"a": Fraction(0)})
                for j in range(steps + 2)
            ),
            signals=("a",),
        )
        for t in trace.timestamps + tuple(ts + sr / 3 for ts in trace.timestamps[:-1]):
            assert iota_variable(trace, t) == iota_fixed(sr, t, t0)
        with pytest.raises(DomainError):
            iota_fixed(sr, t0 - sr / 3, t0)

    def test_iota_fixed_hits_index_on_exact_grid(self):
        sr = Fraction("0.25")
        for j in range(10):
            assert iota_fixed(sr, j * sr) == j


class TestValueAt:
    def test_paper_values(self, fig_trace):
        assert value_at(fig_trace, "mode", 4) == 3
        assert value_at(fig_trace, "ang-rate", 3) == Fraction("20.4")
        assert value_at(fig_trace, "ang-rate", 5) == Fraction("3.2")

    def test_out_of_range(self, fig_trace):
        with pytest.raises(DomainError, match="out of range"):
            value_at(fig_trace, "mode", 7)

    def test_unassigned(self):
        trace = load_trace("timestamp,a,b\n0,1,\n1,2,3\n")
        with pytest.raises(DomainError, match="unassigned"):
            value_at(trace, "b", 0)


class TestInvariantsAndRoundtrip:
    def test_serialize_roundtrip_fig(self, fig_trace):
        text = serialize_trace(fig_trace)
        again = load_trace(text)
        assert again.records == fig_trace.records
        assert again.signals == fig_trace.signals

    def test_serialize_roundtrip_with_gaps_and_fractions(self):
        trace = Trace(
            records=(
                Record(timestamp=Fraction(0), values={"a": Fraction(1, 3)}),
                Record(timestamp=Fraction(1, 7), values={}),
                Record(timestamp=Fraction("2.5"), values={"a": Fraction(-4, 5)}),
            ),
            signals=("a",),
        )
        again = load_trace(serialize_trace(trace))
        assert [r.timestamp for r in again.records] == [r.timestamp for r in trace.records]
        assert [r.values for r in again.records] == [r.values for r in trace.records]

    @given(
        st.lists(
            st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
            min_size=1,
            max_size=20,
        )
    )
    def test_format_parse_rational_roundtrip(self, values):
        for v in values:
            assert parse_rational(format_rational(v)) == v

    @pytest.mark.parametrize(
        "value, text",
        [
            (0, "0"), (7, "7"), (-7, "-7"), (Fraction(12), "12"), (Fraction(-3), "-3"),
            (Fraction(1, 2), "0.5"), (Fraction(-1, 2), "-0.5"), (Fraction(5, 4), "1.25"),
            (Fraction(1, 5), "0.2"), (Fraction(-3, 25), "-0.12"), (Fraction(7, 1000), "0.007"),
            (Fraction(-1, 80), "-0.0125"), (Fraction(1, 1024), "0.0009765625"),
            (Fraction(3, 3125), "0.00096"), (Fraction(123456789, 100), "1234567.89"),
            (Fraction(1, 3), "1/3"), (Fraction(-2, 7), "-2/7"), (Fraction(1, 6), "1/6"),
            (Fraction(5, 12), "5/12"), (Fraction(7, 30), "7/30"), (Fraction(-11, 15), "-11/15"),
        ],
    )
    def test_format_rational_table(self, value, text):
        assert format_rational(value) == text

    def test_format_rational_roundtrip_on_seeded_rationals(self):
        rng = Random(0)
        for _ in range(2000):
            den = 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 30) * rng.choice((1, 1, 3, 7, 9, 11))
            value = Fraction(rng.randint(-(10**15), 10**15), den)
            text = format_rational(value)
            assert parse_rational(text) == value
            rest = value.denominator
            for p in (2, 5):
                while rest % p == 0:
                    rest //= p
            assert ("/" in text) == (rest != 1), (value, text)

    def test_parse_rational_forms(self):
        assert parse_rational("0.2") == Fraction(1, 5)
        assert parse_rational("1e-3") == Fraction(1, 1000)
        assert parse_rational("-2.5E2") == -250
        assert parse_rational("3/7") == Fraction(3, 7)
        with pytest.raises(ValueError):
            parse_rational("abc")

    @given(st.from_regex(r"-?[0-9]{1,16}(\.[0-9]{1,14})?", fullmatch=True))
    def test_plain_decimals_read_as_the_decimal_path_does(self, text):
        assert parse_rational(text) == Fraction(Decimal(text))

    @pytest.mark.parametrize(
        "text",
        ["007", "-0.0", "0.000", "-00.50", "1" * PLAIN_DIGITS, "-" + "9" * (PLAIN_DIGITS - 1),
         "0." + "0" * (PLAIN_DIGITS - 3) + "1", "1" * (PLAIN_DIGITS + 1),
         "0." + "0" * (PLAIN_DIGITS - 2) + "1"],
    )
    def test_plain_decimals_at_the_length_edge(self, text):
        assert parse_rational(text) == Fraction(Decimal(text))

    def test_other_forms_keep_the_decimal_path(self):
        got = [parse_rational(t) for t in ("1e3", "1/3", ".5", "5.", "+5", " 2.5 ")]
        assert got == [1000, Fraction(1, 3), Fraction(1, 2), 5, 5, Fraction(5, 2)]

    def test_parse_rational_rejects_non_finite_and_extreme_text(self):
        for text in ("inf", "-Infinity", "nan", "sNaN", "1/0", "1e-1001", "1e1001",
                     "1" * 1001, "0." + "0" * 1000 + "1"):
            with pytest.raises(ValueError, match="not a number"):
                parse_rational(text)
        assert parse_rational("1e-1000") == Fraction(1, 10**1000)

    def test_make_fig_trace_matches_csv_load(self, fig_trace):
        assert load_trace(FIG_CSV).records == make_fig_trace().records == fig_trace.records


@st.composite
def timestamp_columns(draw):
    """Strictly increasing rationals and a CSV cell for each: plain decimals
    with leading and trailing zeros, exponent forms and p/q cells, from a
    negative, zero or positive t0, on an equal-gap grid or not."""
    t0 = Fraction(draw(st.integers(-500, 500)), draw(st.sampled_from([1, 4, 10, 1000, 3, 7])))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        gap = Fraction(draw(st.integers(1, 40)), draw(st.sampled_from([1, 10, 100, 8, 3, 12])))
        times = [t0 + j * gap for j in range(n)]
    else:
        gaps = st.builds(
            Fraction, st.integers(1, 999), st.sampled_from([1, 10, 100, 10**4, 2, 6, 7, 125])
        )
        times = [t0]
        for gap in draw(st.lists(gaps, min_size=n - 1, max_size=n - 1)):
            times.append(times[-1] + gap)
    cells = []
    for t in times:
        form = draw(st.sampled_from(["plain", "exponent", "ratio"]))
        text = format_rational(t)
        if form == "ratio" or "/" in text:
            k = draw(st.integers(1, 3))
            text = f"{t.numerator * k}/{t.denominator * k}"
        else:
            sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
            whole, _, frac = body.partition(".")
            frac += "0" * draw(st.integers(0, 3))
            whole = "0" * draw(st.integers(0, 2)) + whole
            if form == "exponent":  # the digits as an integer mantissa, or with a point
                zeros = "0" * draw(st.integers(0, 2))
                text = draw(st.sampled_from([
                    f"{sign}{whole}{frac}{zeros}E-{len(frac) + len(zeros)}",
                    f"{sign}{whole}.{frac}{zeros}e0" if frac else f"{sign}{whole}e+0",
                ]))
            else:
                text = f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
        cells.append(text)
    return times, cells


def fraction_rate(times):
    gaps = {b - a for a, b in zip(times, times[1:])}
    return Fixed(gaps.pop()) if len(gaps) == 1 else Variable()


class TestTicks:
    """Timestamps as integer ticks over one denominator, against the
    Fraction definitions they replace."""

    @given(timestamp_columns())
    def test_ticks_agree_with_the_fraction_definitions(self, column):
        times, cells = column
        csv = "timestamp,x\n" + "".join(f"{c},{j % 3}\n" for j, c in enumerate(cells))
        trace = load_trace(csv)
        assert [trace.time(j) for j in range(len(trace))] == times
        assert times == [parse_rational(c) for c in cells]
        assert trace.timestamps == tuple(times)
        assert trace.rate == fraction_rate(times)
        probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
        for t in probes + [times[-1] - Fraction(1, 10**6)]:
            if t >= times[0]:
                assert iota_variable(trace, t) == bisect_right(times, t) - 1
        for t in (times[0] - Fraction(1, 10**6), times[-1] + Fraction(1, 10**6)):
            with pytest.raises(DomainError):
                iota_variable(trace, t)
        text = serialize_trace(trace)
        again = load_trace(text)
        assert again.records == trace.records
        assert serialize_trace(again) == text

    def test_the_denominator_is_a_power_of_ten_for_decimals(self):
        trace = load_trace("timestamp,x\n0,1\n0.5,1\n1.25e0,1\n")
        assert trace.den == 100 and trace.ticks == (0, 50, 125)
        trace = load_trace("timestamp,x\n-2,1\n0.5,1\n1.25e1,1\n3.125e1,1\n")
        assert trace.den == 100 and trace.ticks == (-200, 50, 1250, 3125)
        trace = load_trace("timestamp,x\n0.0100,1\n1/3,1\n")
        assert trace.den == 30000 and trace.ticks == (300, 10000)

    def test_distinct_prime_denominators_end_in_a_format_error(self, tmp_path):
        # timestamps k + 1/p_k over the first 2,000 primes: their common
        # denominator passes 10^(MAX_DIGITS + MAX_EXPONENT) within a few
        # hundred rows, and the loader stops there
        primes, p = [], 1
        while len(primes) < 2000:
            p += 1
            if all(p % q for q in primes if q * q <= p):
                primes.append(p)
        rows = "".join(f"{k * p + 1}/{p},1\n" for k, p in enumerate(primes))
        started = time.perf_counter()
        with pytest.raises(TraceFormatError) as info:
            load_trace("timestamp,x\n" + rows)
        assert time.perf_counter() - started < 5
        den, row = 1, 0
        while den <= 10 ** (MAX_DIGITS + MAX_EXPONENT):
            den *= primes[row]
            row += 1
        assert str(info.value) == (
            f"row {row}: the timestamps' common denominator would pass "
            f"10^{MAX_DIGITS + MAX_EXPONENT}"
        )
        path = tmp_path / "primes.csv"
        path.write_text("timestamp,x\n\n" + rows)  # a blank row counts
        with pytest.raises(StageError) as staged:
            read_trace(path)
        assert staged.value.stage == "trace-format"
        assert str(staged.value).startswith(f"{path}: row {row + 1}: ")

    def test_the_bound_admits_every_decimal_cell(self):
        # 1e-1000 is the smallest exponent and loads; 1e-1001 is malformed
        assert load_trace("timestamp,x\n1e-1000,1\n").time(0) == Fraction(1, 10**1000)
        with pytest.raises(TraceFormatError, match="row 1: malformed timestamp"):
            load_trace("timestamp,x\n1e-1001,1\n")
        # MAX_DIGITS digits at that exponent need den = 10^1999; a seventh
        # still fits under 10^2000, a third besides does not
        longest = "1." + "1" * (MAX_DIGITS - 1) + "e-1000"
        trace = load_trace(f"timestamp,x\n{longest},1\n1/7,1\n")
        assert trace.den == 7 * 10**1999
        with pytest.raises(TraceFormatError, match="row 3: the timestamps' common"):
            load_trace(f"timestamp,x\n{longest},1\n1/7,1\n2/3,1\n")
        with pytest.raises(TraceFormatError, match="row 1: the timestamps' common"):
            load_trace("timestamp,x\n1/" + "7" * (MAX_DIGITS + MAX_EXPONENT + 1) + ",1\n")

    def test_a_direct_trace_takes_the_bound_at_its_record(self):
        big = 10 ** (MAX_DIGITS + MAX_EXPONENT)
        records = [Record(Fraction(1, 3), {}), Record(Fraction(1, big + 1), {})]
        with pytest.raises(DenominatorError, match="row 2: "):
            Trace(records, ())
