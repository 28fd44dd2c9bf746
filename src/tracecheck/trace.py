"""In-memory model of execution traces.

A trace is an ordered sequence of records, each carrying a timestamp and a
partial assignment of signal values; a record's index is its position.
Timestamps are kept as exact rationals (fractions.Fraction) end to end: rate
classification, interpolation grids and SMT literal emission all depend on
exact comparisons, and binary floats would drift at bracket boundaries.  The
sample rate is derived from the timestamps the first time it is read, and
cached for every later reader (A2 resampling, the index-map choice).

Signals often hold still for long runs of records.  The CSV loader parses a
cell only when its text differs from the same column's previous cell, and
`held_renderer` renders a value only when it differs from the previous one;
both keep one cell per column, so memory does not grow with the trace.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import IO, Callable, Mapping, Optional, Union


class TraceError(Exception):
    """Base class for trace-model failures."""


class TraceFormatError(TraceError):
    """Malformed trace input (bad CSV, non-monotonic timestamps, ...)."""


class NonMonotonicError(TraceFormatError):
    """A timestamp not after its predecessor's, at record `position`;
    `row` is the CSV row it came from, or the record's ordinal."""

    def __init__(self, position: int, row: Optional[int] = None):
        super().__init__(f"non-monotonic timestamp at row {row or position + 1}")
        self.position = position


class DomainError(TraceError):
    """A lookup outside the trace's defined domain."""


# Bounds on decimal text, far beyond double range: an exponent such as
# 1e-99999999 would otherwise build a hundred-million-digit denominator.
MAX_EXPONENT = 1000
MAX_DIGITS = 1000

# A plain ASCII decimal such as a trace cell; at most PLAIN_DIGITS characters
# long, it is read without Decimal and stays far inside both bounds above.
_PLAIN_DECIMAL_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
PLAIN_DIGITS = 30


def parse_rational(text: str) -> Fraction:
    """Parse decimal, scientific or p/q text into an exact rational.

    Digits are ASCII only, with no `_` between them.  Non-finite values and
    decimals beyond MAX_DIGITS or MAX_EXPONENT raise ValueError.
    """
    text = text.strip()
    if len(text) <= PLAIN_DIGITS and _PLAIN_DECIMAL_RE.fullmatch(text):
        whole, _, frac = text.partition(".")
        return Fraction(int(whole + frac), 10 ** len(frac))
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("digits other than ASCII 0-9")
        if "/" in text:
            return Fraction(text)
        dec = Decimal(text)
        if (
            not dec.is_finite()
            or len(dec.as_tuple().digits) > MAX_DIGITS
            or abs(dec.adjusted()) > MAX_EXPONENT
        ):
            raise ValueError("non-finite, or too many digits, or too large an exponent")
        return Fraction(dec)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational for interchange.

    Values with a 2^a*5^b denominator have an exact decimal form and are
    emitted that way; anything else (e.g. thirds from linear interpolation
    over a 0.7 gap) is emitted as p/q, which parse_rational accepts back.
    A Fraction is used as it is; the factors of 2 are counted from the
    denominator's lowest set bit, and only the factors of 5 take a loop.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * (10**digits // den)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def held_renderer(render: Callable[[Fraction], str]) -> Callable[[Fraction], str]:
    """`render`, keeping the last value and its text: a run of equal values,
    such as a signal holding still, is rendered once."""
    last, text = None, ""

    def rendered(value: Fraction) -> str:
        nonlocal last, text
        if value is not last and value != last:
            last, text = value, render(value)
        return text

    return rendered


@dataclass(frozen=True)
class Fixed:
    """Fixed sample rate: consecutive gaps all equal sr exactly."""

    sr: Fraction


@dataclass(frozen=True)
class Variable:
    """Variable sample rate (also the convention for single-record traces)."""


Rate = Union[Fixed, Variable]


@dataclass(frozen=True)
class Record:
    """One trace record: a timestamp and a partial value map."""

    timestamp: Fraction
    values: Mapping[str, Fraction]


@dataclass(frozen=True)
class Trace:
    records: tuple
    signals: tuple
    timestamps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = tuple(rec.timestamp for rec in self.records)
        if not ts:
            raise TraceFormatError("empty trace")
        for pos, (a, b) in enumerate(zip(ts, ts[1:]), start=1):
            if b <= a:
                raise NonMonotonicError(pos)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def last_index(self) -> int:
        """m: the highest record index."""
        return len(self.records) - 1

    @property
    def t0(self) -> Fraction:
        return self.timestamps[0]

    @property
    def tm(self) -> Fraction:
        return self.timestamps[-1]

    @property
    def span(self):
        return (self.t0, self.tm)

    @cached_property
    def rate(self) -> Rate:
        """Fixed(sr) iff every gap equals the first gap sr exactly: the
        fixed-rate index map floor((t - t0) / sr) is right only then.

        Traces with fewer than two records are Variable by convention.
        """
        ts = self.timestamps
        if len(ts) < 2:
            return Variable()
        sr = ts[1] - ts[0]
        if any(b - a != sr for a, b in zip(ts[1:], ts[2:])):
            return Variable()
        return Fixed(sr)


def iota_variable(trace: Trace, t: Fraction) -> int:
    """Index of the record with the highest timestamp not exceeding t.

    Defined only on the trace's span; out-of-range timestamps are a domain
    error rather than an invented extrapolation.
    """
    t = Fraction(t)
    ts = trace.timestamps
    if t < ts[0] or t > ts[-1]:
        raise DomainError(
            f"timestamp {format_rational(t)} outside trace span "
            f"[{format_rational(ts[0])}, {format_rational(ts[-1])}]"
        )
    return bisect_right(ts, t) - 1


def iota_fixed(sr: Fraction, t: Fraction, t0: Fraction = Fraction(0)) -> int:
    """floor((t - t0) / sr) for a fixed sample rate sr and first timestamp t0."""
    sr = Fraction(sr)
    t = Fraction(t)
    if sr <= 0:
        raise DomainError(f"sample rate must be positive, got {format_rational(sr)}")
    if t < t0:
        raise DomainError(
            f"timestamp {format_rational(t)} before the first one, {format_rational(t0)}"
        )
    return int((t - t0) / sr)  # int() of a non-negative Fraction truncates = floor


def value_at(trace: Trace, signal: str, j: int) -> Fraction:
    """pi[j].signal with range and assignment checks."""
    if j < 0 or j > trace.last_index:
        raise DomainError(f"index {j} out of range [0, {trace.last_index}]")
    rec = trace.records[j]
    try:
        return rec.values[signal]
    except KeyError:
        raise DomainError(
            f"signal {signal!r} unassigned at index {j} (preprocess the trace first)"
        ) from None


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def load_trace(source: Union[str, bytes, IO]) -> Trace:
    """Load a trace from CSV text, bytes, or a file object.

    Layout: first column `timestamp` (decimal seconds), an optional `index`
    column that must equal the row position, and one column per signal.
    Empty cells are unassigned.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("empty trace") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise TraceFormatError("first column must be 'timestamp'")
    index_col: Optional[int] = None
    signals = []
    signal_cols = []
    for col, name in enumerate(header[1:], start=1):
        if name == "index":
            if index_col is not None:
                raise TraceFormatError("duplicate 'index' column")
            index_col = col
            continue
        if not name:
            raise TraceFormatError(f"empty signal name in column {col + 1}")
        if name in signals:
            raise TraceFormatError(f"duplicate signal column {name!r}")
        signals.append(name)
        signal_cols.append((col, name))

    # Per signal column, the previous row's cell text and its value (None for
    # a hole): a run of equal cells is parsed once, in memory that does not
    # grow with the trace.
    last = [("", None)] * len(signal_cols)
    records = []
    rows = []  # each record's CSV row; blank rows are skipped
    for row_num, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise TraceFormatError(
                f"row {row_num}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            t = parse_rational(row[0])
        except ValueError:
            raise TraceFormatError(
                f"row {row_num}: malformed timestamp {row[0]!r}"
            ) from None
        pos = len(records)
        if index_col is not None:
            cell = row[index_col].strip()
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                declared = int(cell)
            except ValueError:
                raise TraceFormatError(
                    f"row {row_num}: malformed index {cell!r}"
                ) from None
            if declared != pos:
                raise TraceFormatError(
                    f"row {row_num}: index column says {declared}, expected {pos}"
                )
        values = {}
        for k, (col, name) in enumerate(signal_cols):
            text, value = last[k]
            if row[col] != text:
                text = row[col]
                cell = text.strip()
                try:
                    value = parse_rational(cell) if cell else None
                except ValueError:
                    raise TraceFormatError(
                        f"row {row_num}: malformed value {cell!r} for signal {name!r}"
                    ) from None
                last[k] = (text, value)
            if value is not None:
                values[name] = value
        records.append(Record(timestamp=t, values=values))
        rows.append(row_num)
    try:
        return Trace(records=tuple(records), signals=tuple(signals))
    except NonMonotonicError as exc:  # Trace checks the order; name the CSV row
        raise NonMonotonicError(exc.position, rows[exc.position]) from None


def load_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return load_trace(fh)


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to CSV; exact inverse of load_trace for our output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["timestamp"] + list(trace.signals))
    columns = [(s, held_renderer(format_rational)) for s in trace.signals]
    for rec in trace.records:
        row = [format_rational(rec.timestamp)]
        for s, render in columns:
            row.append(render(rec.values[s]) if s in rec.values else "")
        writer.writerow(row)
    return out.getvalue()
