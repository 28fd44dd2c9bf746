"""In-memory model of execution traces.

A trace is an ordered sequence of records, each carrying a timestamp and a
partial assignment of signal values; a record's index is its position.
Timestamps are exact: a trace stores them as integer ticks over one positive
denominator, t_j = ticks[j] / den.  Rate classification, the index map,
interpolation grids and SMT literal emission all depend on exact
comparisons, and binary floats would drift at bracket boundaries; over one
denominator those comparisons are integer ones.  A CSV's decimal timestamps
set den to 10^e for the most fraction digits e in the column, an exponent
raises e, and a p/q cell takes the lcm.  `Fraction` views of the timestamps
are built only where a formula or a caller asks for one.  The sample rate
is derived from the ticks the first time it is read, and cached for every
later reader (A2 resampling, the index-map choice).

Signals often hold still for long runs of records.  The CSV loader parses a
cell only when its text differs from the same column's previous cell, and
`held_renderer` renders a value only when it differs from the previous one;
both keep one cell per column, so memory does not grow with the trace.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union


# Bounds on decimal text, far beyond double range: an exponent such as
# 1e-99999999 would otherwise build a hundred-million-digit denominator.  A
# trace's common denominator stays within 10^(MAX_DIGITS + MAX_EXPONENT),
# which every single decimal cell inside both bounds meets.
MAX_EXPONENT = 1000
MAX_DIGITS = 1000


class TraceError(Exception):
    """Base class for trace-model failures."""


class TraceFormatError(TraceError):
    """Malformed trace input (bad CSV, non-monotonic timestamps, ...)."""


class RecordError(TraceFormatError):
    """A fault first seen at record `position`; `row` is the CSV row it came
    from, or the record's ordinal.  Subclasses give the message."""

    message = ""

    def __init__(self, position: int, row: Optional[int] = None):
        super().__init__(self.message.format(row=row or position + 1))
        self.position = position


class NonMonotonicError(RecordError):
    """A timestamp not after its predecessor's."""

    message = "non-monotonic timestamp at row {row}"


class DenominatorError(RecordError):
    """The timestamps so far have no common denominator within the bounds."""

    message = (
        "row {row}: the timestamps' common denominator would pass "
        f"10^{MAX_DIGITS + MAX_EXPONENT}"
    )


class DomainError(TraceError):
    """A lookup outside the trace's defined domain."""


def quoted(text: str) -> str:
    """repr(text) for a message, cut after 40 characters and marked with
    '...': a message that quotes input must not grow with it."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


# A plain ASCII decimal such as a trace cell; at most PLAIN_DIGITS characters
# long, it is read without Decimal and stays far inside both bounds above.
_PLAIN_DECIMAL_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
PLAIN_DIGITS = 30


def _rational_parts(text: str) -> Tuple[int, int]:
    """(p, q), q > 0, with p / q the value of parse_rational(text).

    A decimal gets q = 10^e for its e digits after the point once any
    exponent is applied, so a column of decimals shares a power-of-ten
    denominator; p/q text is reduced.
    """
    text = text.strip()
    if len(text) <= PLAIN_DIGITS and _PLAIN_DECIMAL_RE.fullmatch(text):
        whole, _, frac = text.partition(".")
        return int(whole + frac), 10 ** len(frac)
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("digits other than ASCII 0-9")
        if "/" in text:
            value = Fraction(text)
            return value.numerator, value.denominator
        dec = Decimal(text)
        sign, digits, exp = dec.as_tuple()
        if (
            not dec.is_finite()
            or len(digits) > MAX_DIGITS
            or abs(dec.adjusted()) > MAX_EXPONENT
        ):
            raise ValueError("non-finite, or too many digits, or too large an exponent")
        num = int("".join(map(str, digits))) * (-1 if sign else 1)
        return (num * 10**exp, 1) if exp >= 0 else (num, 10**-exp)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"not a number: {quoted(text)}") from exc


def parse_rational(text: str) -> Fraction:
    """Parse decimal, scientific or p/q text into an exact rational.

    Digits are ASCII only, with no `_` between them.  Non-finite values and
    decimals beyond MAX_DIGITS or MAX_EXPONENT raise ValueError.
    """
    return Fraction(*_rational_parts(text))


def format_rational(value: Fraction) -> str:
    """Render a rational for interchange (see `format_ticks`)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return _format_lowest(value.numerator, value.denominator)


def format_ticks(num: int, den: int) -> str:
    """Render num / den (den > 0, in any terms) for interchange.

    Values with a 2^a*5^b denominator have an exact decimal form and are
    emitted that way, with the fewest digits; anything else (e.g. thirds
    from linear interpolation over a 0.7 gap) is emitted as p/q in lowest
    terms, which parse_rational accepts back.
    """
    g = gcd(num, den)
    return _format_lowest(num // g, den // g)


def _format_lowest(num: int, den: int) -> str:
    """format_ticks for num / den in lowest terms.  The factors of 2 are
    counted from the denominator's lowest set bit, and only the factors of 5
    take a loop."""
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


def _common_ticks(nums: Sequence[int], dens: List[int]) -> Tuple[Tuple[int, ...], int]:
    """(ticks, den): nums[j] / dens[j] as ticks[j] / den over their least
    common denominator.  A denominator past 10^(MAX_DIGITS + MAX_EXPONENT)
    raises DenominatorError at the first record that takes it there."""
    distinct = list(dict.fromkeys(dens))  # in order of first use
    den = 1
    for d in distinct:
        if den % d:
            den = den // gcd(den, d) * d
            if den > 10 ** (MAX_DIGITS + MAX_EXPONENT):
                raise DenominatorError(dens.index(d))
    if distinct == [den]:
        return tuple(nums), den
    scale = {d: den // d for d in distinct}
    return tuple(n * scale[d] for n, d in zip(nums, dens)), den


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


class Trace:
    """Records j = 0..m: timestamp ticks[j] / den and partial value map values[j].

    `Trace(records, signals)` puts Records with rational timestamps over
    their least common denominator; `Trace.of_ticks` takes ticks already
    over one.  Either way the timestamps must strictly increase.  Value maps
    are read-only: records whose cells repeat may share one.
    """

    def __init__(self, records: Sequence[Record], signals: Sequence[str]):
        records = tuple(records)
        ticks, den = _common_ticks(
            [rec.timestamp.numerator for rec in records],
            [rec.timestamp.denominator for rec in records],
        )
        self._set(ticks, den, tuple(rec.values for rec in records), signals)
        self.records = records

    @classmethod
    def of_ticks(
        cls, ticks: Sequence[int], den: int, values: Sequence[Mapping], signals: Sequence[str]
    ) -> "Trace":
        trace = cls.__new__(cls)
        trace._set(tuple(ticks), den, tuple(values), signals)
        return trace

    def _set(self, ticks: tuple, den: int, values: tuple, signals: Sequence[str]) -> None:
        if not ticks:
            raise TraceFormatError("empty trace")
        if not all(map(operator.lt, ticks, ticks[1:])):
            raise NonMonotonicError(
                next(j for j in range(1, len(ticks)) if ticks[j] <= ticks[j - 1])
            )
        self.ticks, self.den, self.values = ticks, den, values
        self.signals = tuple(signals)

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def last_index(self) -> int:
        """m: the highest record index."""
        return len(self.ticks) - 1

    def time(self, j: int) -> Fraction:
        """Record j's timestamp."""
        return Fraction(self.ticks[j], self.den)

    @cached_property
    def timestamps(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(k, self.den) for k in self.ticks)

    @cached_property
    def records(self) -> Tuple[Record, ...]:
        return tuple(map(Record, self.timestamps, self.values))

    @cached_property
    def t0(self) -> Fraction:
        return self.time(0)

    @cached_property
    def tm(self) -> Fraction:
        return self.time(-1)

    @property
    def span(self):
        return (self.t0, self.tm)

    def tick_floor(self, t: Union[int, Fraction]) -> int:
        """The largest integer k with k / den <= t."""
        return t.numerator * self.den // t.denominator

    def tick_ceil(self, t: Union[int, Fraction]) -> int:
        """The smallest integer k with k / den >= t."""
        return -(-t.numerator * self.den // t.denominator)

    @cached_property
    def rate(self) -> Rate:
        """Fixed(sr) iff every gap equals the first gap sr exactly: the
        fixed-rate index map floor((t - t0) / sr) is right only then.

        Traces with fewer than two records are Variable by convention.
        """
        ticks = self.ticks
        if len(ticks) < 2:
            return Variable()
        gap = ticks[1] - ticks[0]
        if ticks != tuple(range(ticks[0], ticks[0] + len(ticks) * gap, gap)):
            return Variable()
        return Fixed(Fraction(gap, self.den))


def iota_variable(trace: Trace, t: Union[int, Fraction]) -> int:
    """Index of the record with the highest timestamp not exceeding t.

    Defined only on the trace's span; out-of-range timestamps are a domain
    error rather than an invented extrapolation.
    """
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    ticks = trace.ticks
    k = trace.tick_floor(t)
    if k < ticks[0] or trace.tick_ceil(t) > ticks[-1]:
        raise DomainError(
            f"timestamp {format_rational(t)} outside trace span "
            f"[{format_rational(trace.t0)}, {format_rational(trace.tm)}]"
        )
    return bisect_right(ticks, k) - 1


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
    try:
        return trace.values[j][signal]
    except KeyError:
        raise DomainError(
            f"signal {quoted(signal)} unassigned at index {j} (preprocess the trace first)"
        ) from None


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def _csv_rows(reader) -> Iterator[List[str]]:
    """The rows of a csv reader; a fault of the CSV layer itself, such as a
    field past the csv module's size limit, is a TraceFormatError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from None


def load_trace(text: str) -> Trace:
    """Load a trace from CSV text.

    Layout: first column `timestamp` (decimal seconds), an optional `index`
    column that must equal the row position, and one column per signal.
    Empty cells are unassigned.
    """
    reader = _csv_rows(csv.reader(io.StringIO(text)))
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
            raise TraceFormatError(f"duplicate signal column {quoted(name)}")
        signals.append(name)
        signal_cols.append((col, name))

    # Per signal column, the previous row's cell text and its value (None for
    # a hole): a run of equal cells is parsed once, in memory that does not
    # grow with the trace.  A row whose signal cells all repeat the previous
    # row's shares its value map, which no reader changes.
    last = [("", None)] * len(signal_cols)
    cols = [col for col, _ in signal_cols]
    last_cells = None
    nums: List[int] = []  # each record's timestamp as nums[j] / dens[j]
    dens: List[int] = []
    values_list = []
    rows = []  # each record's CSV row; blank rows are skipped
    for row_num, row in enumerate(reader, start=1):
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(header):
            raise TraceFormatError(
                f"row {row_num}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            num, den = _rational_parts(row[0])
        except ValueError:
            raise TraceFormatError(
                f"row {row_num}: malformed timestamp {quoted(row[0])}"
            ) from None
        pos = len(rows)
        if index_col is not None:
            cell = row[index_col].strip()
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                declared = int(cell)
            except ValueError:
                raise TraceFormatError(
                    f"row {row_num}: malformed index {quoted(cell)}"
                ) from None
            if declared != pos:
                raise TraceFormatError(
                    f"row {row_num}: index column says {declared}, expected {pos}"
                )
        cells = tuple(map(row.__getitem__, cols))
        if cells != last_cells:
            last_cells, values = cells, {}
            for k, (text, (_, name)) in enumerate(zip(cells, signal_cols)):
                if text != last[k][0]:
                    cell = text.strip()
                    try:
                        last[k] = (text, parse_rational(cell) if cell else None)
                    except ValueError:
                        raise TraceFormatError(
                            f"row {row_num}: malformed value {quoted(cell)} "
                            f"for signal {quoted(name)}"
                        ) from None
                value = last[k][1]
                if value is not None:
                    values[name] = value
        nums.append(num)
        dens.append(den)
        values_list.append(values)
        rows.append(row_num)
    try:
        ticks, den = _common_ticks(nums, dens)
        return Trace.of_ticks(ticks, den, values_list, signals)
    except RecordError as exc:  # name the CSV row, blank rows counted
        raise type(exc)(exc.position, rows[exc.position]) from None


def load_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return load_trace(fh.read())


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to CSV; exact inverse of load_trace for our output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["timestamp"] + list(trace.signals))
    columns = [(s, held_renderer(format_rational)) for s in trace.signals]
    for tick, values in zip(trace.ticks, trace.values):
        row = [format_ticks(tick, trace.den)]
        for s, render in columns:
            row.append(render(values[s]) if s in values else "")
        writer.writerow(row)
    return out.getvalue()
