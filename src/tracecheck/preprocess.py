"""Trace preprocessing: record filtering and the two totalization strategies.

A1 fills unassigned cells in place (sample rate untouched); A2 resamples the
whole trace onto a fixed grid whose step is the minimum observed gap.  Both
rely on per-signal interpolation, configured per signal name with a default.

All arithmetic is exact.  The cubic kind is a monotone-preserving piecewise
cubic Hermite (Fritsch-Carlson slopes, three-point edge rule) implemented
over rationals so that resampled traces stay exactly on grid.  Interpolation
runs in the trace's own time unit, ticks of 1/den seconds: every kind gives
the same value at a time whatever the unit, and A2's grid is then a range of
integer ticks.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .trace import Fixed, Trace, format_rational, quoted


class PreprocessError(Exception):
    pass


class InterpolationKind(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    CUBIC = "cubic"

    @classmethod
    def parse(cls, text: str) -> "InterpolationKind":
        word = text.strip().lower()
        if word in ("constant", "piecewise-constant", "hold"):
            return cls.CONSTANT
        if word == "linear":
            return cls.LINEAR
        if word == "cubic":
            return cls.CUBIC
        raise PreprocessError(f"unknown interpolation kind {quoted(text)}")


DEFAULT_KIND = InterpolationKind.LINEAR

# Grids tighter than this are almost certainly a data bug, not a sample rate.
SR_FLOOR = Fraction(1, 10**9)

# A2 refuses to build a grid larger than this: 100x criterion 9's 10k records.
MAX_GRID_RECORDS = 1_000_000


@dataclass
class PreprocessConfig:
    strategy: str = "A2"
    default_kind: InterpolationKind = DEFAULT_KIND
    per_signal: Dict[str, InterpolationKind] = field(default_factory=dict)

    def kind_for(self, signal: str) -> InterpolationKind:
        return self.per_signal.get(signal, self.default_kind)


def parse_keyvalues(text: str) -> Dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment; blanks ignored."""
    out: Dict[str, str] = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreprocessError(f"config line {num}: expected 'key = value', got {quoted(raw)}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _pchip_slopes(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> List[Fraction]:
    """Fritsch-Carlson monotone slopes with the standard three-point edge rule."""
    n = len(xs)
    h = [xs[i + 1] - xs[i] for i in range(n - 1)]
    d = [(ys[i + 1] - ys[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        return [d[0], d[0]]

    slopes: List[Fraction] = [Fraction(0)] * n
    for k in range(1, n - 1):
        if d[k - 1] == 0 or d[k] == 0 or _sign(d[k - 1]) != _sign(d[k]):
            slopes[k] = Fraction(0)
        else:
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            slopes[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k])

    def edge(h0: Fraction, h1: Fraction, d0: Fraction, d1: Fraction) -> Fraction:
        m = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if _sign(m) != _sign(d0):
            return Fraction(0)
        if _sign(d0) != _sign(d1) and abs(m) > 3 * abs(d0):
            return 3 * d0
        return m

    slopes[0] = edge(h[0], h[1], d[0], d[1])
    slopes[-1] = edge(h[-1], h[-2], d[-1], d[-2])
    return slopes


class Interpolant:
    """A signal's interpolation function, built once and evaluated many times."""

    def __init__(self, kind: InterpolationKind, samples: Sequence[Tuple[Fraction, Fraction]]):
        if not samples:
            raise PreprocessError("interpolation needs at least one sample")
        xs = [x for x, _ in samples]
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                raise PreprocessError("interpolation samples must be strictly increasing in time")
        self.kind = kind
        self.xs = xs
        self.ys = [Fraction(y) for _, y in samples]
        self._slopes: List[Fraction] = []
        if kind is InterpolationKind.CUBIC and len(xs) >= 2:
            self._slopes = _pchip_slopes(self.xs, self.ys)

    def at(self, t: Fraction) -> Fraction:
        """The value at t, in the samples' time unit (ints or Fractions)."""
        xs, ys = self.xs, self.ys
        # Boundary rule: clamp to the nearest sample, for every kind.
        if t <= xs[0]:
            return ys[0]
        if t >= xs[-1]:
            return ys[-1]
        i = bisect_right(xs, t) - 1
        if t == xs[i]:
            return ys[i]
        if self.kind is InterpolationKind.CONSTANT:
            return ys[i]
        if self.kind is InterpolationKind.LINEAR or len(xs) == 2:
            return ys[i] + (ys[i + 1] - ys[i]) * (t - xs[i]) / (xs[i + 1] - xs[i])
        # Cubic Hermite on the bracketing interval.
        h = xs[i + 1] - xs[i]
        s = t - xs[i]
        dk = (ys[i + 1] - ys[i]) / h
        m0, m1 = self._slopes[i], self._slopes[i + 1]
        c2 = (3 * dk - 2 * m0 - m1) / h
        c3 = (m0 + m1 - 2 * dk) / (h * h)
        return ys[i] + s * (m0 + s * (c2 + s * c3))


# ---------------------------------------------------------------------------
# Filtering and the two strategies
# ---------------------------------------------------------------------------

def filter_unused(trace: Trace, used: Iterable[str]) -> Trace:
    """Drop records that assign nothing a property cares about.

    The kept records are restricted to the used signal columns, and their
    new positions are their indices.  A trace that would lose nothing (every
    signal used, no record empty) is returned as it is.
    """
    used_set = set(used)
    unknown = used_set - set(trace.signals)
    if unknown:
        raise PreprocessError(
            "signals not in trace: " + ", ".join(sorted(unknown))
        )
    if len(used_set) == len(trace.signals) and all(trace.values):
        return trace
    ticks, kept = [], []
    for tick, values in zip(trace.ticks, trace.values):
        values = {s: v for s, v in values.items() if s in used_set}
        if values:
            ticks.append(tick)
            kept.append(values)
    if not kept:
        raise PreprocessError("no relevant records")
    signals = tuple(s for s in trace.signals if s in used_set)
    return Trace.of_ticks(ticks, trace.den, kept, signals)


def _interpolants(trace: Trace, cfg: PreprocessConfig) -> Dict[str, Interpolant]:
    """Each signal's interpolant over its assigned cells, in ticks."""
    table = {}
    for s in trace.signals:
        samples = [
            (tick, values[s]) for tick, values in zip(trace.ticks, trace.values) if s in values
        ]
        if not samples:
            raise PreprocessError(f"signal {quoted(s)} has no assigned samples")
        table[s] = Interpolant(cfg.kind_for(s), samples)
    return table


def apply_a1(trace: Trace, cfg: PreprocessConfig) -> Trace:
    """Fill unassigned cells in place; timestamps and assigned values untouched."""
    table = _interpolants(trace, cfg)
    filled = []
    for tick, values in zip(trace.ticks, trace.values):
        values = dict(values)
        for s in trace.signals:
            if s not in values:
                values[s] = table[s].at(tick)
        filled.append(values)
    return Trace.of_ticks(trace.ticks, trace.den, filled, trace.signals)


def apply_a2(trace: Trace, cfg: PreprocessConfig) -> Trace:
    """Resample onto the fixed grid t_0, t_0+sr, ... with sr = minimum gap.

    The last grid point is the largest one not exceeding t_m; an off-grid t_m
    is dropped so the output rate is exactly fixed.  A trace already on its
    grid (every gap exactly sr, as the trace's cached `rate` says) with no
    empty cell is that grid, so it is returned as it is.  The grid is a
    range of ticks over the trace's own denominator.
    """
    if len(trace) < 2:
        raise PreprocessError("strategy A2 needs at least 2 records")
    ticks = trace.ticks
    on_grid = isinstance(trace.rate, Fixed)
    gap = ticks[1] - ticks[0] if on_grid else min(map(operator.sub, ticks[1:], ticks))
    sr = Fraction(gap, trace.den)
    if sr < SR_FLOOR:
        raise PreprocessError(
            f"degenerate sample rate {format_rational(sr)} (minimum gap below floor)"
        )
    steps = (ticks[-1] - ticks[0]) // gap  # largest k with t_0 + k*sr <= t_m
    if steps + 1 > MAX_GRID_RECORDS:
        raise PreprocessError(
            f"strategy A2 would build {steps + 1} grid records at sr={format_rational(sr)}"
            f" (limit {MAX_GRID_RECORDS}); use strategy A1"
        )
    signals = set(trace.signals)
    if on_grid and all(values.keys() == signals for values in trace.values):
        return trace
    table = _interpolants(trace, cfg)
    grid = range(ticks[0], ticks[0] + (steps + 1) * gap, gap)
    values = [{s: table[s].at(tick) for s in trace.signals} for tick in grid]
    return Trace.of_ticks(grid, trace.den, values, trace.signals)
