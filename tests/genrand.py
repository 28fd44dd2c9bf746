"""Seeded generator of small traces and in-fragment property texts.

Used by the acceptance suite to drive the two decision routes against
each other.  Everything is constructive so that both routes can reach a
definitive verdict on almost every pair: quantifier intervals are
nonempty and inside the index range / time span, every record cell is
assigned, shifted reads stay in range, and time quantifiers sit
innermost (an atom mixing a time variable with a variable bound deeper
than it would push the direct evaluator outside its fragment).  The one
deliberate wanderer is the composite read `sig @t (tau + i2t(sigma))`,
which may run past the trace end; the routes treat that as
absorbed-or-inconclusive, never as a definitive clash.
"""

from fractions import Fraction
from random import Random
from typing import List, Optional, Tuple

from tracecheck.syntax import Formula, parse
from tracecheck.trace import Record, Trace, format_rational


def _dec(rng: Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A one-decimal rational in [lo, hi] (bounds must sit on the 0.1 grid)."""
    return Fraction(rng.randint(int(lo * 10), int(hi * 10)), 10)


def make_trace(rng: Random) -> Trace:
    n = rng.randint(2, 10)
    signals = ("x",) if rng.random() < 0.5 else ("x", "y")
    if rng.random() < 0.5:
        sr = Fraction(rng.randint(1, 10), 10)
        times = [sr * j for j in range(n)]
    else:
        t = Fraction(0) if rng.random() < 0.8 else _dec(rng, Fraction(1, 10), Fraction(1))
        times = []
        for _ in range(n):
            times.append(t)
            t += Fraction(rng.choice((1, 1, 2, 3, 5, 8)), 10)
    records = tuple(
        Record(timestamp=t, values={s: _dec(rng, Fraction(-5), Fraction(5)) for s in signals})
        for t in times
    )
    return Trace(records=records, signals=signals)


class _BV:
    def __init__(self, name: str, kind: str, lo: Fraction, hi: Fraction):
        self.name = name
        self.kind = kind  # "index" | "time"
        self.lo = lo
        self.hi = hi


class _Gen:
    MAX_QUANTIFIERS = 4

    def __init__(self, rng: Random, trace: Trace):
        self.rng = rng
        self.trace = trace
        self.m = trace.last_index
        self.counter = 0
        self.qcount = 0

    # -- formulas ---------------------------------------------------------

    def formula(self) -> str:
        depth = self.rng.choice((1, 2, 2, 3))
        return self.quantifier([], depth)

    def quantifier(self, bound: List[_BV], depth: int) -> str:
        self.qcount += 1
        rng = self.rng
        kind = "time" if rng.random() < 0.35 else "index"
        name = f"{'tau' if kind == 'time' else 'sigma'}{self.counter}"
        self.counter += 1
        if kind == "index":
            lo = Fraction(rng.randint(0, self.m))
            hi = Fraction(rng.randint(int(lo), self.m))
            iv = f"[{lo}, {hi}]"
        else:
            lo = _dec(rng, self.trace.t0, self.trace.tm)
            hi = _dec(rng, lo, self.trace.tm)
            lb = "(" if lo < hi and rng.random() < 0.15 else "["
            rb = ")" if lo < hi and rng.random() < 0.15 else "]"
            iv = f"{lb}{format_rational(lo)}, {format_rational(hi)}{rb}"
        bv = _BV(name, kind, lo, hi)
        # time quantifiers are innermost by construction
        body = self.boolean(bound + [bv], 0 if kind == "time" else depth - 1)
        word = rng.choice(("exists", "forall"))
        return f"{word} {name} in {iv} such that ({body})"

    def boolean(self, bound: List[_BV], depth: int) -> str:
        rng = self.rng
        r = rng.random()
        if depth > 0 and self.qcount < self.MAX_QUANTIFIERS and r < 0.3:
            return self.quantifier(bound, depth)
        if r < 0.6:
            return self.atom(bound)
        if r < 0.85:
            op = rng.choice(("and", "or", "implies"))
            return f"({self.boolean(bound, depth)} {op} {self.boolean(bound, depth)})"
        return f"not ({self.boolean(bound, depth)})"

    # -- atoms and terms --------------------------------------------------

    def atom(self, bound: List[_BV]) -> str:
        rng = self.rng
        op = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
        r = rng.random()
        if r < 0.72 or not bound:
            left = self.read(bound)
            if rng.random() < 0.2:
                right = self.read(bound)
            else:
                right = format_rational(_dec(rng, Fraction(-6), Fraction(6)))
            return f"({left} {op} {right})"
        # conversion / plain-variable atoms
        bv = rng.choice(bound)
        if bv.kind == "index":
            if rng.random() < 0.5:
                right = format_rational(_dec(rng, self.trace.t0, self.trace.tm))
                return f"(i2t({bv.name}) {op} {right})"
            return f"({bv.name} {op} {rng.randint(0, self.m)})"
        if rng.random() < 0.5:
            return f"(t2i({bv.name}) {op} {rng.randint(0, self.m)})"
        return f"({bv.name} {op} {format_rational(_dec(rng, Fraction(-1), self.trace.tm))})"

    def read(self, bound: List[_BV]) -> str:
        rng = self.rng
        sig = rng.choice(self.trace.signals)
        index_vars = [bv for bv in bound if bv.kind == "index"]
        time_vars = [bv for bv in bound if bv.kind == "time"]
        if time_vars and rng.random() < 0.55:
            return f"({sig} @t {self.time_term(time_vars, index_vars)})"
        return f"({sig} @i {self.index_term(index_vars, time_vars)})"

    def index_term(self, index_vars: List[_BV], time_vars: List[_BV]) -> str:
        rng = self.rng
        if time_vars and rng.random() < 0.15:
            return f"t2i({rng.choice(time_vars).name})"
        if index_vars and rng.random() < 0.85:
            bv = rng.choice(index_vars)
            c_lo, c_hi = -int(bv.lo), self.m - int(bv.hi)
            c = rng.choice((0, 0, 0, max(c_lo, -1), min(c_hi, 1), rng.randint(c_lo, c_hi)))
            c = min(max(c, c_lo), c_hi)
            if c > 0:
                return f"({bv.name} + {c})"
            if c < 0:
                return f"({bv.name} - {-c})"
            return bv.name
        return str(rng.randint(0, self.m))

    def time_term(self, time_vars: List[_BV], index_vars: List[_BV]) -> str:
        rng = self.rng
        bv = rng.choice(time_vars)
        if index_vars and rng.random() < 0.15:
            # the composite shift; can run past the span on purpose
            return f"({bv.name} + i2t({rng.choice(index_vars).name}))"
        if rng.random() < 0.25:
            return f"i2t({self.index_term(index_vars, [])})"
        c_lo, c_hi = self.trace.t0 - bv.lo, self.trace.tm - bv.hi
        c = rng.choice((Fraction(0), Fraction(0), _dec(rng, c_lo, c_hi)))
        if c > 0:
            return f"({bv.name} + {format_rational(c)})"
        if c < 0:
            return f"({bv.name} - {format_rational(-c)})"
        return bv.name


def pair(seed: int) -> Tuple[Trace, Formula, str]:
    """The seeded (trace, parsed formula, formula text) triple."""
    rng = Random(seed)
    trace = make_trace(rng)
    text = _Gen(rng, trace).formula()
    return trace, parse(text, trace.signals), text
