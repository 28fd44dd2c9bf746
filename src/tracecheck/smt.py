"""Reduction of property checking to SMT satisfiability.

A property holds on a trace iff (negated property) AND (trace as equality
assertions over Int->Real arrays) is unsatisfiable, so the emitted script
asserts exactly that conjunction, in the property's own connectives:
`implies` is written (or (not p) q), `forall` (not (exists x (not b))),
and each AST level costs one emit_formula call.  Scripts target AUFLIRA
and are deterministic: translating the same trace and property twice
yields byte-identical output.

The timestamp-to-index map comes in two encodings.  The variable-rate form
expands to a balanced bisection tree of ite selectors over the record
timestamps, so it nests only log2 of the trace length deep; it is always
available but costs one ite per record and reading, so a cap guards against
scripts that would dwarf the solver.  The fixed-rate form is available for
traces whose gaps are all exactly sr (what resampling produces) and is one
term per reading, floor((t - t0) / sr) written (to_int (* R (- t t0))) with
the rational literal R = 1 / sr, so it stays linear; the shift is left out
when t0 = 0.  A mode is a word, `auto`, `fixed` or `variable`, and
`translate` resolves it against the trace itself (`choose_iota_mode`),
reading sr from the trace's own rate, so no caller can hand it a rate the
trace does not have.

The reverse map i2t(j) has two forms as well.  On a variable-rate trace it
reads the timestamp array t, (select t J) with J the clamped index; on a
fixed-rate trace, where t_j = t0 + j * sr exactly, it is the term
(+ t0 (* sr (to_real J))), again without the t0 when it is 0.

The trace is pinned cell by cell, one equality assertion per assigned value,
but only in the arrays the property reads: a signal the property never
mentions is neither declared nor pinned, and the timestamp array t is
declared only where a variable-rate i2t reads it.  A signal's literal is
rendered again only when its value changes from the previous record's.

Index-typed accesses are clamped into [0, m] instead of guarded: a total
function keeps the encoding in the decidable fragment, and out-of-range
accesses only arise in cases the direct route reports as inconclusive, so
the routes never contradict each other on a definitive answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .syntax import (
    And,
    Arith,
    AtIndex,
    Exists,
    Forall,
    Formula,
    I2T,
    Implies,
    Lit,
    Not,
    ONE_ARG,
    Or,
    Rel,
    Sort,
    T2I,
    Term,
    Var,
)
from .trace import Fixed, Trace, format_rational, format_ticks, held_renderer

from . import __version__


DEFAULT_EXPANSION_CAP = 50_000

_SMT_RESERVED = {
    "t", "and", "or", "not", "ite", "let", "exists", "forall", "select",
    "store", "to_real", "to_int", "assert", "true", "false", "Int", "Real",
    "Array", "Bool", "div", "mod", "abs",
}

_GREEK = {"σ": "sigma", "τ": "tau", "ρ": "rho", "Σ": "Sigma", "Τ": "Tau", "Ρ": "Rho"}


class TranslateError(Exception):
    """The property/trace pair cannot be encoded as requested."""


class ExpansionCapError(TranslateError):
    """The variable-rate index map would expand past the configured cap."""


def choose_iota_mode(trace: Trace, requested: Optional[str] = None) -> str:
    """Resolve the index-map encoding to `fixed` or `variable`.

    `auto` (or None) uses the fixed-rate form whenever the trace allows it;
    an explicit `fixed` on an unsuitable trace is an error rather than a
    silent fallback.
    """
    fixed_ok = isinstance(trace.rate, Fixed)
    if requested in (None, "auto"):
        return "fixed" if fixed_ok else "variable"
    if requested == "fixed" and not fixed_ok:
        raise TranslateError(
            "the fixed-rate index map needs a fixed-rate trace; resample "
            "first (strategy A2) or use --iota variable"
        )
    if requested in ("fixed", "variable"):
        return requested
    raise TranslateError(f"unknown iota mode {requested!r}")


# ---------------------------------------------------------------------------
# Literals and names
# ---------------------------------------------------------------------------

def smt_real(value: Fraction) -> str:
    """Exact Real literal: decimal when finite, (/ p q) otherwise."""
    return _real_literal(format_rational(value))


def smt_time(trace: Trace, j: int) -> str:
    """Record j's timestamp as smt_real writes it, from the trace's ticks."""
    return _real_literal(format_ticks(trace.ticks[j], trace.den))


def _real_literal(text: str) -> str:
    """A Real literal from format_rational's text."""
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if "/" in text:
        p, q = text.split("/")
        core = f"(/ {p}.0 {q}.0)"
    else:
        core = text if "." in text else text + ".0"
    return f"(- {core})" if negative else core


def smt_int(value: Union[int, Fraction]) -> str:
    n = int(value)
    return f"(- {-n})" if n < 0 else str(n)


def _transliterate(name: str) -> str:
    out = []
    for ch in name:
        if ch in _GREEK:
            out.append(_GREEK[ch])
        elif ch.isascii() and (ch.isalnum() or ch == "_"):
            out.append(ch)
        else:
            out.append("_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "x" + text
    return text


def _fresh(base: str, taken: set) -> str:
    name = base
    n = 1
    while name in taken or name in _SMT_RESERVED:
        n += 1
        name = f"{base}_{n}"
    taken.add(name)
    return name


@dataclass
class _Tx:
    trace: Trace
    mode: str  # "fixed" or "variable", resolved against the trace
    arrays: Dict[str, str]
    cap: int
    taken: set
    iota_ites: int = 0
    quantifiers: int = 0
    floors: int = 0
    lets: int = 0
    reads: set = field(default_factory=set)  # the arrays the property selects from

    def select(self, array: str, j: str) -> str:
        self.reads.add(array)
        return f"(select {array} {j})"

    @property
    def m(self) -> int:
        return self.trace.last_index

    def fresh_let(self) -> str:
        self.lets += 1
        return f"x{self.lets}"


@dataclass(frozen=True)
class SmtScript:
    text: str
    iota: str  # the index map as the script header describes it
    name_map: Dict[str, str]
    quantifier_count: int
    floor_count: int
    iota_ite_count: int


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def _clamped_index(j_expr: str, ctx: _Tx) -> str:
    """ite-clamp an Int expression into [0, m]."""
    name, m = ctx.fresh_let(), ctx.m
    inner = f"(ite (< {name} 0) 0 (ite (> {name} {m}) {m} {name}))"
    return f"(let (({name} {j_expr})) {inner})"


def _iota_tree(x: str, ctx: _Tx) -> str:
    """Balanced ite tree resolving a bound Real variable to its record index."""
    trace, m = ctx.trace, ctx.m
    ctx.iota_ites += m
    if ctx.iota_ites > ctx.cap:
        raise ExpansionCapError(
            f"the variable-rate index map needs {ctx.iota_ites} ite nodes, "
            f"over the cap of {ctx.cap}; resample the trace to a fixed-rate "
            "grid (strategy A2)"
        )

    def tree(lo: int, hi: int) -> str:  # last j with ts[j] <= x, clamped to [lo, hi]
        if lo == hi:
            return str(lo)
        mid = (lo + hi + 1) // 2
        below, above = tree(lo, mid - 1), tree(mid, hi)
        return f"(ite (< {x} {smt_time(trace, mid)}) {below} {above})"

    return tree(0, m)


def _iota_at(time_expr: str, ctx: _Tx) -> str:
    """Int expression for the record index of a time expression."""
    if ctx.mode == "variable":
        name = ctx.fresh_let()
        return f"(let (({name} {time_expr})) {_iota_tree(name, ctx)})"
    ctx.floors += 1
    t0 = ctx.trace.t0
    shifted = f"(- {time_expr} {smt_real(t0)})" if t0 else time_expr
    return f"(to_int (* {smt_real(1 / ctx.trace.rate.sr)} {shifted}))"


def emit_term(term: Term, scope: Dict[str, str], ctx: _Tx) -> str:
    if isinstance(term, Lit):
        return smt_int(term.value) if term.sort is Sort.INDEX else smt_real(term.value)
    if isinstance(term, Var):
        return scope[term.name]
    if isinstance(term, Arith):
        left = emit_term(term.left, scope, ctx)
        right = emit_term(term.right, scope, ctx)
        return f"({term.op} {left} {right})"
    if not isinstance(term, ONE_ARG):
        raise TypeError(f"not a term: {term!r}")
    arg = emit_term(term.arg, scope, ctx)
    if isinstance(term, I2T):
        j = _clamped_index(arg, ctx)
        if ctx.mode == "variable":
            return ctx.select("t", j)
        t0 = ctx.trace.t0
        step = f"(* {smt_real(ctx.trace.rate.sr)} (to_real {j}))"
        return f"(+ {smt_real(t0)} {step})" if t0 else step
    if isinstance(term, T2I):
        return _iota_at(arg, ctx)
    if isinstance(term, AtIndex):
        return ctx.select(ctx.arrays[term.signal], _clamped_index(arg, ctx))
    idx = _iota_at(arg, ctx)  # an @t read
    if ctx.mode == "fixed":
        idx = _clamped_index(idx, ctx)
    return ctx.select(ctx.arrays[term.signal], idx)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

def emit_formula(f: Formula, scope: Dict[str, str], ctx: _Tx) -> str:
    if isinstance(f, Rel):
        left = emit_term(f.left, scope, ctx)
        right = emit_term(f.right, scope, ctx)
        if f.op == "!=":
            return f"(not (= {left} {right}))"
        return f"({f.op} {left} {right})"
    if isinstance(f, Not):
        return f"(not {emit_formula(f.sub, scope, ctx)})"
    if isinstance(f, (And, Or, Implies)):
        left = emit_formula(f.left, scope, ctx)
        right = emit_formula(f.right, scope, ctx)
        if isinstance(f, Implies):
            return f"(or (not {left}) {right})"
        return f"({'and' if isinstance(f, And) else 'or'} {left} {right})"
    if isinstance(f, (Exists, Forall)):
        return _emit_quantifier(f, scope, ctx)
    raise TypeError(f"not a formula: {f!r}")


def _emit_quantifier(f: Union[Exists, Forall], scope: Dict[str, str], ctx: _Tx) -> str:
    """An `exists`, its guard first; a `forall` as (not (exists ... (not BODY)))."""
    ctx.quantifiers += 1
    name = _fresh(_transliterate(f.var), ctx.taken)
    inner_scope = {**scope, f.var: name}
    neg, end = ("(not ", ")") if isinstance(f, Forall) else ("", "")

    if f.var_sort is Sort.VALUE:
        body = emit_formula(f.body, inner_scope, ctx)
        ctx.taken.discard(name)
        return f"{neg}(exists (({name} Real)) {neg}{body}{end}){end}"

    if f.var_sort is Sort.INDEX:
        sort, bounds, literal = "Int", (0, ctx.m), smt_int
    else:
        sort, bounds, literal = "Real", ctx.trace.span, smt_real
    dom = f.interval.clip(*bounds)
    if dom is None:
        ctx.taken.discard(name)
        return f"{neg}false{end}"
    lo_op = "<" if dom.lo_open else "<="
    hi_op = "<" if dom.hi_open else "<="
    guard = (
        f"(and ({lo_op} {literal(dom.lo)} {name}) ({hi_op} {name} {literal(dom.hi)}))"
    )
    body = emit_formula(f.body, inner_scope, ctx)
    ctx.taken.discard(name)
    return f"{neg}(exists (({name} {sort})) (and {guard} {neg}{body}{end})){end}"


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

def translate(
    trace: Trace,
    formula: Formula,
    mode: Optional[str] = None,
    negate: bool = True,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> SmtScript:
    """Emit a complete SMT-LIB script for one trace/property pair.

    With negate=True (the checking reduction) the script is unsatisfiable
    exactly when the property holds on the trace.  `mode` is an iota-mode
    word (`auto`, `fixed` or `variable`, None meaning `auto`), resolved
    against the trace by `choose_iota_mode`; the fixed-rate step is the
    trace's own rate.
    """
    mode = choose_iota_mode(trace, mode)
    iota = "variable-rate"
    if mode == "fixed":
        iota = f"fixed-rate sr={format_rational(trace.rate.sr)}"
    taken = {"t"}
    arrays: Dict[str, str] = {}
    for signal in sorted(trace.signals):
        arrays[signal] = _fresh("v_" + _transliterate(signal), taken)
    ctx = _Tx(trace=trace, mode=mode, arrays=arrays, cap=cap, taken=taken)

    assertion = emit_formula(Not(formula) if negate else formula, {}, ctx)

    lines: List[str] = []
    lines.append(f"; tracecheck {__version__}")
    lines.append(f"; iota mode: {iota}")
    lines.append(
        f"; trace: records={len(trace)} "
        f"span=[{format_rational(trace.t0)}, {format_rational(trace.tm)}]"
    )
    for signal in sorted(arrays):
        lines.append(f"; signal: {signal} -> {arrays[signal]}")
    lines.append("(set-logic AUFLIRA)")
    pin_t = "t" in ctx.reads
    if pin_t:
        lines.append("(declare-const t (Array Int Real))")
    columns = [(s, a, held_renderer(smt_real)) for s, a in sorted(arrays.items()) if a in ctx.reads]
    for _, array, _ in columns:
        lines.append(f"(declare-const {array} (Array Int Real))")
    for j, values in enumerate(trace.values):
        if pin_t:
            lines.append(f"(assert (= (select t {j}) {smt_time(trace, j)}))")
        for signal, array, literal in columns:
            if signal in values:
                lines.append(f"(assert (= (select {array} {j}) {literal(values[signal])}))")
    lines.append(f"(assert {assertion})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return SmtScript(
        text="\n".join(lines) + "\n",
        iota=iota,
        name_map=dict(arrays),
        quantifier_count=ctx.quantifiers,
        floor_count=ctx.floors,
        iota_ite_count=ctx.iota_ites,
    )
