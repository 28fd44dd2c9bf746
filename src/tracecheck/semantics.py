"""Direct evaluation of properties over a concrete trace.

This is the oracle route: no solver, just recursive evaluation with exact
rationals.  Truth is three-valued.  A term can fail to denote (index outside
[0, m], timestamp outside the span, a read of an unassigned cell), and such
errors propagate unless a sibling already decides the connective: a
disjunction with one true branch is true no matter what the other branch
does, and dually for conjunction.  An error that survives to the root makes
the check inconclusive instead of silently picking a side.

Connectives evaluate left to right and stop at a decisive left side
(false for a conjunction, true for a disjunction or a false antecedent):
the right side is then never evaluated, so it can neither fail nor leave
the fragment.  Otherwise both sides combine three-valued as above, and the
left side's error is the one reported when neither side decides.

Index quantifiers enumerate the integers of their interval clipped to
[0, m].  Time quantifiers range over the interval clipped to the trace span;
since every mapped index is piecewise constant in the quantified variable
and every direct time comparison is affine in it, the body's truth value
only changes at finitely many breakpoints, so evaluating the interval
endpoints, the breakpoints and one point inside each gap between them
decides the quantifier exactly.  A mapped index's argument and a time
comparison's side are a*v + b in the quantified variable v: eval_term finds
b and a + b as their values at v = 0 and v = 1.  A mapped index steps only
where its argument meets a timestamp, so the breakpoints come from the
records whose timestamps fall inside the image of the quantifier's window,
found by bisection: each quantifier instance costs O(log n + k) for the k
records in its window.

The route cannot decide everything.  Unbounded real quantifiers, arguments
mixing a time variable with a deeper-bound one, and conversions stacked on
the same time variable are outside its fragment and reported as
inconclusive; the solver route has no such restriction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .solver import Verdict
from .syntax import (
    And,
    Arith,
    AtIndex,
    AtTime,
    Exists,
    Forall,
    Formula,
    I2T,
    Implies,
    Interval,
    Lit,
    Not,
    ONE_ARG,
    Or,
    Rel,
    Sort,
    T2I,
    Term,
    Var,
    children,
    format_interval,
    free_vars,
)
from .trace import DomainError, Trace, format_rational, iota_variable, quoted, value_at


class EvalError(Exception):
    """A term failed to denote; carries a human-readable reason."""


class OutsideFragment(Exception):
    """The formula needs reasoning this route does not implement."""


Assignment = Dict[str, Fraction]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def _as_index(value: Fraction, origin: str) -> int:
    if value.denominator != 1:
        raise EvalError(f"{origin} produced the non-integer index {value}")
    return int(value)


def eval_term(trace: Trace, term: Term, env: Optional[Assignment] = None) -> Fraction:
    """Value of a closed-under-env term; raises EvalError when undefined."""
    env = env or {}
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise EvalError(f"unbound variable {quoted(term.name)}") from None
    if isinstance(term, Arith):
        left = eval_term(trace, term.left, env)
        right = eval_term(trace, term.right, env)
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        return left * right
    if not isinstance(term, ONE_ARG):
        raise TypeError(f"not a term: {term!r}")
    arg = eval_term(trace, term.arg, env)
    if isinstance(term, I2T):
        j = _as_index(arg, "i2t argument")
        if j < 0 or j > trace.last_index:
            raise EvalError(f"index {j} out of range [0, {trace.last_index}]")
        return trace.time(j)
    try:
        if isinstance(term, T2I):
            return Fraction(iota_variable(trace, arg))
        if isinstance(term, AtIndex):
            j = _as_index(arg, "index expression")
        else:
            j = iota_variable(trace, arg)
        return value_at(trace, term.signal, j)
    except DomainError as exc:
        raise EvalError(str(exc)) from None


# ---------------------------------------------------------------------------
# Three-valued connectives
# ---------------------------------------------------------------------------

TV = Union[bool, EvalError]


def _not(v: TV) -> TV:
    return v if isinstance(v, EvalError) else (not v)


def _any(values: Iterable[TV]) -> TV:
    err: Optional[EvalError] = None
    for v in values:
        if v is True:
            return True
        if isinstance(v, EvalError) and err is None:
            err = v
    return err if err is not None else False


def _all(values: Iterable[TV]) -> TV:
    err: Optional[EvalError] = None
    for v in values:
        if v is False:
            return False
        if isinstance(v, EvalError) and err is None:
            err = v
    return err if err is not None else True


_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


# ---------------------------------------------------------------------------
# Breakpoint analysis for time quantifiers
# ---------------------------------------------------------------------------

def _slope(
    trace: Trace, expr: Term, v: str, env: Assignment
) -> Optional[Tuple[Fraction, Fraction]]:
    """(a, b) with `expr` = a*v + b, or None when a read in it fails to
    denote; raises OutsideFragment when `expr` is not affine in v.

    Refused first: v under a conversion or read, and a deeper-bound
    variable, which eval_term would report as a failing read.  What is left
    is exactly affine in v, so its values at v = 0 and v = 1 give b and a + b.
    """
    def stacked(node) -> bool:
        if isinstance(node, ONE_ARG):
            return v in free_vars(node)
        for sub in children(node):  # a loop, not any(genexpr): one frame a level
            if stacked(sub):
                return True
        return False

    if stacked(expr):
        raise OutsideFragment(f"conversions stacked over the quantified variable {quoted(v)}")
    deeper = free_vars(expr) - set(env) - {v}
    if deeper:
        raise OutsideFragment(
            f"argument mixes {quoted(v)} with the deeper-bound variable {quoted(sorted(deeper)[0])}"
        )
    try:
        b = eval_term(trace, expr, {**env, v: Fraction(0)})
        return eval_term(trace, expr, {**env, v: Fraction(1)}) - b, b
    except EvalError:
        return None


def _breakpoints(
    trace: Trace, body: Formula, v: str, env: Assignment, dom: Interval
) -> Set[Fraction]:
    """Candidate time points in `dom` where the body's truth can flip as v moves.

    The scan visits every node through `syntax.children`.  The argument of
    each t2i and @t read is a probe a*v + b, which steps where it meets a
    timestamp; only the timestamps strictly inside the image of
    (dom.lo, dom.hi) give points in the window, found by bisecting the
    trace's integer ticks.  A relation between time terms adds the point
    where its sides meet.
    """
    points: Set[Fraction] = set()
    ticks = trace.ticks

    def probe(expr: Term):
        if v not in free_vars(expr):
            return
        ab = _slope(trace, expr, v, env)
        if ab is None or ab[0] == 0:
            return
        a, b = ab
        lo, hi = sorted((a * dom.lo + b, a * dom.hi + b))
        first = bisect_right(ticks, trace.tick_floor(lo))
        for k in ticks[first:bisect_left(ticks, trace.tick_ceil(hi))]:
            points.add((Fraction(k, trace.den) - b) / a)

    def crossing(rel: Rel):
        if rel.left.sort is not Sort.TIME and rel.right.sort is not Sort.TIME:
            return
        if v not in free_vars(rel.left) | free_vars(rel.right):
            return
        left = _slope(trace, rel.left, v, env)
        right = None if left is None else _slope(trace, rel.right, v, env)
        if right is not None and left[0] != right[0]:
            points.add((right[1] - left[1]) / (left[0] - right[0]))

    def scan(node):
        if isinstance(node, (T2I, AtTime)):
            probe(node.arg)
        for sub in children(node):
            scan(sub)
        if isinstance(node, Rel):
            crossing(node)

    scan(body)
    return points


def _domain(trace: Trace, f: Union[Exists, Forall]) -> Union[Interval, EvalError]:
    """The quantifier's interval clipped to [0, m] or to the trace span."""
    iv = f.interval
    if f.var_sort is Sort.INDEX:
        dom = iv.clip(0, trace.last_index)
        outside = dom is None and iv.clip(iv.lo, iv.hi) is not None
        where = f"exceeds the trace bounds [0, {trace.last_index}]"
    else:
        dom = iv.clip(trace.t0, trace.tm)
        outside = iv.hi < trace.t0 or iv.lo > trace.tm
        where = (
            f"lies outside the trace span "
            f"[{format_rational(trace.t0)}, {format_rational(trace.tm)}]"
        )
    if outside:
        return EvalError(f"{f.var_sort.value} interval {format_interval(iv)} {where}")
    if dom is None:
        return EvalError(f"{f.var_sort.value} interval {format_interval(iv)} is empty")
    return dom


def _time_candidates(
    trace: Trace, dom: Interval, body: Formula, v: str, env: Assignment
) -> List[Fraction]:
    lo, hi = dom.lo, dom.hi
    fence = [lo] + sorted(
        p for p in _breakpoints(trace, body, v, env, dom) if lo < p < hi
    ) + [hi]
    candidates: List[Fraction] = []
    if not dom.lo_open:
        candidates.append(lo)
    candidates.extend(fence[1:-1])
    if not dom.hi_open and hi != lo:
        candidates.append(hi)
    for a, b in zip(fence, fence[1:]):
        candidates.append((a + b) / 2)
    return sorted(set(candidates))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

def _ev(trace: Trace, f: Formula, env: Assignment) -> TV:
    if isinstance(f, Rel):
        try:
            left = eval_term(trace, f.left, env)
            right = eval_term(trace, f.right, env)
        except EvalError as exc:
            return exc
        return _CMP[f.op](left, right)
    if isinstance(f, Not):
        return _not(_ev(trace, f.sub, env))
    if isinstance(f, And):
        left = _ev(trace, f.left, env)
        return left if left is False else _all([left, _ev(trace, f.right, env)])
    if isinstance(f, (Or, Implies)):
        left = _ev(trace, f.left, env)
        if isinstance(f, Implies):
            left = _not(left)
        return left if left is True else _any([left, _ev(trace, f.right, env)])
    if isinstance(f, (Exists, Forall)):
        return _quant(trace, f, env)
    raise TypeError(f"not a formula: {f!r}")


def _quant(trace: Trace, f: Union[Exists, Forall], env: Assignment) -> TV:
    if f.interval is None:
        raise OutsideFragment(
            f"unbounded real quantifier over {quoted(f.var)}; use the solver route"
        )
    dom = _domain(trace, f)
    if isinstance(dom, EvalError):
        return dom
    if f.var_sort is Sort.INDEX:
        values = map(Fraction, range(int(dom.lo), int(dom.hi) + 1))
    else:
        values = _time_candidates(trace, dom, f.body, f.var, env)
    combine = _any if isinstance(f, Exists) else _all
    return combine(_ev(trace, f.body, {**env, f.var: value}) for value in values)


def evaluate(trace: Trace, f: Formula, env: Optional[Assignment] = None) -> bool:
    """Two-valued evaluation; raises EvalError when the truth is undefined."""
    result = _ev(trace, f, env or {})
    if isinstance(result, EvalError):
        raise result
    return result


@dataclass(frozen=True)
class DirectResult:
    verdict: Verdict
    reason: str = ""


def check_direct(trace: Trace, f: Formula) -> DirectResult:
    """Decide a property by direct evaluation where the fragment allows."""
    try:
        result = _ev(trace, f, {})
    except OutsideFragment as exc:
        return DirectResult(
            Verdict.INCONCLUSIVE, f"outside the direct-evaluation fragment: {exc}"
        )
    if isinstance(result, EvalError):
        return DirectResult(Verdict.INCONCLUSIVE, str(result))
    return DirectResult(Verdict.SATISFIED if result else Verdict.VIOLATED)
