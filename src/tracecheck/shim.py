"""A small SMT-LIB evaluator for scripts over fully pinned trace arrays.

It answers the default solver command, `tracecheck-solve`.  The solver
driver runs `serve` in a process of its own: a small single-threaded server
that reads one request per line and hands each to one forked child.  The
server first evaluates `_WARM_UP` once, so that its children start from
code that has already run, and it forks the child for a request ahead of
it: the first before it reads any request, each later one as soon as it
has replied to the last.  The child takes its own session and the pipes
the server reads, then waits for its request; only then does it move to
the caller's working directory and cap its address space, and either read
the script back from disk and evaluate it or, for a `--solver CMD`, exec
`CMD <script>` in the caller's environment.  The server enforces the
deadline, reaps the child and replies with one JSON line.
`tracecheck-solve FILE` (or `python -m tracecheck.shim FILE`) evaluates one
script and prints the answer.

This is an evaluator, not a general solver: it assumes the interesting
structure lives in the quantifiers while the arrays are pinned cell by cell
by equality assertions, which is exactly the shape of the scripts this
package emits.  It reads the SMT-LIB fragment `smt.translate` emits
(tests/test_smt.py checks that the translator stays inside it and uses all
of it), at exactly the translator's arities:

* commands `(set-logic AUFLIRA)`, `declare-const NAME (Array Int Real)`,
  `assert`, `check-sat` and `get-model`;
* terms: numerals, names bound by `let` or `exists`, binary `+ - * /`,
  unary `-`, `to_int` (the floor), `to_real` (the identity on exact
  rationals), `select` from a declared array with a numeric index, `ite`
  with a formula condition, and `let` with one binding around a term;
* formulas: `false`, `< <= = >= >` on two terms, `not`, binary `and` and
  `or`, and `exists` over one `Int` or `Real` binder;
* pins, one per line: `(assert (= (select arr j) lit))` with a numeral
  index and `lit` in one of the four shapes `smt.smt_real` writes, `n`,
  `(- n)`, `(/ p q)` and `(- (/ p q))`.

When the script is read, before anything is evaluated, one walk
(`_Eval.build`) checks each node of an assertion against that fragment,
whose one definition is the table `_Eval.FRAGMENT`, and compiles it into a
closure env -> value, so evaluation never dispatches on a head string.  Pin
lines skip the walk: the regex that reads them already fixes their shape.
Anything else (another command, sort or operator, another arity, a symbol
nothing binds, or a term where a formula is expected or the other way
round) is a `ShimError`, even where evaluation would never reach it: exit
code 1, a message on stderr and nothing on stdout, so the solver status is
`error` and the verdict `inconclusive`.  Within the fragment it is exact:

* every numeral is parsed once, when the script is read, into an exact
  rational: an `int` leaf when it is integral, else a `Fraction`; a
  division makes a `Fraction`, never a float;
* each pin line binds its cell and skips the tokenizer; contradictory
  pins are unsat.  A pin-shaped assertion anywhere else, or one dividing
  by zero, is an ordinary assertion;
* a quantifier's window is the guard the translator writes first in its
  body, `(and (and (<=|< lo v) (<=|< v hi)) ...)`, its ends evaluated
  with the variable unknown.  Outside the guard the body is false, so the
  window loses no witness.  Without that guard, or for an end that is not
  a number, that side of the window is unbounded.  With two numeric ends
  the guard is true strictly inside, so only the rest of the body is
  evaluated there; at an end the guard is evaluated too and joined with
  the rest;
* integer quantifiers are decided by finite enumeration of the window;
* real quantifiers are decided by evaluating finitely many candidates:
  the window's ends, every point where some comparison affine in the
  variable can flip, every point where a `to_int` of a term affine in the
  variable steps, and a midpoint inside each gap.  That set is exhaustive
  because between consecutive candidates every comparison keeps a constant
  truth value, which one classification of each relation, its sides and
  the conditions nested in them verifies; when it cannot, the result
  degrades to unknown rather than to a guess.  An ite condition that keeps
  one truth value on the open window contributes only the branch it takes
  there, so the variable-rate index map is read only where the window
  reaches: O(log n + k) of its conditions for k records in the window.
  The points are integer numerators over one denominator (a floor's steps
  one `range`, a crossing one numerator), sorted as ints; each candidate
  is made, an `int` when integral, only when it is reached, in ascending
  order.

Reads of unpinned cells, unbounded integer ranges, and real bodies the
classifier cannot account for all evaluate to unknown.  Truth values are
three-valued throughout (True / False / None).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import re
import signal
import sys
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .solver import HANGUP, drain, limit_address_space
from .trace import PLAIN_DIGITS, parse_rational, quoted

RECURSION_LIMIT = 200_000
INT_ENUM_CAP = 1_000_000
GRID_CAP = 200_000


class ShimError(Exception):
    pass


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NUMERAL = r"[0-9]+(?:\.[0-9]+)?"  # SMT-LIB numerals are ASCII digits
_NUMERAL_RE = re.compile(_NUMERAL)
_LITERAL = (  # the four shapes of smt.smt_real: n, (- n), (/ p q), (- (/ p q))
    rf"{_NUMERAL}|\(- {_NUMERAL}\)|\(/ {_NUMERAL} {_NUMERAL}\)|\(- \(/ {_NUMERAL} {_NUMERAL}\)\)"
)
# A pin line as smt.translate writes it; the array group cannot be a numeral.
_PIN_RE = re.compile(
    rf"\s*\(assert \(= \(select ([^\s()0-9][^\s()]*) ([0-9]+)\) ({_LITERAL})\)\)\s*"
)

Number = Union[int, Fraction]  # an exact rational; integral ones are `int`
Pin = Tuple[str, int, Number]  # (array, index, value) of a pin line
Window = Tuple[Optional[Number], Optional[Number]]  # a quantifier's (lo, hi); None is no bound
Roots = Tuple[range, int]  # integer numerators over one positive denominator


class _Atoms(dict):
    """A script's distinct atoms, each read once: a numeral becomes an
    `int` or `Fraction` leaf, anything else stays a symbol."""

    def __missing__(self, tok: str) -> Union[str, Number]:
        leaf: Union[str, Number] = tok
        if _NUMERAL_RE.fullmatch(tok):
            if len(tok) <= PLAIN_DIGITS and "." not in tok:
                leaf = int(tok)  # the regex admits ASCII digits only
            else:
                try:
                    value = parse_rational(tok)
                except ValueError:
                    raise ShimError(f"numeral out of range: {quoted(tok)}") from None
                leaf = value.numerator if value.denominator == 1 else value
        self[tok] = leaf
        return leaf


def _tokenize(text: str, stack: List[list], atoms: _Atoms) -> None:
    """Read the S-expressions in `text` onto `stack`, whose last list is
    the innermost open one."""
    top = stack[-1]
    for tok in _TOKEN_RE.findall(text):
        if tok == "(":
            top = []
            stack.append(top)
        elif tok == ")":
            if len(stack) == 1:
                raise ShimError("unbalanced ')'")
            done = stack.pop()
            top = stack[-1]
            top.append(done)
        else:
            top.append(atoms[tok])


def _compound_literal(lit: str, atoms: _Atoms) -> Optional[Number]:
    """The value of a parenthesised `_LITERAL`: (- n), (/ p q) or
    (- (/ p q)); None, an unknown, for a zero divisor."""
    num, _, den = lit.strip("(-/ )").partition(" ")
    value = _div(atoms[num], atoms[den]) if den else atoms[num]
    return -value if value is not None and lit[1] == "-" else value


def parse_script(text: str) -> List[Union[list, Pin]]:
    """The script's top-level forms: S-expressions as nested lists with
    `int` and `Fraction` numerals, except that a pin line at paren depth 0
    becomes a `Pin` without going through the tokenizer."""
    atoms = _Atoms()
    forms: List[Union[list, Pin]] = []
    stack: List[list] = [forms]
    pending: List[str] = []  # lines not yet tokenized; they begin at depth 0
    depth = 0
    for line in text.splitlines():
        cut = line.find(";")
        if cut >= 0:
            line = line[:cut]
        pin = _PIN_RE.fullmatch(line) if depth == 0 else None
        value = None
        if pin is not None:
            array, index, lit = pin.groups()
            value = atoms[lit] if lit[0] != "(" else _compound_literal(lit, atoms)
        if value is None:  # no pin line, or one dividing by zero
            pending.append(line)
            depth += line.count("(") - line.count(")")
            continue
        if pending:
            _tokenize("\n".join(pending), stack, atoms)
            pending = []
        # pin indexes are mostly distinct: caching a short one saves nothing
        forms.append((array, int(index) if len(index) <= PLAIN_DIGITS else atoms[index], value))
    _tokenize("\n".join(pending), stack, atoms)
    if len(stack) != 1:
        raise ShimError("unbalanced '('")
    return forms


# ---------------------------------------------------------------------------
# Values: int | Fraction | bool | None (unknown)
# ---------------------------------------------------------------------------

Value = Union[Number, bool, None]


def _is_num(v) -> bool:
    return type(v) is int or type(v) is Fraction  # never a bool


def _div(a: Number, b: Number) -> Optional[Fraction]:
    """a / b, exact (two ints make a Fraction, never a float); None, the
    unknown value, for a zero divisor."""
    if b == 0:
        return None
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}


def _arith(op: str, args: List[Value]) -> Value:
    """`op` (an _ARITH key, or unary minus) on its one or two numbers; None
    when an operand is unknown or a divisor is zero."""
    a = args[0]
    if len(args) == 1:
        return None if a is None else -a
    b = args[1]
    return None if a is None or b is None else _ARITH[op](a, b)


_RELATIONS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt,
}

NUM, BOOL = "number", "formula"  # the fragment's two sorts: Int and Real are both numbers


def _brief(node) -> str:
    """`node` for a message: a numeral, a quoted symbol, or a list by its head."""
    if type(node) is list:
        return f"({_brief(node[0])} ...)" if node and type(node[0]) is str else "(...)"
    return quoted(node) if type(node) is str else str(node)


def _binding(node, sorts=None) -> bool:
    """Whether `node` is a list of one (name x) pair, x one of `sorts` when
    given."""
    if type(node) is not list or len(node) != 1:
        return False
    b = node[0]
    return type(b) is list and len(b) == 2 and type(b[0]) is str and (sorts is None or b[1] in sorts)


# ---------------------------------------------------------------------------
# Quantifiers: the translator's guard, and the real-quantifier analysis
# ---------------------------------------------------------------------------

def _guard_ends(v: str, body) -> Optional[Tuple[object, object]]:
    """The ends (lo, hi) of the guard `smt.translate` writes first in an
    exists body, `(and (and (<=|< lo v) (<=|< v hi)) rest)`; None when
    `body` has another shape."""
    match body:
        case ["and", ["and", [("<" | "<="), lo, low_v], [("<" | "<="), high_v, hi]], _] \
                if low_v == v == high_v:
            return lo, hi
    return None


def _candidates(roots: List[Roots], window: Window) -> Iterator[Number]:
    """The fence (the window's ends and the roots strictly between them,
    or one past the outermost root on a side with no end) and a midpoint
    in each gap, in ascending order.  Each point is an integer numerator
    over the lcm of every denominator until it is yielded."""
    den = math.lcm(*(d for _, d in roots), *(x.denominator for x in window if x is not None))
    scaled: Set[int] = set()
    for nums, d in roots:
        k = den // d
        scaled.update(range(nums.start * k, nums.stop * k, nums.step * k))
    pts = sorted(scaled)
    start, end = (None if x is None else x.numerator * (den // x.denominator) for x in window)
    fence = [(pts[0] if pts else 0) - den if start is None else start]
    fence.extend(p for p in pts if fence[0] < p and (end is None or p < end))
    if end is None:
        end = (pts[-1] if pts else 0) + den
    if end > fence[-1]:
        fence.append(end)

    def number(n: int, d: int) -> Number:  # n / d for d > 0
        return n // d if n % d == 0 else Fraction(n, d)
    # the fence strictly increases, so each midpoint falls between its neighbours
    yield number(fence[0], den)
    for a, b in zip(fence, fence[1:]):
        yield number(a + b, 2 * den)
        yield number(b, den)


# Term classes for the real-quantifier completeness analysis.  A term is
# classified by how it can depend on the quantified variable v:
#   GROUND  fixed once the outer environment is fixed (no v, no inner binder)
#   AFFINE  a*v + b with exact rational coefficients
#   PW      for each value of the inner binders, piecewise constant in v,
#           jumping only at collected roots (an inner binder itself is PW)
#   VUNK    depends on v but evaluates to an unknown/symbolic value
#   BAD     a dependence the analysis cannot bound
GROUND, AFFINE, PW, VUNK, BAD = range(5)


class _Eval:
    """One script's state: declared arrays, pins, and the evaluator."""

    def __init__(self):
        self.arrays: Set[str] = set()
        self.pins: Dict[Tuple[str, int], Number] = {}
        self.conflict = False
        self.compiled: Dict[int, tuple] = {}  # id(node) -> (node, closure)

    # --- pins ---

    def pin(self, array: str, index: int, value: Number) -> None:
        """Bind one array cell; a second, different value is a conflict."""
        if self.pins.setdefault((array, index), value) != value:
            self.conflict = True

    # --- the fragment: one walk checks each node and compiles it into a closure ---

    def build(self, e, want: str, scope: FrozenSet[str]) -> Callable[[Dict[str, Value]], Value]:
        """`e` as a closure env -> value, once it is checked to be a `want`
        of the fragment whose free names are all in `scope`.  A node's own
        sort is checked before its arguments; each leaf object, which
        `_Atoms` shares between occurrences, gets one closure."""
        leaf = type(e) is not list
        if leaf:
            if e == "false":
                sort = BOOL
            elif _is_num(e) or e in scope:
                sort = NUM
            else:
                raise ShimError(f"unknown symbol {quoted(e)}")
        elif not e or type(e[0]) is not str:
            raise ShimError(f"bad expression {_brief(e)}")
        else:
            signature = self.FRAGMENT.get((e[0], len(e) - 1))
            if signature is None:
                raise ShimError(f"unsupported operator {quoted(e[0])} with {len(e) - 1} arguments")
            sort, arg_sorts, compiler = signature
        if sort != want:
            raise ShimError(f"{_brief(e)} is a {sort} where a {want} is expected")
        hit = self.compiled.get(id(e)) if leaf else None
        if hit is None:
            if not leaf:
                # a list comprehension recurses through Python calls only, so
                # a deep term meets the recursion limit, not the C stack's end
                args = [a if s is None else self.build(a, s, scope) for a, s in zip(e[1:], arg_sorts)]
                fn = compiler(self, e, args, scope)
            elif type(e) is not str:
                fn = lambda env: e  # noqa: E731
            else:
                fn = (lambda env: False) if e == "false" else (lambda env: env.get(e))
            hit = self.compiled[id(e)] = (e, fn)  # holding the node, its id is never reused
        return hit[1]

    def compile(self, e) -> Callable[[Dict[str, Value]], Value]:
        """The closure of `e`, a node already built."""
        return self.compiled[id(e)][1]

    _UNARY = {
        "-": operator.neg, "not": operator.not_, "to_int": math.floor,
        "to_real": operator.pos,  # Int and Real values are both exact rationals
    }

    def _unary(self, e, args, scope):
        [a], op = args, self._UNARY[e[0]]

        def unary(env):
            x = a(env)
            return None if x is None else op(x)
        return unary

    def _binary(self, e, args, scope):
        (a, b), op = args, _ARITH.get(e[0]) or _RELATIONS[e[0]]

        def binary(env):
            x, y = a(env), b(env)
            return None if x is None or y is None else op(x, y)
        return binary

    def _and_or(self, e, args, scope):
        (a, b), stop = args, e[0] == "or"  # the value that decides at once

        def junction(env):
            x = a(env)
            if x is stop:
                return stop
            y = b(env)  # decides unless x is unknown and y is not `stop`
            return y if x is not None or y is stop else None
        return junction

    def _ite(self, e, args, scope):
        cond, then, other = args

        def ite(env):
            c = cond(env)
            return None if c is None else then(env) if c else other(env)
        return ite

    def _let(self, e, args, scope):
        if not _binding(e[1]):
            raise ShimError("let takes one (name term) binding")
        [[name, bound]], body = e[1], e[2]
        value, run = self.build(bound, NUM, scope), self.build(body, NUM, scope | {name})
        return lambda env: run({**env, name: value(env)})

    def _select(self, e, args, scope):
        (array, index), pins = args, self.pins
        if type(array) is not str or array not in self.arrays or array in scope:
            raise ShimError(f"select from {_brief(array)}, which is not a declared array")
        # a pin's index is an int, equal to an integral Fraction; an unknown
        # or non-integral index matches no pin
        return lambda env: pins.get((array, index(env)))

    def _exists(self, e, args, scope):
        if not _binding(e[1], ("Int", "Real")):
            raise ShimError("exists takes one (name Int|Real) binder")
        [[v, sort]], body = e[1], e[2]
        run, guard = self.build(body, BOOL, scope | {v}), _guard_ends(v, body)
        if guard is not None:  # lo, hi, rest and the guard, the body's subterms: built already
            guard = [self.compile(part) for part in (*guard, body[2], body[1])]
        return lambda env: self.ev_exists(v, sort, body, run, guard, env)

    # The fragment, each operator at an arity the translator writes it:
    # (head, argument count) -> (sort, argument sorts, compiler).  `build`
    # builds the arguments with a sort and hands them to the compiler; an
    # argument without one (None) is the compiler's to check: the array of
    # a `select`, the binding of a `let` or `exists` and the body it scopes.
    FRAGMENT = {
        **dict.fromkeys([(op, 2) for op in _ARITH], (NUM, (NUM, NUM), _binary)),
        ("-", 1): (NUM, (NUM,), _unary),
        ("to_int", 1): (NUM, (NUM,), _unary),
        ("to_real", 1): (NUM, (NUM,), _unary),
        ("ite", 3): (NUM, (BOOL, NUM, NUM), _ite),
        ("select", 2): (NUM, (None, NUM), _select),
        ("let", 2): (NUM, (None, None), _let),
        **dict.fromkeys([(rel, 2) for rel in _RELATIONS], (BOOL, (NUM, NUM), _binary)),
        ("not", 1): (BOOL, (BOOL,), _unary),
        ("and", 2): (BOOL, (BOOL, BOOL), _and_or),
        ("or", 2): (BOOL, (BOOL, BOOL), _and_or),
        ("exists", 2): (BOOL, (None, None), _exists),
    }

    # --- quantifiers ---

    def ev_exists(self, v: str, sort: str, body, run, guard, env) -> Value:
        """Whether `body` (compiled: `run`) holds for some `v` of `sort`
        inside the window of its guard, compiled as `guard` = [lo, hi,
        rest, the guard's own `and`] (None: no guard).  Outside the guard
        the body is false, so no witness is lost; an end that is not a
        number is no bound."""
        # v masked as unknown: the ends are the same for every v, and an
        # outer binding of the same name is hidden; one copy, rebound per
        # candidate
        env = {**env, v: None}
        lo = hi = None
        step = run
        if guard is not None:
            lo, hi = (x if _is_num(x) else None for x in (end(env) for end in guard[:2]))
            if lo is not None and hi is not None:
                if lo > hi:
                    return False
                step = guard[2]  # the rest: strictly inside, the guard is true
        complete = True
        if sort == "Int":
            if lo is None or hi is None:
                return None
            first, last = math.ceil(lo), math.floor(hi)
            if last - first > INT_ENUM_CAP:
                return None
            candidates = range(first, last + 1)
        else:
            candidates, complete = self._real_candidates(v, body, env, (lo, hi))
        out: Optional[bool] = False
        for c in candidates:
            env[v] = c
            r = step(env)
            # where the rest is false so is the body; at an end, so may be
            # the guard: joined with the rest as `and` joins them, the rest
            # evaluated once
            if r is not False and step is not run and not lo < c < hi:
                g = guard[3](env)
                r = False if g is False else r if g is True else None
            if r is True:
                return True
            if r is None:
                out = None
        return out if complete else None

    def _real_candidates(self, v, body, env, window: Window) -> Tuple[Iterator[Number], bool]:
        """The points to evaluate `body` at, lazily and ascending, and whether they are exhaustive."""
        roots, complete = self.real_roots(body, v, env, window)
        return _candidates(roots, window), complete

    # --- candidate roots for real quantifiers ---

    def real_roots(
        self, body, v: str, env, window: Window
    ) -> Tuple[List[Roots], bool]:
        """Points where some comparison's truth can flip, with completeness.

        The walk goes through the body's connectives and inner quantifiers
        and hands each relation to `relation_class`, which collects its
        roots and, through `classify`, those of every ite condition and
        `to_int` in its sides.  `complete` stays True only
        while no relation is BAD, that is, while each one keeps its truth
        value between the collected roots; else the caller reports unknown
        instead of trusting a False.
        """
        roots: List[Roots] = []
        complete = True
        grid = (window, roots)
        # a loop, not a nested function calling itself: that would be a
        # cycle holding this state past the script's end
        stack: List[Tuple[object, Set[str]]] = [(body, set())]
        while stack:
            node, qvars = stack.pop()
            if type(node) is not list:
                continue  # false
            head = node[0]
            if head in _RELATIONS:
                if self.relation_class(node, v, env, {}, qvars, grid)[0] == BAD:
                    complete = False
            elif head == "exists":
                [[name, _]] = node[1]
                if name != v:  # else our v is shadowed below this point
                    stack.append((node[2], qvars | {name}))
            else:
                stack += [(child, qvars) for child in reversed(node[1:])]
        return roots, complete

    def classify(self, e, v, env, lenv, qvars, grid):
        """Term class for relation_class; see the class constants above.

        Returns (GROUND, value) | (AFFINE, (a, b)) | (PW,) | (VUNK,) |
        (BAD,).  `lenv` holds the classes of the let names in scope; a
        ground subterm is evaluated with the values of the ground ones.
        `grid` is (window of v, roots): a `to_int` of a term affine in v
        adds the points where it steps inside the window to the roots, and
        an ite condition its own roots through relation_class.  An ite
        whose condition keeps one truth value on the open window is the
        branch it takes there; the other branch is not classified.
        """
        if _is_num(e):
            return (GROUND, e)
        if isinstance(e, str):
            if e == v:
                return (AFFINE, (1, 0))
            if e in lenv:
                return lenv[e]
            if e in qvars:
                return (PW,)
            if e in env:
                return (GROUND, env[e])
            return (BAD,)
        head = e[0]
        if head in _ARITH:
            parts = [self.classify(a, v, env, lenv, qvars, grid) for a in e[1:]]
            kinds = {p[0] for p in parts}
            if BAD in kinds:
                return (BAD,)
            if kinds <= {GROUND}:
                return (GROUND, _arith(head, [p[1] for p in parts]))
            if AFFINE in kinds:
                if PW in kinds:
                    return (BAD,)
                if VUNK in kinds or any(
                    p[0] == GROUND and not _is_num(p[1]) for p in parts
                ):
                    return (VUNK,)
                pairs = [
                    p[1] if p[0] == AFFINE else (0, p[1]) for p in parts
                ]
                pair = self._affine_op(head, pairs)
                return (AFFINE, pair) if pair is not None else (BAD,)
            return (VUNK,) if VUNK in kinds else (PW,)
        if head == "to_real":  # an exact rational already
            return self.classify(e[1], v, env, lenv, qvars, grid)
        if head == "to_int":
            return self._floor_class(self.classify(e[1], v, env, lenv, qvars, grid), grid)
        if head == "select":
            idx = self.classify(e[2], v, env, lenv, qvars, grid)
            if idx[0] == GROUND:
                return (GROUND, self.compile(e)(self._ground_env(env, lenv)))
            if idx[0] in (PW, VUNK):
                return (idx[0],)
            return (BAD,)
        if head == "ite":
            cond, truth = self.relation_class(e[1], v, env, lenv, qvars, grid)
            if cond == BAD:
                return (BAD,)
            if truth is not None:  # inside the window only this branch is reached
                return self.classify(e[2] if truth else e[3], v, env, lenv, qvars, grid)
            branches = [self.classify(x, v, env, lenv, qvars, grid) for x in e[2:4]]
            kinds = {b[0] for b in branches}
            if BAD in kinds:
                return (BAD,)
            if cond == GROUND:  # with an unknown truth value
                return (VUNK,) if AFFINE in kinds or not kinds <= {GROUND} else (GROUND, None)
            if AFFINE in kinds:
                return (BAD,)
            if cond == VUNK or VUNK in kinds:
                return (VUNK,)
            return (PW,)  # a PW condition and GROUND or PW branches
        if head == "let":
            [[name, bound]] = e[1]
            cls = self.classify(bound, v, env, lenv, qvars, grid)
            return self.classify(e[2], v, env, {**lenv, name: cls}, qvars, grid)
        return (BAD,)

    def relation_class(self, e, v, env, lenv, qvars, grid) -> Tuple[int, Optional[bool]]:
        """How the truth of relation `e` can vary with v inside the window
        of `grid`: (GROUND, truth), (PW, None), (VUNK, None) or (BAD, None).

        GROUND is one truth value on the open window, returned with the
        class; it is None when a side is unknown.  Two ground or affine
        sides with the same slope keep one truth value everywhere; with
        different slopes they cross once.  A crossing strictly inside a
        bounded window is added to the roots of `grid`, and the relation is
        PW; one at or beyond an end leaves it GROUND, with the truth it has
        at the window's midpoint (the ends are candidates anyway, evaluated
        exactly).  A sloped side against a stepping one flips off the roots
        and is BAD.  Any other formula, such as an ite condition that is
        not a relation (the translator writes none), is BAD too, which
        makes the caller's answer at most unknown.
        """
        if not (type(e) is list and e[0] in _RELATIONS):
            return BAD, None
        parts = [self.classify(a, v, env, lenv, qvars, grid) for a in e[1:]]
        kinds = {p[0] for p in parts}
        if BAD in kinds:
            return BAD, None
        if VUNK in kinds:
            return VUNK, None  # an unknown side never yields a root
        if any(p[0] == GROUND and not _is_num(p[1]) for p in parts):
            return (GROUND if kinds == {GROUND} else VUNK), None
        if PW in kinds:
            return (BAD if any(p[0] == AFFINE and p[1][0] != 0 for p in parts) else PW), None
        (xa, xb), (ya, yb) = [p[1] if p[0] == AFFINE else (0, p[1]) for p in parts]
        rel = _RELATIONS[e[0]]
        if xa == ya:
            return GROUND, rel(xb, yb)
        root, (lo, hi) = _div(yb - xb, xa - ya), grid[0]
        if lo is None or hi is None or not lo < hi or lo < root < hi:
            grid[1].append((range(root.numerator, root.numerator + 1), root.denominator))
            return PW, None
        mid = _div(lo + hi, 2)
        return GROUND, rel(xa * mid + xb, ya * mid + yb)

    @staticmethod
    def _ground_env(env, lenv):
        """`env` and the values of the let names in `lenv` that are GROUND."""
        return {**env, **{name: c[1] for name, c in lenv.items() if c[0] == GROUND}}

    @staticmethod
    def _floor_class(arg, grid):
        """The class of `to_int` on an argument of class `arg`."""
        if arg[0] == GROUND:
            return (GROUND, None if arg[1] is None else math.floor(arg[1]))
        if arg[0] != AFFINE:
            return arg  # PW, VUNK and BAD stay what they are
        (a, b), ((lo, hi), roots) = arg[1], grid
        if a == 0:
            return (GROUND, math.floor(b))
        if lo is None or hi is None:
            return (BAD,)
        ends = (a * lo + b, a * hi + b)
        j_lo, j_hi = math.ceil(min(ends)), math.floor(max(ends))
        if j_hi - j_lo > GRID_CAP:
            return (BAD,)
        # v = (j - b) / a = s * (j*bd - bn) / (bd*|an|) for j = j_lo..j_hi, s = ±ad
        (an, ad), (bn, bd) = (a.numerator, a.denominator), (b.numerator, b.denominator)
        s = ad if an > 0 else -ad
        roots.append((range(s * (j_lo * bd - bn), s * ((j_hi + 1) * bd - bn), s * bd), bd * abs(an)))
        return (PW,)

    @staticmethod
    def _affine_op(head, pairs):
        """`head` on affine (a, b) pairs; None when the result is not affine."""
        if len(pairs) == 1:  # unary minus
            a, b = pairs[0]
            return (-a, -b)
        (a, b), (pa, pb) = pairs
        if head == "+":
            return (a + pa, b + pb)
        if head == "-":
            return (a - pa, b - pb)
        if head == "*":
            return None if a != 0 and pa != 0 else (a * pb + pa * b, b * pb)
        return None if pa != 0 or pb == 0 else (_div(a, pb), _div(b, pb))


# ---------------------------------------------------------------------------
# Script execution
# ---------------------------------------------------------------------------

# A small script in the translator's shape that uses every `_Eval.FRAGMENT`
# entry and evaluates both quantifiers over their whole windows: `serve`
# runs it once before it forks, so that its children start from code that
# has already run.  It answers sat.
_WARM_UP = """(set-logic AUFLIRA)
(declare-const t (Array Int Real))
(declare-const v_x (Array Int Real))
(assert (= (select t 0) 0.0))
(assert (= (select v_x 0) (- 1.5)))
(assert (= (select t 1) 0.5))
(assert (= (select v_x 1) (/ 1.0 3.0)))
(assert (= (select t 2) 1.25))
(assert (= (select v_x 2) (- (/ 7.0 2.0))))
(assert (not (exists ((sigma0 Int)) (and (and (<= 0 sigma0) (<= sigma0 2))
  (or (> (select v_x (let ((x1 sigma0)) (ite (< x1 0) 0 (ite (> x1 2) 2 x1)))) 2.0)
    (exists ((tau1 Real)) (and (and (<= 0.0 tau1) (< tau1 1.25))
      (or (= (to_int (* 2.0 (- tau1 (/ (to_real sigma0) 4.0)))) 3)
        (>= (select v_x (let ((x2 (+ tau1 (select t sigma0)))) (ite (< x2 0.5) 0 (ite (< x2 1.25) 1 2))))
          (- (select v_x 0)))))))))))
(check-sat)
(get-model)
"""


def run_script(text: str) -> List[str]:
    state = _Eval()
    asserts: List[Callable[[Dict[str, Value]], Value]] = []
    out: List[str] = []
    last_status: Optional[str] = None
    try:
        for form in parse_script(text):
            if type(form) is tuple:
                if form[0] not in state.arrays:
                    raise ShimError(f"select from {quoted(form[0])}, which is not a declared array")
                state.pin(*form)
                continue
            head = form[0] if type(form) is list and form else None
            if head == "assert" and len(form) == 2:
                asserts.append(state.build(form[1], BOOL, frozenset()))
            elif head == "declare-const" and len(form) == 3 and type(form[1]) is str \
                    and form[2] == ["Array", "Int", "Real"]:
                state.arrays.add(form[1])
            elif form == ["check-sat"]:
                last_status = _decide(state, asserts)
                out.append(last_status)
            elif form == ["get-model"]:
                if last_status == "sat":
                    out.append("(model )")
            elif form != ["set-logic", "AUFLIRA"]:
                raise ShimError(f"unsupported command {_brief(form)}")
    finally:
        state.compiled.clear()  # an exists closure holds the state: free it on return
    return out


def _decide(state: _Eval, asserts: List) -> str:
    truth: Optional[bool] = True  # the assertions' conjunction, left to right
    for run in asserts:
        r = run({})
        if r is False:
            truth = False
            break
        if r is None:
            truth = None
    if truth is False or state.conflict:
        return "unsat"
    return "unknown" if truth is None else "sat"


def solve(path: str) -> Tuple[int, str, str]:
    """Evaluate the script at `path` (`-` for stdin): (exit code, stdout, stderr).

    The script runs under RECURSION_LIMIT; the caller's limit is restored
    afterwards.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return 1, "", f"cannot read script: {exc}\n"

    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(RECURSION_LIMIT)
        out = run_script(text)
    except RecursionError:
        return 1, "", "max. recursion depth exceeded\n"
    except MemoryError:
        return 1, "", "out of memory\n"
    except ShimError as exc:
        return 1, "", f"{exc}\n"
    except Exception as exc:  # noqa: BLE001 - any other failure is a shim bug
        return 1, "", f"internal error: {exc!r}\n"
    finally:
        sys.setrecursionlimit(limit)
    return 0, "".join(f"{line}\n" for line in out), ""


def _solve_in_child() -> Tuple[int, int, int, int]:
    """Fork the child for the next script: (its pid, the pipe to write its
    request line to, the pipes to read its stdout and stderr from).

    The child takes its own session, reads /dev/null and writes to two
    pipes at once, before it waits: a copy of this server's stdout would
    keep the caller from seeing the server end.  It then waits for one
    request and exits 0 if the pipe ends first.  Only once the request has
    arrived does it move to the request's `cwd` and cap its address space,
    so what is in force when the call is made applies, and then run the
    evaluator (`argv` None) or exec `argv + [path]`.
    """
    request_r, request_w = os.pipe()
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    pid = os.fork()
    if pid:
        for fd in (request_r, out_w, err_w):
            os.close(fd)
        return pid, request_w, out_r, err_r
    # The child must end here whatever happens, never back in the serve loop.
    try:
        os.setsid()
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        for fd in (request_w, out_r, out_w, err_r, err_w):
            os.close(fd)
        with open(request_r, "rb") as fh:
            line = fh.readline()
        if not line:
            os._exit(0)
        argv, env, cwd, _, mem_mb, path = json.loads(line)
        os.chdir(cwd)
        limit_address_space(mem_mb)
        if argv is None:
            code, out, err = solve(path)
            sys.stdout.write(out)
            sys.stderr.write(err)
        else:
            code = _exec(argv + [path], env)
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:  # noqa: BLE001 - the exit status reports it
        os._exit(70)
    os._exit(code)


def _exec(argv: List[str], env: Dict[str, str]) -> int:
    """Replace this process with `argv`; if that fails, say why on stderr and return 127."""
    # the signal dispositions a program expects, which Python changed at startup
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    try:
        os.execvpe(argv[0], argv, env)
    except FileNotFoundError:
        sys.stderr.write(f"solver command not found: {argv[0]}\n")
    except OSError as exc:
        sys.stderr.write(f"could not start solver: {exc}\n")
    return 127


def serve() -> int:
    """Answer solve requests from stdin, one JSON line each, until EOF.

    A request is `[argv, env, cwd, timeout_s, mem_mb, script path]`, with
    `argv` and `env` None for the bundled evaluator.  Each script runs in a
    child forked from this single-threaded process before the request came:
    the first after `_WARM_UP` has run, each later one as soon as the last
    reply is out.  The reply is one JSON line with the child's exit code
    (or "timeout"), its stdout and stderr and its peak resident set in MB.
    A caller that hangs up while its script runs ends the script and the
    server; at EOF the server ends the idle child and reaps it.
    """
    run_script(_WARM_UP)
    child: Optional[Tuple[int, int, int, int]] = _solve_in_child()
    try:
        for line in sys.stdin:
            timeout_s = json.loads(line)[3]
            (pid, request_w, out_r, err_r), child = child, None
            try:
                with open(request_w, "w") as fh:
                    fh.write(line)
            except BrokenPipeError:
                pass  # the child is gone already: `drain` reaps it and reports how it ended
            try:
                code, outputs, rss_mb = drain(pid, [out_r, err_r], timeout_s, sys.stdin.fileno())
            finally:
                os.close(out_r)
                os.close(err_r)
            if code == HANGUP:
                break
            out, err = (data.decode(errors="replace") for data in outputs)
            reply = {"code": code, "stdout": out, "stderr": err, "max_rss_mb": rss_mb}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            child = _solve_in_child()
    finally:
        if child is not None:  # EOF on its request pipe ends the idle child
            pid, request_w, out_r, err_r = child
            for fd in (request_w, out_r, err_r):
                os.close(fd)
            os.waitpid(pid, 0)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracecheck-solve",
        description="evaluate an SMT-LIB script over pinned trace arrays",
    )
    parser.add_argument("script", help="path to the .smt2 file, or - for stdin")
    args = parser.parse_args(argv)
    code, out, err = solve(args.script)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
