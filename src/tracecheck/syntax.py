"""Concrete syntax, AST and type checking for the property language.

Terms come in three sorts, time (timestamps), index (record positions) and
value (reals), connected by i2t/t2i conversions and the @i/@t signal reads.
Quantifiers with an interval bind time or index variables; interval-less
quantifiers bind real variables.

Grammar sketch (quantifier bodies are greedy, extending as far as possible):

    formula  := disj ('implies' formula)?          # right-associative
    disj     := conj ('or' conj)*
    conj     := unary ('and' unary)*
    unary    := 'not' unary | quantifier | atom
    quantifier := ('exists'|'forall') VAR ('in' interval)? 'such' 'that' formula
    atom     := relation | '(' formula ')'
    relation := sum ('<'|'<='|'='|'!='|'>='|'>') sum
    sum      := product (('+'|'-') product)*
    product  := primary ('*' primary)*
    primary  := NUMBER | '-' NUMBER | 'i2t' '(' sum ')' | 't2i' '(' sum ')'
              | SIGNAL ('@i'|'@t') primary | VAR | '(' sum ')'
    interval := ('['|'(') bound ',' bound (']'|')')

`disj`/`conj` and `sum`/`product` are the levels of one chain rule,
`_Parser.chain`.  Precedence: not > and > or > implies; relations bind
tighter than boolean connectives.  Identifiers may contain '-' when the next
character is a letter or underscore (so `ang-rate` is one name and `a - b`
needs spaces), and Greek letters are fine (σ0, τ0, ρ0).

Variable sorts are inferred from use; the name prefixes tau/τ, sigma/σ and
rho/ρ break ties when use alone does not decide.

The AST is frozen dataclasses.  `children` is the one place that lists a
node's subterms and subformulas, so a walker that only needs to reach every
node goes through it.  The conversions and signal reads (`ONE_ARG`) keep
their single argument in `arg`, whose sort is the class attribute `arg_sort`.
Every parsed node carries `pos`, the offset of its first character in the
text, which errors turn into a line and column; equality ignores it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from .trace import parse_rational, format_rational, quoted


class ParseError(Exception):
    """Syntax, binding or sort error, with 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})" if line else message)
        self.message = message
        self.line = line
        self.col = col


class Sort(enum.Enum):
    TIME = "time"
    INDEX = "index"
    VALUE = "value"


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _pos_field():
    return field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str
    sort: Optional[Sort] = None
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Lit:
    value: Fraction
    sort: Optional[Sort] = None
    text: Optional[str] = field(default=None, compare=False, repr=False)
    pos: Optional[int] = _pos_field()

    @property
    def integral_text(self) -> bool:
        """True when the literal was written as an integer: an optional '-' and digits."""
        if self.text is None:
            return self.value.denominator == 1
        return bool(_INTEGER_RE.fullmatch(self.text))


@dataclass(frozen=True)
class I2T:
    arg: "Term"
    pos: Optional[int] = _pos_field()

    sort = Sort.TIME
    arg_sort = Sort.INDEX


@dataclass(frozen=True)
class T2I:
    arg: "Term"
    pos: Optional[int] = _pos_field()

    sort = Sort.INDEX
    arg_sort = Sort.TIME


@dataclass(frozen=True)
class AtIndex:
    signal: str
    arg: "Term"
    pos: Optional[int] = _pos_field()

    sort = Sort.VALUE
    arg_sort = Sort.INDEX


@dataclass(frozen=True)
class AtTime:
    signal: str
    arg: "Term"
    pos: Optional[int] = _pos_field()

    sort = Sort.VALUE
    arg_sort = Sort.TIME


@dataclass(frozen=True)
class Arith:
    op: str  # '+', '-', '*'
    left: "Term"
    right: "Term"
    sort: Optional[Sort] = None
    pos: Optional[int] = _pos_field()


Term = Union[Var, Lit, I2T, T2I, AtIndex, AtTime, Arith]

# The conversions and signal reads: each has one argument, `arg`, of the
# class-level sort `arg_sort`, and a fixed sort of its own.
ONE_ARG = (I2T, T2I, AtIndex, AtTime)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    lo_open: bool
    hi: Fraction
    hi_open: bool
    sort: Optional[Sort] = None
    lo_text: Optional[str] = field(default=None, compare=False, repr=False)
    hi_text: Optional[str] = field(default=None, compare=False, repr=False)
    pos: Optional[int] = _pos_field()

    @property
    def decimal_texts(self) -> bool:
        return any(
            t is not None and not _INTEGER_RE.fullmatch(t)
            for t in (self.lo_text, self.hi_text)
        )

    def clip(self, lo: Fraction, hi: Fraction) -> Optional["Interval"]:
        """The part of this interval inside [lo, hi], or None if none is left.

        An index interval is first closed to its integer ends.  An end beyond
        its bound moves onto the bound and becomes closed.
        """
        a, a_open, b, b_open = self.lo, self.lo_open, self.hi, self.hi_open
        if self.sort is Sort.INDEX:
            a, a_open = Fraction(int(a) + (1 if a_open else 0)), False
            b, b_open = Fraction(int(b) - (1 if b_open else 0)), False
        if a < lo:
            a, a_open = Fraction(lo), False
        if b > hi:
            b, b_open = Fraction(hi), False
        if a > b or (a == b and (a_open or b_open)):
            return None
        return Interval(a, a_open, b, b_open, self.sort)


RELOPS = ("<", "<=", "=", "!=", ">=", ">")


@dataclass(frozen=True)
class Rel:
    op: str
    left: Term
    right: Term
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Not:
    sub: "Formula"
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Exists:
    var: str
    var_sort: Optional[Sort]
    interval: Optional[Interval]  # None exactly for real quantifiers
    body: "Formula"
    pos: Optional[int] = _pos_field()


@dataclass(frozen=True)
class Forall:
    var: str
    var_sort: Optional[Sort]
    interval: Optional[Interval]
    body: "Formula"
    pos: Optional[int] = _pos_field()


Formula = Union[Rel, Not, And, Or, Implies, Exists, Forall]


def children(node) -> Tuple:
    """The direct subterms and subformulas of an AST node, left to right.

    A quantifier's interval holds constants, not terms, so it is not a child.
    """
    if isinstance(node, (Var, Lit)):
        return ()
    if isinstance(node, ONE_ARG):
        return (node.arg,)
    if isinstance(node, (Arith, Rel, And, Or, Implies)):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.sub,)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    raise TypeError(f"not an AST node: {node!r}")


# How deep a property may nest: the stack frames that parsing it, or any walk
# over its tree (the sort checker, the translator, the direct evaluator),
# spends at its deepest, counted as a quantifier 5, a conversion or a
# parenthesis inside a term 3, a parenthesis around a formula 5 and every
# other node 1.  Within it every property the parser admits is parsed,
# translated and evaluated at Python's default recursion limit, from a batch
# worker thread too, so acceptance depends on the text alone.
MAX_NESTING = 920
_FRAMES = {Exists: 5, Forall: 5, I2T: 3, T2I: 3}  # any other node: 1


def _deepest(f) -> Tuple[int, object]:
    """The largest sum of `_FRAMES` along a path from the root of `f`, and
    the node that ends it."""
    deepest, node_at, stack = 0, f, [(f, 0)]
    while stack:
        node, above = stack.pop()
        here = above + _FRAMES.get(type(node), 1)
        if here > deepest:
            deepest, node_at = here, node
        stack += [(sub, here) for sub in children(node)]
    return deepest, node_at


def signals_of(f) -> FrozenSet[str]:
    """Signal names syntactically occurring in the formula."""
    own = [f.signal] if isinstance(f, (AtIndex, AtTime)) else []
    return frozenset(own).union(*map(signals_of, children(f)))


def free_vars(f) -> FrozenSet[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    out = frozenset().union(*map(free_vars, children(f)))
    return out - {f.var} if isinstance(f, (Exists, Forall)) else out


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "exists", "forall", "in", "such", "that",
    "and", "or", "not", "implies", "i2t", "t2i",
}

_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_PUNCT = ["@i", "@t", "<=", ">=", "!=", "<", ">", "=", "(", ")", "[", "]", ",", "+", "-", "*"]


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'number', 'punct', 'eof'
    text: str
    pos: int


def _ident_char(c: str) -> bool:
    return c == "_" or c.isalpha() or c.isdigit()


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if c.isdigit() and m:
            toks.append(Token("number", m.group(), i))
            i = m.end()
            continue
        if c == "_" or c.isalpha():
            j = i + 1
            while j < n:
                if _ident_char(text[j]):
                    j += 1
                elif (
                    text[j] == "-"
                    and j + 1 < n
                    and (text[j + 1] == "_" or text[j + 1].isalpha())
                ):
                    j += 2
                else:
                    break
            toks.append(Token("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, i))
                i += len(p)
                break
        else:
            line, col = _line_col(text, i)
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", n))
    return toks


def _line_col(text: str, pos: int) -> Tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Fail(Exception):
    """Internal backtracking signal; never escapes parse()."""


# The operator levels of `_Parser.chain`, loosest first.
_FORMULA_LEVELS = (("or",), ("and",))
_TERM_LEVELS = (("+", "-"), ("*",))
_CONNECTIVES = {"or": Or, "and": And}  # any other chain operator is an Arith


class _Parser:
    def __init__(self, text: str, signature: FrozenSet[str]):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.signature = signature
        self.furthest = 0
        self.expected: Set[str] = set()
        self.depth = 0  # the frames of the rules open now, counted as MAX_NESTING counts them

    # --- token plumbing ---

    def fail(self, expected: str):
        tok = self.toks[self.pos]
        if tok.pos > self.furthest:
            self.furthest = tok.pos
            self.expected = {expected}
        elif tok.pos == self.furthest:
            self.expected.add(expected)
        raise _Fail()

    def take(self, texts: Tuple[str, ...]) -> Optional[Token]:
        """The next token, consumed, if its text is one of `texts`; else None.
        The text alone decides: a keyword is an identifier that `take_ident`
        refuses, and no identifier or number spells a punctuation mark."""
        tok = self.toks[self.pos]
        if tok.text in texts:
            self.pos += 1
            return tok
        return None

    def take_ident(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.pos += 1
            return tok
        self.fail("identifier")

    def take_number(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind == "number":
            self.pos += 1
            return tok
        self.fail("number")

    def descend(self, frames: int) -> None:
        """Open a rule that recurses `frames` stack frames deeper; past
        MAX_NESTING the property nests too deeply.  The caller closes it with
        `self.depth -= frames`, or `atom` restores the depth when it backtracks."""
        self.depth += frames
        if self.depth > MAX_NESTING:
            line, col = _line_col(self.text, self.toks[self.pos].pos)
            raise ParseError("property nests too deeply", line, col)

    def error_out(self):
        line, col = _line_col(self.text, self.furthest)
        wanted = ", ".join(sorted(self.expected)) or "valid input"
        raise ParseError(f"syntax error: expected {wanted}", line, col)

    def chain(self, levels: Tuple[Tuple[str, ...], ...], operand):
        """A left-associative chain of the operators `levels[0]` between
        chains of the tighter levels, and between `operand`s below the last.
        Each level costs one stack frame, as a rule of its own would."""
        ops, tighter = levels[0], levels[1:]
        node = self.chain(tighter, operand) if tighter else operand()
        while tok := self.take(ops):
            right = self.chain(tighter, operand) if tighter else operand()
            cls = _CONNECTIVES.get(tok.text)
            node = (cls(node, right, pos=node.pos) if cls
                    else Arith(tok.text, node, right, pos=node.pos))
        return node

    # --- formulas ---

    def formula(self) -> Formula:
        left = self.chain(_FORMULA_LEVELS, self.unary)
        if not self.take(("implies",)):
            return left
        self.descend(1)
        right = self.formula()
        self.depth -= 1
        return Implies(left, right, pos=left.pos)

    def unary(self) -> Formula:
        if tok := self.take(("not",)):
            self.descend(1)
            sub = self.unary()
            self.depth -= 1
            return Not(sub, pos=tok.pos)
        if self.toks[self.pos].text in ("exists", "forall"):
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        tok = self.take(("exists", "forall"))
        var = self.take_ident()
        if var.text in self.signature:
            line, col = _line_col(self.text, var.pos)
            raise ParseError(f"quantified variable {quoted(var.text)} shadows a signal", line, col)
        interval = self.interval() if self.take(("in",)) else None
        self.take(("such",)) or self.fail("'such'")
        self.take(("that",)) or self.fail("'that'")
        self.descend(5)
        body = self.formula()
        self.depth -= 5
        cls = Exists if tok.text == "exists" else Forall
        return cls(var.text, None, interval, body, pos=tok.pos)

    def interval(self) -> Interval:
        open_tok = self.take(("[", "(")) or self.fail("'[' or '('")
        lo = self.signed_number()
        self.take((",",)) or self.fail("','")
        hi = self.signed_number()
        close = self.take(("]", ")")) or self.fail("']' or ')'")
        if lo.value > hi.value:
            line, col = _line_col(self.text, open_tok.pos)
            raise ParseError(f"interval lower bound exceeds upper bound", line, col)
        return Interval(
            lo.value, open_tok.text == "(", hi.value, close.text == ")",
            lo_text=lo.text, hi_text=hi.text, pos=open_tok.pos,
        )

    def signed_number(self) -> Lit:
        """An optional '-' and a number, as an unsorted literal."""
        tok = self.toks[self.pos]
        text = ("-" if self.take(("-",)) else "") + self.take_number().text
        try:
            value = parse_rational(text)
        except ValueError as exc:
            line, col = _line_col(self.text, tok.pos)
            raise ParseError(str(exc), line, col) from None
        return Lit(value, text=text, pos=tok.pos)

    def atom(self) -> Formula:
        save = self.pos, self.depth
        try:
            return self.relation()
        except _Fail:
            self.pos, self.depth = save
        self.take(("(",)) or self.fail("'('")
        self.descend(5)
        node = self.formula()
        self.take((")",)) or self.fail("')'")
        self.depth -= 5
        return node

    def relation(self) -> Formula:
        left = self.chain(_TERM_LEVELS, self.primary)
        op = self.take(RELOPS) or self.fail("relational operator")
        right = self.chain(_TERM_LEVELS, self.primary)
        return Rel(op.text, left, right, pos=left.pos)

    # --- terms ---

    def primary(self) -> Term:
        tok = self.toks[self.pos]
        if tok.kind == "number" or tok.text == "-":
            return self.signed_number()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.pos += 1
            if at := self.take(("@i", "@t")):
                self.descend(1)
                operand = self.primary()
                self.depth -= 1
                return (AtIndex if at.text == "@i" else AtTime)(tok.text, operand, pos=tok.pos)
            return Var(tok.text, pos=tok.pos)
        if self.take(("(",)):
            self.descend(3)
            node = self.chain(_TERM_LEVELS, self.primary)
            self.take((")",)) or self.fail("')'")
            self.depth -= 3
            return node
        if self.take(("i2t", "t2i")):
            self.take(("(",)) or self.fail("'('")
            self.descend(3)
            arg = self.chain(_TERM_LEVELS, self.primary)
            self.take((")",)) or self.fail("')'")
            self.depth -= 3
            return (I2T if tok.text == "i2t" else T2I)(arg, pos=tok.pos)
        self.fail("term")


# ---------------------------------------------------------------------------
# Sort inference and checking
# ---------------------------------------------------------------------------

class _Cell:
    """A sort variable for one quantifier binding, eventually resolved."""

    __slots__ = ("sort",)

    def __init__(self, sort: Optional[Sort] = None):
        self.sort = sort


def _prefix_sort(name: str) -> Optional[Sort]:
    low = name.lower()
    if low.startswith("tau") or name.startswith("τ"):
        return Sort.TIME
    if low.startswith("sigma") or name.startswith("σ"):
        return Sort.INDEX
    if low.startswith("rho") or name.startswith("ρ"):
        return Sort.VALUE
    return None


class _Checker:
    """Sort inference in one walk, then a rebuild that checks and annotates.

    The walk constrains each bound variable's cell and resolves every
    quantifier's sort when its scope closes (use decides; decimal interval
    bounds force time; a tau/sigma name prefix breaks the remaining ties).
    The rebuild binds every variable at its final sort, checks each
    relation again under those sorts, so constraints that joined too late
    for the walk are still enforced, and returns an equal tree with sorts
    attached everywhere.
    """

    def __init__(self, text: str, signature: FrozenSet[str]):
        self.text = text
        self.signature = signature
        self.cells: Dict[str, _Cell] = {}
        self.quant_sort: Dict[int, Sort] = {}  # id(quantifier node) -> sort

    def err(self, message: str, node) -> ParseError:
        line, col = _line_col(self.text, node.pos)
        return ParseError(message, line, col)

    def bind(self, name: str, node) -> _Cell:
        if name in self.cells:
            raise self.err(f"variable {quoted(name)} bound twice along one path", node)
        cell = _Cell()
        self.cells[name] = cell
        return cell

    def set_sort(self, cell: _Cell, sort: Sort, node):
        if cell.sort is None:
            cell.sort = sort
        elif cell.sort is not sort:
            raise self.err(
                f"sort mismatch: {cell.sort.value} term used as {sort.value}", node
            )

    def constrain_term(self, term: Term, expect: Optional[Sort]):
        if isinstance(term, Var):
            name = term.name
            if name not in self.cells:
                if name in self.signature:
                    raise self.err(
                        f"bare signal {quoted(name)} is not a term; read it with @i or @t",
                        term,
                    )
                raise self.err(f"unbound variable {quoted(name)}", term)
            if expect is not None:
                self.set_sort(self.cells[name], expect, term)
        elif isinstance(term, Lit):
            if expect is Sort.INDEX and not term.integral_text:
                raise self.err("index term holds a non-integer literal", term)
        elif isinstance(term, ONE_ARG):
            own = term.sort
            if expect is not None and expect is not own:
                raise self.err(
                    f"sort mismatch: {own.value} term used as {expect.value}", term
                )
            if isinstance(term, (AtIndex, AtTime)) and term.signal not in self.signature:
                raise self.err(f"unknown signal {quoted(term.signal)}", term)
            self.constrain_term(term.arg, term.arg_sort)
        elif isinstance(term, Arith):
            if term.op == "*" and not (
                isinstance(term.left, Lit) or isinstance(term.right, Lit)
            ):
                raise self.err(
                    "multiplication needs a constant operand (linear arithmetic only)",
                    term,
                )
            self.constrain_term(term.left, expect)
            self.constrain_term(term.right, expect)
        else:
            raise TypeError(term)

    def term_sort(self, term: Term) -> Optional[Sort]:
        if isinstance(term, Var):
            return self.cells[term.name].sort
        if isinstance(term, Lit):
            return None
        if isinstance(term, Arith):
            return self.term_sort(term.left) or self.term_sort(term.right)
        return term.sort

    def constrain_rel(self, f: Rel):
        self.constrain_term(f.left, None)
        self.constrain_term(f.right, None)
        ls = self.term_sort(f.left)
        rs = self.term_sort(f.right)
        if ls is not None and rs is not None and ls is not rs:
            raise self.err(
                f"sort mismatch: cannot compare {ls.value} term with {rs.value} term",
                f,
            )
        sort = ls or rs
        if sort is not None:
            self.constrain_term(f.left, sort)
            self.constrain_term(f.right, sort)

    def walk(self, f: Formula):
        if isinstance(f, Rel):
            self.constrain_rel(f)
        elif isinstance(f, (Exists, Forall)):
            self.quantifier(f)
        else:
            for sub in children(f):
                self.walk(sub)

    def quantifier(self, f: Union[Exists, Forall]):
        cell = self.bind(f.var, f)
        if f.interval is None:
            cell.sort = Sort.VALUE
        elif f.interval.decimal_texts:
            cell.sort = Sort.TIME
        self.walk(f.body)
        if f.interval is not None and cell.sort is None:
            hinted = _prefix_sort(f.var)
            if hinted in (Sort.TIME, Sort.INDEX):
                cell.sort = hinted
            else:
                raise self.err(
                    f"cannot infer whether {quoted(f.var)} ranges over time or "
                    "indices; rename it with a tau/sigma prefix or use it "
                    "in the body",
                    f,
                )
        if f.interval is not None and cell.sort is Sort.INDEX:
            if (
                f.interval.lo < 0
                or f.interval.lo.denominator != 1
                or f.interval.hi.denominator != 1
            ):
                raise self.err("index interval bounds must be naturals", f.interval)
        self.quant_sort[id(f)] = cell.sort
        del self.cells[f.var]

    def rebuild_term(self, term: Term, expect: Sort) -> Term:
        if isinstance(term, (Var, Lit)):
            return replace(term, sort=expect)
        if isinstance(term, ONE_ARG):
            return replace(term, arg=self.rebuild_term(term.arg, term.arg_sort))
        if isinstance(term, Arith):
            return replace(
                term,
                left=self.rebuild_term(term.left, expect),
                right=self.rebuild_term(term.right, expect),
                sort=expect,
            )
        raise TypeError(term)

    def rebuild(self, f: Formula) -> Formula:
        if isinstance(f, Rel):
            self.constrain_rel(f)
            sort = self.term_sort(f.left) or self.term_sort(f.right) or Sort.VALUE
            return replace(
                f,
                left=self.rebuild_term(f.left, sort),
                right=self.rebuild_term(f.right, sort),
            )
        if isinstance(f, Not):
            return replace(f, sub=self.rebuild(f.sub))
        if isinstance(f, (And, Or, Implies)):
            return replace(f, left=self.rebuild(f.left), right=self.rebuild(f.right))
        if isinstance(f, (Exists, Forall)):
            sort = Sort.VALUE if f.interval is None else self.quant_sort[id(f)]
            self.cells[f.var] = _Cell(sort)
            body = self.rebuild(f.body)
            del self.cells[f.var]
            interval = None if f.interval is None else replace(f.interval, sort=sort)
            return replace(f, var_sort=sort, interval=interval, body=body)
        raise TypeError(f)

    def run(self, f: Formula) -> Formula:
        self.walk(f)
        return self.rebuild(f)


def parse(text: str, signature: Iterable[str] = ()) -> Formula:
    """Parse and type-check a property against a signal signature."""
    sig = frozenset(signature)
    parser = _Parser(text, sig)
    try:
        ast = parser.formula()
        if parser.toks[parser.pos].kind != "eof":
            parser.fail("end of input")
        deepest, node = _deepest(ast)
        if deepest > MAX_NESTING:
            line, col = _line_col(text, node.pos)
            raise ParseError("property nests too deeply", line, col)
        return _Checker(text, sig).run(ast)
    except _Fail:
        parser.error_out()
    except RecursionError:  # only a caller already deep in its own stack gets here
        line, col = _line_col(text, parser.toks[parser.pos].pos)
        raise ParseError("property nests too deeply", line, col) from None


# ---------------------------------------------------------------------------
# Property files
# ---------------------------------------------------------------------------

_SIGNAL_DECL_RE = re.compile(r"^\s*signal\s+(\S+)\s*:\s*real\s*$")


def load_property(
    text: str, trace_signals: Optional[Iterable[str]] = None
) -> Tuple[Formula, FrozenSet[str], bool]:
    """Parse a property file.

    Lines starting with '#' are comments.  Optional `signal <name> : real`
    declarations fix the signature; without them the trace's header is used.
    Returns (formula, signature, declared) where `declared` says whether the
    file carried its own signal declarations.
    """
    declared: List[str] = []
    body_lines: List[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            body_lines.append("")
            continue
        m = _SIGNAL_DECL_RE.match(line)
        if m:
            declared.append(m.group(1))
            body_lines.append("")
            continue
        body_lines.append(line)
    formula_text = "\n".join(body_lines)
    if not formula_text.strip():
        raise ParseError("property file holds no formula")
    if declared:
        signature = frozenset(declared)
    elif trace_signals is not None:
        signature = frozenset(trace_signals)
    else:
        signature = frozenset()
    return parse(formula_text, signature), signature, bool(declared)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        return term.text if term.text is not None else format_rational(term.value)
    if isinstance(term, I2T):
        return f"i2t({format_term(term.arg)})"
    if isinstance(term, T2I):
        return f"t2i({format_term(term.arg)})"
    if isinstance(term, (AtIndex, AtTime)):
        at = "@i" if isinstance(term, AtIndex) else "@t"
        return f"({term.signal} {at} ({format_term(term.arg)}))"
    if isinstance(term, Arith):
        return f"({format_term(term.left)} {term.op} {format_term(term.right)})"
    raise TypeError(term)


def format_interval(iv: Interval) -> str:
    lo = iv.lo_text if iv.lo_text is not None else format_rational(iv.lo)
    hi = iv.hi_text if iv.hi_text is not None else format_rational(iv.hi)
    return f"{'(' if iv.lo_open else '['}{lo}, {hi}{')' if iv.hi_open else ']'}"


def format_formula(f: Formula) -> str:
    """Fully parenthesized rendering; parse(format_formula(f)) == f."""
    if isinstance(f, Rel):
        return f"({format_term(f.left)} {f.op} {format_term(f.right)})"
    if isinstance(f, Not):
        return f"(not {format_formula(f.sub)})"
    if isinstance(f, And):
        return f"({format_formula(f.left)} and {format_formula(f.right)})"
    if isinstance(f, Or):
        return f"({format_formula(f.left)} or {format_formula(f.right)})"
    if isinstance(f, Implies):
        return f"({format_formula(f.left)} implies {format_formula(f.right)})"
    if isinstance(f, (Exists, Forall)):
        word = "exists" if isinstance(f, Exists) else "forall"
        if f.interval is None:
            return f"({word} {f.var} such that {format_formula(f.body)})"
        return (
            f"({word} {f.var} in {format_interval(f.interval)} "
            f"such that {format_formula(f.body)})"
        )
    raise TypeError(f)


