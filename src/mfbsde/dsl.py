"""Small expression language for driver and terminal-condition formulas.

Grammar (see ``docs/grammar.md`` for the EBNF): arithmetic over ``+ - * / ^``
with unary minus, parentheses, decimal literals, and the function set
``abs, sin, cos, exp, min, max, norm2, dot``.  Driver expressions may refer
to ``s`` (time), ``y``/``ybar`` (state and its mean) and ``z``/``zbar``
(martingale integrand and its mean); terminal expressions refer to the
Brownian level ``w`` or its coordinates ``w1 .. w9``.

Scalar convention for vectors: ``abs``, ``sin``, ``cos`` and ``exp`` applied
to a vector quantity act on its Euclidean norm.  Multi-component generators
are written as ``;``-separated lists of scalar expressions.

Shapes.  A slot whose value on one path has shape ``(1,)``, ``(n,)``,
``(d,)`` or ``(d, n)`` takes that shape or its flattening for one path,
and the same after a leading path axis ``P``, where trailing unit axes may
be left out: a scalar or ``(P,)`` for a width-1 slot, ``(P, d)`` for
``z`` when ``n = 1``.  Every slot is held as a (P, width) array, and the
slots of one program have 1 row or one common ``P``, checked once per bind
and per call.  Every node's width follows from the expression and ``(n,
d)``: a plan computes them when it is built and refuses there operands of
widths an operation does not take, an exponent that reads a slot, and a
component that is not a scalar.

Evaluation is staged.  An expression is compiled once per set of *late*
slots, the ones that still change between calls: constant subtrees are
folded, and the maximal subtrees that read no late slot are evaluated once
by :meth:`Staged.bind`; each call of a :class:`Staged` program runs only
the late remainder, in the tree's own operation order (so the result is
bit for bit that of the whole tree), writing into buffers the program
owns.  The returned array is one of those buffers and stays valid until
the program's next call.  :func:`evaluate` is the every-slot-late case and
returns a fresh array.  Every operation is one entry of one table,
``_OPS``, from which a plan compiles each node to one closure.

A program whose one late slot is ``y`` is compiled as a *tangent* plan:
each operation that reads ``y`` also carries its forward-mode
y-derivative, so one call gives the values and ``df_j/dy_j``, the slope
of an implicit state solve's Newton step.  :meth:`GeneratorExpr.split`
splits each component's top-level sum by the slots its terms read, which
is how the Picard scheme lags only the terms that read lagged slots.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .core import row_dot, row_norm
from .errors import DimensionError, EvalDomainError, InvalidInput, ParseError

__all__ = [
    "GeneratorExpr",
    "parse",
    "to_text",
    "evaluate",
    "evaluate_terminal",
    "Staged",
    "GENERATOR_VARS",
    "TERMINAL_VARS",
    "FUNCTIONS",
]

GENERATOR_VARS: tuple[str, ...] = ("s", "y", "ybar", "z", "zbar")
TERMINAL_VARS: tuple[str, ...] = ("w",) + tuple(f"w{i}" for i in range(1, 10))

# function name -> arity
FUNCTIONS: dict[str, int] = {
    "abs": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "min": 2,
    "max": 2,
    "norm2": 1,
    "dot": 2,
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: int = field(default=0, compare=False, repr=False)


Expr = Num | Var | Neg | Bin | Call


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", offset + i + 1)
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), offset + m.start() + 1))
    tokens.append(("end", "", offset + len(text) + 1))
    return tokens


# the left-associative binary operators, loosest level first
_LEVELS = (("+", "-"), ("*", "/"))


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.k = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text):
        kind, val, pos = self.peek()
        if val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", pos)
        return self.advance()

    def parse_expr(self, level: int = 0):
        # one left-associative loop per level of _LEVELS, then unary
        if level == len(_LEVELS):
            return self.parse_unary()
        node = self.parse_expr(level + 1)
        while self.peek()[1] in _LEVELS[level]:
            _, op, pos = self.advance()
            node = Bin(op, node, self.parse_expr(level + 1), pos=pos)
        return node

    def parse_unary(self):
        kind, val, pos = self.peek()
        if val == "-":
            self.advance()
            return Neg(self.parse_unary(), pos=pos)
        return self.parse_power()

    def parse_power(self):
        # exponentiation binds tighter than unary minus and is
        # right-associative; the exponent re-enters at the unary level so
        # that y^-2 and y^2^3 both parse
        node = self.parse_primary()
        if self.peek()[1] == "^":
            _, _, pos = self.advance()
            node = Bin("^", node, self.parse_unary(), pos=pos)
        return node

    def parse_primary(self):
        kind, val, pos = self.advance()
        if kind == "num":
            if not math.isfinite(value := float(val)):
                raise ParseError(f"number {val} is not finite", pos)
            return Num(value, pos=pos)
        if kind == "ident":
            if self.peek()[1] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != FUNCTIONS[val]:
                    raise ParseError(
                        f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", pos
                    )
                return Call(val, tuple(args), pos=pos)
            if val not in self.variables:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return Var(val, pos=pos)
        if val == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {val or 'end of input'!r}", pos)


@dataclass(frozen=True)
class GeneratorExpr:
    """Parsed expression list: one AST per output component."""

    components: tuple

    @cached_property
    def _programs(self) -> dict:
        """Compiled plans by late-slot set and dimensions, each built on
        first use."""
        return {}

    def _plan(self, late: frozenset, n: int, d: int) -> "_Plan":
        plan = self._programs.get((late, n, d))
        if plan is None:
            plan = self._programs[late, n, d] = _Plan(self, late, n, d)
        return plan

    def __getstate__(self):
        # closures do not pickle; an unpickled copy compiles again on use
        state = dict(self.__dict__)
        state.pop("_programs", None)
        return state

    @cached_property
    def free_variables(self) -> frozenset[str]:
        """Variable names the components read, collected on first use."""
        return frozenset().union(*map(_reads, self.components))

    def split(self, slots) -> tuple["GeneratorExpr", "GeneratorExpr"]:
        """``(reading, regrouped)``: each component's top-level sum split
        into the terms that read one of ``slots`` and the rest, where ``a -
        b`` counts as ``a + (-b)``.  ``reading`` sums the first terms, in
        their order, and ``regrouped`` is the component as the sum of the
        rest plus that sum, which equals it up to rounding.  A component
        that is not a sum, or has no term on one side, is both parts whole.
        """
        slots = frozenset(slots)
        reading, regrouped = [], []
        for c in self.components:
            terms = _terms(c)
            hit = [t for t in terms if _reads(t[1]) & slots]
            rest = [t for t in terms if not _reads(t[1]) & slots]
            if hit and rest:
                reading.append(_sum(hit))
                regrouped.append(Bin("+", _sum(rest), reading[-1]))
            else:
                reading.append(c)
                regrouped.append(c)
        return GeneratorExpr(tuple(reading)), GeneratorExpr(tuple(regrouped))

    def __str__(self) -> str:
        return to_text(self)


def _children(node: Expr) -> tuple:
    """The operands of ``node``, left to right."""
    if isinstance(node, Neg):
        return (node.operand,)
    return (node.left, node.right) if isinstance(node, Bin) else getattr(node, "args", ())


def _reads(node: Expr) -> frozenset:
    """The slots ``node`` reads."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    return frozenset().union(*map(_reads, _children(node)))


def _terms(node: Expr, sign: int = 1) -> list:
    """The signed terms ``(sign, term)`` of ``node``'s top-level sum, left
    to right; a minus, binary or unary, flips the sign of what it takes."""
    if isinstance(node, Bin) and node.op in "+-":
        return _terms(node.left, sign) + _terms(node.right, sign if node.op == "+" else -sign)
    if isinstance(node, Neg):
        return _terms(node.operand, -sign)
    return [(sign, node)]


def _sum(terms: list) -> Expr:
    """The left-to-right sum of signed terms, the first negated by a unary
    minus when its sign is negative."""
    (sign, acc), *rest = terms
    acc = acc if sign > 0 else Neg(acc)
    for sign, t in rest:
        acc = Bin("+" if sign > 0 else "-", acc, t)
    return acc


def parse(text: str, variables: tuple[str, ...] = GENERATOR_VARS) -> GeneratorExpr:
    """Parse a ``;``-separated expression list.

    Raises :class:`ParseError` with a 1-based column on syntax errors,
    unknown identifiers, and arity mismatches.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 1)
    components = []
    offset = 0
    for chunk in text.split(";"):
        tokens = _tokenize(chunk, offset)
        p = _Parser(tokens, variables)
        node = p.parse_expr()
        kind, val, pos = p.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        components.append(node)
        offset += len(chunk) + 1
    return GeneratorExpr(components=tuple(components))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print_node(node: Expr, parent_prec: int, right_side: bool = False) -> str:
    if isinstance(node, Num):
        s = repr(node.value)
        if node.value == int(node.value) and abs(node.value) < 1e16:
            s = str(int(node.value))
        prec = 5
    elif isinstance(node, Var):
        s = node.name
        prec = 5
    elif isinstance(node, Neg):
        s = "-" + _print_node(node.operand, _PREC["neg"])
        prec = _PREC["neg"]
    elif isinstance(node, Call):
        s = node.func + "(" + ", ".join(_print_node(a, 0) for a in node.args) + ")"
        prec = 5
    elif isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            left = _print_node(node.left, prec + 1)
            right = _print_node(node.right, prec)
        else:
            left = _print_node(node.left, prec)
            right = _print_node(node.right, prec + 1)
        s = f"{left}{node.op}{right}" if node.op == "^" else f"{left} {node.op} {right}"
    else:  # pragma: no cover - exhaustive
        raise TypeError(node)
    if prec < parent_prec:
        return "(" + s + ")"
    return s


def to_text(expr: GeneratorExpr) -> str:
    """Canonical text form; ``parse(to_text(e))`` reproduces ``e``."""
    return " ; ".join(_print_node(c, 0) for c in expr.components)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _as_rows(x, shape: tuple, what: str) -> np.ndarray:
    """Normalise slot ``what``, whose value on one path has shape ``shape``,
    to a (P, width) array.  ``shape`` or its flattening ``(width,)`` is one
    path (P = 1); a leading path axis before ``shape``, from which trailing
    unit axes may be left out, gives P paths."""
    a = np.asarray(x, dtype=np.float64)
    width = math.prod(shape)
    if a.shape in (shape, (width,)):
        return a.reshape(1, width)
    rest = a.shape[1:]
    if rest == shape[: len(rest)] and math.prod(shape[len(rest):]) == 1:
        return a.reshape(-1, width)
    raise DimensionError(f"{what}: shape {a.shape} given, expected {shape} per path")


def _node_text(node: Expr) -> str:
    return _print_node(node, 0)


class _Plan:
    """A component list compiled once for one set of late slots.

    One walk first gives every node its width (:func:`_width`), raising
    every :class:`DimensionError` of the expression before anything is
    computed; each operation compiles for its operands' widths.  Every node
    is classified by the slots it reads.  A subtree that reads no slot is
    folded into a constant here; a maximal subtree that reads slots but no
    late one becomes a *binder*, evaluated by :meth:`_Program._bind`; the
    rest (``roots``) runs on every call.  Operations keep the tree's own
    order, so a staged value is bit for bit the value of the whole tree.
    The closures take the running program, read its environment and bound
    values, and write into its buffers by index, so one plan serves any
    number of programs.

    A *tangent* plan also carries the y-derivative: every node that reads
    ``y`` returns ``(value, derivative)``, and so does every root, with
    derivative None where it does not read ``y``.  A plan is a tangent one
    when ``y`` is its one late slot, the components read it, and the width
    walk found no reduction of a ``y``-reading operand wider than one
    component, which has no y-slope rule.
    """

    def __init__(self, expr: GeneratorExpr, late: frozenset, n: int, d: int):
        slots = {"s": 1, "y": n, "ybar": n, "z": d * n, "zbar": d * n, "w": d,
                 **dict.fromkeys(TERMINAL_VARS[1:], 1)}
        self.widths: dict = {}  # id(node) -> component count of its value
        self.mixes_y = False
        if (count := len(expr.components)) not in (1, n):
            raise DimensionError(f"generator has {count} component(s), scenario needs {n}")
        for j, c in enumerate(expr.components):
            if (width := _width(c, slots, self)) != 1:
                raise DimensionError(f"component {j + 1} is {width}-dimensional, expected"
                                     f" scalar: '{_node_text(c)}'")
        self.late = late
        self.tangent = late == {"y"} and "y" in expr.free_variables and not self.mixes_y
        self.n_buffers = 0
        self.binders: list = []
        roots = []
        for c in expr.components:
            r, run, _ = _compile(c, self)
            run = self.stage(r, run)
            if self.tangent and "y" not in r:
                run = (lambda value: lambda st: (value(st), None))(run)
            roots.append(run)
        self.roots = tuple(roots)
        self.reads_late = expr.free_variables & late
        self.reads_early = expr.free_variables - late

    def buffer(self) -> int:
        self.n_buffers += 1
        return self.n_buffers - 1

    def stage(self, reads: frozenset, run):
        """``run`` as an operand of a node that runs on every call."""
        if reads & self.late:
            return run
        if reads:
            k = len(self.binders)
            self.binders.append(run)
            return lambda st: st._bound[k]
        const = run(SimpleNamespace(_bufs=[None] * self.n_buffers, _env={}, _bound=[]))
        const.flags.writeable = False
        return lambda st: const


def _width(node: Expr, slots: dict, plan: _Plan) -> int:
    """The component count of ``node``'s value, the slots being ``slots``
    wide, recorded in ``plan.widths`` for ``node`` and each node below it;
    a reduction of a ``y``-reading operand wider than one component sets
    ``plan.mixes_y``."""
    if isinstance(node, Num):
        width = 1
    elif isinstance(node, Var):
        width = slots[node.name]
    else:
        kids = _children(node)
        a, *b = [_width(c, slots, plan) for c in kids]
        if _op(node)[2]:  # maps a vector to a scalar
            if b and a != b[0]:
                raise DimensionError(f"dot of {a}- and {b[0]}-component vectors")
            plan.mixes_y |= a > 1 and any("y" in _reads(c) for c in kids)
            width = 1
        elif isinstance(node, Bin) and node.op == "^" and _reads(node.right):
            raise DimensionError(f"exponent must be a constant scalar in '{_node_text(node)}'")
        elif b and a != b[0] and 1 not in (a, b[0]):
            raise DimensionError(f"component mismatch {a} vs {b[0]} in '{_node_text(node)}'")
        else:
            width = max([a, *b])
    plan.widths[id(node)] = width
    return width


def _compile(node: Expr, plan: _Plan):
    """``(reads, run, owned)``: the slots ``node`` reads, the closure
    mapping a program to ``node``'s (P, width) value, and whether that
    value is an intermediate only its parent reads, which the parent may
    overwrite.  Constant operands are folded; the other operands of a node
    that reads a late slot are bound, and inside a subtree that reads none
    everything runs when it does."""
    if isinstance(node, Num):
        const = np.full((1, 1), node.value)
        const.flags.writeable = False
        return frozenset(), lambda st: const, False
    if isinstance(node, Var):
        name = node.name
        if plan.tangent and name == "y":
            return frozenset(("y",)), lambda st: (st._env["y"], _ONE), False
        return frozenset((name,)), lambda st: st._env[name], False
    reads = _reads(node)
    late = bool(reads & plan.late)
    runs, owned = [], []
    for child in _children(node):
        # staged as soon as it is compiled, so constants fold and binders
        # bind in tree order; a literal is not staged, being a constant
        r, run, own = _compile(child, plan)
        if (late or not r) and not isinstance(child, Num):
            run, own = plan.stage(r, run), own and bool(r & plan.late)
        runs.append(run)
        owned.append(own)
    value = _operation(node, owned, plan)
    if plan.tangent and late:
        return reads, _tangent(node, runs, value, plan), True
    return reads, lambda st: value(st, *[run(st) for run in runs]), True


def _nonzero_divisor(node: Bin, a, b):
    if np.any(b == 0.0):
        raise EvalDomainError("division by zero", _node_text(node), node.pos)
    return b


def _scalar_exponent(node: Bin, a, b) -> float:
    # the exponent is a constant, (1, 1): the plan refuses any other
    e = float(b[0, 0])
    if not math.isfinite(e):
        raise EvalDomainError("non-finite exponent", _node_text(node), node.pos)
    if e != round(e) and np.any(a < 0.0):
        raise EvalDomainError("fractional power of a negative base", _node_text(node), node.pos)
    if e < 0 and np.any(a == 0.0):
        raise EvalDomainError("negative power of zero", _node_text(node), node.pos)
    # the power ufunc takes the same scalar-exponent fast paths as a**e
    return e


# y-slope rules.  ``slope(out, a, da)`` of a unary and ``slope(out, a, b,
# da, db)`` of a binary give the y-derivative of the operation's value at
# operands ``a, b`` whose derivatives are ``da, db``, None standing for the
# zero derivative of an operand that does not read ``y``: written into
# ``out``, a buffer of the value's shape, or an operand's derivative passed
# through a sum.  An operand of a reduction that reads ``y`` is one
# component wide, where ``norm2`` is ``abs`` and ``dot`` a product.


def _chain(derivative):
    """The slope rule of a unary ``g``, ``derivative(a, out=out)`` writing
    ``g'(a)``; ``abs`` (and ``norm2``) at 0 gives 0."""

    def slope(out, a, da):
        derivative(a, out=out)
        if da is not _ONE:
            out *= da
        return out

    return slope


def _sum_slope(out, a, b, da, db):
    if db is None:
        return da
    return db if da is None else np.add(da, db, out=out)


def _difference_slope(out, a, b, da, db):
    if db is None:
        return da
    return np.negative(db, out=out) if da is None else np.subtract(da, db, out=out)


def _product_slope(out, a, b, da, db):
    if da is None:
        return np.multiply(a, db, out=out)
    np.multiply(da, b, out=out)
    if db is not None:
        out += a * db
    return out


def _quotient_slope(out, a, b, da, db):
    if db is None:
        return np.divide(da, b, out=out)
    np.divide(a, b, out=out)
    out *= db
    if da is None:
        np.negative(out, out=out)
    else:
        np.subtract(da, out, out=out)
    return np.divide(out, b, out=out)


def _power_slope(out, a, b, da, db):
    # the exponent is a constant scalar, which does not read y
    e = float(b[0, 0])
    np.power(a, e - 1.0, out=out)
    out *= e
    out *= da
    return out


def _select_slope(chosen):
    """The slope rule of ``min`` or ``max``: the derivative of the operand
    ``chosen(a, b)`` picks, ``a`` on a tie."""

    def slope(out, a, b, da, db):
        np.copyto(out, 0.0 if db is None else db)
        np.copyto(out, 0.0 if da is None else da, where=chosen(a, b))
        return out

    return slope


# operation -> (ufunc, operand check or None, whether it maps a vector to a
# scalar, y-slope rule).  The row reductions ``norm2`` and ``dot`` have no
# ufunc, and ``abs``, ``sin``, ``cos`` and ``exp`` act on a vector's
# Euclidean norm.  A check raises on operands the operation does not take
# and returns the ufunc's second operand.
_OPS = {
    "neg": (np.negative, None, False, lambda out, a, da: np.negative(da, out=out)),
    "abs": (np.abs, None, True, _chain(np.sign)),
    "sin": (np.sin, None, True, _chain(np.cos)),
    "cos": (np.cos, None, True, _chain(lambda a, out: np.negative(np.sin(a, out=out), out=out))),
    "exp": (np.exp, None, True, _chain(np.exp)),
    "norm2": (None, None, True, _chain(np.sign)),
    "+": (np.add, None, False, _sum_slope),
    "-": (np.subtract, None, False, _difference_slope),
    "*": (np.multiply, None, False, _product_slope),
    "/": (np.divide, _nonzero_divisor, False, _quotient_slope),
    "^": (np.power, _scalar_exponent, False, _power_slope),
    "min": (np.minimum, None, False, _select_slope(np.less_equal)),
    "max": (np.maximum, None, False, _select_slope(np.greater_equal)),
    "dot": (None, None, True, _product_slope),
}


def _op(node: Expr) -> tuple:
    """The table entry of an operation node."""
    name = "neg" if isinstance(node, Neg) else node.op if isinstance(node, Bin) else node.func
    return _OPS[name]


def _operation(node: Expr, owned, plan: _Plan):
    """``value(st, a, *b)``: one operation node's value from the values of
    its one or two operands, chosen when the plan compiles by its table
    entry and its operands' widths.  It writes into an operand it owns or
    into a buffer of its own; the row reductions ``norm2`` and ``dot``
    always return a fresh or own array."""
    ufunc, check, on_norm, _ = _op(node)
    k = plan.buffer()
    width = plan.widths[id(node)]
    a_width, *b_width = [plan.widths[id(c)] for c in _children(node)]
    if ufunc is None and b_width:
        def value(st, a, b):
            out = _buffer(st, k, (_rows(a, b), 1))
            row_dot(a, b, out=out[:, 0])
            return out
    elif on_norm and (ufunc is None or a_width > 1):
        def value(st, a):
            # row_norm returns a fresh array, which this node owns
            a = row_norm(a)
            return a if ufunc is None else ufunc(a, out=a)
    else:
        def value(st, a, *b):
            operands = (a, *b) if check is None else (a, check(node, a, *b))
            return ufunc(*operands, out=_destination(st, k, (_rows(a, *b), width), (a, *b), owned))
    return value


def _buffer(st, k: int, shape: tuple) -> np.ndarray:
    """The program's buffer ``k``, (re)allocated when ``shape`` changes."""
    buf = st._bufs[k]
    if buf is None or buf.shape != shape:
        buf = st._bufs[k] = np.empty(shape)
    return buf


def _destination(st, k: int, shape: tuple, operands, owned):
    """Where an operation writes its ``shape`` result: into an operand it
    owns (elementwise ufuncs may write over their input), which keeps the
    working set to a few arrays, else into its buffer ``k``."""
    for x, own in zip(operands, owned):
        if own and x.shape == shape:
            return x
    return _buffer(st, k, shape)


def _rows(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """The row count of an operation's value: 1 row broadcasts."""
    return a.shape[0] if b is None else max(a.shape[0], b.shape[0])


# the y-derivative of ``y``
_ONE = np.ones((1, 1))
_ONE.flags.writeable = False


def _tangent(node: Expr, runs, value, plan: _Plan):
    """The closure of an operation node that reads ``y`` in a tangent plan:
    ``(value, derivative)``, the value bit for bit that of ``value``.  The
    derivative is taken first, by the slope rule ``slope(out, *values,
    *slopes)`` into a buffer of the node's own (or passed through from an
    operand), since the value may overwrite an operand it owns."""
    *_, slope = _op(node)
    k = plan.buffer()
    width = plan.widths[id(node)]
    reads_y = ["y" in _reads(c) for c in _children(node)]

    def tangent(st):
        operands = [run(st) if reads else (run(st), None) for run, reads in zip(runs, reads_y)]
        values, slopes = zip(*operands)
        d = slope(_buffer(st, k, (_rows(*values), width)), *values, *slopes)
        return value(st, *values), d

    return tangent


class _Program:
    """A running instance of a plan: the environment, the bound values and
    the buffers every operation writes into.  Two programs never share a
    buffer, and a program's output stays valid until its next run."""

    def __init__(self, expr: GeneratorExpr, late: frozenset, n_out: int, d: int = 1):
        self._expr = expr
        self._plan = expr._plan(late, n_out, d)
        self._n_out = n_out
        self._bufs = [None] * self._plan.n_buffers
        self._bound = [None] * len(self._plan.binders)
        self._env: dict = {}
        self._rows = 1  # path count of the slots given at bind time
        self._out = self._finite = None
        self.dy = None

    def _bind(self, env: dict) -> None:
        late = self._plan.late & env.keys()
        if late:
            raise InvalidInput(f"late slot(s) {sorted(late)} given to bind")
        missing = self._plan.reads_early - env.keys()
        if missing:
            raise InvalidInput(f"bind needs the slot(s) {sorted(missing)}")
        self._rows = _paths(env)
        self._env.update(env)
        for k, binder in enumerate(self._plan.binders):
            self._bound[k] = binder(self)

    def _run(self, env: dict) -> np.ndarray:
        early = env.keys() - self._plan.late
        if early:
            raise InvalidInput(f"slot(s) {sorted(early)} are not late")
        missing = self._plan.reads_late - env.keys()
        if missing:
            raise InvalidInput(f"call needs the slot(s) {sorted(missing)}")
        P = _paths(env, self._rows)
        self._env.update(env)
        n = self._n_out
        out = self._out
        tangent = self._plan.tangent
        if out is None or out.shape[0] != P:
            out = self._out = np.empty((P, n))
            self._finite = np.empty((P, n), dtype=bool)
            self.dy = np.empty((P, n)) if tangent else None
        roots = self._plan.roots
        # a derivative may be infinite or NaN where the value is finite,
        # and a value that is not raises below
        with np.errstate(all="ignore") if tangent else contextlib.nullcontext():
            for j in range(n):
                # a single expression is evaluated once and serves every column
                if j < len(roots):
                    val = roots[j](self)
                    if tangent:
                        val, slope = val
                out[:, j] = val[:, 0]
                if tangent:
                    self.dy[:, j] = 0.0 if slope is None else slope[:, 0]
        if not np.isfinite(out, out=self._finite).all():
            raise EvalDomainError("non-finite value", to_text(self._expr), 1)
        return out


def _paths(env: dict, P: int = 1) -> int:
    """The path count of slots of 1 row or ``P`` rows (at a call, the bound
    slots' count); a slot of any other count raises, named."""
    for name, v in env.items():
        if v.shape[0] not in (1, P):
            if P != 1:
                raise DimensionError(f"{name}: {v.shape[0]} paths given, expected 1 or {P}")
            P = v.shape[0]
    return P


_ALL_SLOTS = frozenset(GENERATOR_VARS)


def _driver_env(s, y, ybar, z, zbar, n: int, d: int) -> dict:
    """The given driver slots as (P, width) arrays; ``None`` is left out."""
    given = (("s", s, (1,)), ("y", y, (n,)), ("ybar", ybar, (n,)),
             ("z", z, (d, n)), ("zbar", zbar, (d, n)))
    return {k: _as_rows(v, shape, k) for k, v, shape in given if v is not None}


def _check_driver(expr: GeneratorExpr) -> None:
    unknown = expr.free_variables - _ALL_SLOTS
    if unknown:
        raise InvalidInput(f"not a driver expression, uses {sorted(unknown)}")


class Staged(_Program):
    """A driver expression staged for the slots that still change.

    ``late`` names the slots (of ``s, y, ybar, z, zbar``) that change
    between calls.  :meth:`bind` takes the other slots and evaluates, once,
    every maximal subtree that reads no late slot; each call then runs only
    the remainder, from the late slots and those bound values, into
    buffers the instance owns.  Operations run in the tree's own order, so
    ``bind`` + call is bit for bit :func:`evaluate` of the whole
    expression, with the same checks.  Every shape error of the expression
    raises when the program is built, before any value is computed;
    :meth:`bind` and a call normalise the slots (the shapes
    :func:`evaluate` accepts), check that each has 1 row or the common path
    count, and refuse a slot of the wrong stage or a missing one.  A domain
    check inside a constant subtree raises when the program is built, one
    inside a bound subtree at bind time, the rest and the non-finite check
    at call time, the first in tree order at each stage.

    The returned (P, n) array is the instance's own buffer: it stays valid
    until the next call on the same instance.  ``reads_late`` is the set of
    late slots the expression reads; a call may leave out the others.  An
    instance holds its bound values and buffers for as long as it lives,
    and building one is cheap (the compiled plan is cached on the
    expression), so a caller builds one where its slots are known and
    drops it with them.

    A program whose one late slot is ``y``, the map of an implicit state
    solve, also gives from each call the derivative ``df_j/dy_j`` of each
    component in ``dy``, a (P, n) buffer it owns, valid as the output is.
    Operands that do not read ``y`` carry no derivative.  ``dy`` is None
    when an operation on ``y`` has no derivative rule: for ``n > 1``, any
    reduction of ``y`` (``norm2``, ``dot``, or ``abs``, ``sin``, ``cos``,
    ``exp`` of its norm), which mixes its components.
    """

    def __init__(self, expr: GeneratorExpr, late, n: int = 1, d: int = 1):
        _check_driver(expr)
        late = frozenset(late)
        if not late <= _ALL_SLOTS:
            raise InvalidInput(f"unknown slot(s) {sorted(late - _ALL_SLOTS)}")
        super().__init__(expr, late, n, d)
        self._d = d
        self.reads_late: frozenset = self._plan.reads_late

    def bind(self, s=None, y=None, ybar=None, z=None, zbar=None) -> None:
        """Evaluate the subtrees that read only the given (non-late) slots."""
        self._bind(_driver_env(s, y, ybar, z, zbar, self._n_out, self._d))

    def __call__(self, s=None, y=None, ybar=None, z=None, zbar=None) -> np.ndarray:
        """The expression's (P, n) value at the given late slots."""
        return self._run(_driver_env(s, y, ybar, z, zbar, self._n_out, self._d))


def evaluate(expr: GeneratorExpr, s, y, ybar, z, zbar, n: int = 1, d: int = 1) -> np.ndarray:
    """Evaluate a driver expression, vectorised over paths.

    The slots take the shapes of the module's slot-shape rule: per path,
    ``s`` is ``(1,)``, ``y`` and ``ybar`` are ``(n,)``, ``z`` and ``zbar``
    are ``(d, n)``.  Returns a fresh ``(P, n)`` array (``P = 1`` for fully
    deterministic input): the every-slot-late case of :class:`Staged`.
    Vectorised evaluation agrees with pointwise scalar evaluation to within
    floating-point roundoff.
    """
    env = _driver_env(s, y, ybar, z, zbar, n, d)
    _check_driver(expr)
    return _Program(expr, _ALL_SLOTS, n, d)._run(env)


def evaluate_terminal(expr: GeneratorExpr, w, n: int = 1, d: int = 1) -> np.ndarray:
    """Evaluate a terminal-condition expression at Brownian levels ``w``.

    ``w`` is a scalar, a ``(d,)`` vector, or a ``(P, d)`` array; the result
    has shape ``(P, n)``.
    """
    wv = _as_rows(w, (d,), "w")
    env = {"w": wv, **{f"w{i}": wv[:, i - 1 : i] for i in range(1, min(d, 9) + 1)}}
    unknown = sorted(expr.free_variables - env.keys())
    if unknown and set(unknown) <= set(TERMINAL_VARS):
        raise InvalidInput(f"terminal reads {unknown}, beyond the d = {d} coordinates w1 .. w{d}")
    if unknown:
        raise InvalidInput(f"not a terminal expression, uses {unknown}")
    return _Program(expr, frozenset(env), n, d)._run(env)
