"""Scalar expressions of named real variables.

Every coefficient function in this package (anchor components, structure
functions, Hamiltonians, section components) is one of these expressions.
The module provides parsing, printing, evaluation, and symbolic partial
derivatives (``diff``) built from constant-folding constructors.

``evaluate_many`` evaluates expressions at many points in one walk over
their nodes, with the interpreter's float operations; where a point would
raise, it declines, and the caller runs ``evaluate`` for the error.

``compile`` turns a list of expressions that is evaluated many times into
one Python function of straight-line code: one assignment per distinct
node, with common subexpressions computed once.  It does exactly the float
operations of the interpreter, so its values equal ``evaluate`` bit for
bit.  It builds no error messages: where it raises, or gives a value the
caller does not trust, the caller re-runs the interpreter (``evaluate``),
which stays the reference and the source of every ``DomainError``.
``compile_rk4`` emits such code once inside a whole fixed-step RK4 loop.

``is_zero`` proves a polynomial 0 by exact expansion, or answers "not
proved"; ``magnitude_below`` tells whether its evaluation could overflow.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so "-x^2"
means -(x^2).  Numbers are decimals with optional fraction and exponent.
Known functions: sin, cos, tan, exp, log, sqrt.
"""

from __future__ import annotations

import builtins
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Expr",
    "Lit",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Env",
    "ExprError",
    "ParseError",
    "UnknownFunctionError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "to_string",
    "evaluate",
    "evaluate_many",
    "compile",
    "compile_rk4",
    "try_compile",
    "substitute",
    "free_vars",
    "is_zero",
    "magnitude_below",
    "SAFE_MAGNITUDE",
    "literal_value",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "call",
    "diff",
    "FUNCTIONS",
    "MAX_DEPTH",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        hint = f" (expected {sorted(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset
        self.expected = expected


class UnknownFunctionError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown function '{name}'", offset, frozenset(FUNCTIONS))
        self.name = name


class EvalError(ExprError):
    """Base class for evaluation errors.

    ``point`` is the sample point (variable -> value) at which the error
    happened, when a loop over sample points recorded it; otherwise None.
    """

    point: Mapping[str, float] | None = None


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvalError):
    """Domain violation; reports the offending subexpression."""

    def __init__(self, reason: str, node: "Expr"):
        super().__init__(f"{reason} in '{to_string(node)}'")
        self.reason = reason
        self.node = node


class _Node:
    """Shared operator sugar so ASTs can be assembled programmatically."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _lift(other))

    def __radd__(self, other):
        return BinOp("+", _lift(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _lift(other))

    def __rsub__(self, other):
        return BinOp("-", _lift(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _lift(other))

    def __rmul__(self, other):
        return BinOp("*", _lift(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _lift(other))

    def __rtruediv__(self, other):
        return BinOp("/", _lift(other), self)

    def __pow__(self, other):
        return BinOp("^", self, _lift(other))

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Lit(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expr"


Expr = Union[Lit, Var, Neg, BinOp, Call]
Env = Mapping[str, float]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _lift(obj) -> Expr:
    if isinstance(obj, _Node):
        return obj  # type: ignore[return-value]
    if isinstance(obj, (int, float)):
        v = float(obj)
        return Neg(Lit(-v)) if v < 0 else Lit(v)
    raise TypeError(f"cannot use {obj!r} as an expression")


# ----------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at, frozenset({"token"}))
        pos = m.end()
        if m.lastgroup == "num":
            yield "num", m.group("num"), m.start("num")
        elif m.lastgroup == "ident":
            yield "ident", m.group("ident"), m.start("ident")
        else:
            yield m.group("op"), m.group("op"), m.start("op")
    yield "eof", "", len(src)


MAX_DEPTH = 100  # deepest nesting (parentheses, calls, minus signs, exponents) parse accepts


class _Parser:
    """Recursive descent; ``nest`` counts the levels it is inside, up to ``MAX_DEPTH``."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.i = 0
        self.nest = 0

    def nested(self, parse: Callable[[], Expr]) -> Expr:
        if self.nest == MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ParseError(message, self.peek()[2], frozenset())
        self.nest += 1
        e = parse()
        self.nest -= 1
        return e

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], frozenset({kind}))
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(
                f"trailing input {tok[1]!r}", tok[2], frozenset({"+", "-", "*", "/", "^", "eof"})
            )
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.nested(self.factor))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return BinOp("^", base, self.nested(self.factor))
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.take()
            return Lit(float(text))
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(text, offset)
                self.take()
                arg = self.nested(self.expr)
                self.expect(")")
                return Call(text, arg)
            return Var(text)
        if kind == "(":
            self.take()
            e = self.nested(self.expr)
            self.expect(")")
            return e
        raise ParseError(
            f"unexpected token {text!r}" if text else "unexpected end of input",
            offset,
            frozenset({"number", "identifier", "(", "-"}),
        )


def parse(src: str) -> Expr:
    """Parse a source string into an expression AST.

    Input nested deeper than ``MAX_DEPTH`` levels raises ParseError rather
    than exhausting the interpreter's recursion limit.  Long sums and
    products are not nested: they parse in a loop, at any length.
    """
    return _Parser(src).parse()


# ---------------------------------------------------------------- printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Lit):
        v = float(e.value)
        s = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        return f"({s})" if v < 0 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if isinstance(e, Neg):
        s = "-" + _fmt(e.arg, _PREC_NEG)
        return f"({s})" if _PREC_NEG < ctx else s
    assert isinstance(e, BinOp)
    if e.op in ("+", "-"):
        prec, s = _PREC_ADD, f"{_fmt(e.lhs, _PREC_ADD)}{e.op}{_fmt(e.rhs, _PREC_ADD + 1)}"
    elif e.op in ("*", "/"):
        prec, s = _PREC_MUL, f"{_fmt(e.lhs, _PREC_MUL)}{e.op}{_fmt(e.rhs, _PREC_MUL + 1)}"
    else:
        # right-associative; exponent at factor level so x^-2 prints bare
        prec, s = _PREC_POW, f"{_fmt(e.lhs, _PREC_ATOM)}^{_fmt(e.rhs, _PREC_NEG)}"
    return f"({s})" if prec < ctx else s


def to_string(e: Expr) -> str:
    """Print an AST so that re-parsing reproduces it node for node."""
    return _fmt(e, 0)


# -------------------------------------------------------------- evaluation


def literal_value(e: Expr) -> float | None:
    """Value of a literal or a negated literal; None for any other node."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Lit):
        return -e.arg.value
    return None


def _checked_pow(base: float, c: float, node: Expr | None = None) -> float:
    """base^c for a literal exponent c.

    Compiled code and ``evaluate_many`` call it, with no node, only for a
    non-integer c.
    """
    if base == 0.0:
        if c < 0.0:
            raise _domain_error("0 raised to a negative power", node)
        return 1.0 if c == 0.0 else 0.0
    if base < 0.0 and not float(c).is_integer():
        raise _domain_error("negative base with non-integer exponent", node)
    try:
        return math.pow(base, c)
    except OverflowError:
        raise _domain_error("overflow in power", node) from None


def _domain_error(reason: str, node: Expr | None) -> ArithmeticError | DomainError:
    # without a node the failure is only a signal: the caller re-runs the
    # interpreter, which builds the DomainError and its message
    return DomainError(reason, node) if node is not None else ArithmeticError(reason)


def evaluate(e: Expr, env: Env) -> float:
    """Evaluate at a point; every free variable must be bound."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Call):
        x = evaluate(e.arg, env)
        if e.fn == "log" and x <= 0.0:
            raise DomainError("log of non-positive value", e)
        if e.fn == "sqrt" and x < 0.0:
            raise DomainError("sqrt of negative value", e)
        try:
            return FUNCTIONS[e.fn](x)
        except OverflowError:
            raise DomainError(f"overflow in {e.fn}", e) from None
        except ValueError:  # sin, cos or tan of an infinite value
            raise DomainError(f"{e.fn} of infinite value", e) from None
    assert isinstance(e, BinOp)
    a = evaluate(e.lhs, env)
    if e.op == "^":
        c = literal_value(e.rhs)
        if c is not None:
            return _checked_pow(a, c, e)
        b = evaluate(e.rhs, env)
        if a <= 0.0:
            raise DomainError("non-literal exponent requires positive base", e)
        try:
            return math.pow(a, b)
        except OverflowError:
            raise DomainError("overflow in power", e) from None
    b = evaluate(e.rhs, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if b == 0.0:
        raise DomainError("division by zero", e)
    return a / b


_BATCHED = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate_many(exprs: Sequence[Expr], envs: Sequence[Env]) -> list[list[float]] | None:
    """``[[evaluate(e, env) for env in envs] for e in exprs]``, or None.

    Walks each distinct node once, computing its value at every point with
    the interpreter's float operations on the interpreter's operands, so
    each value equals ``evaluate``'s bit for bit.  ``evaluate`` evaluates
    every node of a tree, so where it would raise at some point, some node
    here fails at that point too: then this returns None and builds no
    error; the caller runs ``evaluate`` for the error and its message.
    """
    memo: dict[int, list] = {}  # id(node) -> its values
    try:
        return [_values(e, envs, memo) for e in exprs]
    except (ArithmeticError, ValueError, KeyError, RecursionError):
        return None


def _values(e: Expr, envs: Sequence[Env], memo: dict) -> list:
    """``evaluate_many``'s walk: the values of ``e`` at ``envs``."""
    out = memo.get(id(e))
    if out is not None:
        return out
    if isinstance(e, Lit):
        out = [e.value] * len(envs)
    elif isinstance(e, Var):
        name = e.name
        out = [env[name] for env in envs]
    elif isinstance(e, Neg):
        out = list(map(operator.neg, _values(e.arg, envs, memo)))
    elif isinstance(e, Call):
        # math's log and sqrt raise ValueError exactly where evaluate's checks raise
        out = list(map(FUNCTIONS[e.fn], _values(e.arg, envs, memo)))
    elif e.op != "^":  # a float divided by 0.0 raises ZeroDivisionError, as evaluate raises
        out = list(map(_BATCHED[e.op], _values(e.lhs, envs, memo), _values(e.rhs, envs, memo)))
    else:
        xs, c = _values(e.lhs, envs, memo), literal_value(e.rhs)
        if c is None:
            ys = _values(e.rhs, envs, memo)
            if any(a <= 0.0 for a in xs):
                raise ArithmeticError
            out = list(map(math.pow, xs, ys))
        elif not float(c).is_integer():
            out = [_checked_pow(a, c) for a in xs]
        elif c > 0.0:  # as in compile: math.pow gives -0.0 for (-0.0)^odd
            out = [0.0 if a == 0.0 else math.pow(a, c) for a in xs]
        else:  # math.pow raises where _checked_pow does
            out = [math.pow(a, c) for a in xs]
    memo[id(e)] = out
    return out


# ------------------------------------------------------------- compilation

_COMPILED_NAMES = {f"_{name}": fn for name, fn in FUNCTIONS.items()}
_COMPILED_NAMES.update(_pow=math.pow, _checked_pow=_checked_pow)


def compile(
    exprs: Sequence[Expr],
    variables: Sequence[str],
    bound: Mapping[str, Expr] | None = None,
) -> Callable[[Sequence[float]], list[float]]:
    """One function ``x -> [value of each expression]`` of straight-line code.

    ``x`` lists the values of ``variables`` in order.  Every distinct node
    is one assignment, and nodes with the same operation on the same
    operands share it, so each common subexpression is computed once.  The
    code does the interpreter's float operations on the interpreter's
    operands, so each value equals ``evaluate`` bit for bit.  Where
    ``evaluate`` raises, the function raises ArithmeticError or ValueError
    instead (it builds no DomainError); the caller re-runs the interpreter
    for the error and its message.

    ``bound`` maps further names to expressions in ``variables``, computed
    first; in ``exprs`` such a name reads that value.  No tree is
    substituted, so no float operation changes.

    Raises UnboundVariableError for a variable missing from ``variables``
    and RecursionError for input too deep to walk.
    """
    consts: dict[str, object] = {}
    names = {v: f"v{i}" for i, v in enumerate(variables)}
    lines, outputs = _straight_line(exprs, names, bound, "t", consts)
    body = "\n".join(f"        {line}" for line in lines)
    return _build(
        f"    def compiled(x):\n"
        f"        ({''.join(f'v{i}, ' for i in range(len(variables)))}) = x\n"
        f"{body}\n"
        f"        return [{', '.join(outputs)}]\n"
        f"    return compiled\n",
        consts,
    )


def _straight_line(
    exprs: Sequence[Expr],
    names: Mapping[str, str],
    bound: Mapping[str, Expr] | None,
    prefix: str,
    consts: dict[str, object],
) -> tuple[list[str], list[str]]:
    """The assignments computing ``exprs``, and each value's operand text.

    ``names`` maps variables to locals; temporaries are ``prefix`` and a
    number, and constants without exact source text go into ``consts``.
    """
    names = dict(names)
    # Sharing is keyed on the emitted right-hand side rather than on node
    # equality, which treats Lit(0.0) and Lit(-0.0) as equal.
    seen: dict[str, str] = {}  # right-hand side -> the temporary holding it
    lines: list[str] = []
    memo: dict[int, str] = {}  # id(node) -> its operand text

    def const(v) -> str:
        if type(v) is float and math.isfinite(v):
            return repr(v)
        name = f"_k{len(consts)}"
        consts[name] = v
        return name

    def operand(e: Expr) -> str:
        text = memo.get(id(e))
        if text is not None:
            return text
        guard = None
        if isinstance(e, Lit):
            text = const(e.value)
        elif isinstance(e, Var):
            if e.name not in names:
                raise UnboundVariableError(e.name)
            text = names[e.name]
        elif isinstance(e, Neg):
            rhs = f"-{operand(e.arg)}"
        elif isinstance(e, Call):
            rhs = f"_{e.fn}({operand(e.arg)})"
        elif e.op == "^":
            c = literal_value(e.rhs)
            if c is not None and float(c).is_integer():
                # math.pow raises where _checked_pow does; only 0^c with
                # c > 0 odd differs (-0.0 for a base of -0.0)
                a = operand(e.lhs)
                rhs = f"_pow({a}, {const(c)})"
                if c > 0.0:
                    rhs = f"0.0 if {a} == 0.0 else {rhs}"
            elif c is not None:
                rhs = f"_checked_pow({operand(e.lhs)}, {const(c)})"
            else:
                a, b = operand(e.lhs), operand(e.rhs)
                guard, rhs = f"if {a} <= 0.0: raise ArithmeticError", f"_pow({a}, {b})"
        else:
            rhs = f"{operand(e.lhs)} {e.op} {operand(e.rhs)}"
        if text is None:
            text = seen.get(rhs)
            if text is None:
                text = seen[rhs] = f"{prefix}{len(seen)}"
                if guard:
                    lines.append(guard)
                lines.append(f"{text} = {rhs}")
        memo[id(e)] = text
        return text

    if bound:
        names.update({name: operand(e) for name, e in bound.items()})
    return lines, [operand(e) for e in exprs]


def _build(inner: str, consts: Mapping[str, object]):
    """The function a generated builder returns; its ``source`` is the generated text."""
    src = f"def _build({', '.join([*_COMPILED_NAMES, *consts])}):\n{inner}"
    scope: dict = {}
    exec(builtins.compile(src, "<affmech.expr.compile>", "exec"), scope)
    fn = scope["_build"](**_COMPILED_NAMES, **consts)
    fn.source = src
    return fn


def compile_rk4(
    exprs: Sequence[Expr],
    variables: Sequence[str],
    bound: Mapping[str, Expr] | None = None,
    check: Sequence[Sequence[Expr]] = (),
    slots: Sequence[str] = (),
) -> Callable[..., None]:
    """The fixed-step RK4 loop of ``dynamics.integrate_field`` as one generated function.

    ``rk4(times, states, start, end, step)`` steps from ``states[-1]`` at
    ``times[-1]`` with ``integrate_field``'s float operations, appending
    each time and state.  Its stage, ``compile(exprs, variables, bound)``,
    is emitted once, inside the loop over the four stages; its first
    len(variables) values are the field.  It returns before a step where a
    stage raises ArithmeticError or ValueError, or where a stage value or
    the new state (or their sum) is not finite.

    ``check`` lists groups of expressions over ``variables`` and ``slots``
    (``slots[j]`` names the stage's j-th value), with their own
    subexpression table.  ``rk4`` then takes ``acc``, the running max
    |value| of each group and the count of states measured, and measures
    the first stage of every state, the last one included.

    Temporaries are ``t`` (stage) or ``u`` (check) and a number; no loop
    local is named so.
    """
    consts: dict[str, object] = {}
    w = len(variables)
    names = {v: f"v{j}" for j, v in enumerate(variables)}
    stage, outs = _straight_line(exprs, names, bound, "t", consts)
    measure: list[str] = []
    if check:
        names = {v: f"y{j}" for j, v in enumerate(variables)}
        names.update(zip(slots, outs))
        rows = [e for group in check for e in group]
        measure, values = _straight_line(rows, names, None, "u", consts)
        measure.append(_not_finite(values))
        for g, group in enumerate(check):
            values, mine = values[len(group) :], values[: len(group)]
            if mine:
                measure.append(f"m{g} = max(m{g}, {', '.join(f'abs({v})' for v in mine)})")
        measure.append("n += 1")
        measure.append("if not now < end: return")
    maxima = "".join(f"m{g}, " for g in range(len(check)))

    def vec(form: str) -> str:
        return ", ".join(form.format(j=j, k=outs[j]) for j in range(w)) + ","

    lines = [
        *([f"{maxima}n = acc"] if check else []),
        "now = times[-1]",
        "i = len(times) - 1",
        "try:",
        f"    {vec('y{j}')} = states[-1]",
        f"    while {'True' if check else 'now < end'}:",
        "        hs = end - now",  # min(step, end - now) without a call
        "        if not hs < step: hs = step",
        "        h2 = 0.5 * hs",
        f"        {vec('v{j}')} = {vec('y{j}')}",
        "        for s in (0, 1, 2, 3):",
        *(f"            {line}" for line in stage),
        f"            {_not_finite(outs)}",
        "            if s == 0:",
        *(f"                {line}" for line in measure),
        f"                {vec('r{j}')} = {vec('{k}')}",
        "            elif s < 3:",
        f"                {vec('r{j}')} = {vec('r{j} + 2.0 * {k}')}",
        "            else:",
        "                break",
        "            hv = hs if s == 2 else h2",
        f"            {vec('v{j}')} = {vec('y{j} + hv * {k}')}",
        # r is (k1 + 2.0 * k2) + 2.0 * k3, summed in the per-stage path's order
        f"        {vec('y{j}')} = {vec('y{j} + hs * (r{j} + {k}) / 6.0')}",
        f"        {_not_finite([f'y{j}' for j in range(w)])}",
        "        i += 1",
        "        now = start + i * step",
        "        if end < now: now = end",
        "        times.append(now)",
        f"        states.append([{vec('y{j}')}])",
        "except (ArithmeticError, ValueError):",
        "    pass",
        *(["finally:", f"    acc[:] = {maxima}n"] if check else []),
    ]
    params = "times, states, start, end, step" + (", acc" if check else "")
    body = "\n".join(f"        {line}" for line in lines)
    return _build(f"    def rk4({params}):\n{body}\n    return rk4\n", consts)


def _not_finite(values: Sequence[str]) -> str:
    """A line raising ArithmeticError where the sum of ``values`` is not finite.

    A finite literal (its text starts with a digit or '-') cannot make the
    sum so and a repeated value adds nothing, so both are left out.
    """
    names = [v for v in dict.fromkeys(values) if not (v[0].isdigit() or v[0] == "-")]
    return f"if ({' + '.join(names)}) * 0.0 != 0.0: raise ArithmeticError" if names else "pass"


def try_compile(build: Callable, *args):
    """``build(*args)``, for ``compile`` or ``compile_rk4``, or None where compiling fails.

    Compiling raises UnboundVariableError or RecursionError; a caller that
    gets None keeps using the interpreter.
    """
    try:
        return build(*args)
    except (RecursionError, EvalError):
        return None


# ------------------------------------------------------------ manipulation


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, simultaneously.

    The result is rebuilt with the folding constructors, so literals that
    the substitution brings together are folded.
    """
    if isinstance(e, Lit):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    assert isinstance(e, BinOp)
    return _BUILD[e.op](substitute(e.lhs, mapping), substitute(e.rhs, mapping))


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    assert isinstance(e, BinOp)
    return free_vars(e.lhs) | free_vars(e.rhs)


# ------------------------------------------------------------- exact zeros
#
# A polynomial is built from finite literals, variables, negation, + - *,
# division by a variable-free divisor and '^' with an integer literal >= 0.
# It expands to a dict from monomials (sorted tuples of variable names) to
# int numerators over one int denominator: exact, each literal at its binary value.

MAX_DEGREE = 32  # largest degree of any node; a power of a constant counts it as degree 1
MAX_TERMS = 200  # largest number of terms any step of an expansion may hold
SAFE_MAGNITUDE = 1e300  # a node bounded below this cannot overflow when evaluated


class _NotProved(Exception):
    pass


def is_zero(e: Expr) -> bool:
    """True when ``e`` is a polynomial that is exactly 0; False means "not proved".

    A non-polynomial is rejected before any arithmetic; past ``MAX_DEGREE``
    or ``MAX_TERMS`` the answer is "not proved" too.
    """
    try:
        _degree(e, {})
        return not _expand(e, {})[0]
    except (_NotProved, RecursionError):
        return False


def _degree(e: Expr, memo: dict) -> int:
    d = memo.get(id(e))
    if d is not None:
        return d
    if isinstance(e, Lit):
        if not math.isfinite(e.value):
            raise _NotProved
        d = 0
    elif isinstance(e, Var):
        d = 1
    elif isinstance(e, Call):
        raise _NotProved
    elif isinstance(e, Neg):
        d = _degree(e.arg, memo)
    elif e.op == "^":
        k = literal_value(e.rhs)
        if k is None or k < 0 or not float(k).is_integer():
            raise _NotProved
        d = int(k) * max(_degree(e.lhs, memo), 1)
    elif e.op == "/":
        if _degree(e.rhs, memo):
            raise _NotProved
        d = _degree(e.lhs, memo)
    else:
        a, b = _degree(e.lhs, memo), _degree(e.rhs, memo)
        d = a + b if e.op == "*" else max(a, b)
    if d > MAX_DEGREE:
        raise _NotProved
    memo[id(e)] = d
    return d


def _expand(e: Expr, memo: dict) -> tuple[dict, int]:
    p = memo.get(id(e))
    if p is not None:
        return p
    if isinstance(e, Lit):
        n, den = float(e.value).as_integer_ratio()
        p = {(): n} if n else {}, den
    elif isinstance(e, Var):
        p = {(e.name,): 1}, 1
    elif isinstance(e, Neg):
        terms, den = _expand(e.arg, memo)
        p = {m: -c for m, c in terms.items()}, den
    elif e.op == "^":
        (base, den), k = _expand(e.lhs, memo), int(literal_value(e.rhs))
        terms = {(): 1}
        for _ in range(k):
            terms = _times(terms, base)
        p = terms, den**k
    else:
        (a, da), (b, db) = _expand(e.lhs, memo), _expand(e.rhs, memo)
        if e.op == "*":
            p = _times(a, b), da * db
        elif e.op == "/":  # by the constant b[()]/db
            if not b:
                raise _NotProved  # evaluation divides by zero
            p = {m: c * db for m, c in a.items()}, da * b[()]
        else:
            den = math.lcm(da, db)  # denominators may be negative; lcm is not
            fa, fb = den // da, (den // db if e.op == "+" else -(den // db))
            terms = {}
            for m in a.keys() | b.keys():
                c = a.get(m, 0) * fa + b.get(m, 0) * fb
                if c:
                    terms[m] = c
            p = terms, den
    if len(p[0]) > MAX_TERMS:
        raise _NotProved
    memo[id(e)] = p
    return p


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
        if len(out) > MAX_TERMS:
            raise _NotProved
    return out


def magnitude_below(e: Expr, bounds: Mapping[str, float]) -> bool:
    """True when every node of the polynomial ``e`` stays below ``SAFE_MAGNITUDE``.

    ``bounds[v]`` bounds |v| (a missing variable is unbounded).  Uses |a+-b|
    <= |a|+|b|, |ab| <= |a||b|, |a^k| <= |a|^k and |a/c| <= |a|/|c| with c
    the divisor's float value, which must be nonzero.
    """
    try:
        _bound(e, bounds, {})
        return True
    except (_NotProved, ArithmeticError, EvalError, RecursionError):
        return False


def _bound(e: Expr, bounds: Mapping[str, float], memo: dict) -> float:
    b = memo.get(id(e))
    if b is not None:
        return b
    if isinstance(e, Lit):
        b = abs(e.value)
    elif isinstance(e, Var):
        b = bounds.get(e.name, math.inf)
    elif isinstance(e, Neg):
        b = _bound(e.arg, bounds, memo)
    else:
        x, y = _bound(e.lhs, bounds, memo), _bound(e.rhs, bounds, memo)
        if e.op == "^":
            b = x ** int(literal_value(e.rhs))
        elif e.op == "/":
            b = x / abs(evaluate(e.rhs, {}))
        else:
            b = x * y if e.op == "*" else x + y
    if not b < SAFE_MAGNITUDE:  # NaN too
        raise _NotProved
    memo[id(e)] = b
    return b


# ------------------------------------------------------ folding constructors
#
# These build the same nodes as the operator sugar, but treat literals and
# negated literals as numbers: they drop +0, *1 and ^1 and turn *0 and 0/x
# into 0.  A node made only of literals is folded into one literal only when
# evaluating it succeeds with a finite value, so '1/0' or 'log(-1)' stays in
# the tree and still raises DomainError when evaluated.

_ZERO = Lit(0.0)
_ONE = Lit(1.0)


def _fold(node: Expr) -> Expr:
    try:
        v = evaluate(node, {})
    except (EvalError, ValueError):
        return node
    return _literal(v, node)


def _literal(v: float, node: Expr) -> Expr:
    """The folded value of an all-literal node, or the node if v is not finite."""
    return _lift(v) if math.isfinite(v) else node


def add(a, b) -> Expr:
    a, b = _lift(a), _lift(b)
    x, y = literal_value(a), literal_value(b)
    if x is not None and y is not None:
        return _literal(x + y, BinOp("+", a, b))
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a, b) -> Expr:
    a, b = _lift(a), _lift(b)
    x, y = literal_value(a), literal_value(b)
    if x is not None and y is not None:
        return _literal(x - y, BinOp("-", a, b))
    if x == 0.0:
        return neg(b)
    if y == 0.0:
        return a
    return BinOp("-", a, b)


def mul(a, b) -> Expr:
    a, b = _lift(a), _lift(b)
    x, y = literal_value(a), literal_value(b)
    if x is not None and y is not None:
        return _literal(x * y, BinOp("*", a, b))
    if x == 0.0 or y == 0.0:
        return _ZERO
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    if x == -1.0:
        return neg(b)
    if y == -1.0:
        return neg(a)
    return BinOp("*", a, b)


def div(a, b) -> Expr:
    a, b = _lift(a), _lift(b)
    x, y = literal_value(a), literal_value(b)
    if x is not None and y is not None:
        return _fold(BinOp("/", a, b))
    if x == 0.0:
        return _ZERO
    if y == 1.0:
        return a
    return BinOp("/", a, b)


def neg(a) -> Expr:
    a = _lift(a)
    x = literal_value(a)
    if x is not None:
        return _lift(-x)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(a, b) -> Expr:
    a, b = _lift(a), _lift(b)
    x, y = literal_value(a), literal_value(b)
    if x is not None and y is not None:
        return _fold(BinOp("^", a, b))
    if y == 1.0:
        return a
    return BinOp("^", a, b)


def call(fn: str, a) -> Expr:
    a = _lift(a)
    node = Call(fn, a)
    return _fold(node) if literal_value(a) is not None else node


_BUILD = {"+": add, "-": sub, "*": mul, "/": div, "^": power}

# fn -> derivative of the call node with respect to its argument
_CHAIN = {
    "sin": lambda e: call("cos", e.arg),
    "cos": lambda e: neg(call("sin", e.arg)),
    "tan": lambda e: add(_ONE, mul(e, e)),
    "exp": lambda e: e,
    "log": lambda e: div(_ONE, e.arg),
    "sqrt": lambda e: div(0.5, e),
}


def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to ``var``.

    Built from the folding constructors, so a derivative that vanishes by
    structure comes out as ``Lit(0)``.
    """
    if isinstance(e, Lit):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return neg(diff(e.arg, var))
    # Where the derivatives of the operands are literal zeros and the other
    # factors are not literals, the rules below fold to 0: return it unbuilt.
    if isinstance(e, Call):
        da = diff(e.arg, var)
        if literal_value(da) == 0.0 and literal_value(e.arg) is None:
            return _ZERO
        return mul(_CHAIN[e.fn](e), da)
    assert isinstance(e, BinOp)
    a, b = e.lhs, e.rhs
    da = diff(a, var)
    if e.op == "^":
        c = literal_value(b)
        if c == 0.0:
            return _ZERO
        if c == 1.0:
            return da
        if c is not None:
            if literal_value(da) == 0.0 and literal_value(a) is None:
                return _ZERO
            return mul(mul(c, power(a, c - 1.0)), da)
        return mul(e, add(mul(diff(b, var), call("log", a)), div(mul(b, da), a)))
    db = diff(b, var)
    if e.op == "+":
        return add(da, db)
    if e.op == "-":
        return sub(da, db)
    if (e.op == "*" or e.op == "/") and literal_value(da) == literal_value(db) == 0.0:
        if literal_value(b) is None and (e.op == "/" or literal_value(a) is None):
            return _ZERO
    if e.op == "*":
        return add(mul(da, b), mul(a, db))
    # quotient rule in the form (a' - (a/b) b') / b, which reuses the node a/b
    return div(sub(da, mul(e, db)), b)
