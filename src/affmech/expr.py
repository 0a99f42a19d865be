"""Scalar expressions of named real variables.

Every coefficient function in this package (anchor components, structure
functions, Hamiltonians, section components) is one of these expressions.
The module provides parsing, printing, evaluation, and symbolic partial
derivatives (``diff``) built from constant-folding constructors.

The nodes ``Lit``, ``Var``, ``Neg``, ``BinOp`` and ``Call`` are slotted
classes, immutable by convention: nothing assigns to a node after its
``__init__``.  ``==`` and ``hash`` go by structure, as a frozen dataclass's
do: same class, then the fields compared as a tuple, so ``Lit(0.0) ==
Lit(-0.0)``, and a NaN literal equals only a literal holding the same float
object; ``repr`` prints ``Lit(value=-0.0)``.  Each node carries ``lit``, the
value of a literal or a negated literal and None for any other node,
computed once when the node is built.  The tree walkers dispatch on
``e.__class__``.

``evaluate_many`` evaluates expressions at many points in one walk over
their nodes, with the interpreter's float operations, reading the points as
one column of values per variable; where a point would raise, it declines,
and the caller runs ``evaluate`` for the error.

``_straight_line`` emits expressions as straight-line Python code, one
assignment per distinct node with common subexpressions computed once, and
``_build`` compiles generated text; ``dynamics.compile_rk4`` builds its RK4
loop from them.  The code does exactly the float operations of the
interpreter, so its values equal ``evaluate`` bit for bit.  It builds no
error messages: where it raises, the caller re-runs the interpreter, which
stays the reference and the source of every ``DomainError``.

``is_zero`` proves a polynomial 0 by exact expansion, or answers "not
proved"; ``magnitude_below`` tells whether its evaluation could overflow.

Grammar (EBNF)::

    sum     := product (('+'|'-') product)*
    product := factor (('*'|'/') factor)*
    factor  := '-' factor | atom ('^' factor)?
    atom    := number | ident | ident '(' sum ')' | '(' sum ')'

'^' is right-associative and binds tighter than unary minus, so "-x^2"
means -(x^2).  Numbers are decimals with optional fraction and exponent.
Known functions: sin, cos, tan, exp, log, sqrt.
"""

from __future__ import annotations

import builtins
import math
import operator
import re
from typing import Mapping, Sequence, Union

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
    "substitute",
    "scan",
    "is_zero",
    "magnitude_below",
    "SAFE_MAGNITUDE",
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
    """Syntax error; carries the character offset (an index into the ``str``,
    so 'é' counts once) and the expected-token set."""

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
    """Operator sugar so ASTs can be assembled programmatically, and the
    ``==``, ``hash`` and ``repr`` a frozen dataclass over ``_fields`` has."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    lit: float | None = None  # the value of a literal or a negated literal

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __add__(self, other):
        return BinOp("+", self, _lift(other))

    def __sub__(self, other):
        return BinOp("-", self, _lift(other))

    def __mul__(self, other):
        return BinOp("*", self, _lift(other))

    def __truediv__(self, other):
        return BinOp("/", self, _lift(other))

    def __pow__(self, other):
        return BinOp("^", self, _lift(other))

    def __neg__(self):
        return Neg(self)


class Lit(_Node):
    __slots__ = ("value", "lit")
    _fields = ("value",)

    def __init__(self, value: float):
        self.value = self.lit = value


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class Neg(_Node):
    __slots__ = ("arg", "lit")
    _fields = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self.lit = -arg.value if arg.__class__ is Lit else None


class BinOp(_Node):
    __slots__ = _fields = ("op", "lhs", "rhs")  # op is one of + - * / ^

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op, self.lhs, self.rhs = op, lhs, rhs


class Call(_Node):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        self.fn, self.arg = fn, arg


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


_KINDS = frozenset({Lit, Var, Neg, BinOp, Call})


def _lift(obj) -> Expr:
    if isinstance(obj, (int, float)):
        v = float(obj)
        return Neg(Lit(-v)) if v < 0 else Lit(v)
    if obj.__class__ in _KINDS:
        return obj
    raise TypeError(f"cannot use {obj!r} as an expression")


# ----------------------------------------------------------------- parsing
#
# One findall splits the source into token strings: a number, an identifier,
# an operator or parenthesis, or any other single character, which no token
# may start with and which is reported before any syntax error.  The parser
# walks an index into that list, with "" for the end of input.  A token's
# character offset is computed only when an error is raised, by scanning the
# source again.

_TOKEN_RE = re.compile(
    r"\s*([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[a-zA-Z_][a-zA-Z0-9_]*|[-+*/^()]|\S)"
)
_FIRST = operator.itemgetter(0)
_STARTS = frozenset("-+*/^()_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

MAX_DEPTH = 100  # deepest nesting (parentheses, calls, minus signs, exponents) parse accepts


class _Descent:
    """Recursive descent over the token strings.  ``depth`` counts the levels a
    call is inside; ``factor`` checks it, before it reads the first token
    of a nested level."""

    def __init__(self, src: str, tokens: list[str]):
        self.src, self.tokens, self.i = src, tokens, 0

    def offset(self, at: int) -> int:
        """The character offset of token ``at``, or the length of the source at its end."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.src)]
        return starts[at] if at < len(starts) else len(self.src)

    def close(self) -> None:
        t = self.tokens[self.i]
        if t != ")":
            raise ParseError(f"unexpected token {t!r}", self.offset(self.i), frozenset({")"}))
        self.i += 1

    def sum(self, depth: int) -> Expr:
        e = self.product(depth)
        op = self.tokens[self.i]
        while op == "+" or op == "-":
            self.i += 1
            e = BinOp(op, e, self.product(depth))
            op = self.tokens[self.i]
        return e

    def product(self, depth: int) -> Expr:
        e = self.factor(depth)
        op = self.tokens[self.i]
        while op == "*" or op == "/":
            self.i += 1
            e = BinOp(op, e, self.factor(depth))
            op = self.tokens[self.i]
        return e

    def factor(self, depth: int) -> Expr:
        """'-' factor, or an atom with an optional '^' factor."""
        tokens, i = self.tokens, self.i
        if depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ParseError(message, self.offset(i), frozenset())
        t = tokens[i]
        self.i = i + 1
        if t == "-":
            return Neg(self.factor(depth + 1))
        if t == "(":
            e = self.sum(depth + 1)
            self.close()
        elif t.isidentifier():
            if tokens[i + 1] == "(":
                if t not in FUNCTIONS:
                    raise UnknownFunctionError(t, self.offset(i))
                self.i = i + 2
                e = Call(t, self.sum(depth + 1))
                self.close()
            else:
                e = Var(t)
        elif t[:1].isdigit():  # only ASCII digits get past the check in parse
            e = Lit(float(t))
        else:
            raise ParseError(
                f"unexpected token {t!r}" if t else "unexpected end of input",
                self.offset(i),
                frozenset({"number", "identifier", "(", "-"}),
            )
        if tokens[self.i] == "^":
            self.i += 1
            return BinOp("^", e, self.factor(depth + 1))
        return e


def parse(src: str) -> Expr:
    """Parse a source string into an expression AST.

    One regex pass gives the token strings; a character that starts no
    token raises ParseError before any syntax error.  Error offsets are
    computed only when an error is raised.  Input nested deeper than
    ``MAX_DEPTH`` levels raises ParseError rather than exhausting the
    interpreter's recursion limit.  Long sums and products are not nested:
    they parse in a loop, at any length.
    """
    tokens = _TOKEN_RE.findall(src)
    p = _Descent(src, tokens)
    if not _STARTS.issuperset(map(_FIRST, tokens)):
        at = next(k for k, t in enumerate(tokens) if t[0] not in _STARTS)
        raise ParseError(f"unexpected character {tokens[at]!r}", p.offset(at), frozenset({"token"}))
    tokens.append("")
    e = p.sum(0)
    if tokens[p.i]:
        expected = frozenset({"+", "-", "*", "/", "^", "eof"})
        raise ParseError(f"trailing input {tokens[p.i]!r}", p.offset(p.i), expected)
    return e


# ---------------------------------------------------------------- printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, ctx: int) -> str:
    cls = e.__class__
    if cls is Lit:
        v = float(e.value)
        s = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        return f"({s})" if v < 0 else s
    if cls is Var:
        return e.name
    if cls is Call:
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if cls is Neg:
        s = "-" + _fmt(e.arg, _PREC_NEG)
        return f"({s})" if _PREC_NEG < ctx else s
    assert cls is BinOp
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
    cls = e.__class__
    if cls is Lit:
        return e.value
    if cls is Var:
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if cls is Neg:
        return -evaluate(e.arg, env)
    if cls is Call:
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
    assert cls is BinOp
    a = evaluate(e.lhs, env)
    if e.op == "^":
        c = e.rhs.lit
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


def evaluate_many(
    exprs: Sequence[Expr], columns: Mapping[str, Sequence[float]], count: int
) -> list[list[float]] | None:
    """``[[evaluate(e, env) for env in envs] for e in exprs]``, or None.

    The ``count`` points come as one column per variable:
    ``columns[name][p]`` is ``name`` at point p, and a column is read only
    for a variable that some expression reads.  Walks each distinct node
    once, computing its value at every point with the interpreter's float
    operations on the interpreter's operands, so each value equals
    ``evaluate``'s bit for bit.  ``evaluate`` evaluates every node of a
    tree, so where it would raise at some point, some node here fails at
    that point too; a column that ``columns`` lacks raises KeyError.  Then
    this returns None and builds no error; the caller runs ``evaluate`` for
    the error and its message.
    """
    memo: dict[int, list] = {}  # id(node) -> its values
    try:
        return [_values(e, columns, count, memo) for e in exprs]
    except (ArithmeticError, ValueError, KeyError, RecursionError):
        return None


def _values(e: Expr, columns: Mapping[str, Sequence[float]], count: int, memo: dict) -> list:
    """``evaluate_many``'s walk: the values of ``e`` at the points."""
    out = memo.get(id(e))
    if out is not None:
        return out
    cls = e.__class__
    if cls is Lit:
        out = [e.value] * count
    elif cls is Var:
        out = columns[e.name]
    elif cls is Neg:
        out = list(map(operator.neg, _values(e.arg, columns, count, memo)))
    elif cls is Call:
        # math's log and sqrt raise ValueError exactly where evaluate's checks raise
        out = list(map(FUNCTIONS[e.fn], _values(e.arg, columns, count, memo)))
    elif e.op != "^":  # a float divided by 0.0 raises ZeroDivisionError, as evaluate raises
        lhs, rhs = _values(e.lhs, columns, count, memo), _values(e.rhs, columns, count, memo)
        out = list(map(_BATCHED[e.op], lhs, rhs))
    else:
        xs, c = _values(e.lhs, columns, count, memo), e.rhs.lit
        if c is None:
            ys = _values(e.rhs, columns, count, memo)
            if any(a <= 0.0 for a in xs):
                raise ArithmeticError
            out = list(map(math.pow, xs, ys))
        elif not float(c).is_integer():
            out = [_checked_pow(a, c) for a in xs]
        elif c > 0.0:  # as in compiled code: math.pow gives -0.0 for (-0.0)^odd
            out = [0.0 if a == 0.0 else math.pow(a, c) for a in xs]
        else:  # math.pow raises where _checked_pow does
            out = [math.pow(a, c) for a in xs]
    memo[id(e)] = out
    return out


# ------------------------------------------------------------- compilation

_COMPILED_NAMES = {f"_{name}": fn for name, fn in FUNCTIONS.items()}
_COMPILED_NAMES.update(_pow=math.pow, _checked_pow=_checked_pow)


def _straight_line(
    exprs: Sequence[Expr],
    names: Mapping[str, str],
    bound: Mapping[str, Expr] | None,
    consts: dict[str, object],
    table: tuple[dict, dict] | None = None,
) -> tuple[list[str], list[str]]:
    """The assignments computing ``exprs``, and each value's operand text.

    ``names`` maps variables to locals; temporaries are ``t`` and a number,
    and constants without exact source text go into ``consts``.  A later
    call given the same ``table`` (and ``names`` and ``bound``) reads the
    temporaries of the calls before it, whose nodes must stay alive: the
    table keys them by id.
    """
    names = dict(names)
    # right-hand side -> its temporary, and id(node) -> its operand text.  Sharing
    # is keyed on the right-hand side, not on node equality (Lit(0.0) == Lit(-0.0)).
    seen, memo = table if table is not None else ({}, {})
    lines: list[str] = []

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
        cls = e.__class__
        if cls is Lit:
            text = const(e.value)
        elif cls is Var:
            if e.name not in names:
                raise UnboundVariableError(e.name)
            text = names[e.name]
        elif cls is Neg:
            rhs = f"-{operand(e.arg)}"
        elif cls is Call:
            rhs = f"_{e.fn}({operand(e.arg)})"
        elif e.op == "^":
            c = e.rhs.lit
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
                text = seen[rhs] = f"t{len(seen)}"
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


# ------------------------------------------------------------ manipulation


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, simultaneously.

    The result is rebuilt with the folding constructors, so literals that
    the substitution brings together are folded.
    """
    cls = e.__class__
    if cls is Lit:
        return e
    if cls is Var:
        return mapping.get(e.name, e)
    if cls is Neg:
        return neg(substitute(e.arg, mapping))
    if cls is Call:
        return call(e.fn, substitute(e.arg, mapping))
    assert cls is BinOp
    return _BUILD[e.op](substitute(e.lhs, mapping), substitute(e.rhs, mapping))


def scan(exprs: Sequence[Expr]) -> tuple[set[str], bool]:
    """The variables the expressions read, and whether one divides by a literal zero.

    One walk over every node, with a stack, not recursion.
    """
    names, zero_divisor, todo = set(), False, list(exprs)
    while todo:
        e = todo.pop()
        cls = e.__class__
        if cls is Lit:
            continue
        if cls is Var:
            names.add(e.name)
        elif cls is BinOp:
            todo += (e.lhs, e.rhs)
            zero_divisor = zero_divisor or (e.op == "/" and e.rhs.lit == 0.0)
        else:
            todo.append(e.arg)
    return names, zero_divisor


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
    cls = e.__class__
    if cls is Lit:
        if not math.isfinite(e.value):
            raise _NotProved
        d = 0
    elif cls is Var:
        d = 1
    elif cls is Call:
        raise _NotProved
    elif cls is Neg:
        d = _degree(e.arg, memo)
    elif e.op == "^":
        k = e.rhs.lit
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
    cls = e.__class__
    if cls is Lit:
        n, den = float(e.value).as_integer_ratio()
        p = {(): n} if n else {}, den
    elif cls is Var:
        p = {(e.name,): 1}, 1
    elif cls is Neg:
        terms, den = _expand(e.arg, memo)
        p = {m: -c for m, c in terms.items()}, den
    elif e.op == "^":
        (base, den), k = _expand(e.lhs, memo), int(e.rhs.lit)
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
    the divisor's float value, which must be nonzero.  A function call or a
    '^' whose exponent is not a literal integer >= 0 gives False ("not
    proved"), so where this holds ``evaluate`` cannot raise.
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
    cls = e.__class__
    if cls is Lit:
        b = abs(e.value)
    elif cls is Var:
        b = bounds.get(e.name, math.inf)
    elif cls is Neg:
        b = _bound(e.arg, bounds, memo)
    elif cls is Call:
        raise _NotProved
    else:
        x, y = _bound(e.lhs, bounds, memo), _bound(e.rhs, bounds, memo)
        if e.op == "^":
            k = e.rhs.lit
            if k is None or k < 0 or not float(k).is_integer():
                raise _NotProved
            b = x ** int(k)
        elif e.op == "/":
            c = e.rhs.lit
            b = x / abs(evaluate(e.rhs, {}) if c is None else c)
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
# into 0.  An operation on literals computes its value first, with the
# interpreter's float operation (``evaluate`` itself for '^' and calls), and
# builds the node only where that value is not finite or the operation
# would raise, so '1/0' or 'log(-1)' stays in the tree and still raises
# DomainError when evaluated.

_ZERO = Lit(0.0)
_ONE = Lit(1.0)


def _fold(node: Expr) -> Expr:
    try:
        v = evaluate(node, {})
    except (EvalError, ValueError):
        return node
    return _lift(v) if math.isfinite(v) else node


def _literal(v: float, op: str, a: Expr, b: Expr) -> Expr:
    """The folded value v of the literals ``a op b``, or their node if v is not finite."""
    return _lift(v) if math.isfinite(v) else BinOp(op, a, b)


def add(a, b) -> Expr:
    if a.__class__ not in _KINDS or b.__class__ not in _KINDS:
        a, b = _lift(a), _lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _literal(x + y, "+", a, b)
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a, b) -> Expr:
    if a.__class__ not in _KINDS or b.__class__ not in _KINDS:
        a, b = _lift(a), _lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _literal(x - y, "-", a, b)
    if x == 0.0:
        return neg(b)
    if y == 0.0:
        return a
    return BinOp("-", a, b)


def mul(a, b) -> Expr:
    if a.__class__ not in _KINDS or b.__class__ not in _KINDS:
        a, b = _lift(a), _lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _literal(x * y, "*", a, b)
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
    if a.__class__ not in _KINDS or b.__class__ not in _KINDS:
        a, b = _lift(a), _lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _literal(x / y, "/", a, b) if y else BinOp("/", a, b)  # x/0 raises
    if x == 0.0:
        return _ZERO
    if y == 1.0:
        return a
    return BinOp("/", a, b)


def neg(a) -> Expr:
    if a.__class__ not in _KINDS:
        a = _lift(a)
    x = a.lit
    if x is not None:
        return _lift(-x)
    if a.__class__ is Neg:
        return a.arg
    return Neg(a)


def power(a, b) -> Expr:
    if a.__class__ not in _KINDS or b.__class__ not in _KINDS:
        a, b = _lift(a), _lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _fold(BinOp("^", a, b))
    if y == 1.0:
        return a
    return BinOp("^", a, b)


def call(fn: str, a) -> Expr:
    if a.__class__ not in _KINDS:
        a = _lift(a)
    node = Call(fn, a)
    return _fold(node) if a.lit is not None else node


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
    cls = e.__class__
    if cls is Lit:
        return _ZERO
    if cls is Var:
        return _ONE if e.name == var else _ZERO
    if cls is Neg:
        return neg(diff(e.arg, var))
    # Where the derivatives of the operands are literal zeros and the other
    # factors are not literals, the rules below fold to 0: return it unbuilt.
    if cls is Call:
        da = diff(e.arg, var)
        if da.lit == 0.0 and e.arg.lit is None:
            return _ZERO
        return mul(_CHAIN[e.fn](e), da)
    assert cls is BinOp
    a, b = e.lhs, e.rhs
    da = diff(a, var)
    if e.op == "^":
        c = b.lit
        if c == 0.0:
            return _ZERO
        if c == 1.0:
            return da
        if c is not None:
            if da.lit == 0.0 and a.lit is None:
                return _ZERO
            return mul(mul(c, power(a, c - 1.0)), da)
        return mul(e, add(mul(diff(b, var), call("log", a)), div(mul(b, da), a)))
    db = diff(b, var)
    if e.op == "+":
        return add(da, db)
    if e.op == "-":
        return sub(da, db)
    if (e.op == "*" or e.op == "/") and da.lit == db.lit == 0.0:
        if b.lit is None and (e.op == "/" or a.lit is None):
            return _ZERO
    if e.op == "*":
        return add(mul(da, b), mul(a, db))
    # quotient rule in the form (a' - (a/b) b') / b, which reuses the node a/b
    return div(sub(da, mul(e, db)), b)
