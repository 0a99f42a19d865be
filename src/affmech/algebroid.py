"""Lie algebroids in a single coordinate chart.

A chart stores the anchor components rho^i_a(x) and the structure functions
C^c_ab(x) of a local frame {e_a}.  On top of that this module provides
degree-k alternating sections, the exterior differential, pullbacks along
morphisms, numeric chart validation (antisymmetry, anchor compatibility and
Jacobi via d.d = 0 at sampled points), and the prolongation of a chart over
a fibration together with its Liouville and canonical symplectic sections.
Validation builds a chart's residuals (``chart_residuals``), then checks
them (``chart_report``), so a chart whose residuals are another's is checked
without being built (``affgebroid.validate_charts``).

Chart data and morphism data are stored as the expressions ``as_expr``
returns (anything else is a TypeError).  A KSection stores each coefficient
as an ExprCoeff, the expression with its ``value`` at a point; that is the
only place an expression is wrapped.  The differential, pullbacks
and linear combinations are built symbolically with the folding
constructors of ``expr``: every derived coefficient is one exact
expression, built once, and a coefficient that folds to zero is dropped.
The differential and the pullback walk only nonzero entries (coefficients,
anchor rows, structure functions, fiber-map entries), never the whole basis,
and sum the terms of each output in the order of a walk over the basis.

A sampled check (``validate_chart``, and those of ``affgebroid`` and ``hj``)
measures families of residuals, such as the coefficients of a section
(``_family``) or the differences of two sections' coefficients
(``_difference``).  It counts a residual as exactly 0, without evaluating
it, when it is *proved*: a polynomial whose exact rational expansion is 0
(``expr.is_zero``) and whose every node stays below ``expr.SAFE_MAGNITUDE``
over the points, so that its evaluation cannot overflow to a NaN
(``expr.magnitude_below``).  Every other residual (calls, non-constant
divisors, nonzero or too large polynomials, possible overflow) is sampled at
every point.  The points of a check are those of one SamplePlan, its only
input.  A check samples all of its families of residuals in one ``_max_abs``
call, with one ``expr.evaluate_many`` walk per chunk of ``CHUNK`` points
over their sampled residuals together.  The walk reads a chunk's points as
one column of values per variable, and a variable's column of a chunk is
drawn only when the walk first reads it, so residuals that read no variable
draw nothing.  A point's coordinates are consecutive draws of the plan's
splitmix64 stream, and each draw is computed from its index alone
(``SamplePlan.units``): one variable's column is drawn alone, with the
values that drawing every point in turn gives.  Each family's largest
|value| and its key are reduced from the columns in C.  Where the walk
declines, the families are measured one after the other, a chunk at a time,
and only a chunk whose own walk declines runs through the per-point path
(``columns``), which gives the interpreter's values, errors and error
points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence

from . import expr as ex
from .expr import BinOp, Expr, Lit, Var, add, mul

__all__ = [
    "VALIDATION_TOL",
    "ExprCoeff",
    "as_expr",
    "MAX_SAMPLES",
    "SamplePlan",
    "check_box_var",
    "AlgebroidChart",
    "KSection",
    "differential",
    "Report",
    "ValidationReport",
    "ChartResiduals",
    "chart_residuals",
    "chart_report",
    "validate_chart",
    "Morphism",
    "pullback",
    "Prolongation",
    "prolong",
    "CHUNK",
    "columns",
    "nan_max",
    "values_at",
]

VALIDATION_TOL = 1e-8


# ------------------------------------------------------------- coefficients


class ExprCoeff:
    """Coefficient of a KSection: its expression ``node`` and its ``value`` at a point."""

    __slots__ = ("node",)

    def __init__(self, node: Expr):
        self.node = node

    def value(self, env) -> float:
        return ex.evaluate(self.node, env)

    def __repr__(self):
        return f"ExprCoeff({ex.to_string(self.node)})"


_ZERO = Lit(0.0)


def as_expr(obj) -> Expr:
    """Coerce a string, number, expression or KSection coefficient to an expression."""
    if isinstance(obj, ex._Node):
        return obj
    if isinstance(obj, str):
        return ex.parse(obj)
    if isinstance(obj, (int, float)):
        return Lit(float(obj))
    if isinstance(obj, ExprCoeff):
        return obj.node
    raise TypeError(f"coefficients must be expressions, got {obj!r}")


def _nonzero(entries: Sequence[Expr]) -> list[tuple[int, Expr]]:
    """(position, entry) of each entry that is not a literal zero."""
    return [(i, e) for i, e in enumerate(entries) if e.lit != 0.0]


# ------------------------------------------------------------------ sampling


MAX_SAMPLES = 1_000_000  # points one SamplePlan may draw; a check draws them a chunk at a time


@dataclass(frozen=True)
class SamplePlan:
    """Axis-aligned sampling box: per-variable intervals, count and seed."""

    box: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    count: int = 100
    seed: int = 42

    DEFAULT_INTERVAL = (-1.0, 1.0)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.count}")
        if self.count > MAX_SAMPLES:
            raise ValueError(
                f"sample count must be at most the sample budget of {MAX_SAMPLES}, "
                f"got {self.count}"
            )
        for var, (lo, hi) in self.box.items():
            # lo == hi pins the variable: verify_theorem samples the range
            # of a trajectory, along which a coordinate may stay constant
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(
                    f"box for '{var}' needs finite bounds with lo < hi "
                    f"(or lo == hi), got {lo!r}, {hi!r}"
                )

    def interval(self, var: str) -> tuple[float, float]:
        return self.box.get(var, self.DEFAULT_INTERVAL)

    def units(self, k: int, j: int, start: int, n: int) -> list[float]:
        """Variable j's unit draws at the n points from ``start``: draw p*k + j at point p.

        Draw i is splitmix64's output mix(seed + (i + 1) * GAMMA) mod 2^64 as
        a float in [0, 1), its top 53 bits times 2^-53: a function of i alone,
        the same on every platform.  A point takes k consecutive draws, one
        per variable in order, so one variable's draws at some of the points
        are made alone, without the others'.
        """
        mask, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15
        step = (k * gamma) & mask
        state = (self.seed + (start * k + j + 1) * gamma - step) & mask  # a step before the first
        out = []
        for _ in range(n):
            state = (state + step) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
        return out

    def column(self, var: str, units: Sequence[float]) -> list[float]:
        """The coordinate ``lo + (hi - lo) * u`` of ``var`` for each unit draw u."""
        lo, hi = self.interval(var)
        return [lo + (hi - lo) * u for u in units]

    def coordinates(self, variables: Sequence[str]) -> list[list[float]]:
        """One column per variable: its coordinate at each of the ``count`` points."""
        k = len(variables)
        return [self.column(v, self.units(k, j, 0, self.count)) for j, v in enumerate(variables)]


def check_box_var(var: str, variables: Sequence[str]) -> None:
    """Reject a sampling-box key that names none of ``variables``."""
    if var not in variables:
        raise ValueError(
            f"box for unknown variable '{var}' (base variables: {', '.join(variables)})"
        )


# -------------------------------------------------------------------- charts


class AlgebroidChart:
    """One-chart Lie algebroid data: anchor rho^i_a and structure C^c_ab.

    ``anchor[a][i]`` is the coefficient of d/dx^i in the image of e_a;
    ``structure[a][b][c]`` is the coefficient of e_c in the bracket of
    (e_a, e_b), stored fully (both index orders).
    """

    def __init__(self, base_vars, anchor, structure, labels=None):
        self.base_vars = list(base_vars)
        self.anchor = [[as_expr(c) for c in row] for row in anchor]
        self.structure = [[[as_expr(c) for c in col] for col in mat] for mat in structure]
        r = len(self.anchor)
        m = len(self.base_vars)
        if any(len(row) != m for row in self.anchor):
            raise ValueError("anchor rows must have one entry per base variable")
        if len(self.structure) != r or any(
            len(mat) != r or any(len(col) != r for col in mat) for mat in self.structure
        ):
            raise ValueError("structure must be rank x rank x rank")
        self.labels = list(labels) if labels is not None else [f"e{a+1}" for a in range(r)]
        if len(self.labels) != r:
            raise ValueError("one label per basis section")
        self._anchor_nz = [_nonzero(row) for row in self.anchor]
        self._struct_nz = {}
        self._struct_by_c = {}  # c -> [(a, b, C^c_ab)] for a < b
        for a in range(r):
            for b in range(r):
                nz = _nonzero(self.structure[a][b])
                if nz:
                    self._struct_nz[(a, b)] = nz
                if a < b:
                    for c, co in nz:
                        self._struct_by_c.setdefault(c, []).append((a, b, co))

    @property
    def dim(self) -> int:
        return len(self.base_vars)

    @property
    def rank(self) -> int:
        return len(self.anchor)

    def structure_nonzero(self, a: int, b: int):
        return self._struct_nz.get((a, b), ())

    def __repr__(self):
        return f"AlgebroidChart(rank={self.rank}, base={self.base_vars})"


# ------------------------------------------------------------------ sections

MAX_DEGREE = 3


class KSection:
    """Alternating degree-k section, coefficients keyed by increasing tuples.

    Each coefficient is coerced with ``as_expr`` and kept as an ExprCoeff
    unless it is a literal zero.
    """

    def __init__(self, chart: AlgebroidChart, degree: int, coeffs: Mapping[tuple, object]):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be between 0 and {MAX_DEGREE}")
        self.chart = chart
        self.degree = degree
        self.coeffs: dict[tuple[int, ...], ExprCoeff] = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                raise ValueError(f"index tuple {idx} must be strictly increasing of length {degree}")
            if any(not 0 <= a < chart.rank for a in idx):
                raise ValueError(f"index tuple {idx} out of range for rank {chart.rank}")
            node = as_expr(c)
            if node.lit != 0.0:
                self.coeffs[idx] = ExprCoeff(node)

    # ---- constructors

    @classmethod
    def function(cls, chart, f):
        return cls(chart, 0, {(): f})

    @classmethod
    def basis_covector(cls, chart, a):
        return cls(chart, 1, {(a,): Lit(1.0)})

    @classmethod
    def one_section(cls, chart, components):
        return cls(chart, 1, {(a,): c for a, c in enumerate(components)})

    def __repr__(self):
        return f"KSection(degree={self.degree}, nonzero={sorted(self.coeffs)})"


# -------------------------------------------------------------- differential


def differential(s: KSection) -> KSection:
    """Exterior differential of a section of degree at most 2.

    Applies the Cartan-type formula, walking only the nonzero entries: each
    nonzero s_K meets each index a not in K with a nonzero anchor row (the
    anchor acts on s_K through its partials), and each c in K meets each
    nonzero C^c_ab with a < b and a, b not in K minus c (the bracket terms).
    The terms of each output coefficient are summed, as one folded
    expression, in the order of a walk over the basis: anchor terms by the
    position of a and the base variable, then bracket terms by the
    positions of a and b and by c.  An anchor term whose partial is a
    literal zero is not built: unless the anchor entry is a non-finite
    literal, it folds to a zero literal, which changes neither the running
    sum (it starts at +0.0) nor its sign of zero.  An output that folds to
    zero is dropped (by ``KSection``).
    """
    if s.degree > 2:
        raise ValueError("differential implemented for sections of degree <= 2")
    chart = s.chart
    terms: dict[tuple, list] = {}  # output index -> [(order in the basis walk, term)]
    for key, coeff in s.coeffs.items():
        partials: dict[int, Expr] = {}
        for a, anchor in enumerate(chart._anchor_nz):
            if not anchor or a in key:
                continue
            idx = tuple(sorted(key + (a,)))
            i = idx.index(a)
            for vi, rc in anchor:
                if vi not in partials:
                    partials[vi] = ex.diff(coeff.node, chart.base_vars[vi])
                partial = partials[vi]
                if partial.lit == 0.0 and math.isfinite(rc.lit or 0):
                    continue  # the term would fold to a zero literal, which add drops
                term = mul((-1.0) ** i, mul(rc, partial))
                terms.setdefault(idx, []).append(((0, i, vi), term))
        for p, c in enumerate(key):
            rest = key[:p] + key[p + 1 :]
            for a, b, cc in chart._struct_by_c.get(c, ()):
                if a in rest or b in rest:
                    continue
                idx = tuple(sorted(rest + (a, b)))
                i, j = idx.index(a), idx.index(b)
                term = mul((-1.0) ** (i + j + p), mul(cc, coeff.node))
                terms.setdefault(idx, []).append(((1, i, j, c), term))
    out: dict[tuple, Expr] = {}
    for idx in sorted(terms):
        node = _ZERO
        for _, term in sorted(terms[idx]):  # the orders are distinct: terms are never compared
            node = add(node, term)
        out[idx] = node
    return KSection(chart, s.degree + 1, out)


# ---------------------------------------------------------------- morphisms


@dataclass
class Morphism:
    """Bundle morphism between charts: base map plus fiberwise linear map.

    ``base_map[j]`` gives the j-th destination base coordinate as a function
    of the source base coordinates; ``fiber_map[b][a]`` is the coefficient of
    the destination basis section e'_b in the image of the source e_a.
    """

    src: AlgebroidChart
    dst: AlgebroidChart
    base_map: list
    fiber_map: list

    def __post_init__(self):
        self.base_map = [as_expr(c) for c in self.base_map]
        self.fiber_map = [[as_expr(c) for c in row] for row in self.fiber_map]
        if len(self.base_map) != self.dst.dim:
            raise ValueError("base map must produce every destination coordinate")
        if len(self.fiber_map) != self.dst.rank or any(
            len(row) != self.src.rank for row in self.fiber_map
        ):
            raise ValueError("fiber map must be dst.rank x src.rank")
        self._fiber_nz = [_nonzero(row) for row in self.fiber_map]


_PERMS = {
    1: [((0,), 1.0)],
    2: [((0, 1), 1.0), ((1, 0), -1.0)],
    3: [
        ((0, 1, 2), 1.0),
        ((1, 2, 0), 1.0),
        ((2, 0, 1), 1.0),
        ((2, 1, 0), -1.0),
        ((1, 0, 2), -1.0),
        ((0, 2, 1), -1.0),
    ],
}


def pullback(morph: Morphism, s: KSection) -> KSection:
    """Pointwise multilinear pullback of a section along a morphism.

    The coefficient on source indices (a_1..a_k) is the sum over destination
    indices b of det(fiber_map[b_p][a_q]) times s_b at the pushed point, as
    one folded expression: the base map substituted into s_b, multiplied by
    the determinant terms.  Only nonzero entries are walked: for each
    nonzero s_b and each permutation, the products of the nonzero entries
    of the rows it selects whose columns increase.  The terms are summed in
    the order of a walk over every source index tuple.
    """
    if s.chart is not morph.dst:
        raise ValueError("section must live on the destination chart of the morphism")
    k = s.degree
    mapping = dict(zip(morph.dst.base_vars, morph.base_map))
    pulled = {key: ex.substitute(c.node, mapping) for key, c in s.coeffs.items()}
    if k == 0:
        return KSection(morph.src, 0, pulled)
    nodes: dict[tuple, Expr] = {}
    for bkey, s_b in pulled.items():
        dets: dict[tuple, Expr] = {}
        for perm, sign in _PERMS[k]:
            for entries in itertools.product(*(morph._fiber_nz[bkey[q]] for q in perm)):
                idx = tuple(a for a, _ in entries)
                if any(x >= y for x, y in zip(idx, idx[1:])):
                    continue
                prod = sign
                for _, e in entries:
                    prod = mul(prod, e)
                dets[idx] = add(dets.get(idx, _ZERO), prod)
        for idx, det in dets.items():
            nodes[idx] = add(nodes.get(idx, _ZERO), mul(det, s_b))
    return KSection(morph.src, k, {idx: nodes[idx] for idx in sorted(nodes)})


# --------------------------------------------------------------- comparisons


CHUNK = 256  # points per expr.evaluate_many call, which holds a value of every node at each


def columns(exprs: Sequence[Expr], envs: Sequence[Mapping]) -> list[list[float]]:
    """``values``: ``values[i][p]`` is ``exprs[i]`` at point p of ``envs``.

    The per-point path: ``expr.evaluate`` evaluates every expression at one
    point before the next, so each value, each evaluation error and the
    ``point`` it records are those of a loop of ``evaluate`` over the points.
    """
    rows = values_at(lambda env: [ex.evaluate(e, env) for e in exprs], envs)
    return [list(column) for column in zip(*rows)] or [[] for _ in exprs]


class _Columns(dict):
    """Variable -> its values at the points, made by ``make(variable)`` when first read."""

    def __init__(self, make: Callable[[str], list]):
        super().__init__()
        self.make = make

    def __missing__(self, name: str) -> list:
        column = self[name] = self.make(name)  # a KeyError declines evaluate_many's walk
        return column


def _max_abs(
    families: Iterable, variables: Sequence[str], plan: SamplePlan, draw=None, keep=()
) -> list:
    """(worst, where, kept) of each family of residuals, all checked at the points of ``plan``.

    The one sampling entry of the package: every sampled check is one call.
    ``families`` yields pairs (key -> residual, ids of the residuals that
    ``expr.is_zero`` proved), as ``_family`` and ``_difference`` build them;
    a generator builds each family when asked.  A proved residual counts 0
    when ``expr.magnitude_below`` bounds it over the plan's box.  The
    others, of every family, are evaluated in one ``expr.evaluate_many``
    walk per chunk of ``CHUNK`` points, over one column per variable of the
    chunk (see the module docstring).  ``draw(j, start, n)``, when given,
    stands in for ``plan.units(len(variables), j, start, n)``: the draws
    depend on the seed and not on the box, so it may return those of a plan
    with this seed over another box, kept from an earlier call.  ``worst``
    is a family's largest |value| and ``where`` its key, as ``_fold`` picks
    them: 0.0 and () when every value is 0.  ``kept`` holds, for a family
    whose position is in ``keep``, the values of each sampled residual at
    every point, and is None for the others.

    Where the walk declines (``evaluate_many`` returns None), or building a
    family raises, the families built so far are measured from that chunk
    on, one after the other, a chunk at a time: each chunk of a family is
    walked alone, and one whose walk declines runs through the per-point
    path (``columns``).  So each error is the first that a loop of
    ``expr.evaluate`` over the families, then the points, meets, and no
    more than a chunk of points is drawn at once.
    """
    count, index = plan.count, {v: j for j, v in enumerate(variables)}
    draw = draw or functools.partial(plan.units, len(variables))
    lefts, found = [], []  # per family: key -> residual to sample; [worst, where, kept]

    def chunks(start: int) -> Iterator[tuple[int, int, _Columns]]:
        """(start, size, columns) of each chunk from ``start``, a column drawn when first read."""
        for s in range(start, count, CHUNK):
            n = min(CHUNK, count - s)
            yield s, n, _Columns(lambda v, s=s, n=n: plan.column(v, draw(index[v], s, n)))

    def per_point(start: int) -> None:
        """Measure every family in turn, a chunk at a time from ``start``."""
        for left, state in zip(lefts, found):
            keys, nodes = list(left), list(left.values())
            for _, n, cols in chunks(start) if nodes else ():
                values = ex.evaluate_many(nodes, cols, n)
                if values is None:  # the chunk's points, one dict each
                    values = columns(nodes, [{v: cols[v][p] for v in variables} for p in range(n)])
                _fold(state, keys, values)

    bounds = None
    try:
        for nodes, proved in families:
            left = {}
            for key, node in nodes.items():
                if id(node) in proved:
                    if bounds is None:
                        bounds = {v: max(map(abs, plan.interval(v))) for v in variables}
                    if ex.magnitude_below(node, bounds):
                        continue
                left[key] = node
            found.append([0.0, (), [[] for _ in left] if len(lefts) in keep else None])
            lefts.append(left)
    except Exception:
        per_point(0)  # the families built before come first, as do their errors
        raise
    exprs = [node for left in lefts for node in left.values()]
    for start, n, cols in chunks(0) if exprs else ():
        values = ex.evaluate_many(exprs, cols, n)
        if values is None:
            per_point(start)
            break
        i = 0
        for left, state in zip(lefts, found):
            _fold(state, list(left), values[i : i + len(left)])
            i += len(left)
    return [tuple(state) for state in found]


def _fold(state: list, keys: list, values: list[list[float]]) -> None:
    """Measure a chunk into ``state`` = [worst, where, kept]; ``values[q]`` is ``keys[q]``'s column.

    A loop over the chunk's points, then the keys, keeps the first strict
    maximum of |value| or, once it meets a NaN, the last NaN.  Here each
    column is reduced in C, and only a column with a NaN is searched in
    Python.  The chunk's pick meets ``state`` as the loop's next value would.
    """
    if state[2] is not None:
        for kept, column in zip(state[2], values):
            kept += column
    nan, top = None, (0.0,)  # the last NaN's (point, q); the maximum's (|value|, -point, -q)
    for q, column in enumerate(values):
        a = list(map(abs, column))
        total = sum(a)
        if total != total:  # a sum of values >= 0 is NaN only when one of them is
            nan = max(nan or (-1,), (max(i for i, v in enumerate(a) if v != v), q))
        elif total and nan is None:
            m = max(a)
            top = max(top, (m, -a.index(m), -q))
    if nan is not None:
        state[0], state[1] = abs(values[nan[1]][nan[0]]), keys[nan[1]]
    elif top[0] > state[0]:
        state[0], state[1] = top[0], keys[-top[2]]


def _proved(nodes: Iterable[Expr]) -> set:
    """The ids of the residuals in ``nodes`` that ``expr.is_zero`` proves 0."""
    return {id(node) for node in nodes if ex.is_zero(node)}


def _family(s: KSection) -> tuple[dict, set]:
    """The coefficients of ``s`` as a family of ``_max_abs``: index -> node, and the proved ids.

    Each coefficient is tried with ``expr.is_zero`` once, here, so a family
    that is checked often is built once.
    """
    nodes = {idx: c.node for idx, c in s.coeffs.items()}
    return nodes, _proved(nodes.values())


def _difference(s1: KSection, s2: KSection) -> tuple[dict, set]:
    """s1 - s2 as a family of ``_max_abs``: index -> the difference of the coefficients (a
    missing one is 0), over the indices of either section, and the proved ids."""
    nodes = {
        idx: BinOp("-", as_expr(s1.coeffs.get(idx, _ZERO)), as_expr(s2.coeffs.get(idx, _ZERO)))
        for idx in set(s1.coeffs) | set(s2.coeffs)
    }
    return nodes, _proved(nodes.values())


def nan_max(values: Iterable[float]) -> float:
    """``max(0.0, *values)``, except that a NaN value is the result.

    ``max`` keeps whichever NaN or number it meets first, so a residual
    that is NaN could otherwise read as 0 and pass its tolerance.
    """
    worst = 0.0
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


def values_at(fn, envs) -> list:
    """``fn(env)`` at every point, in order.

    An evaluation error records the point it happened at as ``point``.
    """
    out = []
    for env in envs:
        try:
            out.append(fn(env))
        except ex.EvalError as err:
            err.point = env
            raise
    return out


# --------------------------------------------------------------- validation


class Report:
    """Residual maxima checked against one tolerance, printed as ``KEY = value``.

    A subclass declares ``CHECKS``, pairs of (residual field, printed key),
    ``VERDICT``, the printed key of the verdict line, and ``TOL``.  The
    verdict holds when every residual is at most ``TOL``, so a NaN residual
    fails it.
    """

    CHECKS: ClassVar[tuple[tuple[str, str], ...]]
    VERDICT: ClassVar[str]
    TOL: ClassVar[float]

    @property
    def verdict(self) -> bool:
        return all(getattr(self, name) <= self.TOL for name, _ in self.CHECKS)

    def lines(self) -> list[str]:
        out = [f"{key} = {getattr(self, name):.3e}" for name, key in self.CHECKS]
        out.append(f"{self.VERDICT} = {self.verdict}")
        return out


@dataclass
class ValidationReport(Report):
    """Residual maxima of the chart axioms at sampled points."""

    CHECKS = (
        ("antisymmetry_max", "antisymmetry_max"),
        ("anchor_max", "anchor_compat_max"),
        ("jacobi_max", "jacobi_max"),
    )
    VERDICT = "valid"
    TOL = VALIDATION_TOL

    antisymmetry_max: float
    anchor_max: float
    jacobi_max: float
    points: int
    worst_jacobi: str = ""
    worst_anchor: str = ""

    valid = Report.verdict


class ChartResiduals:
    """Families (index -> residual) of C^c_ab + C^c_ba, d(d x) by base variable and d(d e^a)
    by a, and the ids of the residuals that ``expr.is_zero`` proved 0."""

    __slots__ = ("sums", "coordinates", "covectors", "proved")

    def __init__(self, sums: dict, coordinates: dict, covectors: list, proved: set):
        self.sums, self.coordinates, self.covectors, self.proved = sums, coordinates, covectors, proved


def chart_residuals(chart: AlgebroidChart) -> ChartResiduals:
    """Build the antisymmetry sums and d.d of every coordinate and basis covector."""
    r = chart.rank
    sums = {}  # C^c_ab + C^c_ba
    for a in range(r):
        for b in range(a, r):
            cols = {c for c, _ in chart.structure_nonzero(a, b)}
            cols |= {c for c, _ in chart.structure_nonzero(b, a)}
            for c in sorted(cols):
                sums[(a, b, c)] = BinOp("+", chart.structure[a][b][c], chart.structure[b][a][c])

    def dd(s: KSection) -> dict:
        return {idx: c.node for idx, c in differential(differential(s)).coeffs.items()}

    coordinates = {v: dd(KSection.function(chart, Var(v))) for v in chart.base_vars}
    covectors = [dd(KSection.basis_covector(chart, a)) for a in range(r)]
    families = [sums, *coordinates.values(), *covectors]
    proved = _proved(node for family in families for node in family.values())
    return ChartResiduals(sums, coordinates, covectors, proved)


def chart_report(
    views: Sequence[tuple[ChartResiduals, Sequence[str]]],
    variables: Sequence[str],
    plan: SamplePlan,
) -> list[ValidationReport]:
    """The report of each view (residuals, labels of the e^a), checked at the points of ``plan``.

    Every family of every view is sampled over ``variables`` in one
    ``_max_abs`` call, so views that share residuals evaluate each once.
    """
    families = [
        (family, res.proved)
        for res, _ in views
        for family in (res.sums, *res.coordinates.values(), *res.covectors)
    ]
    found = iter(_max_abs(families, variables, plan))

    def worst(names, n: int) -> tuple[float, str]:
        top, where = 0.0, ""
        for name, (value, idx, _) in zip(names, itertools.islice(found, n)):
            if value > top or value != value:
                top, where = value, f"d(d {name}) component {idx}"
        return top, where

    reports = []
    for res, labels in views:
        antisym = next(found)[0]
        anchor_max, worst_anchor = worst(res.coordinates, len(res.coordinates))
        jacobi_max, worst_jacobi = worst(labels, len(res.covectors))
        reports.append(ValidationReport(
            antisym, anchor_max, jacobi_max, plan.count, worst_jacobi, worst_anchor
        ))
    return reports


def validate_chart(chart: AlgebroidChart, sample: SamplePlan | None = None) -> ValidationReport:
    """Check C antisymmetry and d.d = 0 on coordinates and basis covectors.

    d.d on coordinate functions encodes compatibility of the anchor with the
    bracket; d.d on basis covectors encodes the Jacobi identity.  Each check
    proves or samples its residuals (see the module docstring).
    """
    plan = sample if sample is not None else SamplePlan()
    return chart_report([(chart_residuals(chart), chart.labels)], chart.base_vars, plan)[0]


# ------------------------------------------------------------- prolongation


@dataclass
class Prolongation:
    """Prolongation of a chart over a fibration with the given fiber coordinates.

    Basis ordering: one lifted section per parent basis section first, then
    one vertical section per fiber coordinate.  Lifted brackets reproduce the
    parent structure functions (they depend on the parent base only), all
    other brackets vanish.
    """

    parent: AlgebroidChart
    fiber_vars: list[str]
    chart: AlgebroidChart

    @property
    def horizontal(self) -> range:
        return range(self.parent.rank)

    def liouville(self) -> KSection:
        """Tautological 1-section; needs one fiber coordinate per parent section."""
        if len(self.fiber_vars) != self.parent.rank:
            raise ValueError("Liouville section needs fibers dual to the parent basis")
        comps: dict[tuple, object] = {
            (a,): Var(self.fiber_vars[a]) for a in self.horizontal
        }
        return KSection(self.chart, 1, comps)

    def canonical_symplectic(self) -> KSection:
        """Canonical symplectic 2-section on the prolongation over the dual."""
        if len(self.fiber_vars) != self.parent.rank:
            raise ValueError("canonical symplectic section needs dual fibers")
        r = self.parent.rank
        comps: dict[tuple, object] = {}
        for a in self.horizontal:
            comps[(a, r + a)] = Lit(1.0)
        for a in range(r):
            for b in range(a + 1, r):
                node = _ZERO
                for c, coeff in self.parent.structure_nonzero(a, b):
                    node = add(node, mul(coeff, Var(self.fiber_vars[c])))
                comps[(a, b)] = node
        return KSection(self.chart, 2, comps)


def prolong(parent: AlgebroidChart, fiber_vars: Sequence[str]) -> Prolongation:
    """Prolong a chart over the fibration that forgets the fiber coordinates."""
    fiber_vars = list(fiber_vars)
    clash = set(fiber_vars) & set(parent.base_vars)
    if clash:
        raise ValueError(f"fiber coordinates {sorted(clash)} clash with base coordinates")
    m, r = parent.dim, parent.rank
    rank = r + len(fiber_vars)
    zero = Lit(0.0)
    anchor: list[list[object]] = []
    for a in range(r):
        anchor.append([parent.anchor[a][i] for i in range(m)] + [zero] * len(fiber_vars))
    for j in range(len(fiber_vars)):
        row: list[object] = [zero] * (m + len(fiber_vars))
        row[m + j] = Lit(1.0)
        anchor.append(row)
    structure = [[[zero] * rank for _ in range(rank)] for _ in range(rank)]
    for a in range(r):
        for b in range(r):
            for c, coeff in parent.structure_nonzero(a, b):
                structure[a][b][c] = coeff
    labels = [f"~{lab}" for lab in parent.labels] + [f"d/d{v}" for v in fiber_vars]
    chart = AlgebroidChart(
        list(parent.base_vars) + fiber_vars, anchor, structure, labels=labels
    )
    return Prolongation(parent, fiber_vars, chart)
