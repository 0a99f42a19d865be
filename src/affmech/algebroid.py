"""Lie algebroids in a single coordinate chart.

A chart stores the anchor components rho^i_a(x) and the structure functions
C^c_ab(x) of a local frame {e_a}.  On top of that this module provides
degree-k alternating sections, the exterior differential, pullbacks along
morphisms, numeric chart validation (antisymmetry, anchor compatibility and
Jacobi via d.d = 0 at sampled points), and the prolongation of a chart over
a fibration together with its Liouville and canonical symplectic sections.

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

The checks (``section_max_abs``, ``section_max_diff``, ``validate_chart``)
count a residual as exactly 0, without evaluating it, when it is *proved*: a
polynomial whose exact rational expansion is 0 (``expr.is_zero``) and whose
every node stays below ``expr.SAFE_MAGNITUDE`` over the points, so that its
evaluation cannot overflow to a NaN (``expr.magnitude_below``).  Every other
residual (calls, non-constant divisors, nonzero or too large polynomials,
possible overflow) is sampled at every point; a check given a SamplePlan
draws its points only then.  Sampled residuals are evaluated together, one
``expr.evaluate_many`` walk per chunk of ``CHUNK`` points (``columns``),
with the interpreter's values, errors and error points.
"""

from __future__ import annotations

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
    "SplitMix64",
    "MAX_SAMPLES",
    "SamplePlan",
    "check_box_var",
    "AlgebroidChart",
    "KSection",
    "differential",
    "Report",
    "ValidationReport",
    "validate_chart",
    "Morphism",
    "pullback",
    "morphism_defect",
    "Prolongation",
    "prolong",
    "section_max_abs",
    "max_abs_check",
    "CHUNK",
    "columns",
    "nan_max",
    "values_at",
    "section_max_diff",
    "section_combine",
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
    return [(i, e) for i, e in enumerate(entries) if ex.literal_value(e) != 0.0]


# ------------------------------------------------------------------ sampling


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64), identical on every platform."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        (z,) = self._outputs(1)
        return z

    def units(self, k: int) -> list[float]:
        """The next k outputs as floats in [0, 1): the top 53 bits of each, times 2^-53."""
        return [(z >> 11) * 2.0**-53 for z in self._outputs(k)]

    def _outputs(self, k: int) -> Iterator[int]:
        mask, state = self._MASK, self.state
        for _ in range(k):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            yield z ^ (z >> 31)
        self.state = state

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.units(1)[0]


MAX_SAMPLES = 1_000_000  # points one SamplePlan may draw; each is a dict held at once


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

    def units(self, k: int) -> list[float]:
        """The unit draws of ``points`` over k variables: ``count * k`` of them."""
        return SplitMix64(self.seed).units(self.count * k)

    def points(self, variables: Sequence[str], units=None) -> list[dict[str, float]]:
        """``count`` points, each drawn variable by variable with ``SplitMix64.uniform``.

        ``units``, when given, is ``self.units(len(variables))`` or the same
        draws of a plan with this seed and count over another box, reused.
        """
        spans = [(v, *self.interval(v)) for v in variables]
        draws = iter(self.units(len(spans)) if units is None else units)
        return [{v: lo + (hi - lo) * next(draws) for v, lo, hi in spans} for _ in range(self.count)]


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
            if ex.literal_value(node) != 0.0:
                self.coeffs[idx] = ExprCoeff(node)

    # ---- constructors

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree, {})

    @classmethod
    def function(cls, chart, f):
        return cls(chart, 0, {(): f})

    @classmethod
    def basis_covector(cls, chart, a):
        return cls(chart, 1, {(a,): Lit(1.0)})

    @classmethod
    def one_section(cls, chart, components):
        return cls(chart, 1, {(a,): c for a, c in enumerate(components)})

    # ---- evaluation

    def component(self, indices, env) -> float:
        """Value on (e_{i1},...,e_{ik}) for an arbitrary index order."""
        key, sign = _sort_with_sign(tuple(indices))
        if key is None:
            return 0.0
        c = self.coeffs.get(key)
        return 0.0 if c is None else sign * c.value(env)

    def values(self, env) -> dict[tuple[int, ...], float]:
        return {idx: c.value(env) for idx, c in self.coeffs.items()}

    def __repr__(self):
        return f"KSection(degree={self.degree}, nonzero={sorted(self.coeffs)})"


def _sort_with_sign(indices: tuple[int, ...]):
    """Sort an index tuple, tracking permutation parity; None on repeats."""
    idx = list(indices)
    sign = 1.0
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0.0
    return tuple(idx), sign


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
    positions of a and b and by c.  An output that folds to zero is dropped
    (by ``KSection``).
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
                term = mul((-1.0) ** i, mul(rc, partials[vi]))
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


def morphism_defect(morph: Morphism, s: KSection, envs) -> float:
    """Max deviation of d(pullback s) from pullback(d s) on sample points."""
    lhs = differential(pullback(morph, s))
    rhs = pullback(morph, differential(s))
    return section_max_diff(lhs, rhs, envs)


# --------------------------------------------------------------- comparisons


CHUNK = 256  # points per expr.evaluate_many call, which holds a value of every node at each


def columns(exprs: Sequence[Expr], envs) -> Iterator[tuple[list, list[list[float]]]]:
    """(points, values) for each chunk of at most ``CHUNK`` points of ``envs``, in order.

    ``values[i][p]`` is ``exprs[i]`` at ``points[p]``, from one
    ``expr.evaluate_many`` walk per chunk.  From the first chunk that
    ``evaluate_many`` declines on, ``expr.evaluate`` evaluates every point,
    point by point, so each value, each evaluation error and the ``point``
    it records are those of a loop of ``evaluate`` over the points.
    """
    batched = True
    for start in range(0, len(envs), CHUNK):
        chunk = envs[start : start + CHUNK]
        values = ex.evaluate_many(exprs, chunk) if batched else None
        if values is None:
            batched = False
            values = [[] for _ in exprs]
            for env in chunk:
                try:
                    for column, e in zip(values, exprs):
                        column.append(ex.evaluate(e, env))
                except ex.EvalError as err:
                    err.point = env
                    raise
        yield chunk, values


def _max_abs(nodes: Mapping, proved: set, variables: Sequence[str], envs, units=None):
    """``section_max_abs``'s loop over ``nodes`` (key -> residual).

    ``proved`` holds the keys that ``expr.is_zero`` proved (``_proved``); such
    a residual counts 0 when ``expr.magnitude_below`` bounds it over the
    points.  The others are evaluated by ``columns``, a chunk of points at a
    time, and measured point by point in order.  ``units``, for a SamplePlan,
    returns the plan's unit draws to reuse (see ``SamplePlan.points``).
    """
    left, bounds = {}, None  # key -> residual, for each residual to sample
    for key, node in nodes.items():
        if key in proved:
            if bounds is None:
                bounds = _bounds(envs, variables)
            if ex.magnitude_below(node, bounds):
                continue
        left[key] = node
    if not left:
        return 0.0, (), {}
    if isinstance(envs, SamplePlan):
        envs = envs.points(variables, units()) if units else envs.points(variables)
    worst, where, at, keys = 0.0, (), {}, list(left)
    for chunk, values in columns(list(left.values()), envs):
        for env, row in zip(chunk, zip(*values)):
            for key, v in zip(keys, row):
                v = abs(v)
                if v > worst or v != v:
                    worst, where, at = v, key, env
    return worst, where, at


def _proved(nodes: Mapping) -> set:
    """The keys of ``nodes`` whose residual ``expr.is_zero`` proves 0."""
    return {key for key, node in nodes.items() if ex.is_zero(node)}


def _bounds(envs, variables: Sequence[str]) -> dict[str, float]:
    """Bound of |v| over a plan's box or over a list of points."""
    if isinstance(envs, SamplePlan):
        return {v: max(map(abs, envs.interval(v))) for v in variables}
    return {v: nan_max(abs(env.get(v, math.nan)) for env in envs) for v in variables}


def section_max_abs(s: KSection, envs) -> tuple[float, tuple, dict]:
    """Largest |coefficient| over the points, its index and its point.

    ``envs`` is a list of points or a SamplePlan over the chart's base
    variables.  A proved coefficient (see the module docstring) counts 0;
    the others are sampled.  A NaN coefficient is the largest.  An
    evaluation error records the point it happened at as ``point``.
    """
    nodes = {idx: c.node for idx, c in s.coeffs.items()}
    return _max_abs(nodes, _proved(nodes), s.chart.base_vars, envs)


def max_abs_check(s: KSection) -> Callable[..., tuple[float, tuple, dict]]:
    """``section_max_abs(s, envs)`` as a function of ``envs``, for one section checked often.

    Each coefficient is tried with ``expr.is_zero`` once, here, rather than
    on every call.  The function takes ``units`` as ``_max_abs`` does.
    """
    nodes = {idx: c.node for idx, c in s.coeffs.items()}
    proved = _proved(nodes)
    return lambda envs, units=None: _max_abs(nodes, proved, s.chart.base_vars, envs, units)


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


def section_max_diff(s1: KSection, s2: KSection, envs) -> float:
    """Largest |s1 - s2| over the coefficients and the points.

    Each difference of coefficients (a missing one is 0) is proved or
    sampled as in ``section_max_abs``.
    """
    if s1.degree != s2.degree:
        raise ValueError("sections must have equal degree")
    keys = set(s1.coeffs) | set(s2.coeffs)
    diffs = {
        idx: BinOp("-", as_expr(s1.coeffs.get(idx, 0.0)), as_expr(s2.coeffs.get(idx, 0.0)))
        for idx in keys
    }
    return section_max_abs(KSection(s1.chart, s1.degree, diffs), envs)[0]


def section_combine(a: float, s: KSection, b: float, t: KSection) -> KSection:
    """Pointwise a*s + b*t for sections of one chart and degree."""
    if s.chart is not t.chart or s.degree != t.degree:
        raise ValueError("sections must share chart and degree")
    ns = {idx: c.node for idx, c in s.coeffs.items()}
    nt = {idx: c.node for idx, c in t.coeffs.items()}
    out: dict[tuple, Expr] = {}
    for idx in set(ns) | set(nt):
        node = _ZERO
        if idx in ns:
            node = add(node, mul(a, ns[idx]))
        if idx in nt:
            node = add(node, mul(b, nt[idx]))
        out[idx] = node
    return KSection(s.chart, s.degree, out)


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

    valid = Report.verdict


def validate_chart(chart: AlgebroidChart, sample: SamplePlan | None = None) -> ValidationReport:
    """Check C antisymmetry and d.d = 0 on coordinates and basis covectors.

    d.d on coordinate functions encodes compatibility of the anchor with the
    bracket; d.d on basis covectors encodes the Jacobi identity.  Each check
    proves or samples its residuals as ``section_max_abs`` does.
    """
    plan = sample if sample is not None else SamplePlan()
    r = chart.rank

    sums = {}  # C^c_ab + C^c_ba
    for a in range(r):
        for b in range(a, r):
            cols = {c for c, _ in chart.structure_nonzero(a, b)}
            cols |= {c for c, _ in chart.structure_nonzero(b, a)}
            for c in cols:
                fwd, rev = chart.structure[a][b][c], chart.structure[b][a][c]
                sums[(a, b, c)] = BinOp("+", fwd, rev)
    antisym, _, _ = _max_abs(sums, _proved(sums), chart.base_vars, plan)

    def dd_max(s: KSection):
        return section_max_abs(differential(differential(s)), plan)

    anchor_max = nan_max(dd_max(KSection.function(chart, Var(v)))[0] for v in chart.base_vars)

    jacobi_max, worst_info = 0.0, ""
    for a in range(r):
        worst, where, _ = dd_max(KSection.basis_covector(chart, a))
        if worst > jacobi_max or worst != worst:
            jacobi_max = worst
            worst_info = f"d(d {chart.labels[a]}) component {where}"
    return ValidationReport(antisym, anchor_max, jacobi_max, plan.count, worst_jacobi=worst_info)


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
