"""Lie algebroids in a single coordinate chart.

A chart stores the anchor components rho^i_a(x) and the structure functions
C^c_ab(x) of a local frame {e_a}.  On top of that this module provides
degree-k alternating sections, the exterior differential, pullbacks along
morphisms, numeric chart validation (antisymmetry, anchor compatibility and
Jacobi via d.d = 0 at sampled points), and the prolongation of a chart over
a fibration together with its Liouville and canonical symplectic sections.

Chart and morphism data are expressions (``as_expr``; anything else is a
TypeError).  The differential, pullbacks and linear combinations are built
symbolically with the folding constructors of ``expr``: every derived
coefficient is one exact expression, built once and evaluated at each
sample point, and a coefficient that folds to zero is dropped.  A callable
is accepted only as a coefficient of a section, for dual sections given
by a user: it is a point evaluator (``FnCoeff``), the differential of a
section holding one is a point evaluator too, with partials taken by
central finite differences, and ``pullback`` and ``section_combine``
reject it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping, Sequence, Union

from . import expr as ex
from .expr import Expr, Lit, Var, add, mul

__all__ = [
    "FD_STEP",
    "VALIDATION_TOL",
    "ExprCoeff",
    "FnCoeff",
    "Coeff",
    "as_expr",
    "as_coeff",
    "is_zero_coeff",
    "SplitMix64",
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
    "nan_max",
    "values_at",
    "section_max_diff",
    "section_combine",
]

FD_STEP = 1e-5  # central-difference step for partials of derived coefficients
VALIDATION_TOL = 1e-8


# ------------------------------------------------------------- coefficients


class ExprCoeff:
    """Coefficient backed by an expression; partials are exact."""

    __slots__ = ("node",)

    def __init__(self, node: Expr):
        self.node = node

    def value(self, env) -> float:
        return ex.evaluate(self.node, env)

    def value_and_partials(self, env, wrt: Sequence[str]):
        return ex.evaluate_with_partials(self.node, env, wrt)

    def __repr__(self):
        return f"ExprCoeff({ex.to_string(self.node)})"


class FnCoeff:
    """Coefficient known only as a point evaluator (a user callable).

    Partials fall back to central finite differences of step ``FD_STEP``;
    users of these partials must budget tolerances accordingly.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Mapping[str, float]], float]):
        self.fn = fn

    def value(self, env) -> float:
        return self.fn(env)

    def value_and_partials(self, env, wrt: Sequence[str]):
        v = self.fn(env)
        h = FD_STEP
        parts = []
        shifted = dict(env)
        for name in wrt:
            x = env[name]
            shifted[name] = x + h
            vp = self.fn(shifted)
            shifted[name] = x - h
            vm = self.fn(shifted)
            shifted[name] = x
            parts.append((vp - vm) / (2.0 * h))
        return v, parts

    def __repr__(self):
        return "FnCoeff(<evaluator>)"


Coeff = Union[ExprCoeff, FnCoeff]

_ZERO = Lit(0.0)


def as_expr(obj) -> Expr:
    """Coerce a string, number, expression or ExprCoeff to an expression."""
    if isinstance(obj, str):
        return ex.parse(obj)
    if isinstance(obj, (int, float)):
        return Lit(float(obj))
    if isinstance(obj, ex._Node):
        return obj
    if isinstance(obj, ExprCoeff):
        return obj.node
    raise TypeError(f"chart data must be expressions, got {obj!r}")


def as_coeff(obj) -> Coeff:
    """Coerce an expression, string, number, callable or Coeff."""
    if isinstance(obj, (ExprCoeff, FnCoeff)):
        return obj
    if callable(obj):
        return FnCoeff(obj)
    return ExprCoeff(as_expr(obj))


def is_zero_coeff(c: Coeff) -> bool:
    return isinstance(c, ExprCoeff) and ex.literal_value(c.node) == 0.0


# ------------------------------------------------------------------ sampling


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64), identical on every platform."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)


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

    def points(self, variables: Sequence[str]) -> list[dict[str, float]]:
        rng = SplitMix64(self.seed)
        pts = []
        for _ in range(self.count):
            pts.append({v: rng.uniform(*self.interval(v)) for v in variables})
        return pts


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
        self.anchor = [[ExprCoeff(as_expr(c)) for c in row] for row in anchor]
        self.structure = [
            [[ExprCoeff(as_expr(c)) for c in col] for col in mat] for mat in structure
        ]
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
        self._anchor_nz = [
            [(i, c) for i, c in enumerate(row) if not is_zero_coeff(c)]
            for row in self.anchor
        ]
        self._struct_nz = {}
        for a in range(r):
            for b in range(r):
                nz = [(c, co) for c, co in enumerate(self.structure[a][b]) if not is_zero_coeff(co)]
                if nz:
                    self._struct_nz[(a, b)] = nz

    @property
    def dim(self) -> int:
        return len(self.base_vars)

    @property
    def rank(self) -> int:
        return len(self.anchor)

    def anchor_nonzero(self, a: int):
        return self._anchor_nz[a]

    def structure_nonzero(self, a: int, b: int):
        return self._struct_nz.get((a, b), ())

    def __repr__(self):
        return f"AlgebroidChart(rank={self.rank}, base={self.base_vars})"


# ------------------------------------------------------------------ sections

MAX_DEGREE = 3


class KSection:
    """Alternating degree-k section, coefficients keyed by increasing tuples."""

    def __init__(self, chart: AlgebroidChart, degree: int, coeffs: Mapping[tuple, object]):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be between 0 and {MAX_DEGREE}")
        self.chart = chart
        self.degree = degree
        self.coeffs: dict[tuple[int, ...], Coeff] = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                raise ValueError(f"index tuple {idx} must be strictly increasing of length {degree}")
            if any(not 0 <= a < chart.rank for a in idx):
                raise ValueError(f"index tuple {idx} out of range for rank {chart.rank}")
            cc = as_coeff(c)
            if not is_zero_coeff(cc):
                self.coeffs[idx] = cc

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

    Applies the Cartan-type formula on basis tuples: the anchor acts on
    coefficient functions through their partials, brackets of basis sections
    contribute through the structure functions.  With expression-backed
    section coefficients each output coefficient is one folded expression,
    sum of rho * (symbolic partial) and of +-C * coefficient, and one that
    folds to zero is dropped.  A section holding a callable gives
    point-evaluator coefficients whose partials are finite differences.
    """
    if s.degree > 2:
        raise ValueError("differential implemented for sections of degree <= 2")
    chart = s.chart
    k = s.degree
    exact = all(isinstance(c, ExprCoeff) for c in s.coeffs.values())
    out: dict[tuple, Coeff] = {}
    for idx in itertools.combinations(range(chart.rank), k + 1):
        anchor_terms = []
        for i, a in enumerate(idx):
            sub = idx[:i] + idx[i + 1 :]
            coeff = s.coeffs.get(sub)
            if coeff is None:
                continue
            row = chart.anchor_nonzero(a)
            if not row:
                continue
            names = [chart.base_vars[vi] for vi, _ in row]
            anchor_terms.append(((-1.0) ** i, coeff, row, names))
        bracket_terms = []
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(idx[p] for p in range(k + 1) if p not in (i, j))
                sign_ij = (-1.0) ** (i + j)
                for c, c_coeff in chart.structure_nonzero(idx[i], idx[j]):
                    key, sgn = _sort_with_sign((c,) + rest)
                    if key is None:
                        continue
                    coeff = s.coeffs.get(key)
                    if coeff is None:
                        continue
                    bracket_terms.append((sign_ij * sgn, c_coeff, coeff))
        if not (anchor_terms or bracket_terms):
            continue
        if exact:
            out[idx] = ExprCoeff(_differential_expr(anchor_terms, bracket_terms))
        else:
            out[idx] = FnCoeff(_differential_closure(anchor_terms, bracket_terms))
    return KSection(chart, k + 1, out)


def _differential_expr(anchor_terms, bracket_terms) -> Expr:
    node = _ZERO
    for sign, coeff, row, names in anchor_terms:
        for (_, rc), name in zip(row, names):
            node = add(node, mul(sign, mul(rc.node, ex.diff(coeff.node, name))))
    for sign, c_coeff, coeff in bracket_terms:
        node = add(node, mul(sign, mul(c_coeff.node, coeff.node)))
    return node


def _differential_closure(anchor_terms, bracket_terms):
    def evaluate(env):
        total = 0.0
        for sign, coeff, row, names in anchor_terms:
            _, parts = coeff.value_and_partials(env, names)
            acc = 0.0
            for p, (_, rc) in enumerate(row):
                acc += rc.value(env) * parts[p]
            total += sign * acc
        for sign, c_coeff, coeff in bracket_terms:
            cv = c_coeff.value(env)
            if cv != 0.0:
                total += sign * cv * coeff.value(env)
        return total

    return evaluate


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
        self.base_map = [ExprCoeff(as_expr(c)) for c in self.base_map]
        self.fiber_map = [[ExprCoeff(as_expr(c)) for c in row] for row in self.fiber_map]
        if len(self.base_map) != self.dst.dim:
            raise ValueError("base map must produce every destination coordinate")
        if len(self.fiber_map) != self.dst.rank or any(
            len(row) != self.src.rank for row in self.fiber_map
        ):
            raise ValueError("fiber map must be dst.rank x src.rank")


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
    the determinant terms.  A callable coefficient of ``s`` is a TypeError.
    """
    if s.chart is not morph.dst:
        raise ValueError("section must live on the destination chart of the morphism")
    k = s.degree
    mapping = {var: c.node for var, c in zip(morph.dst.base_vars, morph.base_map)}
    pulled = {key: ex.substitute(node, mapping) for key, node in _nodes(s).items()}
    if k == 0:
        return KSection(morph.src, 0, pulled)
    out: dict[tuple, Coeff] = {}
    for idx in itertools.combinations(range(morph.src.rank), k):
        node = _ZERO
        for bkey, s_b in pulled.items():
            det = _ZERO
            for perm, sign in _PERMS[k]:
                entries = [morph.fiber_map[bkey[perm[p]]][idx[p]] for p in range(k)]
                if any(is_zero_coeff(e) for e in entries):
                    continue
                prod = sign
                for e in entries:
                    prod = mul(prod, e.node)
                det = add(det, prod)
            node = add(node, mul(det, s_b))
        out[idx] = ExprCoeff(node)
    return KSection(morph.src, k, out)


def _nodes(s: KSection) -> dict[tuple, Expr]:
    """The coefficient expressions of a section; TypeError for a callable one."""
    for c in s.coeffs.values():
        if not isinstance(c, ExprCoeff):
            raise TypeError(f"expected expression coefficients, got {c!r}")
    return {key: c.node for key, c in s.coeffs.items()}


def morphism_defect(morph: Morphism, s: KSection, envs) -> float:
    """Max deviation of d(pullback s) from pullback(d s) on sample points."""
    lhs = differential(pullback(morph, s))
    rhs = pullback(morph, differential(s))
    return section_max_diff(lhs, rhs, envs)


# --------------------------------------------------------------- comparisons


def section_max_abs(s: KSection, envs) -> tuple[float, tuple, dict]:
    """Largest |coefficient| over the points, its index and its point.

    A NaN coefficient is the largest.  An evaluation error records the
    point it happened at as ``point``.
    """
    worst, where, at = 0.0, (), {}
    for env in envs:
        try:
            for idx, c in s.coeffs.items():
                v = abs(c.value(env))
                if v > worst or v != v:
                    worst, where, at = v, idx, env
        except ex.EvalError as err:
            err.point = env
            raise
    return worst, where, at


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
    if s1.degree != s2.degree:
        raise ValueError("sections must have equal degree")
    keys = set(s1.coeffs) | set(s2.coeffs)
    worst = 0.0
    for env in envs:
        for idx in keys:
            a = s1.coeffs[idx].value(env) if idx in s1.coeffs else 0.0
            b = s2.coeffs[idx].value(env) if idx in s2.coeffs else 0.0
            d = abs(a - b)
            if d > worst or d != d:
                worst = d
    return worst


def section_combine(a: float, s: KSection, b: float, t: KSection) -> KSection:
    """Pointwise a*s + b*t for sections of one chart and degree.

    A callable coefficient of ``s`` or ``t`` is a TypeError.
    """
    if s.chart is not t.chart or s.degree != t.degree:
        raise ValueError("sections must share chart and degree")
    ns, nt = _nodes(s), _nodes(t)
    out: dict[tuple, Coeff] = {}
    for idx in set(ns) | set(nt):
        node = _ZERO
        if idx in ns:
            node = add(node, mul(a, ns[idx]))
        if idx in nt:
            node = add(node, mul(b, nt[idx]))
        out[idx] = ExprCoeff(node)
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
    bracket; d.d on basis covectors encodes the Jacobi identity.
    """
    plan = sample if sample is not None else SamplePlan()
    envs = plan.points(chart.base_vars)
    r = chart.rank

    pairs = []
    for a in range(r):
        for b in range(a, r):
            cols = {c for c, _ in chart.structure_nonzero(a, b)}
            cols |= {c for c, _ in chart.structure_nonzero(b, a)}
            pairs += [(chart.structure[a][b][c], chart.structure[b][a][c]) for c in cols]
    antisym = nan_max(
        abs(fwd.value(env) + rev.value(env)) for fwd, rev in pairs for env in envs
    )

    def dd_max(s: KSection):
        return section_max_abs(differential(differential(s)), envs)

    anchor_max = nan_max(dd_max(KSection.function(chart, Var(v)))[0] for v in chart.base_vars)

    jacobi_max, worst_info = 0.0, ""
    for a in range(r):
        worst, where, _ = dd_max(KSection.basis_covector(chart, a))
        if worst > jacobi_max or worst != worst:
            jacobi_max = worst
            worst_info = f"d(d {chart.labels[a]}) component {where}"
    return ValidationReport(antisym, anchor_max, jacobi_max, len(envs), worst_jacobi=worst_info)


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
                    node = add(node, mul(coeff.node, Var(self.fiber_vars[c])))
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
