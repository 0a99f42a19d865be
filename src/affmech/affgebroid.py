"""Lie affgebroids through their bidual chart in an adapted basis.

The affine structure is encoded once and for all by the bidual algebroid
data in a frame (e_0, e_1, ..., e_n) whose first section is dual to the
distinguished 1-cocycle: brackets never produce an e_0 component, so the
stored data reduces to

    rho0[i]        anchor of e_0,
    rhoV[a][i]     anchor of e_a,
    C0[a][g]       e_g-coefficient of [e_0, e_a],
    CV[a][b][g]    e_g-coefficient of [e_a, e_b].

From this chart the module builds the vertical subalgebroid, the
prolongation over the dual of the vertical bundle with its cosymplectic
pair, the Hamilton field of a Hamiltonian section, the Reeb section (read
off that field, and solved from its defining equations), and the pullback
identities satisfied by sections of that dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, Lit, Var, add, diff, mul, neg, sub
from .algebroid import (
    AlgebroidChart,
    ExprCoeff,
    KSection,
    Morphism,
    Prolongation,
    Report,
    SamplePlan,
    as_coeff,
    as_expr,
    differential,
    prolong,
    pullback,
    section_combine,
    section_max_abs,
    section_max_diff,
)

__all__ = [
    "AffgebroidChart",
    "HamiltonianSection",
    "CoSection",
    "VStarSection",
    "eta",
    "omega_h",
    "lambda_h",
    "omega_h_from_pullback",
    "hamiltonian_morphism",
    "hamilton_field",
    "reeb",
    "reeb_solve",
    "REEB_RESIDUAL_TOL",
    "ReebResult",
    "DegenerateStructureError",
    "covector_morphism",
    "h_compose",
    "pullback_identities",
    "PullbackIdentitiesReport",
    "vertical_restriction_check",
    "RestrictionReport",
]


class AffgebroidChart:
    """Single-chart affgebroid data in a basis adapted to the 1-cocycle."""

    def __init__(self, base_vars, fiber_vars, rho0, rhoV, C0, CV):
        self.base_vars = list(base_vars)
        self.fiber_vars = list(fiber_vars)
        m, n = len(self.base_vars), len(self.fiber_vars)
        self.rho0 = [as_expr(c) for c in rho0]
        self.rhoV = [[as_expr(c) for c in row] for row in rhoV]
        self.C0 = [[as_expr(c) for c in row] for row in C0]
        self.CV = [[[as_expr(c) for c in col] for col in mat] for mat in CV]
        if len(self.rho0) != m:
            raise ValueError("rho0 needs one component per base variable")
        if len(self.rhoV) != n or any(len(r) != m for r in self.rhoV):
            raise ValueError("rhoV must be n x m")
        if len(self.C0) != n or any(len(r) != n for r in self.C0):
            raise ValueError("C0 must be n x n")
        if len(self.CV) != n or any(
            len(mat) != n or any(len(col) != n for col in mat) for mat in self.CV
        ):
            raise ValueError("CV must be n x n x n")
        if set(self.base_vars) & set(self.fiber_vars):
            raise ValueError("base and fiber variable names must not overlap")
        self._bidual = None
        self._vertical = None
        self._prolongation = None
        self._vertical_prolongation = None
        self._aplus_prolongation = None

    @property
    def m(self) -> int:
        return len(self.base_vars)

    @property
    def n(self) -> int:
        return len(self.fiber_vars)

    def all_vars(self) -> list[str]:
        return self.base_vars + self.fiber_vars

    def bidual_chart(self) -> AlgebroidChart:
        """Rank n+1 chart, adapted section first; no bracket outputs e_0."""
        if self._bidual is None:
            n = self.n
            zero = Lit(0.0)
            anchor = [list(self.rho0)] + [list(row) for row in self.rhoV]
            structure = [[[zero] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
            for a in range(n):
                for g in range(n):
                    structure[0][1 + a][1 + g] = self.C0[a][g]
                    structure[1 + a][0][1 + g] = neg(self.C0[a][g])
            for a in range(n):
                for b in range(n):
                    for g in range(n):
                        structure[1 + a][1 + b][1 + g] = self.CV[a][b][g]
            labels = ["e0"] + [f"e{a+1}" for a in range(n)]
            self._bidual = AlgebroidChart(self.base_vars, anchor, structure, labels=labels)
        return self._bidual

    def vertical_chart(self) -> AlgebroidChart:
        """Rank n subchart spanned by the model directions."""
        if self._vertical is None:
            self._vertical = AlgebroidChart(
                self.base_vars,
                [list(row) for row in self.rhoV],
                [[[self.CV[a][b][g] for g in range(self.n)] for b in range(self.n)] for a in range(self.n)],
                labels=[f"e{a+1}" for a in range(self.n)],
            )
        return self._vertical

    def prolongation(self) -> Prolongation:
        """Prolongation of the bidual over the dual of the vertical bundle.

        Rank 2n+1, ordered as (lift of e_0, lifts of e_a, verticals)."""
        if self._prolongation is None:
            self._prolongation = prolong(self.bidual_chart(), self.fiber_vars)
        return self._prolongation

    def vertical_prolongation(self) -> Prolongation:
        if self._vertical_prolongation is None:
            self._vertical_prolongation = prolong(self.vertical_chart(), self.fiber_vars)
        return self._vertical_prolongation

    def aplus_prolongation(self) -> Prolongation:
        """Prolongation of the bidual over the full dual (extra y0 fiber)."""
        if self._aplus_prolongation is None:
            y0 = "y0"
            used = set(self.base_vars) | set(self.fiber_vars)
            while y0 in used:
                y0 += "_"
            self._aplus_prolongation = prolong(self.bidual_chart(), [y0] + self.fiber_vars)
        return self._aplus_prolongation

    def __repr__(self):
        return f"AffgebroidChart(m={self.m}, n={self.n}, base={self.base_vars}, fiber={self.fiber_vars})"


@dataclass
class HamiltonianSection:
    """Section of the dual projection, (x, y) -> (x, -H(x, y), y).

    ``partials`` holds the symbolic partials of H with respect to every
    chart variable, base variables first, built once at construction.
    ``compiled_rhs`` caches the compiled Hamilton field; ``dynamics.hamilton_rhs``
    fills it on its first call (False when the field could not be compiled).
    """

    chart: AffgebroidChart
    H: Expr
    partials: list = field(init=False, repr=False, compare=False)
    compiled_rhs: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.H = as_expr(self.H)
        extra = ex.free_vars(self.H) - set(self.chart.all_vars())
        if extra:
            raise ValueError(f"Hamiltonian uses unknown variables {sorted(extra)}")
        self.partials = [diff(self.H, v) for v in self.chart.all_vars()]

    def value(self, env) -> float:
        return ex.evaluate(self.H, env)

    def gradients(self, env) -> tuple[float, list[float], list[float]]:
        """Value, base partials, fiber partials at one point."""
        m = self.chart.m
        parts = [ex.evaluate(p, env) for p in self.partials]
        return ex.evaluate(self.H, env), parts[:m], parts[m:]


@dataclass
class CoSection:
    """Section of the full dual bundle: components (alpha0, alphaV) over the base.

    ``compiled_alpha`` caches alphaV and its base partials compiled into one
    function; ``dynamics.compiled_alpha`` fills it on its first call.
    """

    chart: AffgebroidChart
    alpha0: object
    alphaV: list
    compiled_alpha: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.alpha0 = as_coeff(self.alpha0)
        self.alphaV = [as_coeff(c) for c in self.alphaV]
        if len(self.alphaV) != self.chart.n:
            raise ValueError("alphaV needs one component per fiber coordinate")

    def as_bidual_section(self) -> KSection:
        return KSection.one_section(self.chart.bidual_chart(), [self.alpha0] + self.alphaV)

    def is_expression_backed(self) -> bool:
        return isinstance(self.alpha0, ExprCoeff) and all(
            isinstance(c, ExprCoeff) for c in self.alphaV
        )


@dataclass
class VStarSection:
    """Section of the dual of the vertical bundle, gamma = gamma_a e^a."""

    chart: AffgebroidChart
    gammaV: list

    def __post_init__(self):
        self.gammaV = [as_expr(c) for c in self.gammaV]
        if len(self.gammaV) != self.chart.n:
            raise ValueError("gammaV needs one component per fiber coordinate")


# ------------------------------------------------------- cosymplectic pair


def eta(aff: AffgebroidChart) -> KSection:
    """The closed 1-section dual to the lifted adapted section."""
    return KSection(aff.prolongation().chart, 1, {(0,): Lit(1.0)})


def omega_h(h: HamiltonianSection) -> KSection:
    """The 2-section of the cosymplectic pair, assembled coefficientwise.

    Nonzero coefficients on increasing index pairs, with lifts at 0..n and
    verticals at n+1..2n:

        (0, g)        sum_a C0[g][a] y_a  -  sum_i rhoV[g][i] dH/dx_i
        (0, n+1+g)    -dH/dy_g
        (a, b)        sum_g CV[a][b][g] y_g          (1 <= a < b <= n)
        (g, n+1+g)    1
    """
    aff = h.chart
    n, m = aff.n, aff.m
    pro = aff.prolongation().chart
    hx, hy = h.partials[:m], h.partials[m:]
    y = [Var(v) for v in aff.fiber_vars]
    coeffs: dict[tuple, object] = {}
    for g in range(n):
        coeffs[(0, 1 + g)] = sub(_dot(aff.C0[g], y), _dot(aff.rhoV[g], hx))
        coeffs[(0, n + 1 + g)] = neg(hy[g])
        coeffs[(1 + g, n + 1 + g)] = Lit(1.0)
    for a in range(n):
        for b in range(a + 1, n):
            coeffs[(1 + a, 1 + b)] = _dot(aff.CV[a][b], y)
    return KSection(pro, 2, coeffs)


def _dot(row: Sequence[Expr], col: Sequence[Expr]) -> Expr:
    """sum_i row[i] col[i] as a folded expression."""
    node = Lit(0.0)
    for r, c in zip(row, col):
        node = add(node, mul(r, c))
    return node


def hamiltonian_morphism(h: HamiltonianSection) -> Morphism:
    """Prolonged graph map of h into the prolongation over the full dual."""
    aff = h.chart
    n, m = aff.n, aff.m
    src = aff.prolongation().chart
    ap = aff.aplus_prolongation()
    dst = ap.chart
    y0 = ap.fiber_vars[0]

    base_map: list[object] = []
    for var in dst.base_vars:
        base_map.append(neg(h.H) if var == y0 else Var(var))

    zero = Lit(0.0)
    fiber = [[zero] * src.rank for _ in range(dst.rank)]
    for a in range(n + 1):
        fiber[a][a] = Lit(1.0)
    e0bar = n + 1  # vertical row of the extra dual fiber

    # the y0-component of a pushed lift is -rho^i_(row) dH/dx^i
    hx, hy = h.partials[:m], h.partials[m:]
    for a in range(n + 1):
        fiber[e0bar][a] = neg(_dot(aff.rho0 if a == 0 else aff.rhoV[a - 1], hx))
    for g in range(n):
        fiber[e0bar][n + 1 + g] = neg(hy[g])
        fiber[n + 2 + g][n + 1 + g] = Lit(1.0)

    return Morphism(src, dst, base_map, fiber)


def lambda_h(h: HamiltonianSection) -> KSection:
    """Pullback of the tautological section along the graph morphism of h."""
    ap = h.chart.aplus_prolongation()
    return pullback(hamiltonian_morphism(h), ap.liouville())


def omega_h_from_pullback(h: HamiltonianSection) -> KSection:
    """Pullback of the canonical symplectic section; cross-check route."""
    ap = h.chart.aplus_prolongation()
    return pullback(hamiltonian_morphism(h), ap.canonical_symplectic())


# ------------------------------------------------------------ Reeb section


class DegenerateStructureError(RuntimeError):
    """The pair (omega, eta) failed to determine a unique Reeb value."""


@dataclass
class ReebResult:
    coefficients: list[float]
    residual: float
    rank: int


def hamilton_field(h: HamiltonianSection) -> list[Expr]:
    """The Hamilton equations of h as m+n folded expressions.

        dx^i/dt = rho0^i + dH/dy_a rhoV[a]^i
        dy_a/dt = -rhoV[a]^i dH/dx^i + y_g (C0[a][g] + CV[b][a][g] dH/dy_b)

    Base components first, then fiber components, each summed in the order
    ``dynamics._interpreted_rhs`` sums it; terms whose data is a structural
    zero fold away.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    hx, hy = h.partials[:m], h.partials[m:]
    out = []
    for i in range(m):
        total = aff.rho0[i]
        for a in range(n):
            total = add(total, mul(hy[a], aff.rhoV[a][i]))
        out.append(total)
    for a in range(n):
        total = Lit(0.0)
        for i in range(m):
            total = sub(total, mul(aff.rhoV[a][i], hx[i]))
        for g in range(n):
            coef = aff.C0[a][g]
            for b in range(n):
                coef = add(coef, mul(aff.CV[b][a][g], hy[b]))
            total = add(total, mul(Var(aff.fiber_vars[g]), coef))
        out.append(total)
    return out


def reeb(h: HamiltonianSection):
    """The Reeb section of (omega_h, eta) in the ordered prolongation basis.

    Returns a function of a point of the dual producing the 2n+1 components

        (1, dH/dy_a, dy_a/dt of the Hamilton field):

    the integral curves of the Reeb section are the solutions of the
    Hamilton equations, so its fiber components are those of
    ``hamilton_field``, and ``reeb_solve`` checks them against the
    defining equations.
    """
    exprs = [Lit(1.0)] + h.partials[h.chart.m :] + hamilton_field(h)[h.chart.m :]
    return lambda env: [ex.evaluate(e, env) for e in exprs]


def omega_matrix(omega: KSection, env) -> np.ndarray:
    """Full antisymmetric coefficient matrix of a 2-section at a point."""
    r = omega.chart.rank
    mat = np.zeros((r, r))
    for (a, b), coeff in omega.coeffs.items():
        v = coeff.value(env)
        mat[a, b] = v
        mat[b, a] = -v
    return mat


REEB_RESIDUAL_TOL = 1e-8


def reeb_solve(h: HamiltonianSection, env, omega: KSection | None = None) -> ReebResult:
    """Solve the defining conditions of the Reeb section at one point.

    Stacks the contraction equations with the 2-section on top of the
    normalization row and solves the least-squares system; a tiny residual
    certifies pointwise nondegeneracy of the cosymplectic pair.
    """
    aff = h.chart
    om = omega if omega is not None else omega_h(h)
    r = om.chart.rank
    mat = omega_matrix(om, env)
    system = np.zeros((r + 1, r))
    # row b: sum_a v^a Omega(e_a, e_b) = 0
    for b in range(r):
        system[b, :] = mat[:, b]
    system[r, 0] = 1.0  # normalization against the adapted 1-section
    rhs = np.zeros(r + 1)
    rhs[r] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.linalg.norm(system @ sol - rhs))
    if rank < r or residual > REEB_RESIDUAL_TOL:
        raise DegenerateStructureError(
            f"degenerate cosymplectic pair at {env}: rank {rank} of {r}, residual {residual:.3e}"
        )
    return ReebResult([float(v) for v in sol], residual, int(rank))


# --------------------------------------------------- sections of the dual


def covector_morphism(gamma: VStarSection) -> Morphism:
    """Prolonged graph morphism of a section of the dual of the vertical bundle.

    Lifts land on the corresponding lifted sections plus the vertical
    correction rho^i_a (d gamma_v / dx^i) along each fiber direction.
    """
    aff = gamma.chart
    n = aff.n
    src = aff.bidual_chart()
    dst = aff.prolongation().chart

    base_map: list[object] = [Var(v) for v in aff.base_vars] + list(gamma.gammaV)

    zero = Lit(0.0)
    fiber = [[zero] * src.rank for _ in range(dst.rank)]
    for a in range(n + 1):
        fiber[a][a] = Lit(1.0)
    for nu in range(n):
        grad = [diff(gamma.gammaV[nu], v) for v in aff.base_vars]
        for a in range(n + 1):
            fiber[n + 1 + nu][a] = _dot(aff.rho0 if a == 0 else aff.rhoV[a - 1], grad)
    return Morphism(src, dst, base_map, fiber)


def h_compose(h: HamiltonianSection, gamma: VStarSection) -> KSection:
    """h composed with gamma, as a 1-section of the bidual chart.

    Components in the adapted dual basis: (-H(x, gamma(x)), gamma_a(x))."""
    aff = h.chart
    mapping = {aff.fiber_vars[a]: gamma.gammaV[a] for a in range(aff.n)}
    head = neg(ex.substitute(h.H, mapping))
    return KSection.one_section(aff.bidual_chart(), [head] + list(gamma.gammaV))


@dataclass
class PullbackIdentitiesReport(Report):
    CHECKS = (("lambda_dev", "pullback_lambda_dev"), ("omega_dev", "pullback_omega_dev"))
    VERDICT = "pullback_identities_hold"
    TOL = 1e-8

    lambda_dev: float
    omega_dev: float
    points: int

    holds = Report.verdict


def pullback_identities(
    gamma: VStarSection, h: HamiltonianSection, sample: SamplePlan | None = None
) -> PullbackIdentitiesReport:
    """Deviation of the two graph-pullback identities at sampled base points.

    Checks that pulling the tautological pairing back along the graph of
    gamma reproduces h composed with gamma, and that pulling the 2-section
    back gives minus the differential of that composite.
    """
    aff = gamma.chart
    plan = sample if sample is not None else SamplePlan()
    envs = plan.points(aff.base_vars)
    morph = covector_morphism(gamma)
    hg = h_compose(h, gamma)

    lam_pulled = pullback(morph, lambda_h(h))
    lambda_dev = section_max_diff(lam_pulled, hg, envs)

    om_pulled = pullback(morph, omega_h(h))
    minus_dhg = section_combine(-1.0, differential(hg), 0.0, KSection.zero(aff.bidual_chart(), 2))
    omega_dev = section_max_diff(om_pulled, minus_dhg, envs)
    return PullbackIdentitiesReport(lambda_dev, omega_dev, len(envs))


# --------------------------------------------------- vertical restriction


def vertical_inclusion_morphism(aff: AffgebroidChart) -> Morphism:
    """Inclusion of the vertical prolongation: drop the lifted adapted section."""
    src = aff.vertical_prolongation().chart
    dst = aff.prolongation().chart
    n = aff.n
    zero = Lit(0.0)
    fiber = [[zero] * src.rank for _ in range(dst.rank)]
    for a in range(n):
        fiber[1 + a][a] = Lit(1.0)
        fiber[n + 1 + a][n + a] = Lit(1.0)
    base_map = [Var(v) for v in dst.base_vars]
    return Morphism(src, dst, base_map, fiber)


@dataclass
class RestrictionReport(Report):
    CHECKS = (
        ("lambda_dev", "restriction_lambda_dev"),
        ("omega_dev", "restriction_omega_dev"),
        ("eta_dev", "restriction_eta_dev"),
    )
    VERDICT = "restriction_holds"
    TOL = 1e-10

    lambda_dev: float
    omega_dev: float
    eta_dev: float
    points: int

    holds = Report.verdict


def vertical_restriction_check(
    h: HamiltonianSection, sample: SamplePlan | None = None
) -> RestrictionReport:
    """Restrict the cosymplectic data to the vertical prolongation.

    The 2-section must restrict to the canonical symplectic section of the
    vertical chart, the tautological section to its own, and the adapted
    1-section to zero."""
    aff = h.chart
    plan = sample if sample is not None else SamplePlan()
    envs = plan.points(aff.prolongation().chart.base_vars)
    incl = vertical_inclusion_morphism(aff)
    vp = aff.vertical_prolongation()

    omega_dev = section_max_diff(pullback(incl, omega_h(h)), vp.canonical_symplectic(), envs)
    lambda_dev = section_max_diff(pullback(incl, lambda_h(h)), vp.liouville(), envs)
    eta_restricted = pullback(incl, eta(aff))
    eta_dev, _, _ = section_max_abs(eta_restricted, envs)
    return RestrictionReport(lambda_dev, omega_dev, eta_dev, len(envs))
