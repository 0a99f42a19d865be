"""The Hamilton-Jacobi side: the scalar defect of a dual section, the
cocycle and HJ conditions, and the numeric two-way check of the main
equivalence between those conditions and the Hamilton equations along
reduced trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .algebroid import (
    ExprCoeff,
    FnCoeff,
    KSection,
    Report,
    SamplePlan,
    differential,
    nan_max,
    section_max_abs,
    values_at,
)
from .affgebroid import AffgebroidChart, CoSection, HamiltonianSection
from .dynamics import (
    DEFAULT_STEP,
    Trajectory,
    compiled_alpha,
    hamilton_rhs,
    integrate_reduced,
    reduced_field,
)

__all__ = [
    "POINT_TOL",
    "TRAJECTORY_TOL",
    "f_of",
    "CocycleReport",
    "cocycle_residual",
    "HJReport",
    "hj_residual",
    "NotACocycleError",
    "IntegrationFailure",
    "TheoremReport",
    "verify_theorem",
]

POINT_TOL = 1e-8  # pointwise conditions use exact partials
TRAJECTORY_TOL = 1e-6  # trajectory residuals absorb RK4 error at the default step


def f_of(h: HamiltonianSection, alpha: CoSection):
    """Scalar measuring how far alpha is from the graph of h.

    In dual coordinates: alpha0(x) + H(x, alphaV(x)).  Expression-backed
    sections yield an expression (exact partials); otherwise a point
    evaluator is returned.
    """
    aff = h.chart
    if alpha.is_expression_backed():
        sub = {aff.fiber_vars[a]: alpha.alphaV[a].node for a in range(aff.n)}
        return ExprCoeff(ex.add(alpha.alpha0.node, ex.substitute(h.H, sub)))

    def fn(env):
        inner = dict(env)
        for a in range(aff.n):
            inner[aff.fiber_vars[a]] = alpha.alphaV[a].value(env)
        return alpha.alpha0.value(env) + ex.evaluate(h.H, inner)

    return FnCoeff(fn)


@dataclass
class CocycleReport(Report):
    CHECKS = (("max_residual", "cocycle_residual"),)
    VERDICT = "is_cocycle"
    TOL = POINT_TOL

    max_residual: float
    component: tuple
    points: int

    is_cocycle = Report.verdict


def cocycle_residual(alpha: CoSection, sample: SamplePlan | None = None) -> CocycleReport:
    """Max coefficient of the differential of alpha on the bidual chart."""
    plan = sample if sample is not None else SamplePlan()
    envs = plan.points(alpha.chart.base_vars)
    d_alpha = differential(alpha.as_bidual_section())
    worst, where, _ = section_max_abs(d_alpha, envs)
    return CocycleReport(worst, where, len(envs))


@dataclass
class HJReport(Report):
    CHECKS = (("max_residual", "hj_residual"),)
    VERDICT = "is_solution"
    TOL = POINT_TOL

    max_residual: float
    component: int
    points: int

    is_solution = Report.verdict


def hj_residual(
    alpha: CoSection, h: HamiltonianSection, sample: SamplePlan | None = None
) -> HJReport:
    """Max vertical derivative of the scalar defect at sampled base points.

    The components rhoV[a]^i df/dx^i are the coefficients of the vertical
    differential of f; the section solves the HJ equation when they vanish.
    """
    aff = h.chart
    plan = sample if sample is not None else SamplePlan()
    envs = plan.points(aff.base_vars)
    df = differential(KSection.function(aff.vertical_chart(), f_of(h, alpha)))
    worst, where, _ = section_max_abs(df, envs)
    return HJReport(worst, where[0] if where else -1, len(envs))


class NotACocycleError(ValueError):
    def __init__(self, report: CocycleReport):
        super().__init__(
            f"section is not a cocycle: residual {report.max_residual:.3e} "
            f"at component {report.component}"
        )
        self.report = report


class IntegrationFailure(RuntimeError):
    pass


@dataclass
class TheoremReport:
    """Numeric verdicts for the two equivalent conditions at one start point."""

    x0: list[float]
    cocycle_max: float
    trajectory_max: float
    base_defect_max: float
    hj_max: float
    trajectory: Trajectory
    box: dict

    @property
    def holds_along_trajectory(self) -> bool:
        return self.trajectory_max <= TRAJECTORY_TOL

    @property
    def holds_pointwise(self) -> bool:
        return self.hj_max <= POINT_TOL

    @property
    def agree(self) -> bool:
        return self.holds_along_trajectory == self.holds_pointwise


def verify_theorem(
    alpha: CoSection,
    h: HamiltonianSection,
    x0,
    horizon: float,
    step: float = DEFAULT_STEP,
    sample: SamplePlan | None = None,
) -> TheoremReport:
    """Check both directions of the equivalence from one initial point.

    Integrates the reduced field, restores the curve on the dual through
    alpha, and measures how far it is from solving the Hamilton equations:
    the base equation is an identity of the construction (asserted to
    1e-12), the fiber residual uses exact partials of alpha along the
    curve.  The pointwise HJ residual is evaluated on the bounding box of
    the computed trajectory.  Requires alpha to be a cocycle.  A start point
    where the reduced field cannot be evaluated raises the evaluation error,
    with x0 as its ``point``.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    plan = sample if sample is not None else SamplePlan()

    coc = cocycle_residual(alpha, plan)
    if not coc.is_cocycle:
        raise NotACocycleError(coc)

    traj = integrate_reduced(alpha, h, x0, 0.0, horizon, step)
    field = reduced_field(alpha, h)
    if not traj.ok:
        # a start point outside the section's domain is an input error, not a
        # failed flow; evaluating there raises it with x0 as its point
        values_at(lambda _: field(x0), [dict(zip(aff.base_vars, map(float, x0)))])
        raise IntegrationFailure(f"reduced flow aborted: {traj.error}")

    # alphaV and its base partials from the function the reduced field
    # already compiled; the interpreter (values, then dual partials) covers
    # anything else
    alpha_fn = compiled_alpha(alpha)

    def residuals(env):
        """Base-equation defect and largest fiber residual at one state."""
        state = [env[v] for v in aff.base_vars]
        fast = ex.run_compiled(alpha_fn, state)
        yv = fast[:n] if fast is not None else [c.value(env) for c in alpha.alphaV]
        rhs = hamilton_rhs(h, state + yv)
        xdot = field(state)
        fiber = []
        for a in range(n):
            if fast is not None:
                dg = fast[n + a * m : n + (a + 1) * m]
            else:
                _, dg = alpha.alphaV[a].value_and_partials(env, aff.base_vars)
            fiber.append(abs(sum(dg[i] * xdot[i] for i in range(m)) - rhs[m + a]))
        return nan_max(abs(rhs[i] - xdot[i]) for i in range(m)), nan_max(fiber)

    envs = [dict(zip(aff.base_vars, state)) for state in traj.states]
    per_state = values_at(residuals, envs)
    base_defect = nan_max(d for d, _ in per_state)
    traj_max = nan_max(r for _, r in per_state)
    if not base_defect <= 1e-12:
        raise IntegrationFailure(
            f"base equation failed to hold by construction: defect {base_defect:.3e}"
        )

    box = {}
    for i, var in enumerate(aff.base_vars):
        values = [s[i] for s in traj.states]
        box[var] = (min(values), max(values))
    hj = hj_residual(alpha, h, SamplePlan(box=box, count=plan.count, seed=plan.seed))

    return TheoremReport(
        x0=list(map(float, x0)),
        cocycle_max=coc.max_residual,
        trajectory_max=traj_max,
        base_defect_max=base_defect,
        hj_max=hj.max_residual,
        trajectory=traj,
        box=box,
    )
