"""The Hamilton-Jacobi side: the scalar defect of a dual section, the
cocycle and HJ conditions, and the numeric two-way check of the main
equivalence between those conditions and the Hamilton equations along
reduced trajectories.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import expr as ex
from .algebroid import (
    ExprCoeff,
    KSection,
    Report,
    SamplePlan,
    differential,
    nan_max,
    section_max_abs,
    values_at,
)
from .affgebroid import CoSection, HamiltonianSection, hamilton_field
from .dynamics import (
    DEFAULT_STEP,
    Trajectory,
    _alpha_outputs,
    compiled_alpha,
    hamilton_rhs,
    integrate_reduced,
    reduced_field,
    reduced_stage,
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

    In dual coordinates: alpha0(x) + H(x, alphaV(x)), as one expression.
    """
    aff = h.chart
    sub = {aff.fiber_vars[a]: alpha.alphaV[a].node for a in range(aff.n)}
    return ExprCoeff(ex.add(alpha.alpha0.node, ex.substitute(h.H, sub)))


@dataclass
class CocycleReport(Report):
    CHECKS = (("max_residual", "cocycle_residual"),)
    VERDICT = "is_cocycle"
    TOL = POINT_TOL

    max_residual: float
    component: tuple
    points: int

    is_cocycle = Report.verdict


def cocycle_residual(alpha: CoSection, sample=None) -> CocycleReport:
    """Max coefficient of the differential of alpha on the bidual chart.

    ``sample``: a SamplePlan (default ``SamplePlan()``) or a list of points.
    """
    envs = sample if sample is not None else SamplePlan()
    worst, where, _ = section_max_abs(differential(alpha.as_bidual_section()), envs)
    return CocycleReport(worst, where, _count(envs))


def _count(envs) -> int:
    return envs.count if isinstance(envs, SamplePlan) else len(envs)


@dataclass
class HJReport(Report):
    CHECKS = (("max_residual", "hj_residual"),)
    VERDICT = "is_solution"
    TOL = POINT_TOL

    max_residual: float
    component: int
    points: int

    is_solution = Report.verdict


def hj_residual(alpha: CoSection, h: HamiltonianSection, sample=None) -> HJReport:
    """Max vertical derivative of the scalar defect at sampled base points.

    The components rhoV[a]^i df/dx^i are the coefficients of the vertical
    differential of f; the section solves the HJ equation when they vanish.
    ``sample`` is as in ``cocycle_residual``.
    """
    envs = sample if sample is not None else SamplePlan()
    worst, where, _ = section_max_abs(_vertical_df(alpha, h), envs)
    return HJReport(worst, where[0] if where else -1, _count(envs))


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

    The residuals are measured in the integration pass, which hands each
    state's first RK4 stage (``dynamics.reduced_stage``) to one compiled
    check (``_theorem_check``); only running maxima are kept.  The check
    computes the Hamilton field at (x, alphaV(x)) again, with the fiber
    coordinates as inputs, so the base defect compares two independently
    compiled routes at every state.  The last state is measured after the
    pass.  If the pass missed a state, all states are measured again, on the
    per-stage path where the stage or check fails; its evaluation errors
    record the state as their ``point``.  The work that does not depend on
    x0 is cached on alpha (``_x0_free``).
    """
    aff = h.chart
    m, n = aff.m, aff.n
    plan = sample if sample is not None else SamplePlan()

    cache = _x0_free(alpha, h, plan)
    coc, check = cache["cocycle"], cache["check"]
    if not coc.is_cocycle:
        raise NotACocycleError(coc)

    worst = [0.0, 0.0]  # nan_max of the base defects, of the fiber residuals
    measured = 0  # states the integration pass measured

    def record(rows):
        """Fold m signed base defects, then n signed fiber residuals, into ``worst``."""
        worst[0] = nan_max((worst[0], *map(abs, rows[:m])))
        worst[1] = nan_max((worst[1], *map(abs, rows[m : m + n])))

    def on_k1(y, k1):
        nonlocal measured
        rows = ex.run_compiled(check, y + k1)
        if rows is not None:
            record(rows)
            measured += 1

    traj = integrate_reduced(alpha, h, x0, 0.0, horizon, step, on_k1=on_k1)
    field = reduced_field(alpha, h)
    if not traj.ok:
        # a start point outside the section's domain is an input error, not a
        # failed flow; evaluating there raises it with x0 as its point
        values_at(lambda _: field(x0), [dict(zip(aff.base_vars, map(float, x0)))])
        raise IntegrationFailure(f"reduced flow aborted: {traj.error}")

    def residuals(env):
        """The per-stage path: alphaV and its partials from ``compiled_alpha``,
        or the interpreter on the same expressions (values, then partials)."""
        state = [env[v] for v in aff.base_vars]
        fast = ex.run_compiled(compiled_alpha(alpha), state)
        yv = fast[:n] if fast is not None else [c.value(env) for c in alpha.alphaV]
        rhs = hamilton_rhs(h, state + yv)
        xdot = field(state)
        dg = fast[n:] if fast is not None else [
            ex.evaluate(d, env) for d in _alpha_outputs(alpha)[n:]]
        return [rhs[i] - xdot[i] for i in range(m)] + [
            sum(dg[a * m + i] * xdot[i] for i in range(m)) - rhs[m + a] for a in range(n)]

    stage = reduced_stage(alpha, h)
    for state in traj.states[-1:] if measured == len(traj) - 1 else traj.states:
        out = ex.run_compiled(stage, state)
        rows = None if out is None else ex.run_compiled(check, state + out)
        if rows is None:
            (rows,) = values_at(residuals, [dict(zip(aff.base_vars, state))])
        record(rows)
    base_defect, traj_max = worst
    if not base_defect <= 1e-12:
        raise IntegrationFailure(
            f"base equation failed to hold by construction: defect {base_defect:.3e}"
        )

    box = {}
    for i, var in enumerate(aff.base_vars):
        values = [s[i] for s in traj.states]
        box[var] = (min(values), max(values))
    if "df" not in cache:
        cache["df"] = _vertical_df(alpha, h)
    hj_max, _, _ = section_max_abs(
        cache["df"], SamplePlan(box=box, count=plan.count, seed=plan.seed)
    )

    return TheoremReport(
        x0=list(map(float, x0)),
        cocycle_max=coc.max_residual,
        trajectory_max=traj_max,
        base_defect_max=base_defect,
        hj_max=hj_max,
        trajectory=traj,
        box=box,
    )


def _x0_free(alpha: CoSection, h: HamiltonianSection, plan: SamplePlan) -> dict:
    """The part of ``verify_theorem`` that x0 does not change, cached on alpha.

    ``"cocycle"`` is the cocycle report on the plan and ``"check"`` the
    compiled ``_theorem_check`` (None for a section that is not a cocycle);
    ``verify_theorem`` adds ``"df"``, d^V f, where it first needs it.  Kept
    for the last (h, plan), like ``CoSection.compiled_stage``.
    """
    cache = alpha.theorem_cache
    if cache is None or cache["h"] is not h or cache["plan"] != plan:
        coc = cocycle_residual(alpha, plan)
        check = _theorem_check(h) if coc.is_cocycle else None
        cache = alpha.theorem_cache = {"h": h, "plan": plan, "cocycle": coc, "check": check}
    return cache


def _theorem_check(h: HamiltonianSection):
    """The per-state check of ``verify_theorem``, compiled; None where that fails.

    Its input is a base point x followed by the outputs of
    ``dynamics.reduced_stage`` at x: the reduced field X(x) comes first,
    alphaV(x) from index W = 2(m+n)+1 and dalphaV[a]/dx^i at W + n + a*m + i.
    Its outputs are the m signed base defects ``rhs_i - X_i`` and the n
    signed fiber residuals ``sum_i dalphaV[a]/dx^i X_i - rhs_(m+a)``, where
    rhs is ``hamilton_field`` with the fiber coordinates read as inputs (the
    stage binds them to alphaV instead).  The sums run in the per-stage
    path's order, as unfolded BinOps.  H and its partials follow, so the
    check raises wherever the compiled field of ``hamilton_rhs`` does.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    w = 2 * (m + n) + 1
    slots = [f"k1[{j}]" for j in range(w + n + n * m)]  # names no parsed variable can have
    slots[w : w + n] = aff.fiber_vars
    xdot = [ex.Var(v) for v in slots[:m]]
    rhs = hamilton_field(h)
    rows = [ex.BinOp("-", rhs[i], xdot[i]) for i in range(m)]
    for a in range(n):
        terms = [ex.BinOp("*", ex.Var(slots[w + n + a * m + i]), xdot[i]) for i in range(m)]
        total = functools.reduce(functools.partial(ex.BinOp, "+"), terms or [ex.Lit(0.0)])
        rows.append(ex.BinOp("-", total, rhs[m + a]))
    return ex.try_compile(rows + [h.H] + h.partials, aff.base_vars + slots)


def _vertical_df(alpha: CoSection, h: HamiltonianSection) -> KSection:
    """d^V f, whose coefficients rhoV[a]^i df/dx^i are the HJ residuals."""
    return differential(KSection.function(h.chart.vertical_chart(), f_of(h, alpha)))
