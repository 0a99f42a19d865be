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
    KSection,
    Report,
    SamplePlan,
    differential,
    max_abs_check,
    nan_max,
    section_max_abs,
    values_at,
)
from .affgebroid import CoSection, HamiltonianSection, hamilton_field
from .dynamics import (
    DEFAULT_STEP,
    Trajectory,
    hamilton_rhs,
    integrate_field,
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
    return ex.add(alpha.alpha0, ex.substitute(h.H, dict(zip(aff.fiber_vars, alpha.alphaV))))


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

    The residuals are measured in the integration pass: the RK4 kernel of
    ``dynamics.reduced_stage`` computes ``_theorem_check`` on the first stage
    of every state, the last one included, keeping running maxima.  The
    check computes the Hamilton field at (x, alphaV(x)) again, with the
    fiber coordinates as inputs and its own subexpression table, so the base
    defect compares two independently compiled routes.  If the kernel missed
    a state, every state is measured again by the interpreter, whose errors
    record the state as their ``point``.  The work that x0 does not change
    is cached on alpha (``_x0_free``).
    """
    aff = h.chart
    m, n = aff.m, aff.n
    if len(x0) != m:
        raise ValueError("x0 must list every base coordinate")
    plan = sample if sample is not None else SamplePlan()

    cache = _x0_free(alpha, h, plan)
    coc = cache["cocycle"]
    if not coc.is_cocycle:
        raise NotACocycleError(coc)
    kernel = cache["kernel"]

    acc = [0.0, 0.0, 0]  # max |base defect|, max |fiber residual|, states measured
    field = reduced_field(alpha, h)
    traj = integrate_field(
        field, x0, 0.0, horizon, step, kernel and (lambda *args: kernel(*args, acc))
    )
    if not traj.ok:
        # a start point outside the section's domain is an input error, not a
        # failed flow; evaluating there raises it with x0 as its point
        values_at(lambda _: field(x0), [dict(zip(aff.base_vars, map(float, x0)))])
        raise IntegrationFailure(f"reduced flow aborted: {traj.error}")

    def residuals(env):
        """The m signed base defects and n signed fiber residuals at a state, interpreted."""
        state = [env[v] for v in aff.base_vars]
        rhs = hamilton_rhs(h, state + [ex.evaluate(c, env) for c in alpha.alphaV])
        xdot = field(state)
        dg = [ex.evaluate(d, env) for d in cache["dalpha"]]
        return [rhs[i] - xdot[i] for i in range(m)] + [
            sum(dg[a * m + i] * xdot[i] for i in range(m)) - rhs[m + a] for a in range(n)]

    base_defect, traj_max, measured = acc
    if measured != len(traj):
        rows = values_at(residuals, [dict(zip(aff.base_vars, s)) for s in traj.states])
        base_defect = nan_max(abs(v) for r in rows for v in r[:m])
        traj_max = nan_max(abs(v) for r in rows for v in r[m:])
    if not base_defect <= 1e-12:
        raise IntegrationFailure(
            f"base equation failed to hold by construction: defect {base_defect:.3e}"
        )

    box = {}
    for i, var in enumerate(aff.base_vars):
        values = [s[i] for s in traj.states]
        box[var] = (min(values), max(values))
    box_plan = SamplePlan(box=box, count=plan.count, seed=plan.seed)
    hj_max, _, _ = cache["df"](box_plan, cache["units"])

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

    ``"units"``: the plan's unit draws over the base variables, drawn on
    first use; every box plan of ``verify_theorem`` has the plan's seed and
    count, so its points reuse them.  ``"cocycle"``: the cocycle report on
    the plan.  For a cocycle, ``"dalpha"``: dalphaV[a]/dx^i at a*m + i,
    ``"kernel"``: the RK4 kernel with ``_theorem_check`` (None where
    compiling fails), and ``"df"``: d^V f as a sampled check
    (``algebroid.max_abs_check``).  Kept for the last (h, plan).
    """
    cache = alpha.theorem_cache
    if cache is None or cache["h"] is not h or cache["plan"] != plan:
        units = functools.cache(lambda: plan.units(h.chart.m))
        worst, where, _ = max_abs_check(differential(alpha.as_bidual_section()))(plan, units)
        coc = CocycleReport(worst, where, plan.count)
        cache = {"h": h, "plan": plan, "units": units, "cocycle": coc}
        if coc.is_cocycle:
            dalpha = [ex.diff(c, v) for c in alpha.alphaV for v in h.chart.base_vars]
            cache["dalpha"] = dalpha
            cache["kernel"] = ex.try_compile(
                ex.compile_rk4, *reduced_stage(alpha, h), *_theorem_check(h, dalpha))
            cache["df"] = max_abs_check(_vertical_df(alpha, h))
        alpha.theorem_cache = cache
    return cache


def _theorem_check(h: HamiltonianSection, dalpha: list) -> tuple[list, list]:
    """The per-state check of ``verify_theorem``, as ``compile_rk4``'s (check, slots).

    Its inputs are a base point x and the values of ``dynamics.reduced_stage``
    at x: ``slots`` names them, the reduced field X(x) first and alphaV(x)
    from index W = 2(m+n)+1 under the fiber coordinates' names.  Its two
    groups are the m signed base defects ``rhs_i - X_i`` and the n signed
    fiber residuals ``sum_i dalpha[a*m + i] X_i - rhs_(m+a)``, where rhs is
    ``hamilton_field`` with the fiber coordinates read as inputs (the stage
    binds them to alphaV instead).  The sums run in the per-stage path's
    order, as unfolded BinOps.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    w = 2 * (m + n) + 1
    slots = [f"k1[{j}]" for j in range(w)] + aff.fiber_vars  # names no parsed variable can have
    xdot = [ex.Var(v) for v in slots[:m]]
    rhs = hamilton_field(h)
    fiber = []
    for a in range(n):
        terms = [ex.BinOp("*", dalpha[a * m + i], xdot[i]) for i in range(m)]
        total = functools.reduce(functools.partial(ex.BinOp, "+"), terms or [ex.Lit(0.0)])
        fiber.append(ex.BinOp("-", total, rhs[m + a]))
    return [[ex.BinOp("-", rhs[i], xdot[i]) for i in range(m)], fiber], slots


def _vertical_df(alpha: CoSection, h: HamiltonianSection) -> KSection:
    """d^V f, whose coefficients rhoV[a]^i df/dx^i are the HJ residuals."""
    return differential(KSection.function(h.chart.vertical_chart(), f_of(h, alpha)))
