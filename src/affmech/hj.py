"""The Hamilton-Jacobi side: the scalar defect of a dual section, the
cocycle and HJ conditions, and the numeric check of the main equivalence:
the HJ condition at sampled points against the Hamilton equations along
reduced trajectories.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import expr as ex
from .algebroid import (
    KSection,
    Report,
    SamplePlan,
    _family,
    _max_abs,
    differential,
    nan_max,
    values_at,
)
from .affgebroid import CoSection, HamiltonianSection
from .dynamics import DEFAULT_STEP, Trajectory, _kernel, integrate_field, interpret, reduced_stage

__all__ = [
    "POINT_TOL",
    "TRAJECTORY_TOL",
    "f_of",
    "CocycleReport",
    "cocycle_residual",
    "HJReport",
    "hj_reports",
    "NotACocycleError",
    "IntegrationFailure",
    "TheoremReport",
    "verify_theorem",
]

POINT_TOL = 1e-8  # pointwise conditions use exact partials
TRAJECTORY_TOL = 1e-6  # residuals read X(x) as the velocity: no RK4 error reaches them


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


def cocycle_residual(
    alpha: CoSection, sample: SamplePlan | None = None, draw=None
) -> CocycleReport:
    """Max coefficient of the differential of alpha on the bidual chart.

    The coefficients are one family of ``algebroid._max_abs``, sampled at
    the points of ``sample`` (default ``SamplePlan()``); ``draw`` is as in
    ``_max_abs``.
    """
    plan = sample if sample is not None else SamplePlan()
    family = _family(differential(alpha.as_bidual_section()))
    worst, where, _ = _max_abs([family], alpha.chart.base_vars, plan, draw)[0]
    return CocycleReport(worst, where, plan.count)


@dataclass
class HJReport(Report):
    CHECKS = (("max_residual", "hj_residual"),)
    VERDICT = "is_solution"
    TOL = POINT_TOL

    max_residual: float
    component: int
    points: int

    is_solution = Report.verdict


def hj_reports(
    alpha: CoSection, h: HamiltonianSection, sample: SamplePlan | None = None
) -> tuple[CocycleReport, list[float], HJReport]:
    """The cocycle report of alpha, the values of ``f_of(h, alpha)`` and the HJ report.

    The HJ residuals are the coefficients rhoV[a]^i df/dx^i of the vertical
    differential of f; the section solves the HJ equation when they vanish.
    The three families (the coefficients of d alpha, f and those of d^V f)
    are built in that order and sampled at the points of ``sample`` (default
    ``SamplePlan()``) in one ``algebroid._max_abs`` call, one walk per
    chunk of points over the nodes they share (alphaV's among them).  f's
    family proves nothing, so f is always sampled, and every value of it is
    kept.
    """
    plan = sample if sample is not None else SamplePlan()

    def families():
        yield _family(differential(alpha.as_bidual_section()))
        f = f_of(h, alpha)
        yield {(): f}, set()
        yield _family(_vertical_df(alpha, h, f))

    (coc, coc_where, _), (_, _, (values,)), (hj, hj_where, _) = _max_abs(
        families(), h.chart.base_vars, plan, keep=(1,)
    )
    component = hj_where[0] if hj_where else -1
    return CocycleReport(coc, coc_where, plan.count), values, HJReport(hj, component, plan.count)


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
    """Numeric verdicts for the two equivalent conditions at one start point.

    (i): ``trajectory_max``, the largest |fiber residual| along the
    trajectory; (ii): ``hj_max``, on its bounding box.  A NaN fails."""

    x0: list[float]
    trajectory_max: float
    hj_max: float
    trajectory: Trajectory
    box: dict

    @property
    def holds_along_trajectory(self) -> bool:
        return self.trajectory_max <= TRAJECTORY_TOL

    @property
    def holds_pointwise(self) -> bool:
        return self.hj_max <= POINT_TOL


def verify_theorem(
    alpha: CoSection,
    h: HamiltonianSection,
    points: Sequence[Sequence[float]],
    horizon: float,
    step: float = DEFAULT_STEP,
    sample: SamplePlan | None = None,
) -> Iterator[TheoremReport]:
    """Check both directions of the equivalence from each start point.

    The call checks every point's length (ValueError) and that alpha is a
    cocycle (NotACocycleError), then builds what no point changes: the
    residuals, one RK4 kernel, the family of d^V f, proved once, and the
    plan's unit draws (a variable's drawn on first use; every box plan
    reuses them).  It returns an iterator that checks one point per report,
    as the report is taken.

    Each check integrates the reduced field X, the Hamilton field's base
    rows at (x, alphaV(x)), so the base equations hold along (x, alphaV(x))
    identically; at every state it measures the n fiber residuals of
    ``_theorem_check``, with exact partials of alpha.  The pointwise HJ
    residual is evaluated on the bounding box of the computed trajectory.  A
    start point where alpha0 or the reduced field cannot be evaluated raises
    the evaluation error, with x0 as its ``point``.

    The RK4 kernel of ``dynamics.reduced_stage`` measures the residuals on
    the first stage of every state it visits, the last one included, unless
    that stage or the check raises there.  ``dynamics.interpret`` measures
    the states no kernel run measured, in order, in one call (bound names,
    extras, X, residuals); its errors record the state as their ``point``.
    """
    aff = h.chart
    m = aff.m
    if any(len(x0) != m for x0 in points):
        raise ValueError("x0 must list every base coordinate")
    plan = sample if sample is not None else SamplePlan()
    draw = functools.cache(functools.partial(plan.units, m))  # a variable's draws, for every box
    coc = cocycle_residual(alpha, plan, draw)
    if not coc.is_cocycle:
        raise NotACocycleError(coc)
    stage = exprs, variables, bound, extras = reduced_stage(alpha, h)
    residuals = _theorem_check(alpha, stage)
    kernel = _kernel(*stage, residuals)
    df = _family(_vertical_df(alpha, h))
    field = interpret(*stage)
    measure = interpret(residuals, variables, bound, [*extras, *exprs])

    def check(x0) -> TheoremReport:
        # a start point outside the section's domain is an input error, not a
        # failed check or flow; evaluating there raises it with x0 as its point
        start = [dict(zip(aff.base_vars, map(float, x0)))]
        values_at(lambda env: ex.evaluate(alpha.alpha0, env), start)
        acc, runs = [0.0, 0], [(0, 0)]  # max |fiber residual| and count; states each run measured

        def run(times, states, *args):  # a run measures the states it visits, but maybe the last
            first, count = len(states) - 1, acc[1]
            kernel(times, states, *args, acc)
            runs.append((first, first + acc[1] - count))

        traj = integrate_field(field, x0, 0.0, horizon, step, kernel and run)
        if not traj.ok:
            values_at(lambda _: field(x0), start)
            raise IntegrationFailure(f"reduced flow aborted: {traj.error}")

        runs.append((len(traj), len(traj)))
        gaps = [traj.states[end:first] for (_, end), (first, _) in zip(runs, runs[1:])]
        envs = [dict(zip(aff.base_vars, s)) for gap in gaps for s in gap]  # no run measured these
        rows = values_at(lambda env: measure(list(env.values())), envs)
        traj_max = nan_max([acc[0], *(abs(v) for r in rows for v in r)])

        box = {var: (min(col), max(col)) for var, col in zip(aff.base_vars, zip(*traj.states))}
        box_plan = SamplePlan(box=box, count=plan.count, seed=plan.seed)
        hj_max, _, _ = _max_abs([df], aff.base_vars, box_plan, draw)[0]

        return TheoremReport(
            x0=list(map(float, x0)),
            trajectory_max=traj_max,
            hj_max=hj_max,
            trajectory=traj,
            box=box,
        )

    return map(check, points)


def _theorem_check(alpha: CoSection, stage) -> list[ex.Expr]:
    """The n fiber residuals of condition (i), over the names of ``stage``.

    ``stage`` is ``dynamics.reduced_stage``'s (X, base variables, bound,
    extras), and the residuals are built from its own nodes:

        R_a(x) = sum_i d alphaV_a/dx^i X_i(x) - F_a(x, alphaV(x)),

    with X_i the field row ``X[i]`` and F_a the fiber row of
    ``hamilton_field`` that is ``extras[a]``, its fiber variables bound to
    alphaV.  A field skewed off the Hamilton field shows in R.  The sums
    over i are unfolded BinOps, so a zero factor still meets an infinite or
    NaN X_i.
    """
    X, base_vars, _, extras = stage
    fiber = []
    for c, rhs in zip(alpha.alphaV, extras):  # the first n extras are the fiber rows
        terms = [ex.BinOp("*", ex.diff(c, v), x) for v, x in zip(base_vars, X)]
        total = functools.reduce(functools.partial(ex.BinOp, "+"), terms or [ex.Lit(0.0)])
        fiber.append(ex.BinOp("-", total, rhs))
    return fiber


def _vertical_df(alpha: CoSection, h: HamiltonianSection, f=None) -> KSection:
    """d^V f, whose coefficients rhoV[a]^i df/dx^i are the HJ residuals (``f`` is ``f_of``'s)."""
    f = f_of(h, alpha) if f is None else f
    return differential(KSection.function(h.chart.vertical_chart(), f))
