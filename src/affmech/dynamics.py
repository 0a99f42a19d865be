"""Hamilton equations on the dual of the vertical bundle, and their flows.

States are flat float lists ordered as (base coordinates, fiber coordinates).
Integration is classical fixed-step RK4; the last step is shortened to land
exactly on the requested end time.  No structure-preserving scheme is used;
conservation tolerances elsewhere are calibrated to RK4 at the default step.
A Trajectory keeps every state, so an integration that would take more than
``MAX_STEPS`` steps is refused with a ValueError before the first step
(``check_step_budget``).

The Hamilton field has two routes.  ``integrate`` and ``integrate_reduced``
run each integration as one generated RK4 loop (``expr.compile_rk4``) over
a stage, ``hamilton_stage`` or ``reduced_stage``, compiled on each call to
straight-line code that walks no expression tree and calls no Python
function.  It hands any step where a stage raises or gives a value that is
not finite to the per-stage path of ``integrate_field``, which evaluates the
field with the interpreter, ``hamilton_rhs``, and alphaV with
``expr.evaluate``.  That path is the reference: every domain error and its
message comes from it.  The values that only ``hamilton_rhs`` uses (H, its
partials) are ``compile_rk4``'s extras: a guard on the state replaces the
polynomial ones.  ``hj.verify_theorem`` compiles the same loop with its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import expr as ex
from .affgebroid import CoSection, HamiltonianSection, hamilton_field

__all__ = [
    "DEFAULT_STEP",
    "MAX_STEPS",
    "check_step_budget",
    "Trajectory",
    "hamilton_rhs",
    "integrate",
    "integrate_field",
    "hamilton_stage",
    "reduced_field",
    "reduced_stage",
    "integrate_reduced",
]

DEFAULT_STEP = 1e-3
MAX_STEPS = 1_000_000  # RK4 steps one integration may take


def check_step_budget(t0: float, t_end: float, step: float) -> None:
    """Raise ValueError when going from t0 to t_end takes more than MAX_STEPS steps."""
    steps = (t_end - t0) / step
    if not steps <= MAX_STEPS:  # ceil(steps) > MAX_STEPS, or an infinite or NaN span
        raise ValueError(
            f"integrating from t={t0!r} to t={t_end!r} at step {step!r} takes "
            f"{steps:.6g} steps, more than the step budget of {MAX_STEPS}"
        )


@dataclass
class Trajectory:
    """Sampled integral curve on a uniform grid (last step possibly short)."""

    t0: float
    step: float
    times: list[float]
    states: list[list[float]]
    ok: bool = True
    error: str | None = None

    def __len__(self) -> int:
        return len(self.times)


def hamilton_rhs(h: HamiltonianSection, state: Sequence[float]) -> list[float]:
    """Right-hand side of the Hamilton equations at one state, interpreted.

    ``affgebroid.hamilton_field`` evaluated term by term, in its order.  H
    and every partial are evaluated, so this raises wherever H is undefined.
    A term whose factor dH/dy_b or y_g is 0 at the state is skipped, so this
    gives a value where the compiled field meets a domain error or inf*0.
    Every error raised here has its message; this is the reference that the
    compiled stages are checked against.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    env = dict(zip(aff.all_vars(), state))
    _, hx, hy = h.gradients(env)
    yv = state[m:]

    out = []
    for i in range(m):
        total = ex.evaluate(aff.rho0[i], env)
        for a in range(n):
            if hy[a] != 0.0:
                total += hy[a] * ex.evaluate(aff.rhoV[a][i], env)
        out.append(total)
    for a in range(n):
        total = 0.0
        for i in range(m):
            if hx[i] != 0.0:
                total -= ex.evaluate(aff.rhoV[a][i], env) * hx[i]
        for g in range(n):
            if yv[g] == 0.0:
                continue
            coef = ex.evaluate(aff.C0[a][g], env)
            for b in range(n):
                if hy[b] != 0.0:
                    coef += ex.evaluate(aff.CV[b][a][g], env) * hy[b]
            total += yv[g] * coef
        out.append(total)
    return out


def integrate_field(
    f: Callable[[Sequence[float]], list[float]],
    y0: Sequence[float],
    t0: float,
    t_end: float,
    step: float,
    kernel: Callable[..., None] | None = None,
) -> Trajectory:
    """Fixed-step RK4 for an autonomous field; aborts on non-finite states.

    ``kernel``, when given, is an ``expr.compile_rk4`` loop over a compiled
    stage that computes ``f`` bit for bit.  It runs first and again after
    every step that it left to ``f``, which is one where it met an error or
    a value that is not finite.  So every state, abort and message is the
    one ``f`` alone gives.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    check_step_budget(t0, t_end, step)
    times = [t0]
    states = [list(map(float, y0))]
    while True:
        if kernel:
            kernel(times, states, t0, t_end, step)
        t = times[-1]
        if not t < t_end:
            return Trajectory(t0, step, times, states)
        y = states[-1]
        hs = min(step, t_end - t)
        try:
            k1 = f(y)
            k2 = f([y[j] + 0.5 * hs * k1[j] for j in range(len(y))])
            k3 = f([y[j] + 0.5 * hs * k2[j] for j in range(len(y))])
            k4 = f([y[j] + hs * k3[j] for j in range(len(y))])
        except ex.EvalError as err:
            # a stage state left the domain of the coefficient expressions
            return Trajectory(
                t0, step, times, states, ok=False, error=f"domain violation at t={t!r}: {err}"
            )
        y = [
            y[j] + hs * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) / 6.0
            for j in range(len(y))
        ]
        t = min(t0 + len(times) * step, t_end)
        if not all(map(math.isfinite, y)):
            return Trajectory(
                t0, step, times, states, ok=False, error=f"non-finite state at t={t!r}"
            )
        times.append(t)
        states.append(y)


def hamilton_stage(h: HamiltonianSection):
    """The Hamilton field's stage as ``compile_rk4``'s (exprs, variables, bound, extras).

    The m+n rows of ``hamilton_field`` over every chart variable; H and its
    m+n partials are the extras, so past ``compile_rk4``'s B ``hamilton_rhs``
    takes the step.
    """
    return hamilton_field(h), h.chart.all_vars(), None, [h.H, *h.partials]


def integrate(
    h: HamiltonianSection,
    state0: Sequence[float],
    t0: float,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Integrate the Hamilton equations from a full (base, fiber) state.

    Each call compiles the kernel over ``hamilton_stage`` (none where
    compiling fails, and then every step runs per stage).
    """
    aff = h.chart
    if len(state0) != aff.m + aff.n:
        raise ValueError("state must list every base and fiber coordinate")
    kernel = ex.try_compile(ex.compile_rk4, *hamilton_stage(h))
    return integrate_field(lambda s: hamilton_rhs(h, s), state0, t0, t_end, step, kernel)


def reduced_field(alpha: CoSection, h: HamiltonianSection):
    """Base-space field of the theorem: insert alpha, keep base components.

        X^i(x) = rho0^i(x) + dH/dy_a(x, alphaV(x)) rhoV[a]^i(x)

    Realized by evaluating the full right-hand side at y = alphaV(x), which
    makes the base equation of the restored flow hold by construction.
    The interpreter computes alphaV: this is the per-stage path, which runs
    only where a kernel left a step to it.
    """
    aff = h.chart
    m = aff.m

    def field(x_state: Sequence[float]) -> list[float]:
        env = dict(zip(aff.base_vars, x_state))
        return hamilton_rhs(h, list(x_state) + [ex.evaluate(c, env) for c in alpha.alphaV])[:m]

    return field


def reduced_stage(alpha: CoSection, h: HamiltonianSection):
    """The reduced field's stage as ``compile_rk4``'s (exprs, variables, bound, extras).

    Values: the first m rows of ``hamilton_field``, the reduced field X(x),
    then alphaV from index m.  The fiber variables are ``bound`` to alphaV,
    so each value is the per-stage one.  The extras are what the per-stage
    path evaluates and the kernel does not use: the n fiber rows, H and its
    m+n partials.  A guard on a fiber variable tests its alphaV value.
    """
    aff = h.chart
    rows, bound = hamilton_field(h), dict(zip(aff.fiber_vars, alpha.alphaV))
    return rows[: aff.m] + alpha.alphaV, aff.base_vars, bound, rows[aff.m :] + [h.H, *h.partials]


def integrate_reduced(
    alpha: CoSection,
    h: HamiltonianSection,
    x0: Sequence[float],
    t0: float,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Integrate the reduced base-space field from a base point.

    Each call compiles the kernel over ``reduced_stage``.
    """
    if len(x0) != h.chart.m:
        raise ValueError("x0 must list every base coordinate")
    kernel = ex.try_compile(ex.compile_rk4, *reduced_stage(alpha, h))
    return integrate_field(reduced_field(alpha, h), x0, t0, t_end, step, kernel)
