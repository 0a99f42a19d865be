"""Hamilton equations on the dual of the vertical bundle, and their flows.

States are flat float lists ordered as (base coordinates, fiber coordinates).
Integration is classical fixed-step RK4; the last step is shortened to land
exactly on the requested end time.  No structure-preserving scheme is used;
conservation tolerances elsewhere are calibrated to RK4 at the default step.
A Trajectory keeps every state, so an integration that would take more than
``MAX_STEPS`` steps is refused with a ValueError before the first step
(``check_step_budget``).

The Hamilton field of a section is built once as m+n expressions and
compiled once (``expr.compile``) into straight-line code, so an RK4 stage
walks no expression tree.  The interpreter stays the reference: it takes
over at any state where the compiled field raises or gives a non-finite
value, and every domain error and its message comes from it.

``integrate`` and ``integrate_reduced`` also pass a fused RK4 step, which
calls one compiled stage (the field, or ``reduced_stage``) four times with no
wrapper between, checks each output for finiteness and does
``integrate_field``'s float operations in its order.  Where it raises or
returns None, that step is redone on the per-stage path, so every state,
abort and message is the per-stage one.  ``integrate_reduced`` can hand each
state's finite first stage to a hook: ``hj.verify_theorem`` measures the
theorem's residuals there, in the same pass as the integration.
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
    "reduced_field",
    "compiled_alpha",
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
    """Right-hand side of the Hamilton equations at one state.

    The m+n right-hand sides of ``affgebroid.hamilton_field`` are compiled
    once per section, on the first call.  Where the compiled field raises or
    returns a non-finite value, the interpreter computes this state instead:
    it skips the terms whose factor dH/dy_b or y_g is 0 at the state, so it
    can give a value where the compiled field meets a domain error or inf*0,
    and it gives every error its message.
    """
    out = ex.run_compiled(_compiled_rhs(h), state)
    return out[: len(state)] if out is not None else _interpreted_rhs(h, state)


def _compiled_rhs(h: HamiltonianSection):
    """The field, followed by H and every partial, as one compiled function.

    The interpreter evaluates H and all its partials at every state; the
    folded field drops some of them (dH/dt where rhoV[a][t] = 0), so they
    are compiled as extra outputs.  The compiled function then raises
    wherever the interpreter does.  Compiled on the first call and cached
    in ``h.compiled_rhs``; False where compiling fails.
    """
    if h.compiled_rhs is None:
        h.compiled_rhs = ex.try_compile(_field_outputs(h), h.chart.all_vars()) or False
    return h.compiled_rhs


def _field_outputs(h: HamiltonianSection) -> list[ex.Expr]:
    """The m+n rows of ``hamilton_field``, then H and its m+n partials."""
    return hamilton_field(h) + [h.H] + h.partials


def _interpreted_rhs(h: HamiltonianSection, state: Sequence[float]) -> list[float]:
    """``hamilton_field`` evaluated term by term by the interpreter."""
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
    fused: Callable[[list[float], float], list[float] | None] | None = None,
) -> Trajectory:
    """Fixed-step RK4 for an autonomous field; aborts on non-finite states.

    ``fused(y, hs)``, when given, does one whole step as ``f`` would, bit
    for bit, or returns None; where it returns None or raises
    ArithmeticError or ValueError, the step is redone with ``f``.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    check_step_budget(t0, t_end, step)
    times = [t0]
    states = [list(map(float, y0))]
    y = states[0]
    i = 0
    t = t0
    while t < t_end:
        hs = min(step, t_end - t)
        try:
            y_new = fused(y, hs) if fused else None
        except (ArithmeticError, ValueError):
            y_new = None
        if y_new is None:
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
            y_new = [
                y[j] + hs * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) / 6.0
                for j in range(len(y))
            ]
        y = y_new
        i += 1
        t = min(t0 + i * step, t_end)
        if not all(map(math.isfinite, y)):
            return Trajectory(
                t0, step, times, states, ok=False, error=f"non-finite state at t={t!r}"
            )
        times.append(t)
        states.append(y)
    return Trajectory(t0, step, times, states)


def _rk4_step(stage, on_k1=None):
    """One RK4 step ``step(y, hs)`` over a compiled stage, or None without one.

    Does ``integrate_field``'s float operations in its order (0.5*hs*k as
    ``h2 * k``, ``h2 = 0.5 * hs``: the same products) on the first len(y)
    outputs of each stage.  None unless every stage output is finite (a sum
    that overflows reads as non-finite too, which only costs a per-stage step).

    ``on_k1(y, k1)``, when given, is called with every output of the first
    stage at y once they passed the finiteness check, before the later
    stages: at most once per state, never for the last state of a
    trajectory, and not for a state whose first stage raises or fails the
    check.
    """
    if not stage:
        return None

    def step(y, hs):
        h2 = 0.5 * hs
        k1 = stage(y)
        if sum(k1) * 0.0 != 0.0:
            return None
        if on_k1 is not None:
            on_k1(y, k1)
        k2 = stage([a + h2 * b for a, b in zip(y, k1)])
        if sum(k2) * 0.0 != 0.0:
            return None
        k3 = stage([a + h2 * b for a, b in zip(y, k2)])
        if sum(k3) * 0.0 != 0.0:
            return None
        k4 = stage([a + hs * b for a, b in zip(y, k3)])
        if sum(k4) * 0.0 != 0.0:
            return None
        return [
            a + hs * (b + 2.0 * c + 2.0 * d + e) / 6.0
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        ]

    return step


def integrate(
    h: HamiltonianSection,
    state0: Sequence[float],
    t0: float,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Integrate the Hamilton equations from a full (base, fiber) state."""
    aff = h.chart
    if len(state0) != aff.m + aff.n:
        raise ValueError("state must list every base and fiber coordinate")
    fused = _rk4_step(_compiled_rhs(h))
    return integrate_field(lambda s: hamilton_rhs(h, s), state0, t0, t_end, step, fused)


def reduced_field(alpha: CoSection, h: HamiltonianSection):
    """Base-space field of the theorem: insert alpha, keep base components.

        X^i(x) = rho0^i(x) + dH/dy_a(x, alphaV(x)) rhoV[a]^i(x)

    Realized by evaluating the full right-hand side at y = alphaV(x), which
    makes the base equation of the restored flow hold by construction.
    alphaV comes from ``compiled_alpha``, compiled on the first call of the
    field, with the interpreter as the fallback, as in ``hamilton_rhs``.
    """
    aff = h.chart
    m, n = aff.m, aff.n

    def field(x_state: Sequence[float]) -> list[float]:
        y = ex.run_compiled(compiled_alpha(alpha), x_state)
        if y is None:
            env = dict(zip(aff.base_vars, x_state))
            y = [c.value(env) for c in alpha.alphaV]
        return hamilton_rhs(h, list(x_state) + y[:n])[:m]

    return field


def compiled_alpha(alpha: CoSection):
    """alphaV and its base partials as one compiled function of the base point.

    Outputs: the n components of alphaV, then dalphaV[a]/dx^i at index
    n + a*m + i.  Compiled once per section, on the first call, and cached
    on it; False for a section that cannot be compiled, which leaves its
    callers on the interpreter.  Only the per-stage path reads it: the fused
    step and ``verify_theorem`` read ``reduced_stage``.
    """
    if alpha.compiled_alpha is None:
        fn = ex.try_compile(_alpha_outputs(alpha), alpha.chart.base_vars)
        alpha.compiled_alpha = fn or False
    return alpha.compiled_alpha


def _alpha_outputs(alpha: CoSection) -> list[ex.Expr]:
    """The n components of alphaV, then dalphaV[a]/dx^i at index n + a*m + i; cached."""
    if alpha.alpha_outputs is None:
        nodes = [c.node for c in alpha.alphaV]
        alpha.alpha_outputs = nodes + [ex.diff(g, v) for g in nodes for v in alpha.chart.base_vars]
    return alpha.alpha_outputs


def reduced_stage(alpha: CoSection, h: HamiltonianSection):
    """alphaV, the Hamilton field at (x, alphaV(x)) and dalphaV as one function of x.

    Outputs: the m+n rows of ``hamilton_field`` (the first m are the reduced
    field X(x)), H and its m+n partials, alphaV from index W = 2(m+n)+1 and
    dalphaV[a]/dx^i at W + n + a*m + i.  The fiber variables are ``bound`` to
    the computed alphaV, so each value is the per-stage one.  Cached on alpha
    for the last h; False where ``hamilton_rhs``'s compiled field is, or
    where alphaV cannot be compiled over the base variables.
    """
    cached = alpha.compiled_stage
    if cached is None or cached[0] is not h:
        fn = False
        if _compiled_rhs(h):
            aff = h.chart
            alpha_exprs = _alpha_outputs(alpha)
            bound = dict(zip(aff.fiber_vars, alpha_exprs))
            try:
                fn = ex.compile(_field_outputs(h) + alpha_exprs, aff.base_vars, bound)
            except (RecursionError, ex.EvalError):
                pass
        alpha.compiled_stage = cached = (h, fn)
    return cached[1]


def integrate_reduced(
    alpha: CoSection,
    h: HamiltonianSection,
    x0: Sequence[float],
    t0: float,
    t_end: float,
    step: float = DEFAULT_STEP,
    *,
    on_k1=None,
) -> Trajectory:
    """Integrate the reduced base-space field from a base point.

    ``on_k1(y, k1)`` receives the outputs of ``reduced_stage`` at each state
    the fused step starts from, as described in ``_rk4_step``.
    """
    if len(x0) != h.chart.m:
        raise ValueError("x0 must list every base coordinate")
    fused = _rk4_step(reduced_stage(alpha, h), on_k1)
    return integrate_field(reduced_field(alpha, h), x0, t0, t_end, step, fused)
