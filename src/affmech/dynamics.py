"""Hamilton equations on the dual of the vertical bundle, and their flows.

States are flat float lists ordered as (base coordinates, fiber coordinates).
Integration is classical fixed-step RK4; the last step is shortened to land
exactly on the requested end time.  No structure-preserving scheme is used;
conservation tolerances elsewhere are calibrated to RK4 at the default step.

The Hamilton field of a section is built once as m+n expressions and
compiled once (``expr.compile``) into straight-line code, so an RK4 stage
walks no expression tree.  The interpreter stays the reference: it takes
over at any state where the compiled field raises or gives a non-finite
value, and every domain error and its message comes from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import expr as ex
from .affgebroid import CoSection, HamiltonianSection, hamilton_field

_rhs_exprs = hamilton_field  # earlier name, still imported by callers

__all__ = [
    "DEFAULT_STEP",
    "Trajectory",
    "hamilton_rhs",
    "integrate",
    "integrate_field",
    "reduced_field",
    "compiled_alpha",
    "integrate_reduced",
]

DEFAULT_STEP = 1e-3


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
    if h.compiled_rhs is None:
        h.compiled_rhs = _compile_rhs(h)
    out = ex.run_compiled(h.compiled_rhs, state)
    return out[: len(state)] if out is not None else _interpreted_rhs(h, state)


def _compile_rhs(h: HamiltonianSection):
    """The field, followed by H and every partial, as one compiled function.

    The interpreter evaluates H and all its partials at every state; the
    folded field drops some of them (dH/dt where rhoV[a][t] = 0), so they
    are compiled as extra outputs.  The compiled function then raises
    wherever the interpreter does.  False where compiling fails.
    """
    exprs = hamilton_field(h) + [h.H] + h.partials
    return ex.try_compile(exprs, h.chart.all_vars()) or False


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
) -> Trajectory:
    """Fixed-step RK4 for an autonomous field; aborts on non-finite states."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    times = [t0]
    states = [list(map(float, y0))]
    y = states[0]
    i = 0
    t = t0
    while t < t_end:
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
        i += 1
        t = min(t0 + i * step, t_end)
        if not all(math.isfinite(v) for v in y):
            return Trajectory(
                t0, step, times, states, ok=False, error=f"non-finite state at t={t!r}"
            )
        times.append(t)
        states.append(y)
    return Trajectory(t0, step, times, states)


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
    return integrate_field(lambda s: hamilton_rhs(h, s), state0, t0, t_end, step)


def reduced_field(alpha: CoSection, h: HamiltonianSection):
    """Base-space field of the theorem: insert alpha, keep base components.

        X^i(x) = rho0^i(x) + dH/dy_a(x, alphaV(x)) rhoV[a]^i(x)

    Realized by evaluating the full right-hand side at y = alphaV(x), which
    makes the base equation of the restored flow hold by construction.
    alphaV comes from ``compiled_alpha``, with the interpreter as the
    fallback, as in ``hamilton_rhs``.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    alpha_fn = compiled_alpha(alpha)

    def field(x_state: Sequence[float]) -> list[float]:
        y = ex.run_compiled(alpha_fn, x_state)
        if y is None:
            env = dict(zip(aff.base_vars, x_state))
            y = [c.value(env) for c in alpha.alphaV]
        return hamilton_rhs(h, list(x_state) + y[:n])[:m]

    return field


def compiled_alpha(alpha: CoSection):
    """alphaV and its base partials as one compiled function of the base point.

    Outputs: the n components of alphaV, then dalphaV[a]/dx^i at index
    n + a*m + i.  Compiled once per section, on the first call, and cached
    on it; False for a section that is not expression-backed or cannot be
    compiled, which leaves its callers on the interpreter.
    """
    if alpha.compiled_alpha is None:
        fn = False
        if alpha.is_expression_backed():
            base = alpha.chart.base_vars
            nodes = [c.node for c in alpha.alphaV]
            partials = [ex.diff(g, v) for g in nodes for v in base]
            fn = ex.try_compile(nodes + partials, base) or False
        alpha.compiled_alpha = fn
    return alpha.compiled_alpha


def integrate_reduced(
    alpha: CoSection,
    h: HamiltonianSection,
    x0: Sequence[float],
    t0: float,
    t_end: float,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Integrate the reduced base-space field from a base point."""
    if len(x0) != h.chart.m:
        raise ValueError("x0 must list every base coordinate")
    return integrate_field(reduced_field(alpha, h), x0, t0, t_end, step)
