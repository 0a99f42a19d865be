"""Hamilton equations on the dual of the vertical bundle, and their flows.

States are flat float lists ordered as (base coordinates, fiber coordinates).
Integration is classical fixed-step RK4; the last step is shortened to land
exactly on the requested end time.  No structure-preserving scheme is used;
conservation tolerances elsewhere are calibrated to RK4 at the default step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import expr as ex
from .affgebroid import AffgebroidChart, CoSection, HamiltonianSection

__all__ = [
    "DEFAULT_STEP",
    "Trajectory",
    "hamilton_rhs",
    "integrate",
    "integrate_field",
    "reduced_field",
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

        dx^i/dt = rho0^i + dH/dy_a rhoV[a]^i
        dy_a/dt = -rhoV[a]^i dH/dx^i + y_g (C0[a][g] + CV[b][a][g] dH/dy_b)
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
    """
    aff = h.chart
    m = aff.m

    def field(x_state: Sequence[float]) -> list[float]:
        env = dict(zip(aff.base_vars, x_state))
        y = [c.value(env) for c in alpha.alphaV]
        return hamilton_rhs(h, list(x_state) + y)[:m]

    return field


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
