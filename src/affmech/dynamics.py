"""Hamilton equations on the dual of the vertical bundle, and their flows.

States are flat float lists ordered as (base coordinates, fiber coordinates).
Integration is classical fixed-step RK4; the last step is shortened to land
exactly on the requested end time.  No structure-preserving scheme is used;
conservation tolerances elsewhere are calibrated to RK4 at the default step.
A Trajectory keeps every state, so an integration that would take more than
``MAX_STEPS`` steps is refused with a ValueError before the first step
(``check_step_budget``).

A field is given once, as a stage: ``compile_rk4``'s (exprs, variables,
bound, extras), which ``hamilton_stage`` and ``reduced_stage`` build from
``affgebroid.hamilton_field``.  This module holds both processors of a
stage.  ``interpret`` evaluates it with ``expr.evaluate``, and
``integrate_field`` steps that field: this is the reference, and every
domain error and its message come from it.  ``compile_rk4`` generates the
same loop over the stage as straight-line code, with the same float
operations, and a check over the stage's names in the same temporaries.
``integrate`` and ``hj.verify_theorem`` compile their kernel on each call,
or none where compiling fails; a kernel hands any step where a stage
raises or the new state is not finite back to ``integrate_field``.
H and the partials are the stage's extras: one guard, |v| < ``GUARD_BOUND``
on each variable they read, replaces the polynomial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import expr as ex
from .affgebroid import CoSection, HamiltonianSection, hamilton_field

__all__ = [
    "DEFAULT_STEP",
    "MAX_STEPS",
    "GUARD_BOUND",
    "check_step_budget",
    "Trajectory",
    "integrate",
    "integrate_field",
    "compile_rk4",
    "interpret",
    "hamilton_stage",
    "reduced_stage",
]

DEFAULT_STEP = 1e-3
MAX_STEPS = 1_000_000  # RK4 steps one integration may take
GUARD_BOUND = 2.0**64  # compile_rk4's bound on the variables of the extras it drops


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

    times: list[float]
    states: list[list[float]]
    ok: bool = True
    error: str | None = None

    def __len__(self) -> int:
        return len(self.times)


def integrate_field(
    f: Callable[[Sequence[float]], list[float]],
    y0: Sequence[float],
    t0: float,
    t_end: float,
    step: float,
    kernel: Callable[..., None] | None = None,
) -> Trajectory:
    """Fixed-step RK4 for an autonomous field; aborts on non-finite states.

    ``f`` maps a state to the field there, one value per component of y0.
    ``kernel``, when given, is the ``compile_rk4`` loop over the stage that
    ``f`` interprets.  It runs first and again after every step that it
    left to ``f``, which is one where it met an error, a value that is not
    finite or a state past ``GUARD_BOUND``.  So every state, abort and
    message is the one ``f`` alone gives.
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
            return Trajectory(times, states)
        y = states[-1]
        hs = min(step, t_end - t)
        try:
            k1 = f(y)
            k2 = f([y[j] + 0.5 * hs * k1[j] for j in range(len(y))])
            k3 = f([y[j] + 0.5 * hs * k2[j] for j in range(len(y))])
            k4 = f([y[j] + hs * k3[j] for j in range(len(y))])
        except ex.EvalError as err:
            # a stage state left the domain of the coefficient expressions
            error = f"domain violation at t={t!r}: {err}"
            return Trajectory(times, states, ok=False, error=error)
        y = [
            y[j] + hs * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) / 6.0
            for j in range(len(y))
        ]
        t = min(t0 + len(times) * step, t_end)
        if not all(map(math.isfinite, y)):
            return Trajectory(times, states, ok=False, error=f"non-finite state at t={t!r}")
        times.append(t)
        states.append(y)


def interpret(
    exprs: Sequence[ex.Expr],
    variables: Sequence[str],
    bound: Mapping[str, ex.Expr] | None = None,
    extras: Sequence[ex.Expr] = (),
) -> Callable[[Sequence[float]], list[float]]:
    """The stage that ``compile_rk4`` compiles, as a field that ``expr.evaluate`` computes.

    At a state, which lists the values of ``variables``, the field computes
    each ``bound`` expression over ``variables``, then evaluates ``extras``
    (only so that it raises where one does), and returns the values of
    ``exprs``, each equal to the kernel's bit for bit.  A state is in the
    field's domain exactly where all of them evaluate.
    """
    bound = list((bound or {}).items())

    def field(state: Sequence[float]) -> list[float]:
        point = dict(zip(variables, state))
        env = {**point, **{name: ex.evaluate(e, point) for name, e in bound}}
        for e in extras:
            ex.evaluate(e, env)
        return [ex.evaluate(e, env) for e in exprs]

    return field


def compile_rk4(
    exprs: Sequence[ex.Expr],
    variables: Sequence[str],
    bound: Mapping[str, ex.Expr] | None = None,
    extras: Sequence[ex.Expr] = (),
    check: Sequence[ex.Expr] | None = None,
) -> Callable[..., None]:
    """The fixed-step RK4 loop of ``integrate_field`` as one generated function.

    ``rk4(times, states, start, end, step)`` steps from ``states[-1]`` at
    ``times[-1]`` with ``integrate_field``'s float operations, appending
    each time and state.  Its stage, emitted once inside the loop over the
    four stages, computes the field ``exprs`` over ``variables`` as
    straight-line code: one assignment per distinct node, with the
    interpreter's float operations, so each value equals ``evaluate`` bit
    for bit.  ``bound`` maps further names to expressions in ``variables``,
    computed first; in ``exprs`` such a name reads that value.  ``rk4``
    returns before a step where a stage raises ArithmeticError or
    ValueError, or where the new state (or its sum) is not finite.  That
    covers a field value that is not finite: each of the four enters the
    new state with a positive weight, and adding to an infinity or a NaN
    never gives a finite number.

    ``extras`` are values the stage computes only so that it raises where
    ``evaluate`` does.  It drops those that ``magnitude_below`` bounds while
    each name they read stays below B = ``GUARD_BOUND``: they are
    polynomials that cannot raise there.  Each stage then raises
    ArithmeticError unless -B < v < B for every name they read (a bound
    name holds its value); a NaN fails too.

    ``check`` lists expressions over ``variables`` and the ``bound``
    names, emitted into the stage's subexpression table.  Given a
    ``check``, even an empty one, ``rk4`` takes ``acc``, [running max
    |value|, count of states measured], and measures it after the first
    stage of every state, the last one included.

    Temporaries are ``t`` and a number; no loop local is named so.  Raises
    UnboundVariableError for a name missing from ``variables``, and
    RecursionError for input too deep to walk.
    """
    consts: dict[str, object] = {}
    table = ({}, {})  # shared by the stage and the check
    w = len(variables)
    names = {v: f"v{j}" for j, v in enumerate(variables)}
    bounds = dict.fromkeys([*variables, *(bound or ())], GUARD_BOUND)
    dropped = [ex.magnitude_below(e, bounds) for e in extras]  # the guard stands in for these
    kept = [e for e, drop in zip(extras, dropped) if not drop]
    read, _ = ex.scan([e for e, drop in zip(extras, dropped) if drop])
    reads = [v for v in bounds if v in read]
    rows = [*exprs, *kept, *map(ex.Var, reads)]  # a Var's operand is the local holding its value
    stage, outs = ex._straight_line(rows, names, bound, consts, table)
    if reads:
        guarded = dict.fromkeys(outs[-len(reads) :])
        tests = (f"{-GUARD_BOUND!r} < {v} < {GUARD_BOUND!r}" for v in guarded)
        stage.append(f"if not ({' and '.join(tests)}): raise ArithmeticError")
    measure: list[str] = []
    if check is not None:
        measure, values = ex._straight_line(check, names, bound, consts, table)
        measure.append(_not_finite(values))
        # the values are finite here: |v| <= m without a call, and a
        # repeated value changes nothing
        for v in dict.fromkeys(values):
            measure.append(f"if not -m <= {v} <= m: m = abs({v})")
        measure.append("n += 1")
        measure.append("if not now < end: return")

    def vec(form: str) -> str:
        return ", ".join(form.format(j=j, k=outs[j]) for j in range(w)) + ","

    def assign(target: str, value: str) -> list[str]:
        """``target`` = ``value`` for each j, one statement each: no tuple is built."""
        return [f"{target.format(j=j)} = {value.format(j=j, k=outs[j])}" for j in range(w)]

    # one statement per component, unless a field value is a stage input
    # that the statements before it would have set
    if {f"v{j}" for j in range(w)} & set(outs[:w]):
        step_inputs = [f"{vec('v{j}')} = {vec('y{j} + hv * {k}')}"]
    else:
        step_inputs = assign("v{j}", "y{j} + hv * {k}")

    lines = [
        *(["m, n = acc"] if measure else []),
        "now = times[-1]",
        "i = len(times) - 1",
        "try:",
        f"    {vec('y{j}')} = states[-1]",
        f"    while {'True' if measure else 'now < end'}:",
        "        hs = end - now",  # min(step, end - now) without a call
        "        if not hs < step: hs = step",
        "        h2 = 0.5 * hs",
        *(f"        {line}" for line in assign("v{j}", "y{j}")),
        "        for s in (0, 1, 2, 3):",
        *(f"            {line}" for line in stage),
        "            if s == 0:",
        *(f"                {line}" for line in measure),
        *(f"                {line}" for line in assign("r{j}", "{k}")),
        "            elif s < 3:",
        *(f"                {line}" for line in assign("r{j}", "r{j} + 2.0 * {k}")),
        "            else:",
        "                break",
        "            hv = hs if s == 2 else h2",
        *(f"            {line}" for line in step_inputs),
        # r is (k1 + 2.0 * k2) + 2.0 * k3, summed in integrate_field's order
        *(f"        {line}" for line in assign("y{j}", "y{j} + hs * (r{j} + {k}) / 6.0")),
        f"        {_not_finite([f'y{j}' for j in range(w)])}",
        "        i += 1",
        "        now = start + i * step",
        "        if end < now: now = end",
        "        times.append(now)",
        f"        states.append([{vec('y{j}')}])",
        "except (ArithmeticError, ValueError):",
        "    pass",
        *(["finally:", "    acc[:] = m, n"] if measure else []),
    ]
    params = "times, states, start, end, step" + (", acc" if measure else "")
    body = "\n".join(f"        {line}" for line in lines)
    return ex._build(f"    def rk4({params}):\n{body}\n    return rk4\n", consts)


def _not_finite(values: Sequence[str]) -> str:
    """A line raising ArithmeticError where the sum of ``values`` is not finite.

    A finite literal (its text starts with a digit or '-') cannot make the
    sum so and a repeated value adds nothing, so both are left out.
    """
    names = [v for v in dict.fromkeys(values) if not (v[0].isdigit() or v[0] == "-")]
    return f"if ({' + '.join(names)}) * 0.0 != 0.0: raise ArithmeticError" if names else "pass"


def _kernel(*stage) -> Callable[..., None] | None:
    """``compile_rk4(*stage)``, or None where a name is unbound or the input too deep to walk."""
    try:
        return compile_rk4(*stage)
    except (RecursionError, ex.EvalError):
        return None


def hamilton_stage(h: HamiltonianSection):
    """The Hamilton field's stage as ``compile_rk4``'s (exprs, variables, bound, extras).

    The m+n rows of ``hamilton_field`` over every chart variable; H and its
    m+n partials are the extras, so past ``GUARD_BOUND`` the kernel leaves
    the step to ``interpret``, which evaluates them.
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
    stage = hamilton_stage(h)
    return integrate_field(interpret(*stage), state0, t0, t_end, step, _kernel(*stage))


def reduced_stage(alpha: CoSection, h: HamiltonianSection):
    """The reduced field's stage as ``compile_rk4``'s (exprs, variables, bound, extras).

    The field is the first m rows of ``hamilton_field`` with the fiber
    variables ``bound`` to alphaV, the reduced field of the theorem,

        X^i(x) = rho0^i(x) + dH/dy_a(x, alphaV(x)) rhoV[a]^i(x).

    The extras are the n fiber rows, H and its m+n partials: X does not
    read them, but is undefined where one is.  A guard on a fiber variable
    tests its alphaV value.
    """
    aff = h.chart
    rows, bound = hamilton_field(h), dict(zip(aff.fiber_vars, alpha.alphaV))
    return rows[: aff.m], aff.base_vars, bound, rows[aff.m :] + [h.H, *h.partials]

