"""Seeded workloads of the affmech benchmark and the oracle for every operation.

A workload hands out rounds.  A round holds one operation per case of the
workload, in a seeded order, and every parameter comes from the run's seeded
``random.Random``: the same seed gives the same inputs.  The expected answer
of each operation is known by construction (exit code, verdict lines, or a
closed-form reference for ``flow``) and is checked after the timed call.

Operations look affmech functions up through their modules at call time, so
the traced run sees every call it has wrapped.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import affmech
from affmech import affgebroid, cli, models
from affmech.affgebroid import HamiltonianSection, VStarSection
from affmech.algebroid import SamplePlan
from affmech.dynamics import DEFAULT_STEP
from affmech.hj import TRAJECTORY_TOL

VERIFY_HORIZON = 0.5
FLOW_DURATION = 0.5
HJ_SAMPLES = 12


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the answer is right


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Workload:
    models: list[str]  # builtin names and model-file paths that set-up builds
    next_round: Callable[[], list[Op]]


def cli_call(argv: list[str]) -> CliResult:
    """Run one CLI command in-process, as a user gets it minus interpreter start."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(code, out.getvalue(), err.getvalue())


def run_op(op: Op) -> tuple[float, "str | None"]:
    """Time one operation, then check its answer: (seconds, failure or None)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as err:  # a raising operation has failed; count it, never retry
        return time.perf_counter() - start, f"{op.kind}: raised {type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    try:
        problem = op.check(result)
    except (ValueError, IndexError) as err:
        problem = f"unreadable answer: {err}"
    return elapsed, None if problem is None else f"{op.kind}: {problem}"


# ------------------------------------------------------------------ oracle


def _report_values(out: str) -> dict[str, str]:
    values = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def expect_report(code: int, **lines: str) -> Callable[[CliResult], "str | None"]:
    """Check the exit code and the given ``key = value`` report lines."""

    def check(res: CliResult):
        if res.code != code:
            return f"exit code {res.code}, expected {code} {res.err.strip()}".rstrip()
        values = _report_values(res.out)
        for key, want in lines.items():
            if values.get(key) != want:
                return f"{key} = {values.get(key)}, expected {want}"
        return None

    return check


def expect_holds(report) -> "str | None":
    return None if report.holds else "; ".join(report.lines())


def expect_flow(start: list[float], t0: float, t_end: float, thin: int, header: str,
                residual: Callable[[list[float]], float]) -> Callable[[CliResult], "str | None"]:
    """Check a ``flow`` CSV row by row against a reference.

    ``residual(row)`` is the distance of one row (t, state...) from the
    reference solution; every row must lie within the library's own
    ``TRAJECTORY_TOL``.  The first row must be the initial state, the last
    must land exactly on ``t_end``, and no two rows may be further apart
    than ``thin`` steps.
    """

    def check(res: CliResult):
        if res.code != 0:
            return f"exit code {res.code}, expected 0 {res.err.strip()}".rstrip()
        lines = res.out.splitlines()
        if lines[0] != header:
            return f"header {lines[0]!r}, expected {header!r}"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if rows[0] != [t0] + start:
            return f"first row {rows[0]} is not the initial state"
        if rows[-1][0] != t_end:
            return f"last row at t = {rows[-1][0]!r}, expected {t_end!r}"
        gap = max(b[0] - a[0] for a, b in zip(rows, rows[1:]))
        if gap > thin * DEFAULT_STEP * (1.0 + 1e-9):
            return f"rows {gap:.3e} apart with --thin {thin}"
        worst = max(residual(row) for row in rows)
        if not worst <= TRAJECTORY_TOL:
            return f"off the reference by {worst:.3e} > {TRAJECTORY_TOL:g}"
        return None

    return check


# -------------------------------------------------------- seeded parameters


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """Seeded value rounded to 6 decimals, so its text parses back exactly."""
    return round(rng.uniform(lo, hi), 6)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Seeded value with magnitude in [lo, hi] and a random sign."""
    return _uniform(rng, lo, hi) * rng.choice((-1.0, 1.0))


def _num(v: float) -> str:
    return f"({v!r})"


def _csv(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


def _poly(rng: random.Random, variables: list[str], k: int = 0) -> str:
    """c1 v_k + c2 v_{k+1} v_{k+2} (indices mod the variable count), seeded c1 and c2.

    The shape is fixed, so the cost of an operation does not depend on the seed.
    """
    v = [variables[(k + j) % len(variables)] for j in range(3)]
    c1, c2 = _signed(rng, 0.2, 1.0), _signed(rng, 0.2, 1.0)
    return f"{_num(c1)}*{v[0]}+{_num(c2)}*{v[1]}*{v[2]}"


# ---------------------------------------------------------------- structure

STRUCTURE_BUILTINS = [
    ("trivial:3", True),
    ("oscillator", True),
    ("linear:tangent3", True),
    ("rigid:1,2,3", True),
    ("perturbed-so3", False),
]
LIBRARY_MODELS = ["trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3"]


def so3_model_text(scales: tuple[float, float, float], extra: "float | None", seed: int) -> str:
    """Model file with brackets [e1,e2] = a e3, [e2,e3] = b e1, [e3,e1] = c e2.

    Any such diagonal bracket satisfies the Jacobi identity.  ``extra`` adds
    C^2_12 = d, which breaks it: the cyclic sum is -d*b e1, nonzero whenever
    d and b are.
    """
    a, b, c = scales
    lines = [
        "[space]", "m = 1", "n = 3", "vars = s, y1, y2, y3", "",
        "[structure]", f"1,2,3 = {a!r}", f"2,3,1 = {b!r}", f"3,1,2 = {c!r}",
    ]
    if extra is not None:
        lines.append(f"1,2,2 = {extra!r}")
    lines += ["", "[hamiltonian]", "H = y1^2/2+y2^2/2+y3^2/2", "", "[sampling]", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def _seeded_hamiltonian(rng: random.Random, bundle) -> HamiltonianSection:
    chart = bundle.chart
    return HamiltonianSection(chart, bundle.hamiltonian.H + affmech.parse(_poly(rng, chart.all_vars())))


def _pullback_op(rng: random.Random, bundle) -> Op:
    chart = bundle.chart
    gamma = VStarSection(chart, [_poly(rng, chart.base_vars, a) for a in range(chart.n)])
    h = _seeded_hamiltonian(rng, bundle)
    plan = SamplePlan(box=bundle.sample.box, seed=rng.randrange(1 << 31))
    return Op(
        f"pullback_identities {bundle.name}",
        lambda: affgebroid.pullback_identities(gamma, h, plan),
        expect_holds,
    )


def _restriction_op(rng: random.Random, bundle) -> Op:
    h = _seeded_hamiltonian(rng, bundle)
    plan = SamplePlan(box=bundle.sample.box, seed=rng.randrange(1 << 31))
    return Op(
        f"vertical_restriction_check {bundle.name}",
        lambda: affgebroid.vertical_restriction_check(h, plan),
        expect_holds,
    )


def validate_op(model: str, valid: bool, kind: str) -> Op:
    return Op(
        kind,
        lambda: cli_call(["validate", model]),
        expect_report(0 if valid else 1, model_valid=str(valid)),
    )


def structure(rng: random.Random, workdir: Path) -> Workload:
    scales = tuple(_signed(rng, 0.5, 2.0) for _ in range(3))
    extra = _signed(rng, 0.2, 1.0)
    valid_file = workdir / "so3_scaled.model"
    invalid_file = workdir / "so3_offdiag.model"
    valid_file.write_text(so3_model_text(scales, None, rng.randrange(1 << 31)))
    invalid_file.write_text(so3_model_text(scales, extra, rng.randrange(1 << 31)))
    bundles = [models.by_name(name) for name in LIBRARY_MODELS]

    def next_round() -> list[Op]:
        ops = [validate_op(name, valid, f"validate {name}") for name, valid in STRUCTURE_BUILTINS]
        ops.append(validate_op(str(valid_file), True, "validate scaled so3 file"))
        ops.append(validate_op(str(invalid_file), False, "validate off-diagonal so3 file"))
        for bundle in bundles:
            ops.append(_pullback_op(rng, bundle))
            ops.append(_restriction_op(rng, bundle))
        rng.shuffle(ops)
        return ops

    names = [name for name, _ in STRUCTURE_BUILTINS]
    return Workload(names + [str(valid_file), str(invalid_file)], next_round)


# --------------------------------------------------------------- trajectory

RIGID_INERTIA = (1.0, 2.0, 3.0)


def verify_op(model: str, alpha: str, point: list[float], holds: bool) -> Op:
    argv = ["verify", model, "--alpha", alpha, f"--x0-set={_csv(point)}",
            f"--horizon={VERIFY_HORIZON!r}"]
    return Op(
        f"verify {model} {alpha}",
        lambda: cli_call(argv),
        expect_report(
            0 if holds else 1,
            condition_i_holds=str(holds),
            condition_ii_holds=str(holds),
            verdict="(i) and (ii) AGREE",
        ),
    )


def flow_op(model: str, x0: list[float], y0: list[float], t0: float, thin: int,
            residual: Callable[[list[float]], float]) -> Op:
    t_end = t0 + FLOW_DURATION
    header = "t," + ",".join([f"x{i+1}" for i in range(len(x0))] + [f"y{a+1}" for a in range(len(y0))])
    argv = ["flow", model, f"--x0={_csv(x0)}", f"--y0={_csv(y0)}", f"--t0={t0!r}",
            f"--t-end={t_end!r}", f"--thin={thin}"]
    return Op(
        f"flow {model} --thin {thin}",
        lambda: cli_call(argv),
        expect_flow(x0 + y0, t0, t_end, thin, header, residual),
    )


def rigid_flow_op(rng: random.Random, thin: int) -> Op:
    """Euler equations: energy and |P|^2 are conserved, the time coordinate advances at rate 1."""
    t0, s0 = _uniform(rng, 0.0, 1.0), _uniform(rng, -1.0, 1.0)
    p0 = [_uniform(rng, -1.0, 1.0) for _ in range(3)]

    def invariants(p):
        return sum(v * v / (2.0 * i) for v, i in zip(p, RIGID_INERTIA)), sum(v * v for v in p)

    e0, l0 = invariants(p0)

    def residual(row):
        e, l = invariants(row[2:5])
        return max(abs(e - e0), abs(l - l0), abs(row[1] - (s0 + row[0] - t0)))

    name = "rigid:" + ",".join(f"{i:g}" for i in RIGID_INERTIA)
    return flow_op(name, [s0], p0, t0, thin, residual)


def oscillator_flow_op(rng: random.Random, thin: int) -> Op:
    """Closed form: (q, p) rotates by the elapsed time, the time coordinate advances at rate 1."""
    t0 = _uniform(rng, 0.0, 1.0)
    s0, q0, p0 = (_uniform(rng, -1.0, 1.0) for _ in range(3))

    def residual(row):
        tau = row[0] - t0
        c, s = math.cos(tau), math.sin(tau)
        ref = (s0 + tau, q0 * c + p0 * s, p0 * c - q0 * s)
        return max(abs(a - b) for a, b in zip(row[1:], ref))

    return flow_op("oscillator", [s0, q0], [p0], t0, thin, residual)


def linear_flow_op(rng: random.Random, thin: int) -> Op:
    """Flat geodesics: x moves on a straight line with constant velocity y."""
    t0 = _uniform(rng, 0.0, 1.0)
    x0 = [_uniform(rng, -1.0, 1.0) for _ in range(3)]
    y0 = [_uniform(rng, -1.0, 1.0) for _ in range(3)]

    def residual(row):
        tau = row[0] - t0
        ref = [x + y * tau for x, y in zip(x0, y0)] + y0
        return max(abs(a - b) for a, b in zip(row[1:], ref))

    return flow_op("linear:tangent3", x0, y0, t0, thin, residual)


def trajectory(rng: random.Random, workdir: Path) -> Workload:
    def next_round() -> list[Op]:
        ops = [
            # t stays in [-0.5, 0.9], away from the pole of 1/(t+1)
            verify_op("trivial:3", "w_free",
                      [_uniform(rng, -0.5, 0.4)] + [_uniform(rng, -1.0, 1.0) for _ in range(3)], True),
            # |q| >= 0.2 keeps the cubic defect far above tolerance; q^2 flow stays finite
            verify_op("trivial:3", "w_cubic",
                      [_uniform(rng, -0.5, 0.4)] + [_signed(rng, 0.2, 0.6) for _ in range(3)], False),
            # t stays in [0.4, 2.0], inside (0, pi) where cot is finite
            verify_op("oscillator", "w_osc", [_uniform(rng, 0.4, 1.5), _uniform(rng, -1.0, 1.0)], True),
            verify_op("linear:tangent3", "const", [_uniform(rng, -1.0, 1.0) for _ in range(3)], True),
            verify_op("linear:tangent3", "grad_sq", [_signed(rng, 0.2, 1.0) for _ in range(3)], False),
            rigid_flow_op(rng, thin=1),
            rigid_flow_op(rng, thin=20),
            oscillator_flow_op(rng, thin=1),
            linear_flow_op(rng, thin=25),
        ]
        rng.shuffle(ops)
        return ops

    return Workload(list(LIBRARY_MODELS), next_round)


# ----------------------------------------------------------------- hj-churn


def hj_op(model: str, kind: str, alpha0: str, alphaV: list[str], box: "str | None",
          seed: int, cocycle: bool, solution: bool) -> Op:
    argv = ["hj", model, f"--alpha=alpha0={alpha0};alphaV={','.join(alphaV)}",
            f"--samples={HJ_SAMPLES}", f"--seed={seed}"]
    if box is not None:
        argv.append(f"--box={box}")
    passed = cocycle and solution
    return Op(
        f"hj {model} {kind}",
        lambda: cli_call(argv),
        expect_report(0 if passed else 1, is_cocycle=str(cocycle), hj_pass=str(passed)),
    )


def _free_particle_ops(rng: random.Random) -> list[Op]:
    """trivial:2.  S = sum (q_i - a_i)^2 / (2 (t + c)) + k t^2 / 2 solves HJ for t + c > 0.

    The sample box keeps t in [-0.5, 1], so c >= 0.7 keeps t + c >= 0.2.
    """
    a = [_uniform(rng, -1.0, 1.0) for _ in range(2)]
    c, k = _uniform(rng, 0.7, 2.0), _uniform(rng, -1.0, 1.0)
    dq = [f"(q{i+1}-{_num(a[i])})" for i in range(2)]
    den = f"(t+{_num(c)})"
    alpha0 = f"-({dq[0]}^2+{dq[1]}^2)/(2*{den}^2)+{_num(k)}*t"
    alphaV = [f"{dq[i]}/{den}" for i in range(2)]
    # a cubic term b q^3 / 3 in S keeps alpha closed but breaks HJ
    cubic = [f"{alphaV[i]}+{_num(_signed(rng, 0.3, 1.0))}*q{i+1}^2" for i in range(2)]
    # the rotation (r q2, -r q1) has d alpha = -2 r on (e1, e2): never closed
    r = _signed(rng, 0.3, 1.0)
    rotation = [f"{_num(r)}*q2", f"{_num(-r)}*q1"]
    seeds = [rng.randrange(1 << 31) for _ in range(3)]
    return [
        hj_op("trivial:2", "free family", alpha0, alphaV, None, seeds[0], True, True),
        hj_op("trivial:2", "free family + cubic", alpha0, cubic, None, seeds[1], True, False),
        hj_op("trivial:2", "rotation", f"{_num(k)}*t", rotation, None, seeds[2], False, False),
    ]


def _oscillator_ops(rng: random.Random) -> list[Op]:
    """oscillator.  S = (q^2 / 2) cot(t - phi) + k t^2 / 2 solves HJ where sin(t - phi) != 0.

    The box keeps t - phi in [0.2, 2.9], inside (0, pi).
    """
    phi, k = _uniform(rng, -0.5, 0.5), _uniform(rng, -1.0, 1.0)
    shift = f"(t-{_num(phi)})"
    alpha0 = f"-(q1^2/2)/sin({shift})^2+{_num(k)}*t"
    alphaV = [f"q1*cos({shift})/sin({shift})"]
    box = f"t={phi + 0.2!r},{phi + 2.9!r}"
    cubic = [f"{alphaV[0]}+{_num(_signed(rng, 0.3, 1.0))}*q1^2"]
    # d alpha on (e0, e1) is d(alphaV)/dt - d(alpha0)/dq = r: never closed
    r = _signed(rng, 0.3, 1.0)
    drift = [f"{_num(r)}*t+{_num(_uniform(rng, -1.0, 1.0))}*q1"]
    seeds = [rng.randrange(1 << 31) for _ in range(3)]
    return [
        hj_op("oscillator", "cot family", alpha0, alphaV, box, seeds[0], True, True),
        hj_op("oscillator", "cot family + cubic", alpha0, cubic, box, seeds[1], True, False),
        hj_op("oscillator", "drift", f"{_num(k)}*t", drift, box, seeds[2], False, False),
    ]


def hj_churn(rng: random.Random, workdir: Path) -> Workload:
    def next_round() -> list[Op]:
        ops = _free_particle_ops(rng) + _oscillator_ops(rng)
        rng.shuffle(ops)
        return ops

    return Workload(["trivial:2", "oscillator"], next_round)


BUILDERS = {"structure": structure, "trajectory": trajectory, "hj-churn": hj_churn}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](random.Random(seed), workdir)
