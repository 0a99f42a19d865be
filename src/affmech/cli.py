"""Batch command-line front end.

Four subcommands: ``validate`` (chart axioms), ``flow`` (integrate the
Hamilton equations to CSV), ``hj`` (cocycle and HJ residuals of a dual
section), ``verify`` (two-way theorem check along reduced trajectories).
Models are builtin names (``trivial:<dim>``, ``oscillator``,
``linear:tangent<dim>``, ``rigid:<I1>,<I2>,<I3>``, ``perturbed-so3``) or
paths to model files; reports are ``KEY = value`` lines.

Exit codes: 0 pass, 1 check failed, 2 input error, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

from . import expr as ex
from .algebroid import MAX_SAMPLES, VALIDATION_TOL, SamplePlan, check_box_var, nan_max
from .affgebroid import CoSection, validate_charts
from .dynamics import DEFAULT_STEP, MAX_STEPS, check_step_budget, integrate
from .hj import (
    POINT_TOL,
    TRAJECTORY_TOL,
    IntegrationFailure,
    NotACocycleError,
    hj_reports,
    verify_theorem,
)
from .models import ModelBundle, ModelNameError, by_name
from .modelfile import ModelFileError, load_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3

DEFAULTS = {
    "box": "[-1, 1] per variable",
    "samples": 100,
    "seed": 42,
    "step": DEFAULT_STEP,
    "validation_tol": VALIDATION_TOL,
    "pointwise_tol": POINT_TOL,
    "trajectory_tol": TRAJECTORY_TOL,
    "verify_points": 10,
    "max_steps": MAX_STEPS,
    "max_samples": MAX_SAMPLES,
}


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--show-defaults" in argv:
        for key, value in DEFAULTS.items():
            print(f"{key} = {value}")
        return EXIT_OK

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(_resolve_model(args.model), args)
    except (ModelFileError, ModelNameError, ex.ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        # a tree too deep for a recursive walk: a sum or product of very many terms
        print("error: expression too large to process (recursion limit exceeded)",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as err:  # no traceback reaches the user
        message = str(err).replace("\n", " ")
        print(f"error: internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INCONSISTENT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; argparse copies the ``--box`` default before appending."""
    parser = argparse.ArgumentParser(
        prog="affmech",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--show-defaults", action="store_true", help="print the defaults table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate the chart axioms numerically")
    p.add_argument("model")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("flow", help="integrate the Hamilton equations, write CSV")
    p.add_argument("model")
    p.add_argument("--x0", required=True, help="comma-separated base coordinates")
    p.add_argument("--y0", required=True, help="comma-separated fiber coordinates")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.add_argument("--thin", type=int, default=1, help="write every k-th row")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("hj", help="cocycle and Hamilton-Jacobi residuals of a section")
    p.add_argument("model")
    p.add_argument("--alpha", required=True, help="section name or inline 'alpha0=..;alphaV=..,..'")
    p.add_argument("--box", action="append", default=[], help="var=lo,hi (repeatable, once per variable)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_hj)

    p = sub.add_parser("verify", help="check the theorem equivalence along trajectories")
    p.add_argument("model")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x0-set", default=None, help="semicolon-separated points 'a,b;c,d'")
    p.add_argument("--points", type=int, default=DEFAULTS["verify_points"],
                   help="number of seeded initial points when --x0-set is absent")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.set_defaults(handler=cmd_verify)
    return parser


def _resolve_model(spec: str) -> ModelBundle:
    """A regular file at ``spec``, else a builtin; a directory does not shadow a builtin."""
    if Path(spec).is_file():
        return load_model(spec)
    try:
        return by_name(spec)
    except ModelNameError:
        if Path(spec).exists():  # not a regular file: load_model says why it cannot be read
            return load_model(spec)
        if any(ch in spec for ch in "/\\.") or spec.endswith(".model"):
            raise ModelFileError(f"model file '{spec}' does not exist") from None
        raise


# ---------------------------------------------------------------- validate


def cmd_validate(bundle: ModelBundle, args) -> int:
    all_valid = True
    try:
        for label, report in validate_charts(bundle.chart, bundle.sample):
            for line in report.lines():
                print(f"{label}_{line}")
            if not report.jacobi_max <= report.TOL:
                print(f"{label}_worst = {report.worst_jacobi}")
            if not report.anchor_max <= report.TOL:
                print(f"{label}_worst_anchor = {report.worst_anchor}")
            all_valid = all_valid and report.valid
    except ex.EvalError as err:
        return _evaluation_error(err)
    print(f"model_valid = {all_valid}")
    return EXIT_OK if all_valid else EXIT_CHECK_FAILED


# -------------------------------------------------------------------- flow


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in parts:
        raise ValueError(f"{what} has an empty field in {text.strip()!r}")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        if any("_" in p for p in parts):  # a digit separator to float, not to expr.parse
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} needs numbers, got {text.strip()!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} needs finite values, got {text.strip()!r}")
    return values


def cmd_flow(bundle: ModelBundle, args) -> int:
    chart = bundle.chart
    try:
        x0 = _parse_floats(args.x0, chart.m, "--x0")
        y0 = _parse_floats(args.y0, chart.n, "--y0")
        if not all(map(math.isfinite, (args.step, args.t0, args.t_end))):
            raise ValueError("--step, --t0 and --t-end must be finite numbers")
        if args.step <= 0 or args.t_end <= args.t0 or args.thin < 1:
            raise ValueError("need step > 0, t-end > t0 and thin >= 1")
        check_step_budget(args.t0, args.t_end, args.step)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.out != "-":
        try:  # a path that cannot be written costs no integration; the probe changes no file
            fresh = not os.path.lexists(args.out)
            open(args.out, "a").close()
            if fresh:
                os.remove(args.out)
        except OSError as err:
            return _cannot_write(args.out, err)
    traj = integrate(bundle.hamiltonian, x0 + y0, args.t0, args.t_end, args.step)
    header = "t," + ",".join(
        [f"x{i+1}" for i in range(chart.m)] + [f"y{a+1}" for a in range(chart.n)]
    )
    last, row = len(traj.times) - 1, ",".join(["%r"] * (1 + chart.m + chart.n))
    rows = [header] + [
        row % (t, *state)
        for k, (t, state) in enumerate(zip(traj.times, traj.states))
        if k % args.thin == 0 or k == last
    ]
    if not traj.ok:
        rows.append("# ABORTED")
        print(f"error: flow aborted: {traj.error}", file=sys.stderr)
    payload = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        try:
            Path(args.out).write_text(payload)
        except OSError as err:
            return _cannot_write(args.out, err)
    return EXIT_OK if traj.ok else EXIT_CHECK_FAILED


def _cannot_write(path: str, err: OSError) -> int:
    print(f"error: cannot write '{path}': {err.strerror}", file=sys.stderr)
    return EXIT_INPUT_ERROR


# ---------------------------------------------------------------------- hj


def _resolve_alpha(bundle: ModelBundle, text: str) -> CoSection:
    if "=" not in text:
        try:
            return bundle.section(text)
        except KeyError as err:  # str() of a KeyError quotes its message
            raise ValueError(*err.args) from None
    parts = {}
    for item in filter(None, (p.strip() for p in text.split(";"))):
        if "=" not in item:
            raise ValueError(f"inline alpha item '{item}' is not field=expression")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in parts:
            raise ValueError(f"inline alpha sets '{key}' twice")
        parts[key] = value
    unknown = set(parts) - {"alpha0", "alphaV"}
    if unknown:
        raise ValueError(f"inline alpha has unknown fields {sorted(unknown)}")
    alpha0 = ex.parse(parts["alpha0"]) if "alpha0" in parts else ex.Lit(0.0)
    if "alphaV" in parts:
        comps = [ex.parse(p.strip()) for p in parts["alphaV"].split(",")]
    else:
        comps = [ex.Lit(0.0)] * bundle.chart.n
    return CoSection(bundle.chart, alpha0, comps)


def _plan_from_args(bundle: ModelBundle, args) -> SamplePlan:
    given = {}
    for override in args.box:
        if "=" not in override:
            raise ValueError(f"--box expects var=lo,hi, got '{override}'")
        var, bounds = override.split("=", 1)
        var = var.strip()
        check_box_var(var, bundle.chart.base_vars)
        if var in given:
            raise ValueError(f"--box sets '{var}' twice")
        lo, hi = _parse_floats(bounds, 2, f"--box {var}")
        given[var] = (lo, hi)
    return SamplePlan(
        box={**bundle.sample.box, **given},
        count=args.samples if args.samples is not None else bundle.sample.count,
        seed=args.seed if args.seed is not None else bundle.sample.seed,
    )


def _mean(values: list[float]) -> float:
    """The mean of ``values``, finite when they all are, even where their sum overflows."""
    total = sum(values)
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return total / len(values)
    k = len(values).bit_length()  # each value over 2^k: the sum cannot overflow
    mean = math.ldexp(sum(math.ldexp(v, -k) for v in values) / len(values), k)
    return min(max(mean, min(values)), max(values))  # rounding may leave the range


def cmd_hj(bundle: ModelBundle, args) -> int:
    try:
        alpha = _resolve_alpha(bundle, args.alpha)
        plan = _plan_from_args(bundle, args)
    except (ValueError, ex.ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        coc, values, hj = hj_reports(alpha, bundle.hamiltonian, plan)
    except ex.EvalError as err:
        return _evaluation_error(err)

    for line in coc.lines():
        print(line)
    nan = any(v != v for v in values)  # min and max would keep a NaN only if they met it first
    print(f"f_min = {math.nan if nan else min(values):.6e}")
    print(f"f_max = {math.nan if nan else max(values):.6e}")
    print(f"f_mean = {_mean(values):.6e}")
    for line in hj.lines():
        print(line)
    passed = coc.is_cocycle and hj.is_solution
    print(f"hj_pass = {passed}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _evaluation_error(err: ex.EvalError) -> int:
    """Report a section that cannot be evaluated at a sample point."""
    where = ""
    if err.point is not None:
        where = " at " + ", ".join(f"{var}={value!r}" for var, value in err.point.items())
    print(f"error: {err}{where}", file=sys.stderr)
    return EXIT_INPUT_ERROR


# ------------------------------------------------------------------ verify


def cmd_verify(bundle: ModelBundle, args) -> int:
    chart = bundle.chart
    try:
        if not all(map(math.isfinite, (args.step, args.horizon))):
            raise ValueError("--step and --horizon must be finite numbers")
        if args.step <= 0 or args.horizon <= 0:
            raise ValueError("need step > 0 and horizon > 0")
        check_step_budget(0.0, args.horizon, args.step)
        alpha = _resolve_alpha(bundle, args.alpha)
        if args.x0_set is not None:
            points = [
                _parse_floats(p, chart.m, "--x0-set point")
                for p in args.x0_set.split(";")
                if p.strip()
            ]
        else:
            if args.points < 1:
                raise ValueError(f"--points must be at least 1, got {args.points}")
            plan = dataclasses.replace(bundle.sample, count=args.points)
            points = list(zip(*plan.coordinates(chart.base_vars)))
        if not points:
            raise ValueError("no initial points given")
    except (ValueError, ex.ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    traj_max = hj_max = 0.0  # nan_max over the points, so a NaN residual is reported
    holds_i = holds_ii = True
    try:
        reports = verify_theorem(
            alpha, bundle.hamiltonian, points, args.horizon, args.step, bundle.sample
        )
        for k, report in enumerate(reports):
            coords = ",".join(f"{v:.6g}" for v in report.x0)
            print(
                f"point_{k} = ({coords}) max_r = {report.trajectory_max:.3e} "
                f"hj = {report.hj_max:.3e}"
            )
            traj_max = nan_max((traj_max, report.trajectory_max))
            hj_max = nan_max((hj_max, report.hj_max))
            holds_i = holds_i and report.holds_along_trajectory
            holds_ii = holds_ii and report.holds_pointwise
    except NotACocycleError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"cocycle_residual = {err.report.max_residual:.3e}")
        return EXIT_INPUT_ERROR
    except IntegrationFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ex.EvalError as err:
        return _evaluation_error(err)

    print(f"trajectory_residual_max = {traj_max:.3e}")
    print(f"hj_residual_max = {hj_max:.3e}")
    print(f"condition_i_holds = {holds_i}")
    print(f"condition_ii_holds = {holds_ii}")
    if holds_i != holds_ii:
        print("verdict = (i) and (ii) DISAGREE")
        return EXIT_INCONSISTENT
    print("verdict = (i) and (ii) AGREE")
    return EXIT_OK if holds_i else EXIT_CHECK_FAILED


if __name__ == "__main__":
    entry()
