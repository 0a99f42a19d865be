import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affmech import cli, dynamics, models
from affmech.affgebroid import AffgebroidChart
from affmech.algebroid import MAX_SAMPLES, AlgebroidChart, SamplePlan
from affmech.cli import main
from affmech.modelfile import parse_model_text
from affmech.models import MAX_DIMENSION, by_name

FREE_PARTICLE = """
[space]
m = 2
n = 1
vars = t, q1, p1

[anchor]
rho0 = 1, 0
rhoV = 0, 1

[hamiltonian]
H = p1^2/2

[sections]
w.alpha0 = -(q1^2)/(2*(t+1)^2)
w.alphaV = q1/(t+1)

[sampling]
box.t = -0.5, 1
"""

PERTURBED_SO3 = """
[space]
m = 1
n = 3
vars = s, y1, y2, y3

[structure]
1,2,3 = 1
2,3,1 = 1
3,1,2 = 1
1,2,2 = 0.3

[hamiltonian]
H = y1^2/2+y2^2/2+y3^2/2
"""

ZERO_H = """
[space]
m = 1
n = 1
vars = u, w

[anchor]
rho0 = 1
rhoV = 1
"""


@pytest.fixture()
def free_file(tmp_path):
    p = tmp_path / "free.model"
    p.write_text(FREE_PARTICLE)
    return str(p)


# ---------------------------------------------------------------- validate


def test_validate_builtin_models(capsys):
    for name in ("trivial:1", "oscillator", "linear:tangent2", "rigid:1,2,3"):
        assert main(["validate", name]) == 0
        out = capsys.readouterr().out
        assert "model_valid = True" in out
        assert "bidual_jacobi_max" in out


def test_validate_perturbed_so3_fails_with_jacobi_residual(capsys):
    assert main(["validate", "perturbed-so3"]) == 1
    out = capsys.readouterr().out
    assert "model_valid = False" in out
    jacobi = [l for l in out.splitlines() if l.startswith("bidual_jacobi_max")]
    assert float(jacobi[0].split("=")[1]) >= 0.05


def test_validate_model_file(free_file, capsys):
    assert main(["validate", free_file]) == 0
    assert "model_valid = True" in capsys.readouterr().out


def test_validate_perturbed_file(tmp_path, capsys):
    p = tmp_path / "bad.model"
    p.write_text(PERTURBED_SO3)
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "model_valid = False" in out


def test_malformed_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "broken.model"
    p.write_text("[space]\nm = 2\n")
    assert main(["validate", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_model_name_is_input_error(capsys):
    assert main(["validate", "not-a-model"]) == 2
    assert main(["validate", "missing/path.model"]) == 2
    capsys.readouterr()


def test_a_directory_does_not_shadow_a_builtin_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "oscillator").mkdir()
    assert main(["validate", "oscillator"]) == 0
    assert "model_valid = True" in capsys.readouterr().out
    # an existing file still takes precedence over the builtin of its name
    (tmp_path / "trivial:1").write_text(PERTURBED_SO3)
    assert main(["validate", "trivial:1"]) == 1
    assert "model_valid = False" in capsys.readouterr().out
    # a directory that names no builtin is an input error on one line
    (tmp_path / "nomodel").mkdir()
    assert main(["validate", "nomodel"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read 'nomodel': Is a directory\n"


def test_show_defaults_has_no_finite_difference_step(capsys):
    assert main(["--show-defaults"]) == 0
    assert "fd_step" not in capsys.readouterr().out


def test_hj_nonpositive_samples_is_input_error(capsys):
    for samples in ("0", "-5"):
        code = main(["hj", "trivial:1", "--alpha", "w_free", "--samples", samples])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample count" in err


# -------------------------------------------------------------------- flow


def test_flow_oscillator_period_returns_to_start(tmp_path):
    out = tmp_path / "osc.csv"
    code = main(
        [
            "flow",
            "oscillator",
            "--x0",
            "0,1",
            "--y0",
            "0",
            "--t-end",
            repr(2 * math.pi),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,y1"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[2] - 1.0) <= 1e-9 and abs(last[3]) <= 1e-9


def test_flow_zero_hamiltonian_constant_fiber(tmp_path, capsys):
    p = tmp_path / "zero.model"
    p.write_text(ZERO_H)
    assert main(["flow", str(p), "--x0", "0.5", "--y0", "0.25", "--t-end", "0.01"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "t,x1,y1"
    for row in rows[1:]:
        assert row.split(",")[2] == "0.25"


def test_flow_csv_is_bit_reproducible(free_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["flow", free_file, "--x0", "0,1", "--y0", "1", "--t-end", "0.25"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flow_aborts_flagged(tmp_path, capsys):
    # dw/dt = -w^2 from w = -2 escapes to -infinity at t = 0.5
    p = tmp_path / "blowup.model"
    p.write_text(ZERO_H + "\n[hamiltonian]\nH = u*w^2\n")
    code = main(["flow", str(p), "--x0", "0", "--y0", "-2", "--t-end", "1", "--step", "1e-3"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.strip().splitlines()[-1] == "# ABORTED"


def test_flow_abort_says_why_on_stderr(tmp_path, capsys):
    p = tmp_path / "blowup.model"
    p.write_text(ZERO_H + "\n[hamiltonian]\nH = u*w^2\n")
    assert main(["flow", str(p), "--x0", "0", "--y0", "-2", "--t-end", "1", "--step", "1e-3"]) == 1
    line, out = error_line(capsys)
    assert line.startswith("error: flow aborted: ") and "at t=0.5" in line
    assert out.splitlines()[-1] == "# ABORTED"


def test_flow_aborts_where_the_hamiltonian_is_undefined(tmp_path, capsys):
    # H = log(t) + ... is undefined at t < 0 although dH/dt never enters the field
    p = tmp_path / "log_t.model"
    p.write_text(FREE_PARTICLE.replace("H = p1^2/2", "H = p1^2/2 + log(t)"))
    code = main(["flow", str(p), "--x0=-1,0", "--y0", "1", "--t0=-1", "--t-end", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.strip().splitlines()[-1] == "# ABORTED"


def test_flow_bad_arguments(free_file, capsys):
    assert main(["flow", free_file, "--x0", "0", "--y0", "1", "--t-end", "1"]) == 2
    assert main(["flow", free_file, "--x0", "0,1", "--y0", "1", "--t-end", "-1"]) == 2
    capsys.readouterr()


def test_flow_thinning(free_file, capsys):
    args = ["flow", free_file, "--x0", "0,1", "--y0", "1", "--t-end", "0.1"]
    assert main(args) == 0
    full = len(capsys.readouterr().out.strip().splitlines())
    assert main(args + ["--thin", "10"]) == 0
    thinned = len(capsys.readouterr().out.strip().splitlines())
    assert full == 102  # header + 101 states
    assert thinned == 12  # header + every tenth + final row


# ---------------------------------------------------------------------- hj


def test_hj_pass_and_fail(free_file, capsys):
    assert main(["hj", free_file, "--alpha", "w"]) == 0
    out = capsys.readouterr().out
    assert "is_cocycle = True" in out
    assert "is_solution = True" in out
    assert "hj_pass = True" in out

    assert main(["hj", "trivial:1", "--alpha", "w_cubic"]) == 1
    out = capsys.readouterr().out
    assert "is_cocycle = True" in out
    assert "is_solution = False" in out


def test_hj_inline_alpha_and_zero_case(capsys):
    code = main(["hj", "trivial:1", "--alpha", "alpha0=0;alphaV=0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "f_max" in out


def test_hj_unknown_alpha(capsys):
    assert main(["hj", "trivial:1", "--alpha", "nope"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hj", "verify"])
def test_unknown_section_name_is_an_unquoted_input_error(command, capsys):
    assert main([command, "trivial:1", "--alpha", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model 'trivial:1' has no section 'nosuch'; "
        "available: ['w_cubic', 'w_free', 'w_sq', 'zero']\n"
    )


def test_hj_box_override(capsys):
    code = main(
        ["hj", "oscillator", "--alpha", "w_osc", "--box", "t=0.3,1.3", "--samples", "50"]
    )
    assert code == 0
    capsys.readouterr()


# ------------------------------------------------------------------ verify


def test_verify_positive(free_file, capsys):
    code = main(["verify", free_file, "--alpha", "w", "--x0-set", "0,1;0,-0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict = (i) and (ii) AGREE" in out
    assert "condition_i_holds = True" in out


def test_verify_negative_agree_exit_one(capsys):
    code = main(["verify", "trivial:1", "--alpha", "w_cubic", "--x0-set", "0,0.6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict = (i) and (ii) AGREE" in out
    assert "condition_i_holds = False" in out
    assert "condition_ii_holds = False" in out


def test_verify_seeded_default_points(capsys):
    code = main(["verify", "rigid:1,2,3", "--alpha", "cocycle_t", "--points", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("point_") == 4


def test_verify_draws_more_points_than_the_model_samples(capsys):
    argv = ["verify", "trivial:1", "--alpha", "w_free", "--horizon", "0.01", "--step", "0.01"]
    assert main(argv + ["--points", "150"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("point_") for line in lines) == 150
    assert main(argv) == 0  # the default 10 points are the first 10 of them
    assert capsys.readouterr().out.splitlines()[:10] == lines[:10]


def test_verify_non_cocycle_exit_two(capsys):
    code = main(["verify", "rigid:1,2,3", "--alpha", "bad_constant"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cocycle_residual" in captured.out


# ---------------------------------------------------------------- defaults


def test_show_defaults(capsys):
    assert main(["--show-defaults"]) == 0
    out = capsys.readouterr().out
    for key in ("seed = 42", "samples = 100", "step = 0.001", "max_steps = 1000000",
                "max_samples = 1000000"):
        assert key in out


# ---------------------------------------------------------- input contracts


def error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0], captured.out


def test_hj_domain_error_is_input_error_naming_the_point(capsys):
    assert main(["hj", "oscillator", "--alpha", "alphaV=log(q1)"]) == 2
    line, out = error_line(capsys)
    assert "log of non-positive value in 'log(q1)'" in line
    point = dict(item.split("=") for item in line.split(" at ", 1)[1].split(", "))
    assert set(point) == {"t", "q1"} and float(point["q1"]) <= 0.0
    assert out == ""


def test_verify_domain_error_is_input_error_naming_the_point(capsys):
    code = main(["verify", "oscillator", "--alpha", "alpha0=sqrt(q1)", "--x0-set", "0.5,0.5"])
    assert code == 2
    line, _ = error_line(capsys)
    assert "sqrt of negative value in 'sqrt(q1)' at t=" in line


def test_verify_infinite_partial_of_sqrt_is_input_error_at_the_point(capsys):
    # d/dq1 sqrt(q1) = 0.5/sqrt(q1), evaluated where the compiled code fails
    code = main(["verify", "trivial:1", "--alpha", "alphaV=sqrt(q1)", "--x0-set", "0,0"])
    assert code == 2
    line, out = error_line(capsys)
    assert line == "error: division by zero in '0.5/sqrt(q1)' at t=0.0, q1=0.0"
    assert out == ""


def test_verify_start_point_outside_the_domain_is_input_error(capsys):
    code = main(["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,-0.3"])
    assert code == 2
    line, out = error_line(capsys)
    assert line == "error: log of non-positive value in 'log(q1)' at t=0.5, q1=-0.3"
    assert out == ""


def test_verify_flow_leaving_the_domain_is_a_failed_check(capsys):
    # q1 starts inside the domain of log and reaches 0 at t = 0.378
    code = main(["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,0.5"])
    assert code == 1
    line, _ = error_line(capsys)
    assert line.startswith("error: reduced flow aborted: domain violation at t=0.378: ")


def test_hj_nan_residuals_fail_their_checks(capsys):
    # q1*q1 overflows to inf on this box and inf - inf is NaN: a NaN
    # residual must fail its tolerance, not read as 0
    argv = ["hj", "trivial:1", "--alpha", "alphaV=q1*q1*t - q1*q1*t",
            "--box", "q1=1e200,1e201", "--samples", "5"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    for line in ("cocycle_residual = nan", "is_cocycle = False",
                 "hj_residual = nan", "is_solution = False", "hj_pass = False"):
        assert line in out.splitlines()


def test_hj_nan_values_of_f_print_as_nan(capsys):
    # f = inf - inf is NaN where q1 > 0.1 and 0 elsewhere: min and max must
    # not keep whichever of the two they meet first
    alpha = "alpha0=(1e308*q1)*10-(1e308*q1)*10;alphaV=0"
    assert main(["hj", "trivial:1", "--alpha", alpha, "--samples", "12", "--seed", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    for line in ("f_min = nan", "f_max = nan", "f_mean = nan"):
        assert line in out


def test_hj_mean_of_finite_values_is_finite_where_their_sum_overflows(capsys):
    assert main(["hj", "trivial:1", "--alpha", "alpha0=1e308;alphaV=0", "--samples", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in ("f_min = 1.000000e+308", "f_max = 1.000000e+308", "f_mean = 1.000000e+308"):
        assert line in out


def test_mean_at_the_largest_floats():
    big = sys.float_info.max
    assert cli._mean([big] * 3) == big
    assert cli._mean([-big] * 3) == -big
    assert cli._mean([big] * 12) == big
    assert math.isclose(cli._mean([big, big, -big]), big / 3)  # big + big overflows first
    assert cli._mean([-big, big, big]) == big / 3  # this sum is finite: the plain mean
    assert cli._mean([big, math.inf]) == math.inf
    assert math.isnan(cli._mean([big, big, math.nan]))
    assert math.isnan(cli._mean([math.inf, -math.inf]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([sys.float_info.max] * 3)
@example([-sys.float_info.max] * 7)
@example([sys.float_info.max, sys.float_info.max, -sys.float_info.max, 1.0])
@example([0.1, 0.1, 0.1])  # sum/len is 0.10000000000000002 here, above the max
def test_mean_of_finite_values(values):
    mean = cli._mean(values)
    if math.isfinite(sum(values)):
        assert mean == sum(values) / len(values)  # the plain mean: the printed bytes do not move
    else:  # the scaled mean, clamped to the values' range
        assert math.isfinite(mean) and min(values) <= mean <= max(values)


def test_hj_box_must_be_ordered_finite_and_known(capsys):
    for box, fragment in [
        ("t=2,1", "lo < hi"),
        ("t=0,inf", "finite"),
        ("t=nan,1", "finite"),
        ("zz=0,1", "unknown variable 'zz'"),
        ("p1=0,1", "unknown variable 'p1'"),  # a fiber variable is never sampled
        ("t=1", "--box t needs 2"),
        ("t=0,1,2", "--box t needs 2"),
    ]:
        assert main(["hj", "oscillator", "--alpha", "w_osc", "--box", box]) == 2, box
        line, out = error_line(capsys)
        assert fragment in line and out == ""


def test_hj_draws_its_sample_points_once(monkeypatch, capsys):
    draws, real = [], SamplePlan.points

    def counted(plan, variables):
        draws.append(list(variables))
        return real(plan, variables)

    monkeypatch.setattr(SamplePlan, "points", counted)
    assert main(["hj", "oscillator", "--alpha", "w_osc"]) == 0
    capsys.readouterr()
    assert draws == [["t", "q1"]]


def test_hj_one_point_box_pins_the_variable(capsys):
    assert main(["hj", "oscillator", "--alpha", "w_osc", "--box", "t=1,1", "--samples", "5"]) == 0
    capsys.readouterr()


def test_flow_non_finite_arguments_are_input_errors(free_file, capsys):
    base = ["flow", free_file, "--x0", "0,1", "--y0", "1"]
    for extra in (
        ["--t-end", "1", "--step", "nan"],
        ["--t-end", "1", "--step", "inf"],
        ["--t-end", "inf"],
        ["--t-end", "nan"],
        ["--t-end", "1", "--t0=-inf"],
    ):
        assert main(base + extra) == 2, extra
        line, out = error_line(capsys)
        assert "finite" in line and out == ""


@pytest.mark.parametrize("argv", [
    ["flow", "oscillator", "--x0=nan,0.5", "--y0=0.3", "--t-end=0.1"],
    ["flow", "oscillator", "--x0=0,0.5", "--y0=-inf", "--t-end=0.1"],
    ["verify", "trivial:3", "--alpha", "w_free", "--x0-set=nan,0.3,0,0"],
    ["verify", "oscillator", "--alpha", "w_osc", "--x0-set=0.5,0.3;inf,0.3"],
])
def test_non_finite_start_points_are_input_errors(argv, capsys):
    assert main(argv) == 2
    line, out = error_line(capsys)
    assert "needs finite values" in line and out == ""


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
def test_trig_of_an_infinite_value_is_an_input_error_at_the_point(fn, capsys):
    assert main(["hj", "trivial:1", f"--alpha=alpha0={fn}(q1*1e308*10)"]) == 2
    line, out = error_line(capsys)
    assert " of infinite value in '" in line and " at t=" in line and out == ""


SQRT_STRUCTURE = """
[space]
m = 2
n = 2
vars = t, q1, p1, p2

[structure]
1,2,1 = sqrt(t)

[hamiltonian]
H = p1^2/2
"""


def test_validate_chart_data_outside_its_domain_is_an_input_error_at_the_point(tmp_path, capsys):
    # C^1_12 + C^1_21 = sqrt(t) - sqrt(t) is sampled, and the box holds t < 0
    p = tmp_path / "sqrt.model"
    p.write_text(SQRT_STRUCTURE)
    assert main(["validate", str(p)]) == 2
    line, out = error_line(capsys)
    assert line.startswith("error: sqrt of negative value in 'sqrt(t)' at t=-")
    point = dict(item.split("=") for item in line.split(" at ", 1)[1].split(", "))
    assert set(point) == {"t", "q1"} and out == ""


@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"),
    (".", "Is a directory"),
])
def test_flow_to_a_path_it_cannot_write_is_an_input_error(target, reason, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(cli, "integrate", lambda *a: pytest.fail("integrated before opening"))
    path = str(tmp_path / target)
    argv = ["flow", "trivial:1", "--x0", "0,0", "--y0", "1", "--t-end", "20", "--step", "0.001"]
    assert main(argv + ["--out", path]) == 2
    line, out = error_line(capsys)
    assert line == f"error: cannot write '{path}': {reason}" and out == ""


@pytest.mark.parametrize("before", [None, "t,x1,x2,y1\n0.0,0.0,0.0,1.0\n"])
def test_flow_that_fails_leaves_the_output_path_as_it_was(before, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("integration failed")

    monkeypatch.setattr(cli, "integrate", fail)
    path = tmp_path / "x.csv"
    if before is not None:
        path.write_text(before)
    argv = ["flow", "trivial:1", "--x0", "0,0", "--y0", "1", "--t-end", "1", "--out", str(path)]
    assert main(argv) == 3
    assert error_line(capsys)[0] == "error: internal error: RuntimeError: integration failed"
    assert (path.read_text() if path.exists() else None) == before


@pytest.mark.parametrize("alpha, fragment", [
    ("w_free;alphaV=1", "inline alpha item 'w_free' is not field=expression"),
    ("alphaV=q1;alpha0", "inline alpha item 'alpha0' is not field=expression"),
    ("alphaV=q1;alpha0=t;alphaV=t", "inline alpha sets 'alphaV' twice"),
    ("alpha0=t;alpha0=t", "inline alpha sets 'alpha0' twice"),
    ("alphaV=q1; alphaV =t", "inline alpha sets 'alphaV' twice"),
])
@pytest.mark.parametrize("command", ["hj", "verify"])
def test_inline_alpha_with_a_bare_or_repeated_part_is_an_input_error(
        command, alpha, fragment, capsys):
    assert main([command, "trivial:1", "--alpha", alpha]) == 2
    line, out = error_line(capsys)
    assert line == f"error: {fragment}" and out == ""


def test_inline_alpha_ignores_empty_parts(capsys):
    assert main(["hj", "trivial:1", "--alpha", "alphaV=q1/(t+1);;alpha0=-(q1^2)/(2*(t+1)^2);"]) == 0
    assert "hj_pass = True" in capsys.readouterr().out


def test_inline_alpha_allows_spaces_around_its_fields(capsys):
    assert main(["hj", "trivial:1", "--alpha", " alphaV = q1/(t+1) ; alpha0 = -(q1^2)/(2*(t+1)^2)"]) == 0
    assert "hj_pass = True" in capsys.readouterr().out


@pytest.mark.parametrize("option, value, fragment", [
    ("--step", "0", "step > 0"),
    ("--step", "-1", "step > 0"),
    ("--step", "nan", "finite"),
    ("--horizon", "0", "horizon > 0"),
    ("--horizon", "-1", "horizon > 0"),
    ("--horizon", "nan", "finite"),
    ("--horizon", "inf", "finite"),
    ("--points", "-3", "--points must be at least 1"),
    ("--x0-set", "", "no initial points given"),
    ("--x0-set", " ", "no initial points given"),
])
def test_verify_bad_arguments_are_input_errors(option, value, fragment, capsys):
    assert main(["verify", "trivial:1", "--alpha", "w_free", f"{option}={value}"]) == 2
    line, out = error_line(capsys)
    assert fragment in line and out == ""


@pytest.mark.parametrize("argv", [
    ["flow", "oscillator", "--x0", "0,1", "--y0", "0", "--t-end", "1e9", "--step", "1"],
    ["verify", "trivial:1", "--alpha", "w_free", "--horizon", "2", "--step", "1e-6"],
])
def test_runs_past_the_step_budget_are_input_errors(argv, capsys):
    assert main(argv) == 2
    line, out = error_line(capsys)
    assert f"more than the step budget of {dynamics.MAX_STEPS}" in line and out == ""


@pytest.mark.parametrize("argv", [
    ["hj", "trivial:1", "--alpha", "w_free", "--samples", str(MAX_SAMPLES + 1)],
    ["hj", "trivial:1", "--alpha", "w_free", "--samples", "30000000"],
    ["verify", "trivial:1", "--alpha", "w_free", "--points", str(MAX_SAMPLES + 1)],
])
def test_sample_counts_past_the_budget_are_input_errors(argv, monkeypatch, capsys):
    monkeypatch.setattr(SamplePlan, "points", lambda plan, variables: pytest.fail("drew points"))
    assert main(argv) == 2
    line, out = error_line(capsys)
    assert f"at most the sample budget of {MAX_SAMPLES}, got {argv[-1]}" in line and out == ""
    assert SamplePlan(count=MAX_SAMPLES).count == MAX_SAMPLES  # the budget itself is allowed


PAST = MAX_DIMENSION + 1


@pytest.mark.parametrize("model, message", [
    (f"trivial:{MAX_DIMENSION}", f"'trivial:{MAX_DIMENSION}': base dimension {PAST}"),
    (f"linear:tangent{PAST}", f"'linear:tangent{PAST}': base dimension {PAST}"),
    ("trivial:100000", "'trivial:100000': base dimension 100001"),
    ("m.model", f"line 3: 'm' = {PAST}"),
    ("n.model", f"line 4: 'n' = {PAST}"),
])
def test_models_past_the_dimension_budget_are_input_errors(model, message, tmp_path, monkeypatch,
                                                            capsys):
    (tmp_path / "m.model").write_text(FREE_PARTICLE.replace("m = 2", f"m = {PAST}"))
    (tmp_path / "n.model").write_text(FREE_PARTICLE.replace("n = 1", f"n = {PAST}"))
    for chart in (AlgebroidChart, AffgebroidChart):  # refused before any chart is built
        monkeypatch.setattr(chart, "__init__", lambda *args: pytest.fail("built a chart"))
    path = tmp_path / model
    assert main(["validate", str(path) if path.exists() else model]) == 2
    line, out = error_line(capsys)
    assert message + f" is past the budget of {MAX_DIMENSION}" in line and out == ""


def test_models_at_the_dimension_budget_are_built(monkeypatch):
    monkeypatch.setattr(models, "trivial_fibration", lambda dim: dim)
    monkeypatch.setattr(models, "linear_tangent_model", lambda dim: dim)
    assert by_name(f"trivial:{MAX_DIMENSION - 1}") == MAX_DIMENSION - 1  # base t, q1..q109
    assert by_name(f"linear:tangent{MAX_DIMENSION}") == MAX_DIMENSION
    base = ", ".join(f"x{i}" for i in range(MAX_DIMENSION))
    text = f"[space]\nm = {MAX_DIMENSION}\nn = 1\nvars = {base}, p\n[hamiltonian]\nH = p^2/2\n"
    assert parse_model_text(text).chart.m == MAX_DIMENSION


def test_the_step_budget_is_checked_before_integrating(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    base = ["flow", "oscillator", "--x0", "0,1", "--y0", "0", "--t-end", "1"]
    assert main(base + ["--step", "0.1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12  # header and 11 states
    assert main(base + ["--step", "0.09"]) == 2
    line, _ = error_line(capsys)
    assert "takes 11.1111 steps, more than the step budget of 10" in line
    with pytest.raises(ValueError, match="step budget"):
        dynamics.integrate_field(lambda y: y, [1.0], 0.0, 2.0, 0.1)


def run_python(*args):
    """A fresh interpreter with this checkout's src/ first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_python_dash_m_runs_the_cli():
    for module in ("affmech", "affmech.cli"):
        result = run_python("-m", module, "validate", "oscillator")
        assert result.returncode == 0, result.stderr
        assert "model_valid = True" in result.stdout


def test_importing_the_package_does_not_load_numpy():
    # fractions (with decimal and numbers) is imported by the first exact
    # zero test that needs it, not at start-up
    code = "import sys, affmech, affmech.cli; print([m in sys.modules for m in %r])"
    result = run_python("-c", code % ["numpy", "fractions", "decimal"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False, False]"


# what dataclasses imports; a module not listed here adds import time to every process
IMPORT_ALLOWED = {
    "__future__", "_ast", "_opcode", "ast", "copy", "dataclasses", "dis", "importlib.machinery",
    "inspect", "linecache", "opcode", "token", "tokenize",
}


def test_importing_the_package_and_the_model_files_loads_only_allowed_modules():
    # the imports of a fresh process that builds models (perfbench/setup_probe.py)
    code = (
        "import sys; before = set(sys.modules); import affmech, affmech.modelfile; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    new = {m for m in result.stdout.split() if m != "affmech" and not m.startswith("affmech.")}
    assert new <= IMPORT_ALLOWED, sorted(new - IMPORT_ALLOWED)


# ------------------------------------------------------------- one parser


def test_parser_is_built_once_and_append_defaults_are_not_shared(capsys):
    from affmech.cli import _build_parser

    assert _build_parser() is _build_parser()
    plain = ["hj", "oscillator", "--alpha", "w_osc", "--samples", "20"]
    assert main(plain) == 0
    default_box = capsys.readouterr().out
    assert main(plain + ["--box", "t=0.3,1.3"]) == 0
    assert capsys.readouterr().out != default_box
    assert main(plain) == 0
    assert capsys.readouterr().out == default_box


def test_help_and_argument_errors_keep_their_exit_codes(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        with pytest.raises(SystemExit) as info:
            main(["hj", "oscillator"])  # --alpha is required
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------ deep input


@pytest.mark.parametrize("alpha", ["(" * 300 + "q1" + ")" * 300, "-" * 3000 + "q1"])
@pytest.mark.parametrize("command", ["hj", "verify"])
def test_deeply_nested_input_is_an_input_error(command, alpha, capsys):
    assert main([command, "trivial:1", "--alpha", f"alphaV={alpha}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: expression nested deeper than 100 levels")


@pytest.mark.parametrize(
    "alpha",
    [
        "sin(" * 100 + "q1" + ")" * 100,  # diff, substitute and compile recurse
        "(" * 100 + "q1" + ")" * 100,
        "-" * 100 + "q1",
        "sin(" * 50 + "+".join(["q1"] * 100) + ")" * 50,
        "+".join(["q1"] * 100),
        "*".join(["q1"] * 100),
    ],
)
def test_input_at_the_depth_limit_runs_end_to_end(alpha, capsys):
    assert main(["hj", "trivial:1", "--alpha", f"alphaV={alpha}"]) in (0, 1)
    argv = ["verify", "trivial:1", "--alpha", f"alphaV={alpha}", "--x0-set", "0.1,0.2",
            "--horizon", "0.05"]
    assert main(argv) in (0, 1)
    assert capsys.readouterr().err == ""


def test_long_sums_are_not_rejected_as_nesting(tmp_path, capsys):
    # 150 terms of one sum: a flat loop in the parser, not 150 nested levels
    h = "+".join(["p1^2/300"] * 150)
    p = tmp_path / "sum150.model"
    p.write_text(FREE_PARTICLE.replace("H = p1^2/2", f"H = {h}"))
    assert main(["validate", str(p)]) == 0
    assert main(["hj", str(p), "--alpha", "w"]) == 0
    assert main(["verify", str(p), "--alpha", "w", "--x0-set", "0.1,0.2", "--horizon", "0.5"]) == 0
    assert capsys.readouterr().err == ""
    assert by_name("trivial:105").hamiltonian.chart.n == 105  # H sums over every fiber


# ---------------------------------------------------- unexpected errors


@pytest.mark.parametrize("command, rest", [("hj", []), ("verify", ["--x0-set", "0.1,0.2"])])
def test_sum_too_long_for_recursive_walks_is_an_input_error(command, rest, capsys):
    # the sum parses in a loop, but diff walks its left-deep tree recursively
    alpha = "alphaV=" + "+".join(["q1"] * 3000)
    assert main([command, "trivial:1", "--alpha", alpha, *rest]) == 2
    line, out = error_line(capsys)
    assert line == "error: expression too large to process (recursion limit exceeded)"
    assert out == ""


def test_unexpected_exception_exits_three_with_one_line(monkeypatch, capsys):
    from affmech import cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cocycle_residual", boom)
    assert main(["hj", "oscillator", "--alpha", "w_osc"]) == 3
    line, out = error_line(capsys)
    assert line == "error: internal error: RuntimeError: boom second line"
    assert out == ""


# ------------------------------------------------------ generated argv

# 0, negatives, NaN, infinities and huge values, drawn beside ordinary
# values; every finite span over a step from this list is either under 25
# steps or past the step budget
HOSTILE = ["0", "-0", "-1", "-2.5", "nan", "-nan", "inf", "-inf", "1e300", "-1e300",
           "1e-300", "1e308"]
NUMBERS = ["0.25", "0.5", "1", "2", "3"] * 8 + HOSTILE
TRIVIAL = ["w_free", "w_cubic", "w_sq", "zero"]
MODELS = {  # base and fiber dimension, section names
    "trivial:1": (2, 1, TRIVIAL), "trivial:2": (3, 2, TRIVIAL), "oscillator": (2, 1, ["w_osc"]),
    "linear:tangent2": (2, 2, ["grad_sq", "const"]), "perturbed-so3": (1, 3, []),
    "rigid:1,2,3": (1, 3, ["cocycle_t", "bad_constant", "zero"]),
}
BAD_MODELS = ["rigid:1,0,1", "rigid:1,nan,1", "trivial:0", "linear:tangent", "no-such-model"]
ATOMS = ["q1", "q2", "t", "x1", "x2", "p1", "0", "2.5", "1e300", "nan"]

numbers = st.sampled_from(NUMBERS)


def counts(k):
    """Mostly k, sometimes one off."""
    return st.sampled_from([k] * 8 + [k + 1, max(k - 1, 0)])


def csv_of(draw, k):
    return ",".join(draw(st.lists(numbers, min_size=k, max_size=k)))


expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=6,
)


def alpha(draw, n, sections):
    if draw(st.booleans()):
        return draw(st.sampled_from(sections * 3 + ["nope"]))
    comps = [draw(expressions) for _ in range(draw(counts(n)))]
    return f"alpha0={draw(expressions)};alphaV={','.join(comps)}"


@st.composite
def argvs(draw):
    model = draw(st.sampled_from(list(MODELS) * 2 + BAD_MODELS))
    m, n, sections = MODELS.get(model, (1, 1, []))
    command = draw(st.sampled_from(["validate", "flow", "hj", "verify"]))
    argv = [command, model]
    if command == "flow":
        argv += [f"--x0={csv_of(draw, draw(counts(m)))}", f"--y0={csv_of(draw, draw(counts(n)))}",
                 f"--t0={draw(numbers)}", f"--t-end={draw(numbers)}", f"--step={draw(numbers)}",
                 f"--thin={draw(st.sampled_from([1, 3, 10**12, 0, -1]))}"]
    elif command == "hj":
        argv.append(f"--alpha={alpha(draw, n, sections)}")
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            var = draw(st.sampled_from(["t", "q1", "x1", "p1", "zz"]))
            argv.append(f"--box={var}={csv_of(draw, draw(counts(2)))}")
        argv.append(f"--samples={draw(st.sampled_from([7, 7, 7, 1, 0, -5]))}")
        argv.append(f"--seed={draw(st.sampled_from([0, -1, 42, 2**70]))}")
    elif command == "verify":
        argv.append(f"--alpha={alpha(draw, n, sections)}")
        if draw(st.booleans()):
            points = [csv_of(draw, draw(counts(m))) for _ in range(draw(st.integers(0, 2)))]
            argv.append(f"--x0-set={';'.join(points)}")
        else:
            argv.append(f"--points={draw(st.sampled_from([1, 2, 2, 0, -3]))}")
        argv += [f"--horizon={draw(numbers)}", f"--step={draw(numbers)}"]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argvs())
def test_main_on_generated_argv_returns_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
