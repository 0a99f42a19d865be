import math

import pytest

from affmech.cli import main

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


def test_verify_non_cocycle_exit_two(capsys):
    code = main(["verify", "rigid:1,2,3", "--alpha", "bad_constant"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cocycle_residual" in captured.out


# ---------------------------------------------------------------- defaults


def test_show_defaults(capsys):
    assert main(["--show-defaults"]) == 0
    out = capsys.readouterr().out
    for key in ("seed = 42", "samples = 100", "step = 0.001"):
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


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("affmech", "affmech.cli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "validate", "oscillator"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "model_valid = True" in result.stdout
