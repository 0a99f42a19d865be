"""Golden CLI output and golden RK4 kernel sources.

``golden_cli.json`` holds the exit code, stdout and stderr of every command
of a fixed corpus, and ``golden_kernels.json`` the generated source of the
22 builtin RK4 kernels (one ``flow`` kernel per builtin Hamiltonian, one
``verify`` kernel per builtin section), one list of lines each.  A change
that alters any of them shows up here as a byte difference, and in the
files' diff once they are rewritten.  To rewrite both files from the current
sources, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from affmech import hj
from affmech.cli import main
from affmech.dynamics import compile_rk4, hamilton_stage, reduced_stage
from affmech.models import by_name

GOLDEN = Path(__file__).with_name("golden_cli.json")
KERNELS = Path(__file__).with_name("golden_kernels.json")
DIR = "{dir}"  # stands for a scratch directory holding MODEL_FILES

MODEL_FILES = {
    # H is undefined for q1 <= 0, and q1 falls through 0 from q1 = 0.5, p1 = -2
    "log_h.model": """
[space]
m = 2
n = 1
vars = t, q1, p1

[anchor]
rho0 = 1, 0
rhoV = 0, 1

[hamiltonian]
H = p1^2/2 + log(q1)
""",
    # rhoV overflows for x1 > 1.8, where dH/dy1 = 0 multiplies it: inf*0 is
    # NaN, so the flow from x1 = 1.5 aborts after t = 0.25 (the next step reads x1 = 1.8)
    "inf_anchor.model": """
[space]
m = 1
n = 1
vars = x1, y1

[anchor]
rho0 = 1
rhoV = x1*1e308

[hamiltonian]
H = y1^2/2
""",
    # the Jacobi residual of the sin(t) bracket is sampled, and each chart is
    # sampled at its own points: the prolongation's maximum differs from the bidual's
    "so3_sin.model": """
[space]
m = 1
n = 3
vars = t, p1, p2, p3

[structure]
1,2,3 = 1
2,3,1 = 1
3,1,2 = 1
1,2,2 = sin(t)

[hamiltonian]
H = p1^2/2 + p2^2/2 + p3^2/2
""",
    # [rho(e0), rho(e1)] = [d/dt, t d/dq1] = d/dq1, while [e0, e1] = 0
    "anchor_compat.model": """
[space]
m = 2
n = 1
vars = t, q1, p1

[anchor]
rho0 = 1, 0
rhoV = 0, t

[hamiltonian]
H = p1^2/2
""",
    # only the anchor check fails; the Jacobi residual 1e-12*sin(t) is sampled
    # and below tolerance, so no chart names a worst Jacobi component
    "tiny_jacobi.model": """
[space]
m = 2
n = 3
vars = t, s, y1, y2, y3

[anchor]
rho0 = 1, 0
rhoV = 0, t; 0, 0; 0, 0

[structure]
1,2,3 = 1
2,3,1 = 1
3,1,2 = 1
1,2,2 = 1e-12*sin(t)
""",
    # an anchor that reads the fiber coordinate p1 is an input error
    "fiber_anchor.model": """
[space]
m = 1
n = 1
vars = x1, p1

[anchor]
rho0 = 1
rhoV = p1

[hamiltonian]
H = p1^2/2
""",
    # X = (1, t*t, x*K*1e-300) with K*x overflowing first at the last state's
    # first stage: the kernel leaves that state to the interpreter, whose fiber
    # residual is NaN, so condition (i) fails
    "last_state_overflow.model": """
[space]
m = 3
n = 1
vars = t, x, z, y

[anchor]
rho0 = 1, t*t, 0
rhoV = 0, 0, x*1.0037283370223616e+308*1e-300

[hamiltonian]
H = y^2/2

[sections]
one.alphaV = 1
""",
    # a section component that reads the fiber coordinate p1 is an input
    # error, reported at the component's line
    "fiber_section.model": """
[space]
m = 1
n = 1
vars = x1, p1

[hamiltonian]
H = p1^2/2

[sections]
one.alpha0 = x1
one.alphaV = p1
""",
    # a Hamiltonian that divides by a literal zero is an input error at its line
    "zero_h.model": """
[space]
m = 1
n = 1
vars = x1, p1

[hamiltonian]
H = p1^2/0
""",
    # the antisymmetry sum sqrt(t) - sqrt(t) is sampled, and t < 0 is in the box
    "sqrt_structure.model": """
[space]
m = 2
n = 2
vars = t, q1, p1, p2

[structure]
1,2,1 = sqrt(t)

[hamiltonian]
H = p1^2/2
""",
}

BUILTINS = ["trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3", "perturbed-so3"]
SECTIONS = [(name, sec) for name in BUILTINS for sec in by_name(name).sections]
FLOWS = {
    "trivial:3": ("0,0.1,-0.2,0.3", "1,-0.5,0.25"),
    "oscillator": ("0.2,0.5", "-0.3"),
    "linear:tangent3": ("0.1,0.2,0.3", "1,0,-1"),
    "rigid:1,2,3": ("0", "1,0.5,-0.25"),
}
SHORT = ["--t-end", "1", "--step", "0.05"]

CORPUS = (
    [["validate", name] for name in BUILTINS]
    + [["hj", name, "--alpha", sec] for name, sec in SECTIONS]
    + [["verify", name, "--alpha", sec, "--points", "2"] for name, sec in SECTIONS]
    + [["flow", name, "--x0", x0, "--y0", y0, *SHORT] for name, (x0, y0) in FLOWS.items()]
    + [
        # per-stage steps: the start point inside, then outside, the domain of alphaV
        ["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,0.5"],
        ["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,-0.3"],
        # an error at the second point follows the first point's line
        ["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,2;0.5,-0.3"],
        ["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", "0.5,2;0.5,0.5"],
        ["verify", f"{DIR}/last_state_overflow.model", "--alpha", "one", "--x0-set", "1,1,0",
         "--horizon", "0.5", "--step", "0.25"],
        ["flow", f"{DIR}/log_h.model", "--x0", "0,0.5", "--y0", "-2", "--t-end", "1", "--step", "0.01"],
        ["flow", f"{DIR}/inf_anchor.model", "--x0", "1.5", "--y0", "0", "--t-end", "0.5", "--step", "0.05"],
        # the divisor 2*I1 of H overflows to inf
        ["flow", "rigid:1e308,1,1", "--x0", "0", "--y0", "1,0.5,-0.25", "--t-end", "0.1", "--step", "0.05"],
        # sampled checks: errors at a sampled point, and a run over several chunks of points
        ["hj", "oscillator", "--alpha", "alphaV=log(q1)"],
        ["hj", "trivial:1", "--alpha", "alpha0=t;alphaV=exp(1000*q1)"],
        ["hj", "trivial:1", "--alpha", "alpha0=1/0;alphaV=q1"],
        # every value of f is finite, and their sum overflows
        ["hj", "trivial:1", "--alpha", "alpha0=1e308;alphaV=0", "--samples", "12"],
        ["hj", "trivial:3", "--alpha", "w_free", "--samples", "1000"],
        ["validate", f"{DIR}/so3_sin.model"],
        ["validate", f"{DIR}/anchor_compat.model"],
        ["validate", f"{DIR}/tiny_jacobi.model"],
        # input errors
        ["validate", f"{DIR}/sqrt_structure.model"],
        ["validate", f"{DIR}/fiber_anchor.model"],
        ["flow", "trivial:1", "--x0", "0,0", "--y0", "1", *SHORT, "--out", f"{DIR}/missing/x.csv"],
        ["flow", "trivial:1", "--x0", "0,0", "--y0", "1", *SHORT, "--out", DIR],
        ["verify", "trivial:1", "--alpha", "w_free;alphaV=1"],
        # a section that reads a variable other than the base variables
        ["verify", "trivial:1", "--alpha", "alpha0=z;alphaV=q1", "--points", "1"],
        ["verify", "trivial:1", "--alpha", "alpha0=p1*0;alphaV=q1", "--points", "1"],
        ["verify", f"{DIR}/fiber_section.model", "--alpha", "one", "--points", "1"],
        ["hj", f"{DIR}/zero_h.model", "--alpha", "alphaV=x1"],
        ["flow", f"{DIR}/zero_h.model", "--x0", "0", "--y0", "1", "--t-end", "0.01"],
        # alpha0 is undefined at every point: its derivatives fold the zero divisor away
        ["verify", "trivial:1", "--alpha", "alpha0=t/(q1-q1);alphaV=q1", "--points", "1"],
        ["hj", "trivial:1", "--alpha", "alphaV=q1;alpha0=t;alphaV=t"],
        ["hj", "trivial:2", "--alpha", "w_free", "--box", "q1=0,1", "--box", "q1=5,6"],
        ["hj", "trivial:1", "--alpha", "nosuch"],
        ["verify", "trivial:1", "--alpha", "nosuch"],
    ]
)


def key(argv) -> str:
    return " ".join(argv)


def run(argv, directory: Path) -> dict:
    """Exit code, stdout and stderr of one command, with the directory written as {dir}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace(DIR, str(directory)) for arg in argv])
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(directory), DIR),
        "stderr": err.getvalue().replace(str(directory), DIR),
    }


def write_models(directory: Path) -> None:
    for name, text in MODEL_FILES.items():
        (directory / name).write_text(text)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_models(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CORPUS, ids=key)
def test_cli_output_equals_the_golden_output(argv, model_dir, golden):
    assert run(argv, model_dir) == golden[key(argv)]


def test_cli_output_in_one_process_equals_the_golden_output(model_dir, golden):
    """The corpus forward, then reversed, in one process.

    The reversed pass runs after every error path of the corpus ran once, on
    the parser the process keeps; no call may leave state that changes a
    later output.
    """
    for argv in CORPUS + CORPUS[::-1]:
        assert run(argv, model_dir) == golden[key(argv)], key(argv)


def test_the_golden_file_holds_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(map(key, CORPUS))


def builtin_kernels():
    """The RK4 kernel of every builtin ``flow`` and ``verify --alpha SECTION`` run, by name."""
    for name in BUILTINS + ["trivial:1"]:
        bundle = by_name(name)
        h = bundle.hamiltonian
        yield f"flow {name}", compile_rk4(*hamilton_stage(h))
        for sec, alpha in bundle.sections.items():
            stage = reduced_stage(alpha, h)
            yield f"verify {name} {sec}", compile_rk4(*stage, hj._theorem_check(alpha, stage))


def kernel_sources() -> dict:
    return {what: kernel.source.splitlines() for what, kernel in builtin_kernels()}


def test_builtin_kernel_sources_equal_the_golden_sources():
    assert kernel_sources() == json.loads(KERNELS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_models(directory)
        outputs = {key(argv): run(argv, directory) for argv in CORPUS}
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} commands to {GOLDEN}", file=sys.stderr)
    sources = kernel_sources()
    KERNELS.write_text(json.dumps(sources, indent=1) + "\n")
    print(f"wrote {len(sources)} kernel sources to {KERNELS}", file=sys.stderr)
