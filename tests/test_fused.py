"""The RK4 kernels and the in-pass theorem check against the per-stage path.

The per-stage path is what ``integrate_field`` does with the field alone,
and what ``verify_theorem`` does with no kernel: the kernels must give the
same floats, aborts and messages.
"""

import ast
import contextlib
import io
import math
import random
import re
import sys

import pytest

from affmech import dynamics, hj
from affmech import expr as ex
from affmech.affgebroid import AffgebroidChart, CoSection, HamiltonianSection, hamilton_field
from affmech.cli import main
from affmech.dynamics import (
    compile_rk4,
    hamilton_stage,
    integrate,
    integrate_field,
    interpret,
    reduced_stage,
)
from affmech.hj import IntegrationFailure
from affmech.modelfile import parse_model_text
from affmech.models import by_name

from helpers import compile_exprs, integrate_reduced, verify_one
from test_golden import MODEL_FILES, builtin_kernels

BUILTINS = ["trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3", "perturbed-so3"]
SECTIONS = [(name, sec) for name in BUILTINS for sec in by_name(name).sections]


@pytest.fixture
def per_stage(monkeypatch):
    """Switch the RK4 kernels off: every step and every state's residuals run per stage."""

    def apply():
        real = dynamics.integrate_field

        def alone(f, y0, t0, t_end, step, kernel=None):
            return real(f, y0, t0, t_end, step)

        monkeypatch.setattr(dynamics, "integrate_field", alone)
        monkeypatch.setattr(hj, "integrate_field", alone)

    return apply


@pytest.fixture
def count_rhs(monkeypatch):
    """Count the calls of the per-stage fields, the ones ``dynamics.interpret`` returns.

    Both ``dynamics`` and ``hj`` (the reduced field and the per-state check of
    ``verify_theorem``) get them through the spy.
    """
    calls = []
    real = dynamics.interpret

    def spy(*stage):
        field = real(*stage)
        return lambda s: calls.append(1) or field(s)

    monkeypatch.setattr(dynamics, "interpret", spy)
    monkeypatch.setattr(hj, "interpret", spy)
    return calls


def same(a, b):
    """Equal trajectories; the routes evaluate the same expressions, so in ``repr`` too."""
    assert repr((a.times, a.states, a.ok, a.error)) == repr((b.times, b.states, b.ok, b.error))


def flow(h, state0, t_end, step):
    """The per-stage flow of h: ``integrate_field`` with the interpreted field alone."""
    return integrate_field(interpret(*hamilton_stage(h)), state0, 0.0, t_end, step)


def reduced_flow(alpha, h, x0, t_end, step):
    """The per-stage reduced flow: ``integrate_field`` with the interpreted field alone."""
    return integrate_field(interpret(*reduced_stage(alpha, h)), x0, 0.0, t_end, step)


@pytest.mark.parametrize("name", BUILTINS)
def test_fused_flow_equals_the_per_stage_flow(name, count_rhs):
    h = by_name(name).hamiltonian
    rng = random.Random(name)
    for _ in range(3):
        state0 = [rng.uniform(-1.0, 1.0) for _ in h.chart.all_vars()]
        fused = integrate(h, state0, 0.0, 0.5, 1e-2)
        assert not count_rhs  # every step was fused
        same(fused, flow(h, state0, 0.5, 1e-2))
        count_rhs.clear()


@pytest.mark.parametrize("name,sec", SECTIONS)
def test_fused_reduced_flow_equals_the_per_stage_flow(name, sec, count_rhs):
    bundle = by_name(name)
    h, alpha = bundle.hamiltonian, bundle.sections[sec]
    rng = random.Random(sec)
    x0 = [rng.uniform(-0.5, 0.5) for _ in h.chart.base_vars]
    fused = integrate_reduced(alpha, h, x0, 0.0, 0.5, 1e-2)
    assert not count_rhs
    same(fused, reduced_flow(alpha, h, x0, 0.5, 1e-2))


def test_fallback_steps_equal_the_per_stage_flow():
    # log(t) in H: the compiled field raises at t < 0, where the interpreter
    # aborts with its message
    chart = by_name("oscillator").chart
    h = HamiltonianSection(chart, "p1^2/2 + log(t)")
    for state0 in ([-1.0, 0.0, 1.0], [0.5, 0.0, 1.0], [-0.004, 0.0, 1.0]):
        for t_end in (1.0, 0.003):
            got = integrate(h, state0, 0.0, t_end, 1e-2)
            same(got, flow(h, state0, t_end, 1e-2))
    # inf*0 in both fields at the first state: both routes abort at the first step
    chart = AffgebroidChart(["x1"], ["y1"], [1.0], [["x1*1e308"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    got = integrate(h, [10.0, 0.0], 0.0, 0.1, 1e-2)
    assert (got.ok, got.error, got.states) == (False, "non-finite state at t=0.01", [[10.0, 0.0]])
    same(got, flow(h, [10.0, 0.0], 0.1, 1e-2))


def test_a_non_finite_state_aborts_as_on_the_per_stage_path():
    # dx/dt = x^2 from x = 1e100: the second stage overflows to inf
    chart = AffgebroidChart(["x1"], ["y1"], ["x1*x1"], [["0"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    state0 = [1e100, 0.0]
    got = integrate(h, state0, 0.0, 1.0, 0.1)
    assert not got.ok and got.error.startswith("non-finite state at t=")
    same(got, flow(h, state0, 1.0, 0.1))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("x0,code", [("0.5,0.5", 1), ("0.5,-0.3", 2)])
def test_verify_leaving_the_domain_gives_the_per_stage_output(x0, code, per_stage):
    argv = ["verify", "oscillator", "--alpha", "alphaV=log(q1)", "--x0-set", x0]
    fused = run(argv)
    assert fused[0] == code
    per_stage()
    assert run(argv) == fused


@pytest.mark.parametrize("name,sec", SECTIONS)
def test_theorem_report_equals_the_per_state_residuals(name, sec, per_stage):
    bundle = by_name(name)
    h, alpha = bundle.hamiltonian, bundle.sections[sec]
    rng = random.Random(sec)
    x0 = [rng.uniform(-0.5, 0.5) for _ in h.chart.base_vars]
    try:
        fused = verify_one(alpha, h, x0, 0.3, 1e-2)
    except hj.NotACocycleError:
        return
    per_stage()
    assert verify_one(alpha, h, x0, 0.3, 1e-2) == fused


def test_verify_cli_output_equals_the_per_stage_output(per_stage):
    commands = [
        ["verify", name, "--alpha", sec, "--points", "2", "--horizon", "0.2", "--step", "0.01"]
        for name, sec in SECTIONS
    ]
    fused = [run(argv) for argv in commands]
    per_stage()
    assert [run(argv) for argv in commands] == fused


def test_a_reduced_field_off_the_hamilton_field_fails_condition_i(monkeypatch, count_rhs):
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    assert verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2).holds_along_trajectory

    def skewed(a, hh):
        exprs, variables, bound, extras = reduced_stage(a, hh)
        # the reduced field's t row, off by 1e-6
        return [ex.BinOp("+", exprs[0], ex.Lit(1e-6))] + exprs[1:], variables, bound, extras

    monkeypatch.setattr(hj, "reduced_stage", skewed)
    report = verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2)
    # the fiber residual reads the skew times d alphaV/dt = -q1/sin(t)^2, about -50 here
    assert report.trajectory_max > 10 * hj.TRAJECTORY_TOL
    assert not report.holds_along_trajectory and report.holds_pointwise
    assert not count_rhs  # no state was measured per stage


def outcome(fn):
    """A report, or the type, message and point of the error it raises (None for a failed flow)."""
    try:
        return fn()
    except ex.EvalError as err:
        return type(err), str(err), err.point
    except IntegrationFailure as err:
        return type(err), str(err), None


def inf_times_zero_case():
    # x1*1e308 overflows for x1 > 1.8, where dH/dy = 0 multiplies it: from
    # there on the stage is NaN on both routes, and the flow aborts
    chart = AffgebroidChart(["x1"], ["y1"], [1.0], [["x1*1e308"]], [[0.0]], [[[0.0]]])
    return CoSection(chart, "0", ["0"]), HamiltonianSection(chart, "y1^2/2"), [1.0], 2.0, 0.1


def abs_t_case(horizon):
    # t runs -0.5, -0.25, 0.0, ... exactly; d sqrt(t^2)/dt divides by 0 at t = 0,
    # where alphaV and the reduced field are still defined
    bundle = by_name("oscillator")
    alpha = CoSection(bundle.chart, "q1*t/sqrt(t^2)", ["sqrt(t^2)"])
    return alpha, bundle.hamiltonian, [-0.5, 0.3], horizon, 0.25


@pytest.mark.parametrize("case, error", [
    (inf_times_zero_case, IntegrationFailure),
    (lambda: abs_t_case(1.0), ex.DomainError),  # the state t = 0 is in the middle
    (lambda: abs_t_case(0.5), ex.DomainError),  # the state t = 0 is the last one
], ids=["inf_times_zero", "abs_t_middle", "abs_t_last"])
def test_leaving_the_stage_domain_partway_gives_the_per_stage_result(case, error, per_stage):
    fused = outcome(lambda: verify_one(*case()))
    per_stage()
    assert outcome(lambda: verify_one(*case())) == fused
    assert fused[:1] == (error,)
    if error is ex.DomainError:  # with the state it happened at
        assert fused[2]["t"] == 0.0
    else:
        assert fused[1:] == ("reduced flow aborted: non-finite state at t=0.8", None)


def skew_check_at(monkeypatch, state):
    """Add 1e-9 to the check's first fiber residual at one state.

    The bump 1e-9*exp(-((t - t_k)*1e6)^2) is 1e-9 at t = t_k and exactly 0 at
    every other state of the grid.
    """
    real = hj._theorem_check

    def skewed(*args):
        fiber = real(*args)
        bump = ex.parse(f"1e-9*exp(-((t - ({state[0]!r}))*1000000)^2)")
        return [ex.BinOp("+", fiber[0], bump)] + fiber[1:]

    monkeypatch.setattr(hj, "_theorem_check", skewed)


@pytest.mark.parametrize("where", [0, 5, -1])
def test_the_check_reads_the_fiber_residual_at_every_state(where, monkeypatch, count_rhs):
    # state 0 and 5 are measured inside the integration loop, the last state as it ends
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    assert verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2).trajectory_max < 1e-14
    state = integrate_reduced(alpha, h, [0.1, 0.5], 0.0, 0.1, 1e-2).states[where]
    skew_check_at(monkeypatch, state)
    report = verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2)
    assert report.trajectory_max == pytest.approx(1e-9, abs=1e-14)
    assert not count_rhs  # no state was measured per stage


def test_a_chart_without_fiber_coordinates_has_an_empty_check_that_the_kernel_counts(count_rhs):
    # n = 0: no residual to measure, and the kernel still takes every step
    chart = AffgebroidChart(["x1"], [], [1.0], [], [], [])
    alpha, h = CoSection(chart, "0", []), HamiltonianSection(chart, "0")
    report = verify_one(alpha, h, [0.1], 0.1, 1e-2)
    assert (report.trajectory_max, len(report.trajectory)) == (0.0, 11)
    assert not count_rhs


def test_the_pass_measures_each_state_once(monkeypatch, count_rhs):
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    counts, real = [], dynamics.compile_rk4

    def spy(*args):
        kernel = real(*args)

        def run(times, states, t0, t_end, step, acc):
            kernel(times, states, t0, t_end, step, acc)
            counts.append(acc[-1])

        return run

    monkeypatch.setattr(dynamics, "compile_rk4", spy)
    report = verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2)
    assert counts == [len(report.trajectory.states)] == [11]
    assert not count_rhs  # no state was measured per stage


def test_the_reduced_stage_is_the_base_rows_with_the_fiber_bound_to_alpha_v():
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    exprs, variables, bound, extras = reduced_stage(alpha, h)
    m = h.chart.m
    assert (len(exprs), variables) == (m, h.chart.base_vars)
    assert bound == dict(zip(h.chart.fiber_vars, alpha.alphaV))
    x = [0.3, 0.7]
    y = [ex.evaluate(c, dict(zip(variables, x))) for c in alpha.alphaV]
    rows = hamilton_field(h)
    want = compile_exprs(rows, h.chart.all_vars())(x + y)[:m]
    assert compile_exprs(exprs, variables, bound)(x) == want
    assert extras == rows[m:] + [h.H, *h.partials]


def test_compile_with_bound_names_equals_evaluate():
    exprs = [ex.parse(src) for src in ("p*p + x", "-p - x", "q^2 + sin(p*q)", "x/q", "p")]
    for bound in (
        {"p": ex.parse("x^2 - 1"), "q": ex.parse("exp(x)")},
        {"p": ex.Lit(-1.0), "q": ex.Neg(ex.Lit(-0.0))},
        {"p": ex.Lit(-0.0), "q": ex.Lit(math.inf)},
    ):
        fn = compile_exprs(exprs, ["x"], bound)
        for x in (-0.5, 0.0, -0.0, 0.25, 3.0):
            env = {"x": x}
            env.update({name: ex.evaluate(e, {"x": x}) for name, e in bound.items()})
            try:
                want = [ex.evaluate(e, env) for e in exprs]
            except ex.EvalError:
                with pytest.raises((ArithmeticError, ValueError)):
                    fn([x])
                continue
            got = fn([x])
            for a, b in zip(got, want):
                assert a == b or (math.isnan(a) and math.isnan(b)), (bound, x)
                assert math.copysign(1.0, a) == math.copysign(1.0, b), (bound, x)


def test_bound_expressions_see_only_the_variables():
    with pytest.raises(ex.UnboundVariableError):
        compile_exprs([ex.parse("q")], ["x"], {"p": ex.parse("x"), "q": ex.parse("p")})


# ------------------------------------- the guard in place of H and its partials

B = dynamics.GUARD_BOUND


def flow_argv(y0, t_end="0.05"):
    return ["flow", "trivial:1", "--x0", "0,0", f"--y0={y0}", "--t-end", t_end, "--step", "0.01"]


def test_a_state_past_every_bound_aborts_as_the_interpreter_does():
    # p1^2 overflows in the interpreter's math.pow at the first stage
    error = "error: flow aborted: domain violation at t=0.0: overflow in power in 'p1^2'\n"
    assert run(flow_argv("1e200", "1")) == (1, "t,x1,x2,y1\n0.0,0.0,0.0,1e+200\n# ABORTED\n", error)
    h = by_name("trivial:1").hamiltonian
    fused = integrate(h, [0.0, 0.0, 1e200], 0.0, 1.0, 1e-2)
    same(fused, flow(h, [0.0, 0.0, 1e200], 1.0, 1e-2))
    assert fused.error == "domain violation at t=0.0: overflow in power in 'p1^2'"


@pytest.mark.parametrize("y0", [
    math.nextafter(B, 0.0), B, math.nextafter(B, math.inf), -B,
    1e149, 1e150, 1e151, 1e152, 1e153, 1e154, 1.34e154, 1.35e154,
])
def test_flows_around_the_bound_give_the_per_stage_output(y0, per_stage):
    fused = run(flow_argv(repr(y0)))
    per_stage()
    assert run(flow_argv(repr(y0))) == fused


@pytest.mark.parametrize("y0, per_stage_steps", [(math.nextafter(B, 0.0), 0), (B, 5), (-B, 5)])
def test_the_guard_leaves_exactly_the_states_past_the_bound(y0, per_stage_steps, count_rhs):
    h = by_name("trivial:1").hamiltonian
    integrate(h, [0.0, 0.0, y0], 0.0, 0.05, 1e-2)
    assert len(count_rhs) == 4 * per_stage_steps


def test_a_hamiltonian_of_high_degree_stays_in_the_stage(count_rhs):
    # p1^20 is not bounded below SAFE_MAGNITUDE for |p1| < B: the stage computes H and
    # dH/dp1, and needs no guard
    h = HamiltonianSection(by_name("trivial:1").chart, "p1^20/2")
    source = compile_rk4(*hamilton_stage(h)).source
    assert "_pow(v2, 20.0)" in source and "< v2 <" not in source
    for p1 in (1.0, 65536.0):
        fused = integrate(h, [0.0, 0.0, p1], 0.0, 0.05, 1e-2)
        assert not count_rhs  # the kernel took every step
        same(fused, flow(h, [0.0, 0.0, p1], 0.05, 1e-2))


@pytest.mark.parametrize("alpha_v, ok", [("1e18*t", True), ("1e160*t", False)])
def test_a_reduced_flow_past_the_bound_equals_the_per_stage_flow(alpha_v, ok, count_rhs):
    # alphaV passes B at t = 18.4 (and p1^2 overflows from t = 1.4e-6 on the second)
    bundle = by_name("trivial:1")
    h, alpha = bundle.hamiltonian, CoSection(bundle.chart, "0", [alpha_v])
    fused = integrate_reduced(alpha, h, [0.0, 0.5], 0.0, 30.0, 1.0)
    assert count_rhs  # the kernel left the steps past B to the per-stage path
    same(fused, reduced_flow(alpha, h, [0.0, 0.5], 30.0, 1.0))
    assert fused.ok is ok and len(fused) == (31 if ok else 1)
    if not ok:
        assert "overflow in power in 'p1^2'" in fused.error
    count_rhs.clear()
    integrate_reduced(alpha, h, [0.0, 0.5], 0.0, 18.0, 1.0)
    assert bool(count_rhs) is not ok  # below B, the kernel takes every step


def test_a_hamiltonian_that_is_no_polynomial_stays_in_the_stage():
    h = parse_model_text(MODEL_FILES["log_h.model"]).hamiltonian
    assert "_log(v1)" in compile_rk4(*hamilton_stage(h)).source


@pytest.mark.parametrize("name", BUILTINS + ["trivial:1"])
def test_no_builtin_flow_stage_computes_a_power(name):
    # every builtin H is a polynomial, and its p^2 terms are the only powers
    h = by_name(name).hamiltonian
    assert "_pow" not in compile_rk4(*hamilton_stage(h)).source.split("def rk4")[1]


def dead_temporaries(source):
    """The ``t`` temporaries of a kernel that only a raise-only ``if`` reads.

    Such an ``if`` (the non-finite checks and the guard) decides whether the
    kernel gives the step up; a value that nothing else reads feeds neither
    the next state nor a check's maxima.
    """
    tree = ast.parse(source)
    tests = {
        id(name)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)
        for name in ast.walk(node.test)
    }
    temps = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and re.fullmatch(r"t\d+", n.id)]
    stored = {n.id for n in temps if isinstance(n.ctx, ast.Store)}
    return stored - {n.id for n in temps if isinstance(n.ctx, ast.Load) and id(n) not in tests}


def test_every_temporary_of_a_builtin_kernel_is_used():
    kernels = dict(builtin_kernels())
    assert len(kernels) == 22  # 6 flows and 16 sections
    for what, kernel in kernels.items():
        assert not dead_temporaries(kernel.source), (what, kernel.source)
    # a value computed only for the non-finite check is dead
    extra = compile_rk4([ex.parse("x")], ["x"], None, [ex.parse("log(2 + x^2)")])
    assert dead_temporaries(extra.source) == {"t2"}  # the log; x^2 and 2 + x^2 feed it


def test_the_check_reads_the_stage_s_subexpressions():
    # the fiber residual of w_osc reads sin(t) and cos(t), which the stage computes
    source = dict(builtin_kernels())["verify oscillator w_osc"].source
    assert source.count("_sin(") == source.count("_cos(") == 1, source


ALL_SECTIONS = SECTIONS + [("trivial:1", sec) for sec in by_name("trivial:1").sections]


@pytest.mark.parametrize("name,sec", ALL_SECTIONS)
def test_the_per_state_re_measure_equals_the_kernel_maximum_bit_for_bit(
    name, sec, per_stage, count_rhs
):
    bundle = by_name(name)
    h, alpha = bundle.hamiltonian, bundle.sections[sec]
    x0 = [random.Random(sec).uniform(-0.5, 0.5) for _ in h.chart.base_vars]
    try:
        fused = verify_one(alpha, h, x0, 0.3, 1e-2).trajectory_max
    except hj.NotACocycleError:  # verify measures no state of a section that is no cocycle
        per_stage()
        with pytest.raises(hj.NotACocycleError):
            verify_one(alpha, h, x0, 0.3, 1e-2)
        return
    assert not count_rhs  # the kernel measured every state
    per_stage()
    assert verify_one(alpha, h, x0, 0.3, 1e-2).trajectory_max.hex() == fused.hex()
    assert count_rhs  # every state was measured again per stage



# ------------------------------------------ a stage value that stops being finite
#
# The kernel tests the new state, not each stage: a stage value that is inf
# or NaN reaches the state with a positive weight.  Over (t, x, z) with
# t' = 1 and x' = t*t, x grows strictly from one stage input to the next;
# z' is x*K*1e-300 (inf once x*K overflows) or x*K - x*K (NaN there).


def first_not_finite(field, y0):
    """The index of the first call of the per-stage path where a value of ``field`` is not finite."""
    calls = []
    integrate_field(lambda s: calls.append(all(map(math.isfinite, field(s)))) or field(s),
                    y0, 0.0, 1.0, 0.25)
    return calls.index(False) if False in calls else None


def overflowing_from(stage):
    """K and the call index from which x*K overflows: the given stage of the third step."""
    xs, field = [], interpret([ex.Lit(1.0), ex.parse("t*t"), ex.Lit(0.0)], ["t", "x", "z"])
    integrate_field(lambda s: xs.append(s[1]) or field(s), [1.0, 1.0, 0.0], 0.0, 1.0, 0.25)
    i = 8 + stage
    assert xs[i - 1] < xs[i]
    return sys.float_info.max / ((xs[i - 1] + xs[i]) / 2), i


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_a_flow_whose_stage_value_stops_being_finite_aborts_as_per_stage(stage, value):
    K, i = overflowing_from(stage)
    xk = ex.parse(f"x*{K!r}")
    rate = ex.BinOp("*", xk, ex.Lit(1e-300)) if value == "inf" else ex.BinOp("-", xk, xk)
    exprs, variables, y0 = [ex.Lit(1.0), ex.parse("t*t"), rate], ["t", "x", "z"], [1.0, 1.0, 0.0]
    field = interpret(exprs, variables)
    assert first_not_finite(field, y0) == i
    got = integrate_field(field, y0, 0.0, 1.0, 0.25, compile_rk4(exprs, variables))
    same(got, integrate_field(field, y0, 0.0, 1.0, 0.25))
    assert (got.ok, got.error, len(got)) == (False, "non-finite state at t=0.75", 3)


def blowup_case(K, alpha_v):
    """Base (t, x, z), fiber y, H = y^2/2: X = (1, t*t, alphaV*x*K*1e-300)."""
    chart = AffgebroidChart(["t", "x", "z"], ["y"], ["1", "t*t", "0"],
                            [["0", "0", f"x*{K!r}*1e-300"]], [[0.0]], [[[0.0]]])
    return CoSection(chart, "0", [alpha_v]), HamiltonianSection(chart, "y^2/2")


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha_v", ["1", "0"], ids=["inf", "nan"])  # 0*inf is NaN
def test_a_verify_whose_stage_value_stops_being_finite_gives_the_per_stage_result(
    stage, alpha_v, per_stage
):
    K, i = overflowing_from(stage)
    alpha, h = blowup_case(K, alpha_v)
    assert first_not_finite(interpret(*reduced_stage(alpha, h)), [1.0, 1.0, 0.0]) == i
    fused = outcome(lambda: verify_one(alpha, h, [1.0, 1.0, 0.0], 1.0, 0.25))
    assert fused == (IntegrationFailure, "reduced flow aborted: non-finite state at t=0.75", None)
    per_stage()
    assert outcome(lambda: verify_one(alpha, h, [1.0, 1.0, 0.0], 1.0, 0.25)) == fused


@pytest.mark.parametrize("alpha_v", ["1", "0"], ids=["inf", "nan"])
def test_a_verify_whose_last_state_has_a_stage_value_that_is_not_finite(alpha_v, per_stage):
    # the horizon ends at the third state, whose first stage is the first not finite
    alpha, h = blowup_case(overflowing_from(0)[0], alpha_v)
    fused = outcome(lambda: verify_one(alpha, h, [1.0, 1.0, 0.0], 0.5, 0.25))
    assert math.isnan(fused.trajectory_max) and not fused.holds_along_trajectory
    assert len(fused.trajectory) == 3
    per_stage()
    # repr, not ==: a NaN field never equals itself
    assert repr(outcome(lambda: verify_one(alpha, h, [1.0, 1.0, 0.0], 0.5, 0.25))) == repr(fused)


def test_a_value_past_the_field_that_is_not_finite_leaves_the_step_to_the_kernel(count_rhs):
    # alphaV is inf from x = 1.5 on; with H = 0 no field row reads it
    chart = AffgebroidChart(["t", "x"], ["y"], ["1", "t*t"], [["0", "0"]], [[0.0]], [[[0.0]]])
    alpha, h = CoSection(chart, "0", ["x*1.2e308"]), HamiltonianSection(chart, "0")
    fused = integrate_reduced(alpha, h, [1.0, 1.0], 0.0, 1.0, 0.25)
    assert not count_rhs and fused.ok and len(fused) == 5
    same(fused, reduced_flow(alpha, h, [1.0, 1.0], 1.0, 0.25))


def test_an_extra_that_overflows_without_raising_leaves_the_step_to_the_kernel(count_rhs):
    # H is inf past t = 1.341e4, and evaluating it raises nothing: the interpreter takes
    # the steps, so the kernel takes them too, with the same floats
    h = HamiltonianSection(by_name("trivial:1").chart, "p1^2/2 + 1e300*t^2")
    state0 = [1.4e4, 0.0, 1.0]
    assert math.isinf(ex.evaluate(h.H, dict(zip(h.chart.all_vars(), state0))))
    fused = integrate(h, state0, 0.0, 0.5, 1e-3)
    assert not count_rhs and fused.ok and len(fused) == 501
    per_stage = integrate_field(interpret(*hamilton_stage(h)), state0, 0.0, 0.5, 1e-3)
    assert list(map(float.hex, fused.times)) == list(map(float.hex, per_stage.times))
    assert [list(map(float.hex, s)) for s in fused.states] == [
        list(map(float.hex, s)) for s in per_stage.states
    ]


@pytest.mark.parametrize("where", [0, 5])
def test_a_check_value_that_is_nan_at_one_state_reads_as_nan(where, monkeypatch):
    # (1e300*bump)*1e300 is inf at t_k and 0 at every other state; inf - inf is NaN
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    state = integrate_reduced(alpha, h, [0.1, 0.5], 0.0, 0.1, 1e-2).states[where]
    bump = ex.parse(f"exp(-((t - ({state[0]!r}))*1000000)^2)")
    big = ex.BinOp("*", ex.BinOp("*", ex.Lit(1e300), bump), ex.Lit(1e300))
    real = hj._theorem_check

    def skewed(*args):
        fiber = real(*args)
        return [ex.BinOp("+", fiber[0], ex.BinOp("-", big, big))] + fiber[1:]

    monkeypatch.setattr(hj, "_theorem_check", skewed)
    assert math.isnan(verify_one(alpha, h, [0.1, 0.5], 0.1, 1e-2).trajectory_max)


@pytest.mark.parametrize("exprs", [["y", "x"], ["x", "x"], ["y", "y"], ["2*y", "x"]])
def test_a_field_value_that_is_a_stage_input_is_read_before_the_step_sets_it(exprs):
    # x' and y' are stage inputs themselves: the kernel must read them all
    # before it sets the next inputs
    exprs, variables, calls = [ex.parse(e) for e in exprs], ["x", "y"], []
    field = interpret(exprs, variables)
    got = integrate_field(lambda s: calls.append(1) or field(s), [1.0, 0.5], 0.0, 1.0, 0.1,
                          compile_rk4(exprs, variables))
    assert not calls  # the kernel took every step
    same(got, integrate_field(field, [1.0, 0.5], 0.0, 1.0, 0.1))
