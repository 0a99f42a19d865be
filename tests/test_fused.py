"""The RK4 kernels and the in-pass theorem check against the per-stage path.

The per-stage path is what ``integrate_field`` does with the field alone,
and what ``verify_theorem`` does with no kernel: the kernels must give the
same floats, aborts and messages.
"""

import contextlib
import io
import math
import random

import pytest

from affmech import dynamics, hj
from affmech import expr as ex
from affmech.affgebroid import AffgebroidChart, CoSection, HamiltonianSection
from affmech.cli import main
from affmech.dynamics import (
    hamilton_rhs,
    integrate,
    integrate_field,
    integrate_reduced,
    reduced_field,
    reduced_stage,
)
from affmech.hj import IntegrationFailure, verify_theorem
from affmech.models import by_name

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
    """Count the calls of the per-stage field, ``hamilton_rhs``."""
    calls = []
    real = dynamics.hamilton_rhs
    monkeypatch.setattr(dynamics, "hamilton_rhs", lambda h, s: calls.append(1) or real(h, s))
    return calls


def same(a, b):
    assert (a.times, a.states, a.ok, a.error) == (b.times, b.states, b.ok, b.error)


@pytest.mark.parametrize("name", BUILTINS)
def test_fused_flow_equals_the_per_stage_flow(name, count_rhs):
    h = by_name(name).hamiltonian
    rng = random.Random(name)
    for _ in range(3):
        state0 = [rng.uniform(-1.0, 1.0) for _ in h.chart.all_vars()]
        fused = integrate(h, state0, 0.0, 0.5, 1e-2)
        assert not count_rhs  # every step was fused
        same(fused, integrate_field(lambda s: hamilton_rhs(h, s), state0, 0.0, 0.5, 1e-2))
        count_rhs.clear()


@pytest.mark.parametrize("name,sec", SECTIONS)
def test_fused_reduced_flow_equals_the_per_stage_flow(name, sec, count_rhs):
    bundle = by_name(name)
    h, alpha = bundle.hamiltonian, bundle.sections[sec]
    rng = random.Random(sec)
    x0 = [rng.uniform(-0.5, 0.5) for _ in h.chart.base_vars]
    fused = integrate_reduced(alpha, h, x0, 0.0, 0.5, 1e-2)
    assert not count_rhs
    same(fused, integrate_field(reduced_field(alpha, h), x0, 0.0, 0.5, 1e-2))


def test_fallback_steps_equal_the_per_stage_flow():
    # log(t) in H: the compiled field raises at t < 0, where the interpreter
    # aborts with its message
    chart = by_name("oscillator").chart
    h = HamiltonianSection(chart, "p1^2/2 + log(t)")
    for state0 in ([-1.0, 0.0, 1.0], [0.5, 0.0, 1.0], [-0.004, 0.0, 1.0]):
        for t_end in (1.0, 0.003):
            got = integrate(h, state0, 0.0, t_end, 1e-2)
            same(got, integrate_field(lambda s: hamilton_rhs(h, s), state0, 0.0, t_end, 1e-2))
    # inf*0 in the compiled field at every state: every step falls back
    chart = AffgebroidChart(["x1"], ["y1"], [1.0], [["x1*1e308"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    got = integrate(h, [10.0, 0.0], 0.0, 0.1, 1e-2)
    assert got.ok
    same(got, integrate_field(lambda s: hamilton_rhs(h, s), [10.0, 0.0], 0.0, 0.1, 1e-2))


def test_a_non_finite_state_aborts_as_on_the_per_stage_path():
    # dx/dt = x^2 from x = 1e100: the second stage overflows to inf
    chart = AffgebroidChart(["x1"], ["y1"], ["x1*x1"], [["0"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    state0 = [1e100, 0.0]
    got = integrate(h, state0, 0.0, 1.0, 0.1)
    assert not got.ok and got.error.startswith("non-finite state at t=")
    same(got, integrate_field(lambda s: hamilton_rhs(h, s), state0, 0.0, 1.0, 0.1))


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
        fused = verify_theorem(alpha, h, x0, 0.3, 1e-2)
    except hj.NotACocycleError:
        return
    per_stage()
    assert verify_theorem(alpha, h, x0, 0.3, 1e-2) == fused


def test_verify_cli_output_equals_the_per_stage_output(per_stage):
    commands = [
        ["verify", name, "--alpha", sec, "--points", "2", "--horizon", "0.2", "--step", "0.01"]
        for name, sec in SECTIONS
    ]
    fused = [run(argv) for argv in commands]
    per_stage()
    assert [run(argv) for argv in commands] == fused


def test_base_defect_compares_two_compiled_routes(monkeypatch):
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]

    def skewed(a, hh):
        exprs, variables, bound = reduced_stage(a, hh)
        # the reduced field's t row, off by 1e-9
        return [ex.BinOp("+", exprs[0], ex.Lit(1e-9))] + exprs[1:], variables, bound

    monkeypatch.setattr(hj, "reduced_stage", skewed)
    with pytest.raises(IntegrationFailure, match="base equation failed"):
        verify_theorem(alpha, h, [0.1, 0.5], 0.1, 1e-2)


def outcome(fn):
    """A report, or the type, message and point of the evaluation error it raises."""
    try:
        return fn()
    except ex.EvalError as err:
        return type(err), str(err), err.point


def inf_times_zero_case():
    # x1*1e308 overflows for x1 > 1.8, where dH/dy = 0 multiplies it: from
    # there on the stage is NaN and only the per-stage path gives a value
    chart = AffgebroidChart(["x1"], ["y1"], [1.0], [["x1*1e308"]], [[0.0]], [[[0.0]]])
    return CoSection(chart, "0", ["0"]), HamiltonianSection(chart, "y1^2/2"), [1.0], 2.0, 0.1


def abs_t_case(horizon):
    # t runs -0.5, -0.25, 0.0, ... exactly; d sqrt(t^2)/dt divides by 0 at t = 0,
    # where alphaV and the reduced field are still defined
    bundle = by_name("oscillator")
    alpha = CoSection(bundle.chart, "q1*t/sqrt(t^2)", ["sqrt(t^2)"])
    return alpha, bundle.hamiltonian, [-0.5, 0.3], horizon, 0.25


@pytest.mark.parametrize("case, fails", [
    (inf_times_zero_case, False),
    (lambda: abs_t_case(1.0), True),  # the state t = 0 is in the middle
    (lambda: abs_t_case(0.5), True),  # the state t = 0 is the last one
], ids=["inf_times_zero", "abs_t_middle", "abs_t_last"])
def test_leaving_the_stage_domain_partway_gives_the_per_stage_result(case, fails, per_stage):
    fused = outcome(lambda: verify_theorem(*case()))
    per_stage()
    assert outcome(lambda: verify_theorem(*case())) == fused
    if fails:  # with the state it happened at
        assert fused[:1] == (ex.DomainError,) and fused[2]["t"] == 0.0
    else:
        assert isinstance(fused, hj.TheoremReport)


def skew_check_at(monkeypatch, state):
    """Make the check's route to the field off by 1e-9 on its first base row at one state.

    The bump 1e-9*exp(-((t - t_k)*1e6)^2) is 1e-9 at t = t_k and exactly 0 at
    every other state of the grid.
    """
    real = hj._theorem_check

    def skewed(*args):
        (base, fiber), slots = real(*args)
        bump = ex.parse(f"1e-9*exp(-((t - ({state[0]!r}))*1000000)^2)")
        return [[ex.BinOp("+", base[0], bump)] + base[1:], fiber], slots

    monkeypatch.setattr(hj, "_theorem_check", skewed)


@pytest.mark.parametrize("where", [0, 5, -1])
def test_the_check_compares_the_two_routes_at_every_state(where, monkeypatch):
    # state 0 and 5 are measured inside the integration loop, the last state as it ends
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    state = integrate_reduced(alpha, h, [0.1, 0.5], 0.0, 0.1, 1e-2).states[where]
    skew_check_at(monkeypatch, state)
    monkeypatch.setattr(hj, "hamilton_rhs", None)  # no state is measured per stage
    with pytest.raises(IntegrationFailure, match="base equation failed .* defect 1.000e-09"):
        verify_theorem(alpha, h, [0.1, 0.5], 0.1, 1e-2)


def test_the_pass_measures_each_state_once(monkeypatch):
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    counts, real = [], ex.compile_rk4

    def spy(*args):
        kernel = real(*args)

        def run(times, states, t0, t_end, step, acc):
            kernel(times, states, t0, t_end, step, acc)
            counts.append(acc[-1])

        return run

    monkeypatch.setattr(ex, "compile_rk4", spy)
    monkeypatch.setattr(hj, "hamilton_rhs", None)  # no state is measured per stage
    report = verify_theorem(alpha, h, [0.1, 0.5], 0.1, 1e-2)
    assert counts == [len(report.trajectory.states)] == [11]


def test_reduced_stage_is_compiled_once_per_pair_of_sections(monkeypatch):
    bundle = by_name("oscillator")
    h, alpha = bundle.hamiltonian, bundle.sections["w_osc"]
    calls, real = [], ex.compile_rk4
    monkeypatch.setattr(ex, "compile_rk4", lambda *args: calls.append(1) or real(*args))
    integrate_reduced(alpha, h, [0.1, 0.5], 0.0, 0.1, 1e-2)
    fn = alpha.compiled_rk4[1]
    integrate_reduced(alpha, h, [0.2, 0.3], 0.0, 0.1, 1e-2)
    assert alpha.compiled_rk4[1] is fn and len(calls) == 1
    integrate_reduced(alpha, HamiltonianSection(h.chart, h.H), [0.2, 0.3], 0.0, 0.1, 1e-2)
    assert alpha.compiled_rk4[1] is not fn and len(calls) == 2
    # the stage's values are the per-stage ones
    exprs, variables, bound = reduced_stage(alpha, h)
    x = [0.3, 0.7]
    out = ex.compile(exprs, variables, bound)(x)
    w = 2 * (2 + 1) + 1
    y = out[w:]
    assert out[:w] == ex.compile(dynamics._field_outputs(h), h.chart.all_vars())(x + y)
    assert y == [ex.evaluate(c, dict(zip(variables, x))) for c in alpha.alphaV]


def test_compile_with_bound_names_equals_evaluate():
    exprs = [ex.parse(src) for src in ("p*p + x", "-p - x", "q^2 + sin(p*q)", "x/q", "p")]
    for bound in (
        {"p": ex.parse("x^2 - 1"), "q": ex.parse("exp(x)")},
        {"p": ex.Lit(-1.0), "q": ex.Neg(ex.Lit(-0.0))},
        {"p": ex.Lit(-0.0), "q": ex.Lit(math.inf)},
    ):
        fn = ex.compile(exprs, ["x"], bound)
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
        ex.compile([ex.parse("q")], ["x"], {"p": ex.parse("x"), "q": ex.parse("p")})
