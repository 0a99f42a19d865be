"""The generated RK4 kernel (``expr.compile_rk4``) against the per-stage path.

On generated polynomial and trigonometric Hamiltonians and sections, the
kernel must give the Trajectory (times, states, ok, error) that
``integrate_field`` gives with the field alone: with a short last step, a
start time other than 0, a step larger than the span, and a flow that
leaves the domain or stops being finite partway.
"""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affmech import expr as ex
from affmech import hj
from affmech.affgebroid import AffgebroidChart, CoSection, HamiltonianSection
from affmech.algebroid import SamplePlan, differential, max_abs_check, section_max_abs
from affmech.dynamics import (
    _field_outputs,
    hamilton_rhs,
    integrate,
    integrate_field,
    integrate_reduced,
    reduced_field,
)
from affmech.models import by_name

CHARTS = {name: by_name(name).chart for name in ("oscillator", "rigid:1,2,3", "linear:tangent3")}


def expressions(names):
    """Polynomials and sines and cosines of them over ``names``, as source text."""
    leaf = st.sampled_from(list(names) + ["0.5", "2", "1.5"])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda p: f"({p[0]}{p[1]}{p[2]})"),
            st.tuples(st.sampled_from(["sin", "cos"]), sub).map(lambda p: f"{p[0]}({p[1]})"),
            st.tuples(sub, st.sampled_from(["2", "3"])).map(lambda p: f"({p[0]})^{p[1]}"),
        ),
        max_leaves=6,
    )


@st.composite
def runs(draw, reduced):
    """(chart name, H, alphaV or None, start state, t0, t_end, step)."""
    name = draw(st.sampled_from(sorted(CHARTS)))
    chart = CHARTS[name]
    H = draw(expressions(chart.all_vars()))
    alpha_v = [draw(expressions(chart.base_vars)) for _ in range(chart.n)] if reduced else None
    width = chart.m if reduced else chart.m + chart.n
    start = draw(st.lists(st.floats(-1.0, 1.0), min_size=width, max_size=width))
    t0 = draw(st.sampled_from([0.0, 0.3, -0.7]))
    span = draw(st.floats(0.005, 0.2))
    step = draw(st.sampled_from([0.01, 0.03, 0.07]))  # 0.07 often exceeds the span
    return name, H, alpha_v, start, t0, t0 + span, step


def same(a, b, kernel):
    """Equal trajectories; on failure, the message is the kernel's generated source."""
    assert (a.times, a.states, a.ok, a.error) == (b.times, b.states, b.ok, b.error), kernel.source


SHORT_LAST_STEP = ("oscillator", "p1^2/2 + q1^2/2", None, [0.0, 0.5, 0.1], 0.3, 0.345, 0.01)
STEP_OVER_SPAN = ("rigid:1,2,3", "P1^2/2 + P2*P3", None, [0.0, 0.3, -0.2, 0.5], -0.7, -0.68, 0.07)
# sqrt(0.05 - t) leaves its domain at t = 0.05: the per-stage path reports the domain violation
DOMAIN_EXIT = ("oscillator", "p1^2/2 + sqrt(0.05 - t)", None, [0.0, 0.1, 0.2], 0.0, 0.2, 0.01)
# dq1/dt = q1^6 as products, from q1 = 1: overflows to inf at t = 0.22, without a domain error
NOT_FINITE = ("oscillator", "p1*q1*q1*q1*q1*q1*q1", None, [0.0, 1.0, 0.0], 0.0, 1.0, 0.01)


@settings(max_examples=60, deadline=None)
@given(runs(reduced=False))
@example(SHORT_LAST_STEP)
@example(STEP_OVER_SPAN)
@example(DOMAIN_EXIT)
@example(NOT_FINITE)
def test_the_kernel_flow_equals_the_per_stage_flow(run):
    name, H, _, state0, t0, t_end, step = run
    h = HamiltonianSection(CHARTS[name], H)
    got = integrate(h, state0, t0, t_end, step)
    assert h.compiled_rk4, "the kernel did not compile"
    same(got, integrate_field(lambda s: hamilton_rhs(h, s), state0, t0, t_end, step), h.compiled_rk4)


@settings(max_examples=60, deadline=None)
@given(runs(reduced=True))
@example(("oscillator", "p1^2/2 + q1^2/2", ["q1*t"], [0.3, 0.5], 0.3, 0.345, 0.01))
@example(("linear:tangent3", "y1*y2 + y3^2/2", ["x1", "x2*x3", "sin(x1)"], [0.1, 0.2, 0.3], 0.0, 0.03, 0.07))
@example(("oscillator", "p1^2/2 + sqrt(0.05 - t)", ["q1"], [0.0, 0.1], 0.0, 0.2, 0.01))
@example(("oscillator", "p1^2/2", ["q1*q1*q1*q1*q1*q1"], [0.0, 1.0], 0.0, 1.0, 0.01))
def test_the_kernel_reduced_flow_equals_the_per_stage_flow(run):
    name, H, alpha_v, x0, t0, t_end, step = run
    chart = CHARTS[name]
    h, alpha = HamiltonianSection(chart, H), CoSection(chart, "0", alpha_v)
    got = integrate_reduced(alpha, h, x0, t0, t_end, step)
    kernel = alpha.compiled_rk4[1]
    assert kernel, "the kernel did not compile"
    same(got, integrate_field(reduced_field(alpha, h), x0, t0, t_end, step), kernel)


def test_the_edge_examples_end_as_named():
    def flow(name, H, _, state0, t0, t_end, step):
        return integrate(HamiltonianSection(CHARTS[name], H), state0, t0, t_end, step)

    short = flow(*SHORT_LAST_STEP)
    assert short.ok and short.times[-1] == 0.345 and len(short) == 6
    over = flow(*STEP_OVER_SPAN)
    assert over.ok and over.times == [-0.7, -0.68]
    for case, error in ((DOMAIN_EXIT, "domain violation at t="), (NOT_FINITE, "non-finite state at t=")):
        traj = flow(*case)
        assert not traj.ok and traj.error.startswith(error) and len(traj) > 3, traj.error


def test_a_state_whose_finite_stages_sum_past_the_float_range_aborts_per_stage():
    # dx1/dt = 1e307: every stage value is finite, the state passes 1.8e308 at t = 18
    chart = AffgebroidChart(["x1"], ["y1"], ["1e307"], [["0"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    got = integrate(h, [0.0, 0.0], 0.0, 30.0, 1.0)
    assert not got.ok and got.error == "non-finite state at t=18.0" and len(got) == 18
    same(got, integrate_field(lambda s: hamilton_rhs(h, s), [0.0, 0.0], 0.0, 30.0, 1.0), h.compiled_rk4)


def outcome(fn):
    """The repr of a result, or the type, message and point of the evaluation error raised."""
    try:
        return repr(fn())
    except ex.EvalError as err:
        return type(err), str(err), err.point


SECTIONS = [(name, sec) for name in ("trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3")
            for sec in by_name(name).sections]


@pytest.mark.parametrize("name,sec", SECTIONS + [
    ("oscillator", "alphaV=log(q1)"),  # a domain error at a sampled point
    ("oscillator", "alphaV=q1*1e308*10"),  # inf and inf*0 values
])
def test_compiled_sampled_checks_equal_the_interpreted_ones(name, sec, monkeypatch):
    """The sampled checks of ``verify`` and ``hj``, batched, against the per-point interpreter."""
    bundle = by_name(name)
    h = bundle.hamiltonian
    alpha = bundle.sections.get(sec) or CoSection(bundle.chart, "0", [sec.split("=")[1]])
    box = {v: (-0.3, 0.2) for v in bundle.chart.base_vars}
    plans = (bundle.sample, SamplePlan(box=box, count=7, seed=3))
    sections = (differential(alpha.as_bidual_section()), hj._vertical_df(alpha, h))
    got = []
    for s in sections:
        check = max_abs_check(s)
        for plan in plans:
            got += [outcome(lambda: check(plan)), outcome(lambda: section_max_abs(s, plan))]
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, envs: None)
    want = []
    for s in sections:
        for plan in plans:
            want += [outcome(lambda: section_max_abs(s, plan))] * 2
    assert got == want


def test_generated_temporaries_cannot_overwrite_the_loop_locals():
    # a stage and a check with dozens of temporaries over twelve state variables
    names = [f"x{j}" for j in range(12)]
    pairs = zip(names, names[1:] + names[:1])
    stage = [ex.parse(f"sin({a}*{b}) + {a}^2*cos({b})") for a, b in pairs]
    check = [[ex.parse(f"k0*{a} - {a}^3") for a in names]]
    kernel = ex.compile_rk4(stage, names, check=check, slots=["k0"])
    # literal values need no temporary: these locals are the loop's own
    bare = ex.compile_rk4([ex.Lit(1.0)] * 12, names, check=[[ex.Lit(0.0)]], slots=["k0"])
    temporaries = {v for v in kernel.__code__.co_varnames if re.fullmatch(r"[tu]\d+", v)}
    assert len(temporaries) > 36
    assert set(kernel.__code__.co_varnames) - temporaries == set(bare.__code__.co_varnames)
    # and the loop does the per-stage float operations
    times, states, acc = [0.0], [[0.05 * j for j in range(12)]], [0.0, 0]
    kernel(times, states, 0.0, 0.1, 0.01, acc)
    want = integrate_field(ex.compile(stage, names), states[0], 0.0, 0.1, 0.01)
    assert (times, states) == (want.times, want.states)
    assert acc[1] == len(times) and 0.0 < acc[0] < math.inf


def test_the_stage_body_appears_once_in_the_kernel_source():
    h = by_name("rigid:1,2,3").hamiltonian
    stage, variables = _field_outputs(h), h.chart.all_vars()
    kernel = ex.compile_rk4(stage, variables)
    assignments = ex.compile(stage, variables).source.splitlines()[3:-2]
    body = [line.strip() for line in kernel.source.splitlines()]
    assert len(assignments) > 5
    assert all(body.count(line.strip()) == 1 for line in assignments), kernel.source
