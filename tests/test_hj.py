import math

import pytest

from affmech import expr as ex
from affmech import hj
from affmech.expr import Lit, Var
from affmech.algebroid import SamplePlan, SplitMix64
from affmech.affgebroid import CoSection, HamiltonianSection
from affmech.cli import main
from affmech.hj import (
    NotACocycleError,
    cocycle_residual,
    f_of,
    hj_residual,
    verify_theorem,
)
from affmech.models import harmonic_oscillator, linear_tangent_model, rigid_body, trivial_fibration

from helpers import evaluate_with_partials


def coboundary(chart_aff, s_node, ds_nodes):
    """Section with components rho^i_a dS/dx^i, built from hand partials.

    The partials are cross-checked against dual arithmetic before use, so a
    wrong hand derivative fails loudly here rather than downstream."""
    for env in SamplePlan(count=20, seed=77).points(chart_aff.base_vars):
        _, ad = evaluate_with_partials(s_node, env, chart_aff.base_vars)
        hand = [ex.evaluate(d, env) for d in ds_nodes]
        assert all(abs(a - b) <= 1e-10 for a, b in zip(ad, hand)), "bad hand partials"

    def contract(row):
        node = Lit(0.0)
        for i in range(chart_aff.m):
            node = node + row[i] * ds_nodes[i]
        return node

    return CoSection(
        chart_aff,
        contract(chart_aff.rho0),
        [contract(chart_aff.rhoV[a]) for a in range(chart_aff.n)],
    )


# --------------------------------------------------------------------- f_of


def test_f_linear_mode_is_hamiltonian_after_insertion():
    bundle = linear_tangent_model(2)
    alpha = bundle.section("grad_sq")
    f = f_of(bundle.hamiltonian, alpha)
    for env in SamplePlan(count=50, seed=5).points(bundle.chart.base_vars):
        inserted = dict(env)
        for a, v in enumerate(bundle.chart.fiber_vars):
            inserted[v] = ex.evaluate(alpha.alphaV[a], env)
        assert abs(ex.evaluate(f, env) - bundle.hamiltonian.value(inserted)) <= 1e-12


def test_f_trivial_fibration_generating_function_formula():
    # alpha from W: f = dW/dt + H(t, q, dW/dq)
    bundle = trivial_fibration(1)
    f = f_of(bundle.hamiltonian, bundle.section("w_free"))
    for env in SamplePlan(box={"t": (-0.5, 1.0)}, count=40, seed=6).points(["t", "q1"]):
        t, q = env["t"], env["q1"]
        w_t = -q * q / (2.0 * (t + 1.0) ** 2)
        w_q = q / (t + 1.0)
        assert abs(ex.evaluate(f, env) - (w_t + 0.5 * w_q * w_q)) <= 1e-14


def test_f_zero_hamiltonian_returns_alpha0():
    bundle = trivial_fibration(1)
    h0 = HamiltonianSection(bundle.chart, 0.0)
    alpha = CoSection(bundle.chart, "sin(t)", ["q1"])
    f = f_of(h0, alpha)
    env = {"t": 0.6, "q1": -0.4}
    assert ex.evaluate(f, env) == pytest.approx(math.sin(0.6))


def test_callable_section_components_are_type_errors():
    # a dual section is expressions only, like chart and morphism data
    bundle = trivial_fibration(1)
    with pytest.raises(TypeError):
        CoSection(bundle.chart, lambda env: env["t"] ** 2, ["q1"])
    with pytest.raises(TypeError):
        CoSection(bundle.chart, "t^2", [lambda env: env["q1"]])


# ------------------------------------------------------------------ cocycle


def test_cocycle_exact_form_on_flat_chart():
    bundle = trivial_fibration(1)
    report = cocycle_residual(bundle.section("w_free"), bundle.sample)
    assert report.max_residual <= 1e-14
    assert report.is_cocycle


def test_cocycle_rigid_body_family():
    bundle = rigid_body(1.0, 2.0, 3.0)
    good = cocycle_residual(bundle.section("cocycle_t"), bundle.sample)
    assert good.max_residual == 0.0
    bad = cocycle_residual(bundle.section("bad_constant"), bundle.sample)
    assert bad.max_residual >= 1.0
    assert bad.component == (1, 2)


def test_cocycle_zero_section():
    bundle = trivial_fibration(2)
    report = cocycle_residual(bundle.section("zero"))
    assert report.max_residual == 0.0


def test_cocycle_rigid_constant_family_residual_scales_with_c():
    bundle = rigid_body(2.0, 1.0, 4.0)
    for c in ([0.4, 0.0, 0.0], [0.0, -0.2, 0.0], [0.3, 0.3, 0.3]):
        alpha = CoSection(bundle.chart, "t^2", [v for v in c])
        report = cocycle_residual(alpha, bundle.sample)
        nonzero = [abs(v) for v in c if v != 0.0]
        assert report.max_residual >= min(nonzero)


def test_coboundaries_are_cocycles():
    flat = trivial_fibration(2)
    s = ex.parse("t*q1^2 - q2^3")
    ds = [ex.parse("q1^2"), ex.parse("2*t*q1"), ex.parse("-3*q2^2")]
    report = cocycle_residual(coboundary(flat.chart, s, ds), flat.sample)
    assert report.max_residual <= 1e-8

    rigid = rigid_body(1.0, 2.0, 3.0)
    s = ex.parse("t^3-t")
    ds = [ex.parse("3*t^2-1")]
    report = cocycle_residual(coboundary(rigid.chart, s, ds), rigid.sample)
    assert report.max_residual <= 1e-8

    lin = linear_tangent_model(2)
    s = ex.parse("x1^2*x2")
    ds = [ex.parse("2*x1*x2"), ex.parse("x1^2")]
    report = cocycle_residual(coboundary(lin.chart, s, ds), lin.sample)
    assert report.max_residual <= 1e-8


# ------------------------------------------------------------------ hj check


def test_hj_residual_free_particle_solution():
    bundle = trivial_fibration(1)
    report = hj_residual(bundle.section("w_free"), bundle.hamiltonian, bundle.sample)
    assert report.max_residual <= 1e-12
    assert report.is_solution


def test_hj_residual_oscillator_solution_inside_box():
    bundle = harmonic_oscillator()
    report = hj_residual(bundle.section("w_osc"), bundle.hamiltonian, bundle.sample)
    assert report.max_residual <= 1e-10
    assert report.is_solution


def test_hj_residual_quadratic_nonsolution():
    # f = q^2/2, so the vertical derivative is q: the residual is max |q|
    bundle = trivial_fibration(1)
    plan = bundle.sample
    report = hj_residual(bundle.section("w_sq"), bundle.hamiltonian, plan)
    expected = max(abs(env["q1"]) for env in plan.points(bundle.chart.base_vars))
    assert report.max_residual == pytest.approx(expected, rel=1e-12)
    assert not report.is_solution


def test_hj_residual_rigid_vertical_anchor_vanishes():
    bundle = rigid_body(1.0, 2.0, 3.0)
    report = hj_residual(bundle.section("cocycle_t"), bundle.hamiltonian, bundle.sample)
    assert report.max_residual == 0.0


# ----------------------------------------------------------------- theorem


def test_verify_free_particle_solution():
    bundle = trivial_fibration(1)
    report = verify_theorem(bundle.section("w_free"), bundle.hamiltonian, [0.0, 1.0], 1.0)
    assert report.trajectory_max <= 1e-8
    assert report.hj_max <= 1e-10
    assert report.holds_along_trajectory and report.holds_pointwise and report.agree
    # closed-form trajectory: q(t) = 1 + t
    t_end, q_end = report.trajectory.states[-1]
    assert abs(q_end - (1.0 + t_end)) <= 1e-8


def test_verify_does_the_work_without_x0_once_per_hamiltonian_and_plan(monkeypatch):
    counts = dict.fromkeys(["max_abs_check", "_theorem_check", "_vertical_df"], 0)
    for name in counts:

        def counted(*args, real=getattr(hj, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(hj, name, counted)
    bundle = trivial_fibration(3)
    alpha, h = bundle.section("w_free"), bundle.hamiltonian
    points = [[0.1, 0.2, -0.3, 0.4], [-0.2, 0.5, 0.1, 0.0], [0.3, -0.1, 0.0, 0.2]]
    reports = [verify_theorem(alpha, h, x0, 0.1, 1e-2) for x0 in points]
    # max_abs_check: once for d alpha, once for d^V f
    assert counts == {"max_abs_check": 2, "_theorem_check": 1, "_vertical_df": 1}
    fresh = trivial_fibration(3)
    assert reports == [
        verify_theorem(fresh.section("w_free"), fresh.hamiltonian, x0, 0.1, 1e-2) for x0 in points
    ]
    # the fresh section did it once more; another plan, then another h, twice more
    verify_theorem(alpha, h, points[0], 0.1, 1e-2, SamplePlan(seed=7))
    verify_theorem(alpha, HamiltonianSection(h.chart, h.H), points[0], 0.1, 1e-2, SamplePlan(seed=7))
    assert counts == {"max_abs_check": 8, "_theorem_check": 4, "_vertical_df": 4}


def test_verify_draws_its_sample_stream_once_per_call(monkeypatch, capsys):
    draws, real = [], SplitMix64.units
    monkeypatch.setattr(SplitMix64, "units", lambda self, k: draws.append(k) or real(self, k))
    assert main(["verify", "trivial:3", "--alpha", "w_free", "--points", "5"]) == 0
    assert capsys.readouterr().out.count("point_") == 5
    # the 5 start points, then 100 points of 4 variables for the cocycle check and every box
    assert draws == [5 * 4, 100 * 4]


def test_verify_oscillator_solution():
    bundle = harmonic_oscillator()
    report = verify_theorem(
        bundle.section("w_osc"), bundle.hamiltonian, [0.3, 0.9], 1.0, sample=bundle.sample
    )
    assert report.trajectory_max <= 1e-6
    assert report.hj_max <= 1e-10
    assert report.agree


def test_verify_cubic_nonsolution_fails_both_ways():
    bundle = trivial_fibration(1)
    report = verify_theorem(bundle.section("w_cubic"), bundle.hamiltonian, [0.0, 0.6], 1.0)
    assert report.trajectory_max > 1e-3
    assert report.hj_max > 0.1
    assert not report.holds_along_trajectory and not report.holds_pointwise
    assert report.agree


def test_verify_rigid_body_time_cocycle():
    bundle = rigid_body(1.0, 2.0, 3.0)
    report = verify_theorem(bundle.section("cocycle_t"), bundle.hamiltonian, [0.2], 1.0)
    assert report.trajectory_max == 0.0
    assert report.hj_max == 0.0
    assert report.agree


def test_verify_rejects_non_cocycles():
    bundle = rigid_body(1.0, 2.0, 3.0)
    with pytest.raises(NotACocycleError):
        verify_theorem(bundle.section("bad_constant"), bundle.hamiltonian, [0.0], 1.0)


def test_direction_solution_implies_trajectory_residual():
    # ten seeded starts per solution section: residual within integrator budget
    cases = [
        (trivial_fibration(1), "w_free"),
        (harmonic_oscillator(), "w_osc"),
        (rigid_body(1.0, 2.0, 3.0), "cocycle_t"),
        (linear_tangent_model(2), "const"),
    ]
    for bundle, name in cases:
        starts = bundle.sample.points(bundle.chart.base_vars)[:10]
        for env in starts:
            x0 = [env[v] for v in bundle.chart.base_vars]
            report = verify_theorem(
                bundle.section(name), bundle.hamiltonian, x0, 1.0, sample=bundle.sample
            )
            assert report.trajectory_max <= 1e-6, (bundle.name, name, x0)
            assert report.agree


def test_direction_failed_hj_has_trajectory_witness():
    # contrapositive: a large pointwise residual forces a visible trajectory
    # residual from starts near the failing point
    cases = [
        (trivial_fibration(1), "w_sq"),
        (trivial_fibration(1), "w_cubic"),
        (linear_tangent_model(2), "grad_sq"),
    ]
    for bundle, name in cases:
        alpha = bundle.section(name)
        plan = bundle.sample
        hj = hj_residual(alpha, bundle.hamiltonian, plan)
        assert hj.max_residual >= 0.1, (bundle.name, name)
        # locate the failing sample point, then start trajectories nearby
        worst_env, worst_val = None, -1.0
        from affmech.algebroid import KSection, differential
        from affmech.hj import f_of as _f_of

        df = differential(
            KSection.function(bundle.chart.vertical_chart(), _f_of(bundle.hamiltonian, alpha))
        )
        for env in plan.points(bundle.chart.base_vars):
            worst_here = max(abs(c.value(env)) for c in df.coeffs.values())
            if worst_here > worst_val:
                worst_env, worst_val = env, worst_here
        witnesses = SamplePlan(
            box={v: (worst_env[v] - 0.05, worst_env[v] + 0.05) for v in bundle.chart.base_vars},
            count=5,
            seed=plan.seed,
        ).points(bundle.chart.base_vars)
        found = False
        for env in witnesses:
            x0 = [env[v] for v in bundle.chart.base_vars]
            report = verify_theorem(alpha, bundle.hamiltonian, x0, 1.0, sample=plan)
            if report.trajectory_max >= 1e-3:
                found = True
                break
        assert found, (bundle.name, name)
