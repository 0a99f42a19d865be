import math

import pytest

from affmech import dynamics, hj
from affmech import expr as ex
from affmech.expr import Lit, Var
from affmech.algebroid import SamplePlan
from affmech.affgebroid import CoSection, HamiltonianSection, hamilton_field, validate_charts
from affmech.cli import main
from affmech.dynamics import integrate
from affmech.hj import (
    NotACocycleError,
    cocycle_residual,
    f_of,
    verify_theorem,
)
from affmech.models import by_name, harmonic_oscillator, linear_tangent_model, rigid_body, trivial_fibration

from helpers import evaluate_with_partials, hj_residual, integrate_reduced, points, verify_one


def coboundary(chart_aff, s_node, ds_nodes):
    """Section with components rho^i_a dS/dx^i, built from hand partials.

    The partials are cross-checked against dual arithmetic before use, so a
    wrong hand derivative fails loudly here rather than downstream."""
    for env in points(SamplePlan(count=20, seed=77), chart_aff.base_vars):
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
    for env in points(SamplePlan(count=50, seed=5), bundle.chart.base_vars):
        inserted = dict(env)
        for a, v in enumerate(bundle.chart.fiber_vars):
            inserted[v] = ex.evaluate(alpha.alphaV[a], env)
        assert abs(ex.evaluate(f, env) - ex.evaluate(bundle.hamiltonian.H, inserted)) <= 1e-12


def test_f_trivial_fibration_generating_function_formula():
    # alpha from W: f = dW/dt + H(t, q, dW/dq)
    bundle = trivial_fibration(1)
    f = f_of(bundle.hamiltonian, bundle.section("w_free"))
    for env in points(SamplePlan(box={"t": (-0.5, 1.0)}, count=40, seed=6), ["t", "q1"]):
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
    expected = max(abs(env["q1"]) for env in points(plan, bundle.chart.base_vars))
    assert report.max_residual == pytest.approx(expected, rel=1e-12)
    assert not report.is_solution


def test_hj_residual_rigid_vertical_anchor_vanishes():
    bundle = rigid_body(1.0, 2.0, 3.0)
    report = hj_residual(bundle.section("cocycle_t"), bundle.hamiltonian, bundle.sample)
    assert report.max_residual == 0.0


# ----------------------------------------------------------------- theorem


def test_verify_free_particle_solution():
    bundle = trivial_fibration(1)
    report = verify_one(bundle.section("w_free"), bundle.hamiltonian, [0.0, 1.0], 1.0)
    assert report.trajectory_max <= 1e-8
    assert report.hj_max <= 1e-10
    assert report.holds_along_trajectory and report.holds_pointwise
    # closed-form trajectory: q(t) = 1 + t
    t_end, q_end = report.trajectory.states[-1]
    assert abs(q_end - (1.0 + t_end)) <= 1e-8


def test_verify_shares_its_work_within_one_call_and_keeps_none_after_it(monkeypatch):
    counts = dict.fromkeys(["_family", "_theorem_check", "_vertical_df", "compile_rk4"], 0)
    for owner, name in [(hj, "_family"), (hj, "_theorem_check"), (hj, "_vertical_df"),
                        (dynamics, "compile_rk4")]:

        def counted(*args, real=getattr(owner, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    bundle = trivial_fibration(3)
    alpha, h = bundle.section("w_free"), bundle.hamiltonian
    hamilton_field(h)  # h's rows are expressions it keeps; what the calls below add is checked
    fields = {"h": dict(vars(h)), "alpha": dict(vars(alpha))}
    points = [[0.1, 0.2, -0.3, 0.4], [-0.2, 0.5, 0.1, 0.0], [0.3, -0.1, 0.0, 0.2]]
    # every point's length is checked before any work is done
    with pytest.raises(ValueError, match="every base coordinate"):
        verify_theorem(alpha, h, points + [[0.0]], 0.1, 1e-2)
    assert not any(counts.values())
    reports = list(verify_theorem(alpha, h, points, 0.1, 1e-2))
    # _family: once for d alpha, once for d^V f
    once = {"_family": 2, "_theorem_check": 1, "_vertical_df": 1, "compile_rk4": 1}
    assert counts == once
    # a second call does all of it again, with the same results
    assert list(verify_theorem(alpha, h, points, 0.1, 1e-2)) == reports
    assert counts == {name: 2 * k for name, k in once.items()}
    # no section keeps a kernel or a check result
    integrate(h, [0.1] * len(h.chart.all_vars()), 0.0, 0.1, 1e-2)
    integrate_reduced(alpha, h, points[0], 0.0, 0.1, 1e-2)
    for what, obj in [("h", h), ("alpha", alpha)]:
        assert vars(obj).keys() == fields[what].keys(), what
        assert not any(map(callable, vars(obj).values())), what


@pytest.mark.parametrize("name, sec", [
    ("trivial:2", "w_free"), ("oscillator", "w_osc"), ("linear:tangent3", "grad_sq"),
    ("rigid:1,2,3", "cocycle_t"),
])
def test_the_partials_of_h_are_built_only_where_they_are_read(name, sec):
    def fresh():
        bundle = by_name(name)
        return bundle, bundle.hamiltonian, bundle.section(sec)

    # what hj and validate run: the cocycle check, f, d^V f and the three charts
    bundle, h, alpha = fresh()
    cocycle_residual(alpha)
    f_of(h, alpha)
    hj_residual(alpha, h)
    list(validate_charts(bundle.chart, bundle.sample))
    assert "partials" not in vars(h)
    # flow and verify integrate the Hamilton field, which reads them
    integrate(h, [0.1] * len(h.chart.all_vars()), 0.0, 0.1, 1e-2)
    assert "partials" in vars(h)
    bundle, h, alpha = fresh()
    verify_one(alpha, h, [0.1] * h.chart.m, 0.1, 1e-2)
    assert "partials" in vars(h)


def test_a_hamiltonian_with_an_unknown_variable_is_refused_at_construction():
    chart = trivial_fibration(1).chart
    with pytest.raises(ValueError, match=r"unknown variables \['z'\]"):
        HamiltonianSection(chart, "p1^2/2 + z")
    with pytest.raises(ValueError, match="Hamiltonian divides by a literal zero"):
        HamiltonianSection(chart, "p1^2/0")


def test_verify_draws_its_sample_stream_once_per_call(monkeypatch, capsys):
    draws, real = [], SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units", lambda self, *a: draws.append(a) or real(self, *a))
    assert main(["verify", "trivial:3", "--alpha", "w_free", "--points", "5"]) == 0
    assert capsys.readouterr().out.count("point_") == 5
    # the 5 start points, then 100 points for the cocycle check and every box:
    # each of the 4 variables is drawn once
    assert draws[:4] == [(4, j, 0, 5) for j in range(4)]
    assert sorted(draws[4:]) == [(4, j, 0, 100) for j in range(4)]


def test_verify_oscillator_solution():
    bundle = harmonic_oscillator()
    report = verify_one(
        bundle.section("w_osc"), bundle.hamiltonian, [0.3, 0.9], 1.0, sample=bundle.sample
    )
    assert report.trajectory_max <= 1e-6
    assert report.hj_max <= 1e-10
    assert report.holds_along_trajectory == report.holds_pointwise


def test_verify_cubic_nonsolution_fails_both_ways():
    bundle = trivial_fibration(1)
    report = verify_one(bundle.section("w_cubic"), bundle.hamiltonian, [0.0, 0.6], 1.0)
    assert report.trajectory_max > 1e-3
    assert report.hj_max > 0.1
    assert not report.holds_along_trajectory and not report.holds_pointwise
    assert report.holds_along_trajectory == report.holds_pointwise


def test_verify_rigid_body_time_cocycle():
    bundle = rigid_body(1.0, 2.0, 3.0)
    report = verify_one(bundle.section("cocycle_t"), bundle.hamiltonian, [0.2], 1.0)
    assert report.trajectory_max == 0.0
    assert report.hj_max == 0.0
    assert report.holds_along_trajectory == report.holds_pointwise


def test_verify_rejects_non_cocycles():
    bundle = rigid_body(1.0, 2.0, 3.0)
    with pytest.raises(NotACocycleError):
        verify_theorem(bundle.section("bad_constant"), bundle.hamiltonian, [[0.0]], 1.0)


def test_direction_solution_implies_trajectory_residual():
    # ten seeded starts per solution section: residual within integrator budget
    cases = [
        (trivial_fibration(1), "w_free"),
        (harmonic_oscillator(), "w_osc"),
        (rigid_body(1.0, 2.0, 3.0), "cocycle_t"),
        (linear_tangent_model(2), "const"),
    ]
    for bundle, name in cases:
        starts = points(bundle.sample, bundle.chart.base_vars)[:10]
        x0s = [[env[v] for v in bundle.chart.base_vars] for env in starts]
        reports = verify_theorem(
            bundle.section(name), bundle.hamiltonian, x0s, 1.0, sample=bundle.sample
        )
        for x0, report in zip(x0s, reports, strict=True):
            assert report.trajectory_max <= 1e-6, (bundle.name, name, x0)
            assert report.holds_along_trajectory == report.holds_pointwise


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
        for env in points(plan, bundle.chart.base_vars):
            worst_here = max(abs(c.value(env)) for c in df.coeffs.values())
            if worst_here > worst_val:
                worst_env, worst_val = env, worst_here
        near = SamplePlan(
            box={v: (worst_env[v] - 0.05, worst_env[v] + 0.05) for v in bundle.chart.base_vars},
            count=5,
            seed=plan.seed,
        )
        witnesses = points(near, bundle.chart.base_vars)
        found = False
        for env in witnesses:
            x0 = [env[v] for v in bundle.chart.base_vars]
            report = verify_one(alpha, bundle.hamiltonian, x0, 1.0, sample=plan)
            if report.trajectory_max >= 1e-3:
                found = True
                break
        assert found, (bundle.name, name)
