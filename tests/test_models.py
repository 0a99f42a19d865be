import math

import pytest

from affmech import expr as ex
from affmech.algebroid import SamplePlan, validate_chart
from affmech.dynamics import hamilton_stage, integrate, interpret
from affmech.hj import cocycle_residual
from affmech.affgebroid import reeb
from affmech.models import (
    ModelNameError,
    by_name,
    harmonic_oscillator,
    linear_tangent_model,
    perturbed_so3_chart,
    rigid_body,
    so3_chart,
    trivial_fibration,
)

from helpers import hj_residual, points


def test_all_shipped_charts_validate():
    for bundle in (
        trivial_fibration(1),
        trivial_fibration(3),
        harmonic_oscillator(),
        linear_tangent_model(2),
        rigid_body(1.0, 2.0, 3.0),
    ):
        for chart in (
            bundle.chart.bidual_chart(),
            bundle.chart.vertical_chart(),
            bundle.chart.prolongation().chart,
        ):
            report = validate_chart(chart, bundle.sample)
            assert report.valid, (bundle.name, report)
            assert max(report.antisymmetry_max, report.anchor_max, report.jacobi_max) <= 1e-8


def test_solution_presets_solve_and_nonsolutions_fail():
    cases = [
        (trivial_fibration(1), "w_free", True),
        (trivial_fibration(2), "w_free", True),
        (harmonic_oscillator(), "w_osc", True),
        (rigid_body(1.0, 2.0, 3.0), "cocycle_t", True),
        (linear_tangent_model(2), "const", True),
        (trivial_fibration(1), "w_sq", False),
        (trivial_fibration(1), "w_cubic", False),
        (linear_tangent_model(2), "grad_sq", False),
    ]
    for bundle, name, solves in cases:
        alpha = bundle.section(name)
        assert cocycle_residual(alpha, bundle.sample).is_cocycle, (bundle.name, name)
        report = hj_residual(alpha, bundle.hamiltonian, bundle.sample)
        if solves:
            assert report.max_residual <= 1e-8, (bundle.name, name)
        else:
            assert report.max_residual >= 0.1, (bundle.name, name)


def test_trivial_fibration_reeb_is_classical():
    bundle = trivial_fibration(1)
    h = bundle.hamiltonian
    r = reeb(h)
    for env in points(SamplePlan(count=20, seed=3), ["t", "q1", "p1"]):
        coeffs = r(env)
        _, dq, dp = [ex.evaluate(d, env) for d in h.partials]  # dH/dt, dH/dq, dH/dp
        assert coeffs[0] == 1.0
        assert coeffs[1] == pytest.approx(dp, abs=1e-15)  # dq/dt = dH/dp
        assert coeffs[2] == pytest.approx(-dq, abs=1e-15)  # dp/dt = -dH/dq


def test_trivial_fibration_rejects_dimension_zero():
    with pytest.raises(ValueError):
        trivial_fibration(0)


def test_rigid_body_rejects_bad_inertia():
    with pytest.raises(ValueError):
        rigid_body(1.0, -2.0, 3.0)
    with pytest.raises(ValueError):
        rigid_body(0.0, 2.0, 3.0)


def test_rigid_body_euler_dynamics_conserves_invariants():
    bundle = rigid_body(1.0, 2.0, 3.0)
    start = [0.0, 1.0, 0.5, -0.3]
    traj = integrate(bundle.hamiltonian, start, 0.0, 10.0, 1e-3)
    assert traj.ok
    c0 = sum(v * v for v in start[1:])
    env0 = dict(zip(bundle.chart.all_vars(), start))
    e0 = ex.evaluate(bundle.hamiltonian.H, env0)
    casimir_drift = max(abs(sum(v * v for v in s[1:]) - c0) for s in traj.states)
    energy_drift = max(
        abs(ex.evaluate(bundle.hamiltonian.H, dict(zip(bundle.chart.all_vars(), s))) - e0)
        for s in traj.states[::50]
    )
    assert casimir_drift <= 1e-8
    assert energy_drift <= 1e-8


def test_rigid_body_principal_axis_equilibrium():
    bundle = rigid_body(1.0, 2.0, 3.0)
    rhs = interpret(*hamilton_stage(bundle.hamiltonian))([0.0, 0.0, 0.0, 1.0])
    assert rhs[1:] == [0.0, 0.0, 0.0]


def test_linear_tangent_chart_embedding_structure():
    aff = linear_tangent_model(2).chart
    env = {"x1": 0.2, "x2": -0.8}
    assert [c for c in aff.base_vars] == ["x1", "x2"]
    assert aff.fiber_vars == ["y1", "y2"]
    assert [ex.evaluate(c, env) for c in aff.rho0] == [0.0, 0.0]
    assert all(ex.evaluate(aff.C0[a][g], env) == 0.0 for a in range(2) for g in range(2))


def test_linear_tangent_geodesic_flow():
    bundle = linear_tangent_model(2)
    rhs = interpret(*hamilton_stage(bundle.hamiltonian))([0.0, 0.0, 0.7, -0.2])
    assert rhs == pytest.approx([0.7, -0.2, 0.0, 0.0], abs=1e-15)
    traj = integrate(bundle.hamiltonian, [0.0, 0.0, 0.7, -0.2], 0.0, 2.0, 1e-2)
    assert traj.states[-1][:2] == pytest.approx([1.4, -0.4], abs=1e-12)
    assert traj.states[-1][2:] == pytest.approx([0.7, -0.2], abs=1e-15)


def test_so3_charts():
    assert validate_chart(so3_chart()).valid
    report = validate_chart(perturbed_so3_chart())
    assert not report.valid and report.jacobi_max >= 0.05


def test_by_name_round_trip():
    assert by_name("trivial:2").chart.n == 2
    assert by_name("oscillator").name == "oscillator"
    assert by_name("linear:tangent3").chart.n == 3
    assert by_name("rigid:1,2,3").chart.n == 3
    assert by_name("perturbed-so3").chart.n == 3


def test_by_name_perturbed_so3_shares_one_chart():
    bundle = by_name("perturbed-so3")
    assert bundle.hamiltonian.chart is bundle.chart


def test_by_name_errors():
    for bad in ("nope", "trivial:x", "trivial:0", "rigid:1,2", "rigid:a,b,c", "linear:tangent"):
        with pytest.raises(ModelNameError):
            by_name(bad)


def test_section_lookup_error_lists_alternatives():
    bundle = trivial_fibration(1)
    with pytest.raises(KeyError) as err:
        bundle.section("missing")
    assert "w_free" in str(err.value)


@pytest.mark.parametrize("name", ["trivial:2", "oscillator", "linear:tangent3", "rigid:1,2,3"])
def test_builtin_sections_are_built_when_looked_up(name, monkeypatch):
    import affmech.models as models

    built, real = [], models.CoSection
    monkeypatch.setattr(models, "CoSection", lambda *args: built.append(args) or real(*args))
    bundle = by_name(name)
    assert built == []  # an inline section needs none of them
    names = list(bundle.sections)
    first = bundle.section(names[0])
    assert bundle.sections[names[0]] is first and len(built) == 1  # built once, then kept
    assert [bundle.sections[n] for n in names] == list(bundle.sections.values())
    assert len(built) == len(names) == len(bundle.sections)
    assert by_name(name).sections[names[0]] is not first  # nothing is kept across bundles
