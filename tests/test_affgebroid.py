import math

import pytest

from affmech import expr as ex
from affmech.expr import Lit
from affmech.algebroid import (
    ExprCoeff,
    KSection,
    SamplePlan,
    differential,
    pullback,
    validate_chart,
)
from affmech.affgebroid import (
    AffgebroidChart,
    CoSection,
    HamiltonianSection,
    VStarSection,
    covector_morphism,
    eta,
    h_compose,
    hamiltonian_morphism,
    lambda_h,
    omega_h,
    pullback_identities,
    reeb,
    vertical_inclusion_morphism,
    vertical_restriction_check,
)
from affmech.hj import f_of
from affmech.modelfile import parse_model_text
from affmech.models import (
    by_name,
    harmonic_oscillator,
    linear_tangent_model,
    rigid_body,
    trivial_fibration,
)

from helpers import (
    DegenerateStructureError,
    SplitMix64,
    component,
    evaluate_with_partials,
    morphism_defect,
    omega_h_from_pullback,
    points,
    reeb_solve,
    section_combine,
    section_max_abs,
    section_max_diff,
    section_values,
    uniform,
)


def all_models():
    return [
        trivial_fibration(1),
        trivial_fibration(2),
        harmonic_oscillator(),
        linear_tangent_model(2),
        rigid_body(1.0, 2.0, 3.0),
    ]


def phase_plan(bundle, count=30, seed=17):
    """A plan over the model's box, for checks of sections of the prolongation."""
    return SamplePlan(box=dict(bundle.sample.box), count=count, seed=seed)


def phase_envs(bundle, count=30, seed=17):
    """The points of ``phase_plan`` over the prolongation's base variables."""
    return points(phase_plan(bundle, count, seed), bundle.chart.prolongation().chart.base_vars)


def base_plan(bundle, count=30, seed=23):
    """A plan over the model's box, for checks of sections of the bidual."""
    return SamplePlan(box=dict(bundle.sample.box), count=count, seed=seed)


def seeded_polynomial_gammas(aff, count=5, seed=31):
    """Random polynomial sections of the dual of the vertical bundle."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        comps = []
        for _ in range(aff.n):
            node = Lit(round(uniform(rng, -1, 1), 3))
            for v in aff.base_vars:
                node = node + Lit(round(uniform(rng, -1, 1), 3)) * ex.Var(v)
                node = node + Lit(round(uniform(rng, -0.5, 0.5), 3)) * ex.Var(v) * ex.Var(v)
            comps.append(node)
        out.append(VStarSection(aff, comps))
    return out


# ------------------------------------------------------------ chart algebra


def test_bidual_trivial_fibration_matches_tangent_structure():
    aff = trivial_fibration(1).chart
    bid = aff.bidual_chart()
    env = {"t": 0.4, "q1": -0.2}
    assert [ex.evaluate(c, env) for c in bid.anchor[0]] == [1.0, 0.0]
    assert [ex.evaluate(c, env) for c in bid.anchor[1]] == [0.0, 1.0]
    assert all(
        ex.evaluate(bid.structure[a][b][c], env) == 0.0
        for a in range(2)
        for b in range(2)
        for c in range(2)
    )


def test_bidual_never_outputs_adapted_section():
    for bundle in all_models():
        bid = bundle.chart.bidual_chart()
        d_e0 = differential(KSection.basis_covector(bid, 0))
        assert d_e0.coeffs == {}  # exactly zero, not approximately


def test_bidual_charts_validate():
    for bundle in all_models():
        report = validate_chart(bundle.chart.bidual_chart(), bundle.sample)
        assert report.valid, bundle.name


def test_vertical_chart_trivial_picks_configuration_directions():
    aff = trivial_fibration(1).chart
    vert = aff.vertical_chart()
    env = {"t": 0.1, "q1": 0.9}
    assert [ex.evaluate(c, env) for c in vert.anchor[0]] == [0.0, 1.0]


def test_vertical_chart_rigid_body():
    aff = rigid_body(1, 2, 3).chart
    vert = aff.vertical_chart()
    env = {"t": 0.0}
    for a in range(3):
        assert [ex.evaluate(c, env) for c in vert.anchor[a]] == [0.0]
        for b in range(3):
            for g in range(3):
                assert ex.evaluate(vert.structure[a][b][g], env) == ex.evaluate(aff.CV[a][b][g], env)


def test_vertical_charts_validate():
    for bundle in all_models():
        assert validate_chart(bundle.chart.vertical_chart(), bundle.sample).valid


def test_prolongation_charts_validate():
    for bundle in all_models():
        report = validate_chart(bundle.chart.prolongation().chart, bundle.sample)
        assert report.valid, bundle.name


def test_prolongation_differential_formulas():
    # lifted adapted covector and vertical covectors are closed; lifted
    # model covectors differentiate to minus the structure-function wedge
    for bundle in all_models():
        aff = bundle.chart
        n = aff.n
        pro = aff.prolongation().chart
        assert differential(KSection.basis_covector(pro, 0)).coeffs == {}
        for g in range(n):
            assert differential(KSection.basis_covector(pro, n + 1 + g)).coeffs == {}
        envs = phase_envs(bundle, count=15)
        for g in range(n):
            ds = differential(KSection.basis_covector(pro, 1 + g))
            for env in envs:
                vals = section_values(ds, env)
                for (a, b), v in vals.items():
                    assert b <= n, "no vertical component may appear"
                    if a == 0:
                        expected = -ex.evaluate(aff.C0[b - 1][g], env)
                    else:
                        expected = -ex.evaluate(aff.CV[a - 1][b - 1][g], env)
                    assert v == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------- cosymplectic pair


def test_eta_is_constant_covector_with_zero_differential():
    for bundle in all_models():
        one = eta(bundle.chart)
        env = phase_envs(bundle, count=1)[0]
        vals = section_values(one, env)
        assert vals == {(0,): 1.0}
        assert differential(one).coeffs == {}


def test_eta_of_reeb_is_one():
    for bundle in all_models():
        r = reeb(bundle.hamiltonian)
        for env in phase_envs(bundle, count=20):
            assert r(env)[0] == 1.0


def test_omega_trivial_fibration_classical_form():
    # time-dependent H on (t, q, p): coefficients reproduce
    # dq^dp + H_q dq^dt + H_p dp^dt
    aff = trivial_fibration(1).chart
    h = HamiltonianSection(aff, "p1^2/2+sin(t)*q1")
    om = omega_h(h)
    for env in points(SamplePlan(count=25, seed=3), ["t", "q1", "p1"]):
        vals = section_values(om, env)
        h_q = math.sin(env["t"])
        h_p = env["p1"]
        assert vals[(1, 2)] == pytest.approx(1.0, abs=1e-14)
        assert vals[(0, 1)] == pytest.approx(-h_q, abs=1e-12)
        assert vals[(0, 2)] == pytest.approx(-h_p, abs=1e-12)


def test_omega_constant_hamiltonian_flat_brackets():
    aff = trivial_fibration(2).chart
    h = HamiltonianSection(aff, "3.5")
    om = omega_h(h)
    env = points(SamplePlan(count=1, seed=9), aff.prolongation().chart.base_vars)[0]
    vals = {k: v for k, v in section_values(om, env).items() if v != 0.0}
    assert vals == {(1, 3): 1.0, (2, 4): 1.0}


def test_omega_closed_for_every_model():
    for bundle in all_models():
        d_om = differential(omega_h(bundle.hamiltonian))
        worst, _ = section_max_abs(d_om, phase_plan(bundle, count=25))
        assert worst <= 1e-8, bundle.name


def test_omega_equals_pullback_construction():
    # local-formula transcription against the graph-morphism pullback of the
    # canonical symplectic section: independent sign conventions
    for bundle in all_models():
        om_local = omega_h(bundle.hamiltonian)
        om_pulled = omega_h_from_pullback(bundle.hamiltonian)
        assert section_max_diff(om_local, om_pulled, phase_plan(bundle, count=20)) <= 1e-12


def test_omega_equals_minus_d_lambda():
    for bundle in all_models():
        lam = lambda_h(bundle.hamiltonian)
        pro = bundle.chart.prolongation().chart
        minus_dlam = section_combine(-1.0, differential(lam), 0.0, KSection(pro, 2, {}))
        worst = section_max_diff(omega_h(bundle.hamiltonian), minus_dlam, phase_plan(bundle, count=15))
        assert worst <= 1e-8, bundle.name


def test_lambda_local_form():
    # pairing pullback gives (-H, y_a, 0) in the ordered basis
    for bundle in all_models():
        aff = bundle.chart
        lam = lambda_h(bundle.hamiltonian)
        for env in phase_envs(bundle, count=10):
            vals = section_values(lam, env)
            assert vals.get((0,), 0.0) == pytest.approx(-ex.evaluate(bundle.hamiltonian.H, env), abs=1e-13)
            for a in range(aff.n):
                assert vals.get((1 + a,), 0.0) == pytest.approx(env[aff.fiber_vars[a]], abs=1e-14)
                assert vals.get((aff.n + 1 + a,), 0.0) == 0.0


# --------------------------------------------------------------- Reeb section


def test_reeb_trivial_free_particle():
    bundle = trivial_fibration(1)
    r = reeb(bundle.hamiltonian)({"t": 0.0, "q1": 0.0, "p1": 1.0})
    assert r == [1.0, 1.0, -0.0]


def test_reeb_flat_zero_hamiltonian():
    aff = trivial_fibration(2).chart
    h = HamiltonianSection(aff, 0.0)
    r = reeb(h)({"t": 0.2, "q1": 0.3, "q2": -0.5, "p1": 0.1, "p2": 0.9})
    assert r == [1.0, 0.0, 0.0, -0.0, -0.0]


def test_reeb_closed_formula_matches_defining_equations():
    for bundle in all_models():
        r = reeb(bundle.hamiltonian)
        om = omega_h(bundle.hamiltonian)
        for env in phase_envs(bundle, count=100, seed=41):
            closed = r(env)
            solved = reeb_solve(bundle.hamiltonian, env, omega=om)
            assert solved.residual <= 1e-10
            for a, b in zip(closed, solved.coefficients):
                assert abs(a - b) <= 1e-10, bundle.name


def test_reeb_solve_on_pullback_omega():
    # the defining-equation oracle run on the independently built 2-section
    bundle = rigid_body(1.0, 2.0, 3.0)
    om = omega_h_from_pullback(bundle.hamiltonian)
    r = reeb(bundle.hamiltonian)
    for env in phase_envs(bundle, count=20, seed=8):
        solved = reeb_solve(bundle.hamiltonian, env, omega=om)
        assert max(abs(a - b) for a, b in zip(r(env), solved.coefficients)) <= 1e-10


def test_reeb_contractions():
    for bundle in all_models():
        r = reeb(bundle.hamiltonian)
        om = omega_h(bundle.hamiltonian)
        pro = bundle.chart.prolongation().chart
        for env in phase_envs(bundle, count=25, seed=13):
            v = r(env)
            for b in range(pro.rank):
                contraction = sum(v[a] * component(om, (a, b), env) for a in range(pro.rank))
                assert abs(contraction) <= 1e-10
            assert v[0] == 1.0


def test_reeb_solve_detects_degeneracy():
    # a 2-section missing the pairing block cannot determine the Reeb value
    bundle = trivial_fibration(1)
    pro = bundle.chart.prolongation().chart
    degenerate = KSection(pro, 2, {(0, 1): Lit(1.0)})
    with pytest.raises(DegenerateStructureError):
        reeb_solve(bundle.hamiltonian, {"t": 0.0, "q1": 0.0, "p1": 0.0}, omega=degenerate)


# ---------------------------------------------------------- graph identities


def test_pullback_identities_zero_section_constant_hamiltonian():
    aff = trivial_fibration(1).chart
    h = HamiltonianSection(aff, 2.5)
    gamma = VStarSection(aff, [0.0])
    morph = covector_morphism(gamma)
    pulled = pullback(morph, lambda_h(h))
    for env in points(SamplePlan(count=10, seed=2), aff.base_vars):
        assert section_values(pulled, env) == {(0,): -2.5}
    report = pullback_identities(gamma, h)
    assert report.lambda_dev <= 1e-14
    assert report.omega_dev <= 1e-14


def test_pullback_identities_random_polynomials():
    for bundle in all_models():
        plan = SamplePlan(box=dict(bundle.sample.box), count=25, seed=19)
        for gamma in seeded_polynomial_gammas(bundle.chart):
            report = pullback_identities(gamma, bundle.hamiltonian, plan)
            assert report.lambda_dev <= 1e-8, bundle.name
            assert report.omega_dev <= 1e-8, bundle.name


def test_covector_morphism_commutes_with_differential():
    for bundle in all_models():
        aff = bundle.chart
        pro = aff.prolongation().chart
        gamma = seeded_polynomial_gammas(aff, count=1, seed=67)[0]
        morph = covector_morphism(gamma)
        plan = base_plan(bundle, count=15)
        fiber_poly = KSection.function(pro, ex.parse(f"{aff.fiber_vars[0]}^2+{aff.base_vars[0]}"))
        assert morphism_defect(morph, fiber_poly, plan) <= 1e-8
        for a in (0, 1, aff.n + 1):
            cov = KSection.basis_covector(pro, a)
            assert morphism_defect(morph, cov, plan) <= 1e-8
        assert morphism_defect(morph, lambda_h(bundle.hamiltonian), plan) <= 1e-8


def test_hamiltonian_morphism_commutes_with_differential():
    bundle = harmonic_oscillator()
    morph = hamiltonian_morphism(bundle.hamiltonian)
    ap = bundle.chart.aplus_prolongation()
    plan = phase_plan(bundle, count=10, seed=3)
    assert morphism_defect(morph, ap.liouville(), plan) <= 1e-8
    assert morphism_defect(morph, KSection.basis_covector(ap.chart, 0), plan) <= 1e-8


def test_h_compose_components():
    bundle = harmonic_oscillator()
    gamma = VStarSection(bundle.chart, ["q1^2"])
    hg = h_compose(bundle.hamiltonian, gamma)
    env = {"t": 0.5, "q1": 0.8}
    vals = section_values(hg, env)
    assert vals[(1,)] == pytest.approx(0.64)
    assert vals[(0,)] == pytest.approx(-((0.64**2 + 0.64) / 2.0))


# --------------------------------------------------------------- restriction


def test_vertical_restriction_all_models():
    for bundle in all_models():
        report = vertical_restriction_check(
            bundle.hamiltonian, SamplePlan(box=dict(bundle.sample.box), count=25, seed=29)
        )
        assert report.lambda_dev <= 1e-10, bundle.name
        assert report.omega_dev <= 1e-10, bundle.name
        assert report.eta_dev == 0.0, bundle.name


def test_vertical_restriction_trivial_is_configuration_pairing():
    bundle = trivial_fibration(1)
    vp = bundle.chart.vertical_prolongation()
    om_v = vp.canonical_symplectic()
    env = {"t": 0.3, "q1": 0.7, "p1": -0.2}
    assert section_values(om_v, env) == {(0, 1): 1.0}


# ---------------------------------------------------------------- bad input


def test_chart_shape_validation():
    with pytest.raises(ValueError):
        AffgebroidChart(["t"], ["p"], [1.0, 0.0], [[0.0]], [[0.0]], [[[0.0]]])
    with pytest.raises(ValueError):
        AffgebroidChart(["t"], ["t"], [1.0], [[0.0]], [[0.0]], [[[0.0]]])


def test_hamiltonian_rejects_unknown_variables():
    aff = trivial_fibration(1).chart
    with pytest.raises(ValueError):
        HamiltonianSection(aff, "p1^2/2 + w")


def test_hamiltonian_gradients_match_dual_arithmetic():
    aff = trivial_fibration(2).chart
    h = HamiltonianSection(aff, "p1^2/2+exp(t)*p2*q1-sin(q2)*p1/(2+t^2)")
    for env in points(SamplePlan(count=20, seed=5), aff.all_vars()):
        dv, parts = evaluate_with_partials(h.H, env, aff.all_vars())
        assert ex.evaluate(h.H, env) == dv
        assert [ex.evaluate(d, env) for d in h.partials] == pytest.approx(parts, rel=1e-12, abs=1e-15)


def test_cosection_needs_full_fiber_data():
    aff = trivial_fibration(2).chart
    with pytest.raises(ValueError):
        CoSection(aff, 0.0, ["q1"])


# ------------------------------------------------------ exact coefficients

BUILTIN_NAMES = ["trivial:2", "oscillator", "linear:tangent3", "rigid:1,2,3", "perturbed-so3"]


def test_derived_coefficients_are_expressions_on_every_builtin():
    seen = 0
    for name in BUILTIN_NAMES:
        bundle = by_name(name)
        aff, h = bundle.chart, bundle.hamiltonian
        pro = aff.prolongation().chart
        gamma = seeded_polynomial_gammas(aff, count=1)[0]
        h_morph, g_morph = hamiltonian_morphism(h), covector_morphism(gamma)
        sections = [
            omega_h(h),
            differential(KSection.function(pro, ex.parse(f"{aff.fiber_vars[0]}^2"))),
            differential(KSection.basis_covector(aff.bidual_chart(), 1)),
            differential(h_compose(h, gamma)),
            lambda_h(h),
            omega_h_from_pullback(h),
            pullback(g_morph, omega_h(h)),
        ]
        coeffs = [c for s in sections for c in s.coeffs.values()]
        assert all(isinstance(c, ExprCoeff) for c in coeffs), name
        data = [c for morph in (h_morph, g_morph) for c in morph.base_map]
        data += [c for morph in (h_morph, g_morph) for row in morph.fiber_map for c in row]
        assert all(isinstance(c, ex.Expr) for c in data), name
        seen += len(coeffs) + len(data)
    assert seen > 100


SO3_MODEL_TEXT = """[space]
m = 1
n = 3
vars = s, y1, y2, y3

[structure]
1,2,3 = 1.5
2,3,1 = 2.0
3,1,2 = 0.5
{extra}

[hamiltonian]
H = y1^2/2+y2^2/2+y3^2/2

[sections]
w.alpha0 = s^2
w.alphaV = s, 0, -s
"""


def test_model_data_is_plain_expressions_on_builtins_and_so3_model_files():
    bundles = [by_name(name) for name in BUILTIN_NAMES]
    # the Jacobi-holding and the Jacobi-breaking so(3) bracket table
    bundles += [parse_model_text(SO3_MODEL_TEXT.format(extra=e)) for e in ("", "1,2,2 = 0.25")]
    for bundle in bundles:
        aff, h = bundle.chart, bundle.hamiltonian
        charts = [aff.bidual_chart(), aff.vertical_chart(), aff.prolongation().chart]
        data = [c for chart in charts for row in chart.anchor for c in row]
        data += [c for chart in charts for mat in chart.structure for col in mat for c in col]
        gamma = VStarSection(aff, [ex.Var(aff.base_vars[0])] * aff.n)
        morphs = [hamiltonian_morphism(h), covector_morphism(gamma), vertical_inclusion_morphism(aff)]
        for morph in morphs:
            data += morph.base_map + [c for row in morph.fiber_map for c in row]
        inline = CoSection(aff, "1", [ex.Var(aff.base_vars[0])] * aff.n)
        for alpha in [inline, *bundle.sections.values()]:
            data += [alpha.alpha0, *alpha.alphaV, f_of(h, alpha)]
        assert all(isinstance(c, ex.Expr) for c in data), bundle.name


def test_dd_has_no_coefficients_on_constant_builtin_charts():
    for name in BUILTIN_NAMES[:-1]:
        aff = by_name(name).chart
        for chart in (aff.bidual_chart(), aff.vertical_chart(), aff.prolongation().chart):
            for var in chart.base_vars:
                dd = differential(differential(KSection.function(chart, ex.Var(var))))
                assert dd.coeffs == {}, (name, var)
            for a in range(chart.rank):
                dd = differential(differential(KSection.basis_covector(chart, a)))
                assert dd.coeffs == {}, (name, chart.labels[a])
