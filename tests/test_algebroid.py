import math

import pytest

from affmech import expr as ex
from affmech.expr import Lit, Var
from affmech.algebroid import (
    AlgebroidChart,
    KSection,
    Morphism,
    SamplePlan,
    SplitMix64,
    differential,
    pullback,
    section_combine,
    section_max_abs,
    section_max_diff,
    validate_chart,
)
from affmech.models import perturbed_so3_chart, so3_chart, tangent_algebroid

from helpers import jacobi_cyclic_residual


def envs_for(chart, count=40, seed=11, box=None):
    return SamplePlan(box=box or {}, count=count, seed=seed).points(chart.base_vars)


# ------------------------------------------------------------------ sampling


def test_splitmix_known_values():
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_sample_plan_deterministic_and_boxed():
    plan = SamplePlan(box={"a": (0.5, 2.0)}, count=50, seed=123)
    pts1 = plan.points(["a", "b"])
    pts2 = plan.points(["a", "b"])
    assert pts1 == pts2
    assert all(0.5 <= p["a"] <= 2.0 for p in pts1)
    assert all(-1.0 <= p["b"] <= 1.0 for p in pts1)
    assert SamplePlan(count=50, seed=124).points(["a"]) != SamplePlan(count=50, seed=123).points(["a"])


# -------------------------------------------------------------- differential


def test_differential_of_constant_is_zero():
    chart = tangent_algebroid(2)
    df = differential(KSection.function(chart, Lit(4.2)))
    assert df.coeffs == {}


def test_differential_tangent_product_rule():
    # tangent chart of the plane: d(x1 x2) has coefficients (x2, x1)
    chart = tangent_algebroid(2)
    df = differential(KSection.function(chart, ex.parse("x1*x2")))
    for env in envs_for(chart):
        vals = df.values(env)
        assert vals[(0,)] == pytest.approx(env["x2"], abs=1e-14)
        assert vals[(1,)] == pytest.approx(env["x1"], abs=1e-14)


def test_differential_so3_basis_covector():
    # with brackets given by the alternating symbol, d e^1 = -e^2 ^ e^3
    chart = so3_chart()
    dtheta = differential(KSection.basis_covector(chart, 0))
    env = {"t": 0.3}
    assert dtheta.values(env) == {(1, 2): -1.0}


def test_differential_linearity():
    chart = so3_chart()
    rng = SplitMix64(7)
    s = KSection.one_section(chart, [ex.parse("t^2"), ex.parse("sin(t)"), Lit(1.0)])
    t = KSection.one_section(chart, [ex.parse("t"), Lit(0.5), ex.parse("cos(t)")])
    a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
    lhs = differential(section_combine(a, s, b, t))
    rhs = section_combine(a, differential(s), b, differential(t))
    assert section_max_diff(lhs, rhs, envs_for(chart)) <= 1e-12


def test_differential_degree_cap():
    chart = so3_chart()
    three = KSection(chart, 3, {(0, 1, 2): Lit(1.0)})
    with pytest.raises(ValueError):
        differential(three)


def test_dd_zero_on_section_corpus():
    charts = [tangent_algebroid(2), so3_chart()]
    for chart in charts:
        envs = envs_for(chart, count=100, seed=5)
        polys = ["t^2", "0.5*t", "t^3-t", "1"] if chart.dim == 1 else ["x1*x2", "x1^2", "x2", "1"]
        f = KSection.function(chart, ex.parse(polys[0]))
        assert section_max_abs(differential(differential(f)), envs)[0] <= 1e-8
        comps = [ex.parse(polys[(k + 1) % len(polys)]) for k in range(chart.rank)]
        one = KSection.one_section(chart, comps)
        assert section_max_abs(differential(differential(one)), envs)[0] <= 1e-8


# ---------------------------------------------------------------- validation


def test_validate_tangent_chart_exactly_zero():
    report = validate_chart(tangent_algebroid(3))
    assert report.antisymmetry_max == 0.0
    assert report.anchor_max == 0.0
    assert report.jacobi_max == 0.0
    assert report.valid


def test_validate_so3():
    report = validate_chart(so3_chart())
    assert report.valid
    assert max(report.antisymmetry_max, report.anchor_max, report.jacobi_max) <= 1e-12


def test_validate_perturbed_so3_fails_jacobi():
    chart = perturbed_so3_chart()
    report = validate_chart(chart)
    assert not report.valid
    assert report.jacobi_max >= 0.05
    # independent oracle: brute-force cyclic sums on the constant table
    env = {"t": 0.0}
    table = [
        [[chart.structure[a][b][c].value(env) for c in range(3)] for b in range(3)]
        for a in range(3)
    ]
    brute = jacobi_cyclic_residual(table)
    assert brute >= 0.05
    assert report.jacobi_max == pytest.approx(brute, rel=1e-9)


def test_diagonal_rescaling_keeps_jacobi():
    # rescaling one diagonal bracket constant of a rank-3 chart stays a Lie
    # algebra (cyclic sums land on vanishing diagonal entries), so it is not
    # usable as a Jacobi negative control
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][2], table[1][0][2] = 1.1, -1.1
    table[1][2][0], table[2][1][0] = 1.0, -1.0
    table[2][0][1], table[0][2][1] = 1.0, -1.0
    assert jacobi_cyclic_residual(table) == 0.0
    chart = AlgebroidChart(["t"], [[0.0]] * 3, table)
    assert validate_chart(chart).valid


def test_validate_reports_antisymmetry_violation():
    table = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    table[0][1][0] = 1.0
    table[1][0][0] = -0.9  # asymmetric on purpose
    chart = AlgebroidChart(["u"], [[0.0], [0.0]], table)
    report = validate_chart(chart)
    assert report.antisymmetry_max == pytest.approx(0.1)
    assert not report.valid


def test_validate_anchor_incompatibility():
    # nonzero anchor with zero brackets: [rho(e1), rho(e2)] != rho([e1,e2])
    chart = AlgebroidChart(
        ["u", "v"],
        [["1", "0"], ["u", "1"]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    )
    report = validate_chart(chart)
    assert report.anchor_max >= 0.5
    assert not report.valid


# ------------------------------------------------------------------ pullback


def test_pullback_identity_morphism():
    chart = so3_chart()
    ident = Morphism(
        chart,
        chart,
        [Var("t")],
        [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)],
    )
    s = KSection.one_section(chart, [ex.parse("t"), ex.parse("t^2"), Lit(3.0)])
    assert section_max_diff(pullback(ident, s), s, envs_for(chart)) <= 1e-15
    two = differential(s)
    assert section_max_diff(pullback(ident, two), two, envs_for(chart)) <= 1e-15


def test_pullback_scaling():
    chart = so3_chart()
    double = Morphism(
        chart,
        chart,
        [Var("t")],
        [[2.0 if i == j else 0.0 for j in range(3)] for i in range(3)],
    )
    s = KSection.one_section(chart, [ex.parse("t"), Lit(1.0), Lit(-2.0)])
    scaled = pullback(double, s)
    doubled = section_combine(2.0, s, 0.0, KSection.zero(chart, 1))
    assert section_max_diff(scaled, doubled, envs_for(chart)) <= 1e-15
    # degree 2 picks up the determinant of the 2x2 blocks: factor 4
    two = KSection(chart, 2, {(0, 1): ex.parse("t"), (1, 2): Lit(1.0)})
    quad = pullback(double, two)
    expected = section_combine(4.0, two, 0.0, KSection.zero(chart, 2))
    assert section_max_diff(quad, expected, envs_for(chart)) <= 1e-15


def test_pullback_chart_mismatch():
    chart_a, chart_b = so3_chart(), tangent_algebroid(2)
    morph = Morphism(
        chart_b,
        chart_b,
        [Var("x1"), Var("x2")],
        [[1.0, 0.0], [0.0, 1.0]],
    )
    s = KSection.basis_covector(chart_a, 0)
    with pytest.raises(ValueError):
        pullback(morph, s)


def test_chart_morphism_and_symbolic_operations_reject_callables():
    # callables are accepted only as section coefficients, and pullback and
    # section_combine build expressions, which a callable cannot give
    def fn(env):
        return env["t"]

    with pytest.raises(TypeError):
        AlgebroidChart(["t"], [[fn]], [[[0.0]]])
    chart = so3_chart()
    identity = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    with pytest.raises(TypeError):
        Morphism(chart, chart, [fn], identity)
    with pytest.raises(TypeError):
        Morphism(chart, chart, [Var("t")], [[fn, 0.0, 0.0]] + identity[1:])
    s = KSection.one_section(chart, [fn, Lit(1.0), Lit(0.0)])
    with pytest.raises(TypeError):
        pullback(Morphism(chart, chart, [Var("t")], identity), s)
    for a, b in ((s, KSection.zero(chart, 1)), (KSection.zero(chart, 1), s)):
        with pytest.raises(TypeError):
            section_combine(1.0, a, 1.0, b)


def test_nan_residuals_are_the_maximum():
    # t*t overflows to inf on this box and inf - inf is NaN
    chart = AlgebroidChart(
        ["t"], [[0.0], [0.0]], [[[0.0, 0.0], ["t*t - t*t", 0.0]], [["t*t - t*t", 0.0], [0.0, 0.0]]]
    )
    report = validate_chart(chart, SamplePlan(box={"t": (1e200, 1e201)}, count=3))
    assert math.isnan(report.antisymmetry_max)
    assert not report.valid
    assert "antisymmetry_max = nan" in report.lines()
    nan_section = KSection.function(chart, "t*t - t*t")
    envs = envs_for(chart, count=3, box={"t": (1e200, 1e201)})
    assert math.isnan(section_max_abs(nan_section, envs)[0])
    assert math.isnan(section_max_diff(nan_section, KSection.zero(chart, 0), envs))


# -------------------------------------------------------------- k-sections


def test_ksection_component_signs():
    chart = so3_chart()
    s = KSection(chart, 2, {(0, 1): Lit(5.0)})
    env = {"t": 0.0}
    assert s.component((0, 1), env) == 5.0
    assert s.component((1, 0), env) == -5.0
    assert s.component((1, 1), env) == 0.0


def test_ksection_rejects_bad_indices():
    chart = so3_chart()
    with pytest.raises(ValueError):
        KSection(chart, 2, {(1, 0): Lit(1.0)})
    with pytest.raises(ValueError):
        KSection(chart, 2, {(0, 0): Lit(1.0)})
    with pytest.raises(ValueError):
        KSection(chart, 1, {(7,): Lit(1.0)})
    with pytest.raises(ValueError):
        KSection(chart, 4, {})


def test_sample_plan_rejects_reversed_and_non_finite_boxes():
    for interval in [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="box for 'a'"):
            SamplePlan(box={"a": interval})
    assert SamplePlan(box={"a": (2.0, 2.0)}, count=3).points(["a"]) == [{"a": 2.0}] * 3
