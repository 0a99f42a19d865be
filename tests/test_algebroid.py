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
    validate_chart,
)
from affmech.models import by_name, perturbed_so3_chart, so3_chart, tangent_algebroid

from helpers import (
    component, dense_differential, jacobi_cyclic_residual, points, section_combine, section_max_abs,
    section_max_diff, section_values, uniform,
)

PLAN = SamplePlan(count=40, seed=11)  # the points of the checks below


# ------------------------------------------------------------------ sampling


def test_splitmix_known_values():
    rng = SplitMix64(42)
    assert list(rng._outputs(3)) == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_sample_plan_deterministic_and_boxed():
    plan = SamplePlan(box={"a": (0.5, 2.0)}, count=50, seed=123)
    pts1 = points(plan, ["a", "b"])
    pts2 = points(plan, ["a", "b"])
    assert pts1 == pts2
    assert all(0.5 <= p["a"] <= 2.0 for p in pts1)
    assert all(-1.0 <= p["b"] <= 1.0 for p in pts1)
    other = points(SamplePlan(count=50, seed=124), ["a"])
    assert other != points(SamplePlan(count=50, seed=123), ["a"])


# -------------------------------------------------------------- differential


def test_differential_of_constant_is_zero():
    chart = tangent_algebroid(2)
    df = differential(KSection.function(chart, Lit(4.2)))
    assert df.coeffs == {}


def test_differential_tangent_product_rule():
    # tangent chart of the plane: d(x1 x2) has coefficients (x2, x1)
    chart = tangent_algebroid(2)
    df = differential(KSection.function(chart, ex.parse("x1*x2")))
    for env in points(PLAN, chart.base_vars):
        vals = section_values(df, env)
        assert vals[(0,)] == pytest.approx(env["x2"], abs=1e-14)
        assert vals[(1,)] == pytest.approx(env["x1"], abs=1e-14)


def test_differential_so3_basis_covector():
    # with brackets given by the alternating symbol, d e^1 = -e^2 ^ e^3
    chart = so3_chart()
    dtheta = differential(KSection.basis_covector(chart, 0))
    env = {"t": 0.3}
    assert section_values(dtheta, env) == {(1, 2): -1.0}


def test_differential_linearity():
    chart = so3_chart()
    rng = SplitMix64(7)
    s = KSection.one_section(chart, [ex.parse("t^2"), ex.parse("sin(t)"), Lit(1.0)])
    t = KSection.one_section(chart, [ex.parse("t"), Lit(0.5), ex.parse("cos(t)")])
    a, b = uniform(rng, -2, 2), uniform(rng, -2, 2)
    lhs = differential(section_combine(a, s, b, t))
    rhs = section_combine(a, differential(s), b, differential(t))
    assert section_max_diff(lhs, rhs, PLAN) <= 1e-12


def test_differential_keeps_the_zero_partial_term_of_an_infinite_anchor_entry():
    # inf * 0 is NaN, so this term does not fold away: it is built as the dense walk builds it
    chart = AlgebroidChart(["x", "y"], [[ex.parse("1e999"), Lit(1.0)]], [[[Lit(0.0)]]])
    s = KSection.function(chart, Var("y"))
    (coeff,) = differential(s).coeffs.values()
    assert coeff.node == dense_differential(s).coeffs[(0,)].node
    assert math.isnan(coeff.value({"x": 0.0, "y": 0.0}))


def test_differential_degree_cap():
    chart = so3_chart()
    three = KSection(chart, 3, {(0, 1, 2): Lit(1.0)})
    with pytest.raises(ValueError):
        differential(three)


def test_dd_zero_on_section_corpus():
    charts = [tangent_algebroid(2), so3_chart()]
    for chart in charts:
        plan = SamplePlan(count=100, seed=5)
        polys = ["t^2", "0.5*t", "t^3-t", "1"] if chart.dim == 1 else ["x1*x2", "x1^2", "x2", "1"]
        f = KSection.function(chart, ex.parse(polys[0]))
        assert section_max_abs(differential(differential(f)), plan)[0] <= 1e-8
        comps = [ex.parse(polys[(k + 1) % len(polys)]) for k in range(chart.rank)]
        one = KSection.one_section(chart, comps)
        assert section_max_abs(differential(differential(one)), plan)[0] <= 1e-8


# ---------------------------------------------------------------- validation


def test_validate_tangent_chart_exactly_zero():
    report = validate_chart(tangent_algebroid(3))
    assert report.antisymmetry_max == 0.0
    assert report.anchor_max == 0.0
    assert report.jacobi_max == 0.0
    assert report.valid


@pytest.mark.parametrize("name, sums", [
    ("trivial:3", 0), ("linear:tangent3", 0), ("oscillator", 0), ("rigid:1,2,3", 9),
])
def test_validate_chart_builds_no_node_for_a_term_that_folds_away(name, sums, monkeypatch):
    aff = by_name(name).chart
    charts = [aff.bidual_chart(), aff.vertical_chart(), aff.prolongation().chart]
    ops = []
    init = ex.BinOp.__init__

    def spy(node, op, lhs, rhs):
        ops.append(op)
        init(node, op, lhs, rhs)

    monkeypatch.setattr(ex.BinOp, "__init__", spy)
    for chart in charts:
        validate_chart(chart)
    assert ops == ["+"] * sums  # the antisymmetry residuals C^c_ab + C^c_ba


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
        [[ex.evaluate(chart.structure[a][b][c], env) for c in range(3)] for b in range(3)]
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
    assert section_max_diff(pullback(ident, s), s, PLAN) <= 1e-15
    two = differential(s)
    assert section_max_diff(pullback(ident, two), two, PLAN) <= 1e-15


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
    assert section_max_diff(scaled, doubled, PLAN) <= 1e-15
    # degree 2 picks up the determinant of the 2x2 blocks: factor 4
    two = KSection(chart, 2, {(0, 1): ex.parse("t"), (1, 2): Lit(1.0)})
    quad = pullback(double, two)
    expected = section_combine(4.0, two, 0.0, KSection.zero(chart, 2))
    assert section_max_diff(quad, expected, PLAN) <= 1e-15


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
    # chart data, morphism data and section coefficients are expressions only
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
    with pytest.raises(TypeError):
        KSection.one_section(chart, [fn, Lit(1.0), Lit(0.0)])


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
    plan = SamplePlan(box={"t": (1e200, 1e201)}, count=3)
    assert math.isnan(section_max_abs(nan_section, plan)[0])
    assert math.isnan(section_max_diff(nan_section, KSection.zero(chart, 0), plan))


# -------------------------------------------------------------- k-sections


def test_ksection_component_signs():
    chart = so3_chart()
    s = KSection(chart, 2, {(0, 1): Lit(5.0)})
    env = {"t": 0.0}
    assert component(s, (0, 1), env) == 5.0
    assert component(s, (1, 0), env) == -5.0
    assert component(s, (1, 1), env) == 0.0


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
    assert points(SamplePlan(box={"a": (2.0, 2.0)}, count=3), ["a"]) == [{"a": 2.0}] * 3


def test_sample_points_are_the_splitmix_uniform_draws_bit_for_bit():
    boxes = [{}, {"t": (0.5, 0.5)}, {"t": (-0.0, -0.0), "q1": (-3.0, 1e-300)}, {"q2": (2.0, 7.5)}]
    variable_lists = [["t"], ["t", "q1"], ["q1", "t", "q2", "q3"], []]
    for seed in (0, 1, 42, 2**64 + 5, -7):
        for count in (1, 3, 17):
            for box in boxes:
                for variables in variable_lists:
                    plan = SamplePlan(box=box, count=count, seed=seed)
                    rng = SplitMix64(seed)
                    want = [
                        {v: uniform(rng, *plan.interval(v)) for v in variables}
                        for _ in range(count)
                    ]
                    got = points(plan, variables)
                    assert [list(p) for p in got] == [list(p) for p in want]
                    assert [[x.hex() for x in p.values()] for p in got] == [
                        [x.hex() for x in p.values()] for p in want
                    ]
