"""The batched evaluator (``expr.evaluate_many``) and the sampled checks built on it.

``evaluate_many`` must give the interpreter's values bit for bit (compared
by ``repr``, so signed zeros, inf and NaN count), and decline exactly where
``evaluate`` raises at some point.  ``algebroid.columns`` then reruns the
interpreter, so every error, its message and its ``point`` are those of a
loop of ``evaluate`` over the points, at any chunk size.  The largest
|value| of each family and its key, reduced from the columns, must be those
of the point-by-point loop (``helpers.point_major_max_abs``); a check walks
all of its families at once and draws only the variables it reads, and
where that walk declines it draws and interprets no more than a chunk at a
time.  ``helpers.FixedPoints`` serves given points, NaN inputs included, in
place of a SamplePlan.
"""

import contextlib
import dataclasses
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import affgebroid, algebroid, hj
from affmech import expr as ex
from affmech.affgebroid import (
    CoSection, HamiltonianSection, PullbackIdentitiesReport, RestrictionReport, VStarSection,
)
from affmech.algebroid import KSection, SamplePlan, columns, differential, pullback
from affmech.cli import main
from affmech.modelfile import parse_model_text
from affmech.models import by_name

from helpers import (
    CORPUS_VARS, FixedPoints, by_column, corpus_points, expression_corpus, point_major_max_abs,
    points, section_check, section_max_abs, section_max_diff,
)

EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e200, -1e200, math.inf, -math.inf, math.nan]


def interpreted(exprs, envs):
    """The per-point loop: the values of each expression, or the error's type, message and point."""
    values = [[] for _ in exprs]
    for env in envs:
        try:
            for column, e in zip(values, exprs):
                column.append(ex.evaluate(e, env))
        except ex.EvalError as err:
            return type(err), str(err), env
    return repr(values)


def batched(exprs, envs):
    """``columns`` over the points, in the shape of ``interpreted``."""
    try:
        return repr(columns(exprs, envs))
    except ex.EvalError as err:
        return type(err), str(err), err.point


def many(exprs, envs):
    """``expr.evaluate_many`` at ``envs``, read as columns."""
    return ex.evaluate_many(exprs, *by_column(envs))


def raises_somewhere(e, envs):
    return any(isinstance(interpreted([e], [env]), tuple) for env in envs)


def generated(count, seed):
    """Seeded sources over x and y with every operator, zero literals of both signs and 1/0."""
    rng = random.Random(seed)
    atoms = ["x", "y", "2", "0", "-0", "3.5", "1e300", "(1/0)"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(atoms)
        pick = rng.random()
        if pick < 0.5:
            return f"({gen(depth - 1)}{rng.choice('+-*/^')}{gen(depth - 1)})"
        if pick < 0.6:
            return f"-{gen(depth - 1)}"
        if pick < 0.8:
            return f"{rng.choice(sorted(ex.FUNCTIONS))}({gen(depth - 1)})"
        return f"({gen(depth - 1)})^{rng.choice(['2', '3', '0', '-1', '-2', '0.5', '1.5'])}"

    return [ex.parse(gen(4)) for _ in range(count)]


# ---------------------------------------------------------- evaluate_many


def test_evaluate_many_equals_evaluate_on_the_corpus():
    corpus = expression_corpus(200)
    for e in corpus:
        envs = corpus_points(e, count=20)
        assert repr(many([e], envs)) == repr([[ex.evaluate(e, env) for env in envs]])
    # the whole corpus in one walk
    rng = random.Random(3)
    envs = [{v: rng.uniform(-0.3, 0.3) for v in CORPUS_VARS} for _ in range(30)]
    envs = [env for env in envs if not any(raises_somewhere(e, [env]) for e in corpus)]
    assert len(envs) > 10
    want = [[ex.evaluate(e, env) for env in envs] for e in corpus]
    assert repr(many(corpus, envs)) == repr(want)


def test_evaluate_many_equals_evaluate_or_declines_where_it_raises():
    rng = random.Random(8)
    grid = [{"x": x, "y": y} for x in EDGES for y in EDGES]
    declined = 0
    for e in generated(1500, seed=8):
        envs = rng.sample(grid, 6) + [{"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}]
        got = many([e], envs)
        if raises_somewhere(e, envs):
            assert got is None, ex.to_string(e)
            declined += 1
        else:
            want = [[ex.evaluate(e, env) for env in envs]]
            assert repr(got) == repr(want), (ex.to_string(e), envs)
    assert declined > 200


def test_evaluate_many_keeps_signed_zeros_and_non_finite_values():
    x = ex.Var("x")
    exprs = [
        x + ex.Lit(0.0), x + ex.Lit(-0.0), x * ex.Lit(math.inf), ex.Neg(ex.Lit(-0.0)), ex.Lit(2),
        ex.parse("x^3"), ex.parse("-x^2"), ex.parse("log(x)"), ex.parse("sqrt(x)"),
        ex.parse("x^0.5"), ex.parse("x^-1"), ex.parse("2^x"), ex.parse("x^x"), ex.parse("x/x"),
    ]
    for value in (-0.0, 0.0, 1.5, math.inf, math.nan):
        envs = [{"x": value}]
        for e in exprs:
            want = interpreted([e], envs)
            got = many([e], envs)
            assert (got is None) if isinstance(want, tuple) else repr(got) == want, (e, value)
    # NaN reaches log, sqrt and ^ without an error, as in the interpreter
    nan = [{"x": math.nan}]
    for src in ("log(x)", "sqrt(x)", "x^0.5", "x^2", "x^-1", "2^x", "x^x", "1.5^(x*0)"):
        e = ex.parse(src)
        assert repr(many([e], nan)) == repr([[ex.evaluate(e, nan[0])]]), src


def test_evaluate_many_declines_an_unbound_variable_and_a_tree_too_deep():
    assert many([ex.parse("x + w")], [{"x": 1.0}]) is None
    e = ex.Var("x")
    for _ in range(5000):
        e = ex.Call("sin", e)
    assert many([e], [{"x": 0.3}]) is None
    with pytest.raises(RecursionError):
        batched([e], [{"x": 0.3}])  # the interpreter's error, not swallowed


# ------------------------------------------------------------ errors


@pytest.mark.parametrize("src,bad", [
    ("log(t)", -1.0), ("sqrt(t)", -1.0), ("t^0.5", -1.0), ("t^-1", 0.0), ("1/t", 0.0),
    ("(t+2)^(t*1e3)", 1.0),  # overflows
])
def test_an_error_in_a_later_chunk_is_the_interpreters(src, bad):
    e = ex.parse(src)
    envs = [{"t": 0.25 + k / 4096} for k in range(3 * algebroid.CHUNK)]
    envs[algebroid.CHUNK + 37]["t"] = math.nan  # reaches the function without an error
    fail = 2 * algebroid.CHUNK + 5
    envs[fail]["t"] = envs[fail + 7]["t"] = bad  # the first error is the one reported
    want = interpreted([e], envs)
    assert isinstance(want, tuple) and want[2] is envs[fail]
    assert batched([e], envs) == want
    assert batched([ex.parse("sin(t)"), e], envs) == interpreted([ex.parse("sin(t)"), e], envs)


@pytest.mark.parametrize("src", ["log(q1)", "sqrt(q1)", "q1^1.5", "q1^-2"])
def test_nan_inputs_and_errors_of_a_section_are_the_interpreters(src, monkeypatch):
    chart = by_name("oscillator").chart.bidual_chart()
    s = KSection(chart, 1, {(0,): ex.parse("t*q1"), (1,): ex.parse(src)})
    envs = [{"t": 0.5, "q1": q} for q in (0.5, math.nan, 0.25, -0.5, 0.0, 2.0)]
    prefixes = [envs[:2], envs[:3], envs]  # NaN only, then NaN and a number, then an error
    got = [outcome(lambda: section_max_abs(s, FixedPoints(part))) for part in prefixes]
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, columns, count: None)
    assert got == [outcome(lambda: section_max_abs(s, FixedPoints(part))) for part in prefixes]
    assert got[0] == got[1] == repr((math.nan, (1,)))
    assert got[2][0] is ex.DomainError


def outcome(fn):
    """The repr of a result, or the type, message and point of the evaluation error raised."""
    try:
        return repr(fn())
    except ex.EvalError as err:
        return type(err), str(err), err.point


# ------------------------------------------------------------ chunk sizes


SECTIONS = [("trivial:3", "w_free"), ("trivial:3", "w_cubic"), ("oscillator", "w_osc"),
            ("oscillator", "alphaV=log(q1)"), ("oscillator", "alphaV=q1*1e308*10")]


@pytest.mark.parametrize("name,sec", SECTIONS)
def test_results_do_not_depend_on_the_chunk_size(name, sec, monkeypatch):
    bundle = by_name(name)
    alpha = bundle.sections.get(sec) or CoSection(bundle.chart, "0", [sec.split("=")[1]])
    box = {v: (-0.3, 0.6) for v in bundle.chart.base_vars}
    plan = SamplePlan(box=box, count=2 * algebroid.CHUNK + 3, seed=5)
    checks = [differential(alpha.as_bidual_section()), hj._vertical_df(alpha, bundle.hamiltonian)]
    results = []
    for size in (1, algebroid.CHUNK, algebroid.CHUNK + 1):
        monkeypatch.setattr(algebroid, "CHUNK", size)
        results.append([outcome(lambda: section_max_abs(s, plan)) for s in checks])
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, columns, count: None)
    results.append([outcome(lambda: section_max_abs(s, plan)) for s in checks])
    assert results[0] == results[1] == results[2] == results[3]


def test_f_values_of_hj_do_not_depend_on_the_chunk_size(monkeypatch, capsys):
    argv = ["hj", "trivial:3", "--alpha", "w_free", "--samples", "600"]
    outputs = []
    for size in (1, algebroid.CHUNK, algebroid.CHUNK + 1):
        monkeypatch.setattr(algebroid, "CHUNK", size)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "f_mean = " in outputs[0]


# ------------------------------------------------------------ sampled checks


def test_sampled_check_evaluates_in_batches_and_reruns_the_interpreter_on_errors(monkeypatch):
    chart = by_name("rigid:1,2,3").chart.bidual_chart()  # one base variable, t
    s = KSection(chart, 1, {(0,): ex.parse("log(t)"), (1,): ex.parse("t*1e308*10")})
    check = section_check(s)
    evaluated, real = [], ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(env["t"]) or real(e, env))
    assert check(FixedPoints([{"t": 0.01}])) == (0.01 * 1e308 * 10, (1,))
    assert check(FixedPoints([{"t": 0.5}])) == (math.inf, (1,))
    assert evaluated == []  # the batched values served both points, inf included
    monkeypatch.setattr(algebroid, "CHUNK", 2)
    envs = [{"t": 0.01}, {"t": 0.02}, {"t": 0.03}, {"t": -1.0}, {"t": 0.04}]
    with pytest.raises(ex.DomainError, match="log of non-positive value") as info:
        check(FixedPoints(envs))
    assert info.value.point == {"t": -1.0}
    # the first chunk was batched; the interpreter ran the second from its start
    assert set(evaluated) == {0.03, -1.0}


def test_the_sampled_check_samples_only_the_unproved_coefficients(monkeypatch):
    # (0,) is proved 0 and skipped; only (1,) and (2,) are walked
    chart = by_name("rigid:1,2,3").chart.bidual_chart()
    coeffs = {(0,): "t*t - t*t", (1,): "sin(t)", (2,): "cos(t)"}
    s = KSection(chart, 1, {k: ex.parse(c) for k, c in coeffs.items()})
    plan = SamplePlan(count=5)
    walked, real = [], ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many",
                        lambda e, cols, n: walked.append(e) or real(e, cols, n))
    assert section_check(s)(plan) == section_max_abs(s, plan)
    assert section_check(s)(plan)[1] == (2,)
    assert walked == [[ex.parse("sin(t)"), ex.parse("cos(t)")]] * 3


def test_the_sampled_check_proves_its_coefficients_once(monkeypatch):
    calls, real = [], ex.is_zero
    monkeypatch.setattr(ex, "is_zero", lambda e: calls.append(e) or real(e))
    chart = by_name("rigid:1,2,3").chart.bidual_chart()
    coeffs = {(0,): "t*t - t*t", (1,): "sin(t)", (2,): "t^2 - 1"}
    s = KSection(chart, 1, {k: ex.parse(c) for k, c in coeffs.items()})
    check = section_check(s)
    assert len(calls) == 3
    for plan in (SamplePlan(count=5), SamplePlan(box={"t": (2.0, 3.0)}, count=4, seed=9)):
        assert check(plan) == section_max_abs(s, plan)
    assert len(calls) == 3 + 2 * 3  # section_max_abs proves on every call; the check does not
    # verify builds each check once per section, however many start points it draws
    counts = []
    for points in ("2", "4"):
        calls.clear()
        assert main(["verify", "trivial:3", "--alpha", "w_free", "--points", points]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ------------------------------------------------------- the reduction


VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -2.0, math.inf, -math.inf, math.nan]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    count=st.sampled_from([1, algebroid.CHUNK, algebroid.CHUNK + 1]),
    sizes=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_the_columnar_reduction_keeps_the_point_major_winner(count, sizes, seed):
    # families of residuals that each read one column: mostly zeros, with values from a
    # small pool, so that ties across keys and points, NaNs at several points and keys,
    # +-0.0, +-inf, all-zero and empty families all occur
    rng = random.Random(seed)
    pool = rng.sample(VALUES[1:-1], rng.randint(1, 3)) + [math.nan] * rng.randint(0, 1)
    dense = rng.choice([0.0, 2 / count, 0.05, 0.5, 1.0])
    values, families = {}, []
    for f, size in enumerate(sizes):
        nodes = {}
        for q in range(size):
            name = f"v{f}_{q}"
            values[name] = [rng.choice(pool) if rng.random() < dense else 0.0 for _ in range(count)]
            nodes[(f, q)] = ex.Var(name)
        families.append(nodes)
    envs = [{name: column[p] for name, column in values.items()} for p in range(count)]
    want = [repr(point_major_max_abs(list(nodes), [values[e.name] for e in nodes.values()]))
            for nodes in families]
    declined = mock.patch.object(ex, "evaluate_many", lambda exprs, columns, count: None)
    for route in (contextlib.nullcontext(), declined):  # the walk, then the per-point path
        with route:
            got = algebroid._max_abs(
                [(nodes, set()) for nodes in families], list(values), FixedPoints(envs)
            )
        assert [repr(found[:2]) for found in got] == want


def test_a_check_of_several_families_keeps_the_values_it_is_asked_to_keep():
    plan = SamplePlan(count=algebroid.CHUNK + 3, seed=4)
    f, g = ex.parse("t*t - 1"), ex.parse("sin(t)")
    got = algebroid._max_abs([({(): f}, set()), ({(0,): g}, set())], ["t"], plan, keep=(0,))
    envs = points(plan, ["t"])
    assert got[0][2] == [[ex.evaluate(f, env) for env in envs]] and got[1][2] is None
    assert got[1][:2] == point_major_max_abs([(0,)], [[ex.evaluate(g, env) for env in envs]])


# ------------------------------------------------------- one walk, few draws


def test_hj_walks_its_three_families_in_one_call(monkeypatch, capsys):
    calls, real = [], ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many",
                        lambda e, cols, n: calls.append((list(e), n)) or real(e, cols, n))
    draws, real_units = [], SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units",
                        lambda self, *a: draws.append(a) or real_units(self, *a))
    argv = ["hj", "trivial:3", "--alpha", "w_free", "--samples"]
    assert main(argv + [str(algebroid.CHUNK)]) == 0
    capsys.readouterr()
    bundle = by_name("trivial:3")
    alpha, h = bundle.section("w_free"), bundle.hamiltonian
    sampled = [
        [c.node for c in s.coeffs.values() if not ex.is_zero(c.node)]
        for s in (differential(alpha.as_bidual_section()), hj._vertical_df(alpha, h))
    ]
    assert sampled[0] and sampled[1]
    assert calls == [([*sampled[0], hj.f_of(h, alpha), *sampled[1]], algebroid.CHUNK)]
    # past one chunk, one walk per chunk, which draws each variable's units at its points
    calls.clear()
    draws.clear()
    assert main(argv + [str(algebroid.CHUNK + 1)]) == 0
    capsys.readouterr()
    assert [n for _, n in calls] == [algebroid.CHUNK, 1]
    chunks = [(0, algebroid.CHUNK), (algebroid.CHUNK, 1)]
    assert sorted(draws) == sorted((4, j, *c) for c in chunks for j in range(4))


SO3_OFF_DIAGONAL = """
[space]
m = 1
n = 3
vars = t, p1, p2, p3

[structure]
1,2,3 = 0.7
2,3,1 = 1.3
3,1,2 = -0.4
1,2,2 = 0.9

[hamiltonian]
H = p1^2/2 + p2^2/2 + p3^2/2
"""


def test_checks_whose_residuals_read_no_variable_draw_nothing(monkeypatch, capsys, tmp_path):
    draws, real = [], SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units", lambda self, *a: draws.append(a) or real(self, *a))
    path = tmp_path / "so3_off_diagonal.model"
    path.write_text(SO3_OFF_DIAGONAL)
    for model in ("perturbed-so3", str(path)):
        assert main(["validate", model]) == 1  # a constant Jacobi residual fails
        assert "bidual_valid = False" in capsys.readouterr().out
    assert draws == []
    # a residual that reads t draws t alone, and no fiber coordinate: once for the
    # bidual and vertical views, which share their points, once for the prolongation
    path.write_text(SO3_OFF_DIAGONAL.replace("1,2,2 = 0.9", "1,2,2 = sin(t)"))
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert draws == [(1, 0, 0, 100), (4, 0, 0, 100)]


# ------------------------------------------------------- one call per check


def pullback_identities_per_comparison(gamma, h, plan):
    """``affgebroid.pullback_identities`` with one ``helpers.section_max_diff`` per identity."""
    morph, hg = affgebroid.covector_morphism(gamma), affgebroid.h_compose(h, gamma)
    lambda_dev = section_max_diff(pullback(morph, affgebroid.lambda_h(h)), hg, plan)
    minus_dhg = {idx: ex.neg(c.node) for idx, c in differential(hg).coeffs.items()}
    minus_dhg = KSection(gamma.chart.bidual_chart(), 2, minus_dhg)
    omega_dev = section_max_diff(pullback(morph, affgebroid.omega_h(h)), minus_dhg, plan)
    return PullbackIdentitiesReport(lambda_dev, omega_dev, plan.count)


def restriction_per_comparison(h, plan):
    """``affgebroid.vertical_restriction_check`` with one helper of tests/helpers.py per section."""
    aff = h.chart
    incl, vp = affgebroid.vertical_inclusion_morphism(aff), aff.vertical_prolongation()
    omega = pullback(incl, affgebroid.omega_h(h))
    omega_dev = section_max_diff(omega, vp.canonical_symplectic(), plan)
    lambda_dev = section_max_diff(pullback(incl, affgebroid.lambda_h(h)), vp.liouville(), plan)
    eta_dev, _ = section_max_abs(pullback(incl, affgebroid.eta(aff)), plan)
    return RestrictionReport(lambda_dev, omega_dev, eta_dev, plan.count)


def sqrt_structure(box):
    """A chart whose bracket reads sqrt(t), an H and a plan of CHUNK + 3 points over ``box``."""
    bundle = parse_model_text(SO3_OFF_DIAGONAL.replace("1,2,2 = 0.9", "1,2,2 = sqrt(t)"))
    return bundle.hamiltonian, SamplePlan(box=box, count=algebroid.CHUNK + 3, seed=8)


TRIVIAL3 = by_name("trivial:3")
OSCILLATOR = by_name("oscillator")
LOG_T = HamiltonianSection(OSCILLATOR.chart, "p1^2/2 + log(t)")
WIDE = SamplePlan(count=algebroid.CHUNK + 3, seed=8)  # every variable over (-1, 1)
POSITIVE_T = dataclasses.replace(WIDE, box={"t": (0.2, 2.9)})
PULLBACK_CASES = [
    (VStarSection(TRIVIAL3.chart, ["sin(t)*q1", "q2", "q3*q1"]), TRIVIAL3.hamiltonian, WIDE),
    (VStarSection(TRIVIAL3.chart, ["log(q1)", "q2", "sqrt(q3)"]), TRIVIAL3.hamiltonian, WIDE),
    (VStarSection(OSCILLATOR.chart, ["sin(t)"]), LOG_T, POSITIVE_T),
    (VStarSection(OSCILLATOR.chart, ["sin(t)"]), LOG_T, WIDE),  # log(t) at t <= 0
]
RESTRICTION_CASES = [
    (LOG_T, WIDE),
    sqrt_structure({"t": (0.1, 2.0)}),
    sqrt_structure({}),  # sqrt(t) at t < 0
]


@pytest.fixture
def max_abs_calls(monkeypatch):
    """The ``_max_abs`` calls of affgebroid and the unit draws (k, j, start, n) of every plan."""
    calls, draws = [], []
    real, real_units = algebroid._max_abs, SamplePlan.units
    monkeypatch.setattr(affgebroid, "_max_abs", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(SamplePlan, "units",
                        lambda self, *a: draws.append(a) or real_units(self, *a))
    return calls, draws


@pytest.mark.parametrize("gamma, h, plan", PULLBACK_CASES[:1] + PULLBACK_CASES[2:3])
def test_the_pullback_identities_are_one_call_that_draws_each_column_once(
    gamma, h, plan, max_abs_calls
):
    calls, draws = max_abs_calls
    assert affgebroid.pullback_identities(gamma, h, plan).holds
    assert len(calls) == 1
    # sin(t) is sampled: t is drawn at every chunk, once
    assert {(j, start) for _, j, start, _ in draws} >= {(0, 0), (0, algebroid.CHUNK)}
    assert len(draws) == len(set(draws))


def test_the_vertical_restriction_is_one_call_that_draws_each_column_once(max_abs_calls):
    calls, draws = max_abs_calls
    h, plan = RESTRICTION_CASES[1]
    assert affgebroid.vertical_restriction_check(h, plan).holds
    assert len(calls) == 1
    # sqrt(t) multiplies fiber coordinates: each column read is drawn at every chunk, once
    assert {(j, start) for _, j, start, _ in draws} >= {(0, 0), (0, algebroid.CHUNK)}
    assert len(draws) == len(set(draws))


@pytest.mark.parametrize("gamma, h, plan", PULLBACK_CASES)
def test_the_pullback_identities_report_and_fail_as_one_comparison_at_a_time(gamma, h, plan):
    got = outcome(lambda: affgebroid.pullback_identities(gamma, h, plan))
    assert got == outcome(lambda: pullback_identities_per_comparison(gamma, h, plan))


@pytest.mark.parametrize("h, plan", RESTRICTION_CASES)
def test_the_vertical_restriction_reports_and_fails_as_one_comparison_at_a_time(h, plan):
    got = outcome(lambda: affgebroid.vertical_restriction_check(h, plan))
    assert got == outcome(lambda: restriction_per_comparison(h, plan))


def test_the_failing_cases_raise_a_domain_error_at_a_point():
    # the two routes above agree on these errors, message and point
    failing = [PULLBACK_CASES[1], PULLBACK_CASES[3]]
    for gamma, h, plan in failing:
        assert outcome(lambda: affgebroid.pullback_identities(gamma, h, plan))[0] is ex.DomainError
    h, plan = RESTRICTION_CASES[2]
    got = outcome(lambda: affgebroid.vertical_restriction_check(h, plan))
    assert got[:2] == (ex.DomainError, "sqrt of negative value in 'sqrt(t)'") and got[2]["t"] < 0


def test_a_family_that_cannot_be_built_raises_after_the_errors_of_those_before(monkeypatch):
    bundle = by_name("oscillator")
    h, plan = bundle.hamiltonian, bundle.sample
    broken = CoSection(bundle.chart, "0", [ex.parse("sqrt(q1)*t")])  # d alpha fails at q1 < 0
    with pytest.raises(ex.DomainError) as first:
        hj.cocycle_residual(broken, plan)

    def unbuildable(*args):
        raise RecursionError("d^V f")

    monkeypatch.setattr(hj, "_vertical_df", unbuildable)
    with pytest.raises(ex.DomainError) as info:
        hj.hj_reports(broken, h, plan)
    assert (str(info.value), info.value.point) == (str(first.value), first.value.point)
    with pytest.raises(RecursionError, match="d\\^V f"):
        hj.hj_reports(bundle.section("w_osc"), h, plan)


def test_a_declined_walk_draws_a_chunk_at_a_time_and_interprets_only_its_declining_chunk(
    monkeypatch,
):
    # f = log(q1) is the second family of hj_reports; d alpha, the first, reads 1/q1 and
    # passes.  The first q1 <= 0 is point 10, in the second of three chunks; point 17 is another
    monkeypatch.setattr(algebroid, "CHUNK", 8)
    bundle = by_name("trivial:3")
    alpha, h = CoSection(bundle.chart, "log(q1)", ["0", "0", "0"]), bundle.hamiltonian
    plan = SamplePlan(box={"q1": (-0.1, 1.0)}, count=3 * algebroid.CHUNK, seed=11)
    envs = points(plan, bundle.chart.base_vars)
    assert [p for p, env in enumerate(envs) if env["q1"] <= 0.0] == [10, 17]
    want = interpreted([hj.f_of(h, alpha)], envs)
    assert want[2] is envs[10]
    draws, real_units = [], SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units",
                        lambda self, *a: draws.append(a) or real_units(self, *a))
    evaluated, real = [], ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(env) or real(e, env))
    assert outcome(lambda: hj.hj_reports(alpha, h, plan)) == want
    assert draws and max(n for *_, n in draws) <= algebroid.CHUNK
    at_points = [env for env in evaluated if env]  # _fold evaluates literal nodes at {}
    assert at_points and all(env in envs[8:16] for env in at_points)
    # the per-point path from the first chunk on, as a loop of evaluate meets the error
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, columns, count: None)
    assert outcome(lambda: hj.hj_reports(alpha, h, plan)) == want
