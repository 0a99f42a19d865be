"""The batched evaluator (``expr.evaluate_many``) and the sampled checks built on it.

``evaluate_many`` must give the interpreter's values bit for bit (compared
by ``repr``, so signed zeros, inf and NaN count), and decline exactly where
``evaluate`` raises at some point.  ``algebroid.columns`` then reruns the
interpreter, so every error, its message and its ``point`` are those of a
loop of ``evaluate`` over the points, at any chunk size.
"""

import math
import random

import pytest

from affmech import algebroid, hj
from affmech import expr as ex
from affmech.affgebroid import CoSection
from affmech.algebroid import (
    KSection, SamplePlan, columns, differential, max_abs_check, section_max_abs,
)
from affmech.cli import main
from affmech.models import by_name

from helpers import CORPUS_VARS, corpus_points, expression_corpus

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
    values = [[] for _ in exprs]
    try:
        for _, chunk in columns(exprs, envs):
            for column, part in zip(values, chunk):
                column += part
    except ex.EvalError as err:
        return type(err), str(err), err.point
    return repr(values)


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
        assert repr(ex.evaluate_many([e], envs)) == repr([[ex.evaluate(e, env) for env in envs]])
    # the whole corpus in one walk
    rng = random.Random(3)
    envs = [{v: rng.uniform(-0.3, 0.3) for v in CORPUS_VARS} for _ in range(30)]
    envs = [env for env in envs if not any(raises_somewhere(e, [env]) for e in corpus)]
    assert len(envs) > 10
    want = [[ex.evaluate(e, env) for env in envs] for e in corpus]
    assert repr(ex.evaluate_many(corpus, envs)) == repr(want)


def test_evaluate_many_equals_evaluate_or_declines_where_it_raises():
    rng = random.Random(8)
    grid = [{"x": x, "y": y} for x in EDGES for y in EDGES]
    declined = 0
    for e in generated(1500, seed=8):
        envs = rng.sample(grid, 6) + [{"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}]
        got = ex.evaluate_many([e], envs)
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
            got = ex.evaluate_many([e], envs)
            assert (got is None) if isinstance(want, tuple) else repr(got) == want, (e, value)
    # NaN reaches log, sqrt and ^ without an error, as in the interpreter
    nan = [{"x": math.nan}]
    for src in ("log(x)", "sqrt(x)", "x^0.5", "x^2", "x^-1", "2^x", "x^x", "1.5^(x*0)"):
        e = ex.parse(src)
        assert repr(ex.evaluate_many([e], nan)) == repr([[ex.evaluate(e, nan[0])]]), src


def test_evaluate_many_declines_an_unbound_variable_and_a_tree_too_deep():
    assert ex.evaluate_many([ex.parse("x + w")], [{"x": 1.0}]) is None
    e = ex.Var("x")
    for _ in range(5000):
        e = ex.Call("sin", e)
    assert ex.evaluate_many([e], [{"x": 0.3}]) is None
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
    got = [outcome(lambda: section_max_abs(s, part)) for part in prefixes]
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, envs: None)
    assert got == [outcome(lambda: section_max_abs(s, part)) for part in prefixes]
    assert got[0] == got[1] == repr((math.nan, (1,), envs[1]))
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
    monkeypatch.setattr(ex, "evaluate_many", lambda exprs, envs: None)
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
    check = max_abs_check(s)
    evaluated, real = [], ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: evaluated.append(env["t"]) or real(e, env))
    assert check([{"t": 0.01}]) == (0.01 * 1e308 * 10, (1,), {"t": 0.01})
    assert check([{"t": 0.5}]) == (math.inf, (1,), {"t": 0.5})
    assert evaluated == []  # the batched values served both points, inf included
    monkeypatch.setattr(algebroid, "CHUNK", 2)
    points = [{"t": 0.01}, {"t": 0.02}, {"t": 0.03}, {"t": -1.0}, {"t": 0.04}]
    with pytest.raises(ex.DomainError, match="log of non-positive value") as info:
        check(points)
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
    monkeypatch.setattr(ex, "evaluate_many", lambda e, envs: walked.append(e) or real(e, envs))
    assert max_abs_check(s)(plan) == section_max_abs(s, plan)
    assert max_abs_check(s)(plan)[1] == (2,)
    assert walked == [[ex.parse("sin(t)"), ex.parse("cos(t)")]] * 3


def test_the_sampled_check_proves_its_coefficients_once(monkeypatch):
    calls, real = [], ex.is_zero
    monkeypatch.setattr(ex, "is_zero", lambda e: calls.append(e) or real(e))
    chart = by_name("rigid:1,2,3").chart.bidual_chart()
    coeffs = {(0,): "t*t - t*t", (1,): "sin(t)", (2,): "t^2 - 1"}
    s = KSection(chart, 1, {k: ex.parse(c) for k, c in coeffs.items()})
    check = max_abs_check(s)
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
