"""Compiled expressions and the compiled Hamilton field against the interpreter."""

import math
import random

import pytest

from affmech import expr as ex
from affmech import dynamics, hj
from affmech.affgebroid import AffgebroidChart, HamiltonianSection, hamilton_field
from affmech.cli import main
from affmech.dynamics import (
    hamilton_stage,
    integrate,
    integrate_field,
    interpret,
    reduced_stage,
)
from affmech.hj import verify_theorem
from affmech.expr import BinOp, Call, Lit, Neg, Var
from affmech.models import by_name

from helpers import (
    CORPUS_VARS,
    compile_exprs,
    corpus_points,
    evaluate_with_partials,
    expression_corpus,
    hamilton_rhs,
)

BUILTINS = ["trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3", "perturbed-so3"]


def outcome(fn, *args):
    """The value fn returns, or RAISES where it raises an evaluation error."""
    try:
        return fn(*args)
    except (ex.EvalError, ArithmeticError, ValueError):
        return RAISES


RAISES = object()


# ------------------------------------------------------------------ compile


def test_compiled_corpus_equals_evaluate_bit_for_bit():
    for e in expression_corpus():
        variables = sorted(ex.scan([e])[0]) or ["x"]
        fn = compile_exprs([e], variables)
        for env in corpus_points(e):
            assert fn([env[v] for v in variables]) == [ex.evaluate(e, env)]


def test_one_function_for_the_whole_corpus():
    corpus = expression_corpus(count=60)
    fn = compile_exprs(corpus, CORPUS_VARS)
    rng = random.Random(5)
    for _ in range(20):
        env = {v: rng.uniform(-2.0, 2.0) for v in CORPUS_VARS}
        try:
            values = fn([env[v] for v in CORPUS_VARS])
        except (ArithmeticError, ValueError):
            continue
        assert values == [ex.evaluate(e, env) for e in corpus]


def test_compiled_raises_where_evaluate_raises():
    # the corpus on a box wider than its safe one, plus domain edges
    cases = expression_corpus(count=80)
    cases += [
        ex.parse(src)
        for src in (
            "log(x)", "sqrt(x)", "1/x", "x^-1", "x^0.5", "x^y", "exp(1000*x)",
            "10^(400*x)", "(x-1)^(-2)", "x^0", "tan(x)", "2^x", "x/(y-z)",
        )
    ]
    rng = random.Random(17)
    points = [{v: rng.choice([-1.0, 0.0, 1.0, 0.5, -0.0]) for v in CORPUS_VARS} for _ in range(30)]
    points += [{v: rng.uniform(-6.0, 6.0) for v in CORPUS_VARS} for _ in range(30)]
    raised = 0
    for e in cases:
        fn = compile_exprs([e], CORPUS_VARS)
        for env in points:
            want = outcome(ex.evaluate, e, env)
            got = outcome(fn, [env[v] for v in CORPUS_VARS])
            where = (ex.to_string(e), env)
            if want is RAISES:
                assert got is RAISES, where
                raised += 1
            elif math.isnan(want):
                assert got is not RAISES and math.isnan(got[0]), where
            else:
                assert got == [want], where
    assert raised > 50


def test_compiled_literals_keep_sign_of_zero_and_non_finite_values():
    x = Var("x")
    exprs = [x + Lit(0.0), x + Lit(-0.0), x * Lit(math.inf), Neg(Lit(-0.0)), Lit(2)]
    fn = compile_exprs(exprs, ["x"])
    for value in (-0.0, 0.0, 1.5):
        got = fn([value])
        want = [ex.evaluate(e, {"x": value}) for e in exprs]
        for a, b in zip(got, want):
            assert (a == b or (math.isnan(a) and math.isnan(b)))
            assert math.copysign(1.0, a) == math.copysign(1.0, b)


def test_literal_powers_match_the_interpreter_at_their_edges():
    exponents = [3.0, 3, 2.0, 1.5, 0.0, -1.0, -2.0, -0.5, math.inf, -math.inf, math.nan]
    bases = [-0.0, 0.0, -2.0, -0.5, 0.5, 2.0, 1e200, -1e200, math.inf, -math.inf, math.nan]
    for c in exponents:
        e = BinOp("^", Var("x"), Lit(c))
        fn = compile_exprs([e], ["x"])
        for x in bases:
            want = outcome(ex.evaluate, e, {"x": x})
            got = outcome(fn, [x])
            if want is RAISES or got is RAISES:
                assert want is got, (c, x)
                continue
            [got] = got
            assert got == want or (math.isnan(got) and math.isnan(want)), (c, x)
            assert math.copysign(1.0, got) == math.copysign(1.0, want), (c, x)


def test_common_subexpressions_are_computed_once():
    src = "sin(x*y)*cos(x*y) + (x*y)^2"
    one = compile_exprs([ex.parse(src)], ["x", "y"])
    two = compile_exprs([ex.parse(src), ex.parse(src)], ["x", "y"])
    assert two.__code__.co_nlocals == one.__code__.co_nlocals
    assert two([0.3, 0.7]) == one([0.3, 0.7]) * 2


def test_unbound_variable_is_reported_at_compile_time():
    with pytest.raises(ex.UnboundVariableError):
        compile_exprs([ex.parse("x + w")], ["x"])
    with pytest.raises(ex.UnboundVariableError):
        dynamics.compile_rk4([ex.parse("x + w")], ["x"])
    assert dynamics._kernel([ex.parse("x + w")], ["x"]) is None


def nested(depth):
    e = Var("x")
    for k in range(depth):
        e = Call("sin", e) if k % 2 else BinOp("+", e, Lit(0.25))
    return e


def test_expression_300_deep_compiles_and_matches():
    e = nested(300)
    fn = compile_exprs([e], ["x"])
    assert fn([0.3]) == [ex.evaluate(e, {"x": 0.3})]


def test_expression_too_deep_fails_as_the_interpreter_does():
    e = nested(5000)
    with pytest.raises(RecursionError):
        ex.evaluate(e, {"x": 0.3})
    with pytest.raises(RecursionError):
        compile_exprs([e], ["x"])
    chart = AffgebroidChart(["x"], ["y"], [1.0], [[e]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y^2/2")
    stage = hamilton_stage(h)
    with pytest.raises(RecursionError):
        interpret(*stage)([0.3, 1.0])
    with pytest.raises(RecursionError):
        dynamics.compile_rk4(*stage)
    assert dynamics._kernel(*stage) is None
    shallow = AffgebroidChart(["x"], ["y"], [1.0], [[nested(300)]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(shallow, "y^2/2")
    assert compiled_field(h)([0.3, 1.0])[:2] == interpret(*hamilton_stage(h))([0.3, 1.0])


# ------------------------------------------------- hamilton_field and its oracle


def compiled_field(h):
    """The field, then H and its partials, as one straight-line function."""
    return compile_exprs(hamilton_field(h) + [h.H, *h.partials], h.chart.all_vars())


def varying_chart():
    """A chart whose anchor and structure functions all depend on x."""
    chart = AffgebroidChart(
        ["t", "q"],
        ["y1", "y2"],
        ["1", "sin(q)"],
        [["0", "exp(t/4)"], ["q^2", "1+t*q"]],
        [["0", "cos(q)"], ["-cos(q)", "0"]],
        [[["0", "0"], ["t", "q"]], [["-t", "-q"], ["0", "0"]]],
    )
    return HamiltonianSection(chart, "y1^2/2 + y2^2/(2+q^2) + t*q*y1 + sin(q)")


def assert_field_matches_the_oracle(h, seed):
    """``hamilton_field``, compiled, equals the term-by-term sums at 50 seeded states."""
    rng = random.Random(seed)  # str seeds are not salted per process
    width = len(h.chart.all_vars())
    stage = compiled_field(h)
    for _ in range(50):
        state = [rng.uniform(-2.0, 2.0) for _ in range(width)]
        # the same float operations in the same order, but for the terms that
        # fold away in hamilton_field: adding them may change only a zero's sign
        assert stage(state)[:width] == hamilton_rhs(h, state), state


@pytest.mark.parametrize("name", BUILTINS + ["varying"])
def test_compiled_field_matches_hamilton_rhs(name):
    h = varying_chart() if name == "varying" else by_name(name).hamiltonian
    assert_field_matches_the_oracle(h, name)


def test_the_oracle_catches_a_sign_flipped_in_one_row_of_the_field(monkeypatch):
    rows = hamilton_field(varying_chart())
    for k in range(len(rows)):
        h = varying_chart()
        # hamilton_field returns the rows cached on the section
        monkeypatch.setattr(h, "field_rows", rows[:k] + [ex.neg(rows[k])] + rows[k + 1 :])
        assert hamilton_field(h)[k] != rows[k]
        with pytest.raises(AssertionError):
            assert_field_matches_the_oracle(h, "varying")


def test_rigid_body_field_keeps_only_the_bracket_terms():
    exprs = hamilton_field(by_name("rigid:1,2,3").hamiltonian)
    assert exprs[0] == Lit(1.0)

    def products(e):
        if isinstance(e, BinOp) and e.op in "+-":
            return products(e.lhs) + products(e.rhs)
        return [e]

    terms = [term for e in exprs[1:] for term in products(e)]
    assert len(terms) == 6
    assert all(isinstance(t, BinOp) and t.op == "*" and isinstance(t.lhs, Var) for t in terms)


def log_anchor_chart(rho0=1.0):
    chart = AffgebroidChart(["x1"], ["y1"], [rho0], [["log(x1)"]], [[0.0]], [[[0.0]]])
    return HamiltonianSection(chart, "y1^2/2")


def test_fallback_where_the_interpreter_skips_a_domain_error():
    # dH/dy = 0 multiplies log(x1): the factor does not take the term out of
    # the field's domain, so both fields raise, and both flows end on the
    # interpreter's DomainError
    h = log_anchor_chart()
    state = [-1.0, 0.0]
    with pytest.raises(ex.DomainError, match="log of non-positive value in 'log\\(x1\\)'"):
        interpret(*hamilton_stage(h))(state)
    with pytest.raises(ValueError):
        compiled_field(h)(state)
    compiled = integrate(h, state, 0.0, 0.1, 1e-2)
    interpreted = integrate_field(interpret(*hamilton_stage(h)), state, 0.0, 0.1, 1e-2)
    assert compiled.error == interpreted.error
    assert compiled.error == "domain violation at t=0.0: log of non-positive value in 'log(x1)'"


def test_fallback_where_the_compiled_field_meets_inf_times_zero():
    chart = AffgebroidChart(["x1"], ["y1"], [1.0], [["x1*1e308"]], [[0.0]], [[[0.0]]])
    h = HamiltonianSection(chart, "y1^2/2")
    state = [10.0, 0.0]  # rhoV = inf, dH/dy = 0: both fields compute inf*0
    assert math.isnan(interpret(*hamilton_stage(h))(state)[0])
    assert math.isnan(compiled_field(h)(state)[0])


def test_leaving_the_domain_reports_the_interpreters_error():
    h = log_anchor_chart(rho0=-1.0)
    state0 = [0.5, 0.1]
    compiled = integrate(h, state0, 0.0, 2.0, 1e-2)
    interpreted = integrate_field(interpret(*hamilton_stage(h)), state0, 0.0, 2.0, 1e-2)
    assert not compiled.ok
    assert compiled.error == interpreted.error
    assert compiled.error.startswith("domain violation at t=")
    assert "log of non-positive value in 'log(x1)'" in compiled.error
    assert compiled.states == interpreted.states


def test_the_interpreter_compiles_nothing(monkeypatch):
    h, calls = by_name("oscillator").hamiltonian, []
    # every generated function goes through _build
    for owner, name in ((ex, "_build"), (dynamics, "compile_rk4")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    field = interpret(*hamilton_stage(h))
    assert field([0.0, 1.0, 0.0]) == [1.0, 0.0, -1.0]
    assert calls == []


def test_field_raises_where_the_hamiltonian_is_undefined():
    # dH/dq1 = 1/q1 stays finite for q1 < 0, where H itself is undefined;
    # the interpreter evaluates H at every state, so the compiled field must too
    h = HamiltonianSection(by_name("oscillator").chart, "p1^2/2 + log(q1)")
    with pytest.raises(ex.DomainError, match="log of non-positive value in 'log\\(q1\\)'"):
        interpret(*hamilton_stage(h))([0.0, -0.5, 1.0])
    state0 = [0.0, 0.5, -2.0]  # q1 falls through 0
    compiled = integrate(h, state0, 0.0, 1.0, 1e-2)
    interpreted = integrate_field(interpret(*hamilton_stage(h)), state0, 0.0, 1.0, 1e-2)
    assert not compiled.ok and "log of non-positive value" in compiled.error
    assert compiled.error == interpreted.error
    assert compiled.states == interpreted.states


def test_verify_compiles_one_kernel_and_each_sampled_check_once(monkeypatch, capsys):
    calls = []
    # every generated function goes through _build
    for owner, name in ((ex, "_build"), (dynamics, "compile_rk4")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert main(["verify", "trivial:3", "--alpha", "w_free", "--points", "5"]) == 0
    assert capsys.readouterr().out.count("point_") == 5
    # one kernel (stage and check); no sampled check and no field alone is compiled
    assert calls == ["compile_rk4", "_build"]
    calls.clear()
    assert main(["verify", "linear:tangent3", "--alpha", "const", "--points", "1"]) == 0
    assert calls == ["compile_rk4", "_build"]
    capsys.readouterr()
    bundle = by_name("oscillator")
    alpha, h = bundle.sections["w_osc"], bundle.hamiltonian
    calls.clear()
    checks, real = [], hj._theorem_check
    monkeypatch.setattr(hj, "_theorem_check", lambda *args: checks.append(real(*args)) or checks[-1])
    assert len(list(verify_theorem(alpha, h, [[0.1, 0.5], [0.2, 0.3]], 0.5, 1e-2))) == 2
    assert calls == ["compile_rk4", "_build"]
    # the check's partials of alphaV against the dual-number oracle: the
    # residual is (dalpha[0]*X[0] + dalpha[1]*X[1]) - F
    x = [0.3, 0.7]
    env = dict(zip(bundle.chart.base_vars, x))
    value, partials = evaluate_with_partials(alpha.alphaV[0], env, bundle.chart.base_vars)
    ((residual,),) = checks
    dalpha = [residual.lhs.lhs.lhs, residual.lhs.rhs.lhs]
    assert [ex.evaluate(d, env) for d in dalpha] == partials
    assert interpret(*reduced_stage(alpha, h))(x)[:2] == hamilton_rhs(h, x + [value])[:2]
