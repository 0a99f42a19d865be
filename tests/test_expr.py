import math

import pytest

from affmech import expr as ex
from affmech.expr import BinOp, Call, Lit, Neg, Var

from helpers import corpus_points, expression_corpus, fd_partials


# ------------------------------------------------------------------ parsing


def test_parse_power_over_division():
    assert ex.parse("p^2/2") == BinOp("/", BinOp("^", Var("p"), Lit(2.0)), Lit(2.0))


def test_parse_unary_minus_binds_looser_than_power():
    assert ex.parse("-x^2") == Neg(BinOp("^", Var("x"), Lit(2.0)))


def test_parse_power_right_associative():
    assert ex.parse("x^y^z") == BinOp("^", Var("x"), BinOp("^", Var("y"), Var("z")))


def test_parse_subtraction_left_associative():
    assert ex.parse("x-y-z") == BinOp("-", BinOp("-", Var("x"), Var("y")), Var("z"))


def test_parse_negative_exponent_and_products():
    assert ex.parse("x^-2") == BinOp("^", Var("x"), Neg(Lit(2.0)))
    assert ex.parse("2*-3") == BinOp("*", Lit(2.0), Neg(Lit(3.0)))


def test_parse_function_application():
    e = ex.parse("sin(x)*cos(x)")
    assert e == BinOp("*", Call("sin", Var("x")), Call("cos", Var("x")))
    assert ex.evaluate(e, {"x": 0.0}) == 0.0


def test_parse_scientific_numbers():
    assert ex.parse("1e5") == Lit(1e5)
    assert ex.parse("2.5e-3") == Lit(2.5e-3)


def test_parse_error_reports_offset_and_expected():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x + * y")
    assert err.value.offset == 4
    assert err.value.expected


def test_parse_error_trailing_input():
    with pytest.raises(ex.ParseError):
        ex.parse("x y")


def test_parse_error_unbalanced_paren():
    with pytest.raises(ex.ParseError):
        ex.parse("(x + y")


def test_parse_error_bad_fraction():
    with pytest.raises(ex.ParseError):
        ex.parse("2.")


def test_unknown_function_name():
    with pytest.raises(ex.UnknownFunctionError) as err:
        ex.parse("sinh(x)")
    assert err.value.name == "sinh"
    assert err.value.offset == 0


# --------------------------------------------------------------- evaluation


def test_eval_basic():
    assert ex.evaluate(ex.parse("x+2*y"), {"x": 1.0, "y": 3.0}) == 7.0
    assert ex.evaluate(ex.parse("exp(0)"), {}) == 1.0


def test_eval_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("x+y"), {"x": 1.0})


def test_eval_domain_violations():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("log(x)"), {"x": -1.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x)"), {"x": -4.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^-1"), {"x": 0.0})


def test_eval_domain_error_reports_subexpression():
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(ex.parse("1 + log(x)"), {"x": -2.0})
    assert "log(x)" in str(err.value)


def test_power_conventions():
    assert ex.evaluate(ex.parse("x^0"), {"x": 0.0}) == 1.0
    assert ex.evaluate(ex.parse("x^3"), {"x": -2.0}) == -8.0
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^0.5"), {"x": -2.0})
    # non-literal exponent goes through exp(v log u): positive base required
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^y"), {"x": -2.0, "y": 2.0})
    assert ex.evaluate(ex.parse("x^y"), {"x": 2.0, "y": 3.0}) == pytest.approx(8.0)


def test_eval_is_pure_and_deterministic():
    e = ex.parse("sin(x)*exp(y)-x/(2+y^2)")
    env = {"x": 0.73, "y": -0.41}
    first = ex.evaluate(e, env)
    assert all(ex.evaluate(e, env) == first for _ in range(5))
    assert env == {"x": 0.73, "y": -0.41}


# ----------------------------------------------------------------- partials


def test_partials_polynomial():
    v, parts = ex.evaluate_with_partials(ex.parse("x^2*y"), {"x": 3.0, "y": 2.0}, ["x", "y"])
    assert v == 18.0
    assert parts == [12.0, 9.0]


def test_partials_sin_at_zero():
    v, parts = ex.evaluate_with_partials(ex.parse("sin(x)"), {"x": 0.0}, ["x"])
    assert v == 0.0
    assert parts == [1.0]


def test_partials_quotient_and_chain():
    e = ex.parse("exp(2*x)/(1+y^2)")
    env = {"x": 0.3, "y": 0.7}
    v, parts = ex.evaluate_with_partials(e, env, ["x", "y"])
    assert v == pytest.approx(math.exp(0.6) / 1.49)
    assert parts[0] == pytest.approx(2 * math.exp(0.6) / 1.49)
    assert parts[1] == pytest.approx(-math.exp(0.6) * 1.4 / 1.49**2)


def test_partials_zero_base_literal_exponent():
    _, parts = ex.evaluate_with_partials(ex.parse("x^2"), {"x": 0.0}, ["x"])
    assert parts == [0.0]
    _, parts = ex.evaluate_with_partials(ex.parse("x^1"), {"x": 0.0}, ["x"])
    assert parts == [1.0]
    v, parts = ex.evaluate_with_partials(ex.parse("x^0"), {"x": 0.0}, ["x"])
    assert v == 1.0 and parts == [0.0]


def test_partials_only_requested_variables():
    _, parts = ex.evaluate_with_partials(ex.parse("x*y+z"), {"x": 2.0, "y": 5.0, "z": 1.0}, ["y"])
    assert parts == [2.0]


def test_ad_matches_fd_on_corpus():
    corpus = expression_corpus(200)
    checked = 0
    for k, e in enumerate(corpus):
        variables = sorted(ex.free_vars(e))
        if not variables:
            continue
        for env in corpus_points(e, count=8, seed=1000 + k):
            _, ad = ex.evaluate_with_partials(e, env, variables)
            fd = fd_partials(e, env, variables)
            for a, f in zip(ad, fd):
                assert abs(a - f) <= 1e-5 * (1.0 + abs(f)), (ex.to_string(e), env)
                checked += 1
    assert checked > 2000


# --------------------------------------------------------------- round trip


def test_round_trip_hand_cases():
    for src in [
        "x^2",
        "-x^2",
        "x^-2",
        "(x+y)*z",
        "x-(y-z)",
        "x/(y/z)",
        "x--y",
        "-(x*y)",
        "(x^2)^3",
        "sin(x)*cos(y)+tan(z)",
        "sqrt(x^2+1)/exp(-x)",
        "1.5e-3*x+2e5",
    ]:
        first = ex.parse(src)
        assert ex.parse(ex.to_string(first)) == first, src


def test_round_trip_corpus():
    for e in expression_corpus(200):
        printed = ex.to_string(e)
        first = ex.parse(printed)
        assert ex.parse(ex.to_string(first)) == first, printed


# ------------------------------------------------------------- substitution


def test_substitute_composes_like_evaluation():
    h = ex.parse("p^2/2+sin(q)")
    sub = ex.substitute(h, {"p": ex.parse("q/(t+1)")})
    env = {"q": 0.8, "t": 0.25}
    inner = dict(env)
    inner["p"] = ex.evaluate(ex.parse("q/(t+1)"), env)
    assert ex.evaluate(sub, env) == pytest.approx(ex.evaluate(h, inner), rel=1e-15)


def test_substitute_is_simultaneous():
    e = ex.parse("x-y")
    swapped = ex.substitute(e, {"x": Var("y"), "y": Var("x")})
    assert ex.evaluate(swapped, {"x": 2.0, "y": 5.0}) == 3.0


def test_free_vars():
    assert ex.free_vars(ex.parse("x*sin(y)+2")) == {"x", "y"}


# -------------------------------------------------- folding and diff


def test_folding_constructors_drop_neutral_elements():
    x = Var("x")
    assert ex.add(x, Lit(0.0)) is x and ex.add(Lit(0.0), x) is x
    assert ex.sub(x, Lit(0.0)) is x
    assert ex.mul(Lit(1.0), x) is x and ex.mul(x, Lit(1.0)) is x
    assert ex.power(x, Lit(1.0)) is x
    assert ex.mul(x, Neg(Lit(0.0))) == Lit(0.0)
    assert ex.div(Lit(0.0), x) == Lit(0.0)
    assert ex.add(Lit(2.0), Neg(Lit(3.0))) == Neg(Lit(1.0))
    assert ex.neg(ex.neg(x)) is x


def test_folding_keeps_literal_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.div(Lit(1), Lit(0)), {})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.call("log", Neg(Lit(1.0))), {})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.power(Lit(0.0), Neg(Lit(1.0))), {})


def test_diff_of_structural_zero_is_literal_zero():
    assert ex.diff(ex.parse("4.2"), "x") == Lit(0.0)
    assert ex.diff(ex.parse("sin(y)*exp(z)+y^3"), "x") == Lit(0.0)
    assert ex.diff(ex.parse("x*y"), "x") == Var("y")


def test_diff_matches_dual_arithmetic_on_corpus():
    checked = 0
    for k, e in enumerate(expression_corpus(200)):
        variables = sorted(ex.free_vars(e))
        if not variables:
            continue
        derivs = [ex.diff(e, v) for v in variables]
        for env in corpus_points(e, count=8, seed=1000 + k):
            _, ad = ex.evaluate_with_partials(e, env, variables)
            for d, a in zip(derivs, ad):
                assert ex.evaluate(d, env) == pytest.approx(a, rel=1e-12, abs=1e-300), (
                    ex.to_string(e),
                    env,
                )
                checked += 1
    assert checked > 2000


def _to_sympy(e, sp):
    if isinstance(e, Lit):
        return sp.Float(e.value, 30)
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, Neg):
        return -_to_sympy(e.arg, sp)
    if isinstance(e, Call):
        return getattr(sp, e.fn)(_to_sympy(e.arg, sp))
    a, b = _to_sympy(e.lhs, sp), _to_sympy(e.rhs, sp)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a**b}[e.op]


def test_diff_matches_sympy_on_corpus():
    sp = pytest.importorskip("sympy")
    checked = 0
    for k, e in enumerate(expression_corpus(60)):
        variables = sorted(ex.free_vars(e))
        if not variables:
            continue
        sym = _to_sympy(e, sp)
        for v in variables:
            reference = sp.diff(sym, sp.Symbol(v))
            d = ex.diff(e, v)
            for env in corpus_points(e, count=3, seed=2000 + k):
                subs = {sp.Symbol(name): sp.Float(val, 30) for name, val in env.items()}
                expected = float(reference.evalf(30, subs=subs))
                assert ex.evaluate(d, env) == pytest.approx(expected, rel=1e-12, abs=1e-12), (
                    ex.to_string(e),
                    v,
                    env,
                )
                checked += 1
    assert checked > 200


NON_LITERAL_POWERS = ["x^y", "(1.5+x*x)^(y-z)", "2^x"]


def test_non_literal_exponents_diff_dual_and_compile_agree():
    # the corpus draws only the exponents 2 and 3, so the x^y rule of diff
    # and the non-literal branch of dual arithmetic need their own inputs
    for k, src in enumerate(NON_LITERAL_POWERS):
        e = ex.parse(src)
        variables = sorted(ex.free_vars(e))
        derivs = [ex.diff(e, v) for v in variables]
        fn = ex.compile([e], variables)
        points = corpus_points(e, count=20, seed=3000 + k, box=(0.1, 2.0))
        assert len(points) == 20
        for env in points:
            _, ad = ex.evaluate_with_partials(e, env, variables)
            for d, a in zip(derivs, ad):
                assert ex.evaluate(d, env) == pytest.approx(a, rel=1e-12, abs=1e-300), (src, env)
            assert fn([env[v] for v in variables]) == [ex.evaluate(e, env)], (src, env)


def test_non_literal_exponents_diff_matches_sympy():
    sp = pytest.importorskip("sympy")
    for k, src in enumerate(NON_LITERAL_POWERS):
        e = ex.parse(src)
        sym = _to_sympy(e, sp)
        for v in sorted(ex.free_vars(e)):
            reference = sp.diff(sym, sp.Symbol(v))
            d = ex.diff(e, v)
            for env in corpus_points(e, count=5, seed=3100 + k, box=(0.1, 2.0)):
                subs = {sp.Symbol(name): sp.Float(val, 30) for name, val in env.items()}
                expected = float(reference.evalf(30, subs=subs))
                assert ex.evaluate(d, env) == pytest.approx(expected, rel=1e-12), (src, v, env)


def test_non_literal_exponent_of_non_positive_base_raises():
    e = ex.parse("x^y")
    fn = ex.compile([e], ["x", "y"])
    for x in (0.0, -0.0, -1.5):
        env = {"x": x, "y": 2.0}
        with pytest.raises(ex.DomainError):
            ex.evaluate(e, env)
        with pytest.raises(ex.DomainError):
            ex.evaluate_with_partials(e, env, ["x", "y"])
        with pytest.raises(ArithmeticError):
            fn([x, 2.0])
