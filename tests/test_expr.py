import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import expr as ex
from affmech import models
from affmech.expr import BinOp, Call, Lit, Neg, Var

from helpers import (
    compile_exprs,
    corpus_points,
    evaluate_with_partials,
    expression_corpus,
    fd_partials,
    fold_add,
    fold_div,
    fold_mul,
    fold_sub,
    frozen_literal_value,
    from_frozen,
    parse_outcome,
    reference_parse,
    to_frozen,
)


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


# reference_parse in helpers is the oracle of expr.parse: every outcome must be
# its outcome, trees and errors alike.
ALPHABET = [
    *"0123456789", ".", "e", "E", *"+-*/^()", "x", "q1", " ", "\t", "\xa0", "\x1c",
    "\u0663", "$", "sin(", "sqrt(", "log(", "sinh(", "f(", "2.5", "1e3", "7E-2",
]


def _well_formed(rng, depth):
    """A well-formed source string, with random spacing."""
    pad = lambda: rng.choice(["", "", " ", "\t", "\xa0 "])
    if depth <= 0 or rng.random() < 0.2:
        atom = rng.choice(["x", "q1", "t_2", "0", "3", "0.25", "12.5e-3", "4E+2", "9e9"])
        return pad() + atom + pad()
    kind = rng.randrange(5)
    if kind == 0:
        return _well_formed(rng, depth - 1) + rng.choice("+-*/^") + _well_formed(rng, depth - 1)
    if kind == 1:
        return pad() + "-" + _well_formed(rng, depth - 1)
    if kind == 2:
        return pad() + rng.choice(sorted(ex.FUNCTIONS)) + "(" + _well_formed(rng, depth - 1) + ")"
    if kind == 3:
        return pad() + "(" + _well_formed(rng, depth - 1) + ")" + pad()
    return "*".join(_well_formed(rng, depth - 2) for _ in range(rng.randint(2, 4)))


def test_parse_matches_the_reference_on_generated_strings():
    rng = random.Random(20261021)
    sources = ["".join(rng.choices(ALPHABET, k=rng.randint(0, 12))) for _ in range(50_000)]
    sources += [_well_formed(rng, 6) for _ in range(3_000)]
    outcomes = [parse_outcome(ex.parse, src) for src in sources]
    assert outcomes == [parse_outcome(reference_parse, src) for src in sources]
    trees = sum(isinstance(o, list) for o in outcomes)
    assert 3_000 < trees < len(sources) - 10_000  # both trees and errors are well represented


@pytest.mark.parametrize("src", ["", "   ", "x ", "2.", ".5", "1e", "x y", "sinh(x)"])
def test_parse_edge_cases_match_the_reference(src):
    assert parse_outcome(ex.parse, src) == parse_outcome(reference_parse, src)


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_sums_and_products_parse_to_the_left_deep_tree(op):
    src = op.join(f"x{k}" for k in range(20_000))
    e = ex.parse(src)
    for k in reversed(range(1, 20_000)):
        assert e.op == op and e.rhs == Var(f"x{k}")
        e = e.lhs
    assert e == Var("x0")
    assert parse_outcome(ex.parse, src) == parse_outcome(reference_parse, src)


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


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_trig_of_an_infinite_value_is_a_domain_error(fn, x):
    # math.sin(inf) raises ValueError, which is no evaluation error
    with pytest.raises(ex.DomainError, match=f"{fn} of infinite value in '{fn}\\(x\\)'"):
        ex.evaluate(ex.parse(f"1 + {fn}(x)"), {"x": x})
    assert math.isnan(ex.evaluate(ex.parse(f"{fn}(x)"), {"x": math.nan}))


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
    v, parts = evaluate_with_partials(ex.parse("x^2*y"), {"x": 3.0, "y": 2.0}, ["x", "y"])
    assert v == 18.0
    assert parts == [12.0, 9.0]


def test_partials_sin_at_zero():
    v, parts = evaluate_with_partials(ex.parse("sin(x)"), {"x": 0.0}, ["x"])
    assert v == 0.0
    assert parts == [1.0]


def test_partials_quotient_and_chain():
    e = ex.parse("exp(2*x)/(1+y^2)")
    env = {"x": 0.3, "y": 0.7}
    v, parts = evaluate_with_partials(e, env, ["x", "y"])
    assert v == pytest.approx(math.exp(0.6) / 1.49)
    assert parts[0] == pytest.approx(2 * math.exp(0.6) / 1.49)
    assert parts[1] == pytest.approx(-math.exp(0.6) * 1.4 / 1.49**2)


def test_partials_zero_base_literal_exponent():
    _, parts = evaluate_with_partials(ex.parse("x^2"), {"x": 0.0}, ["x"])
    assert parts == [0.0]
    _, parts = evaluate_with_partials(ex.parse("x^1"), {"x": 0.0}, ["x"])
    assert parts == [1.0]
    v, parts = evaluate_with_partials(ex.parse("x^0"), {"x": 0.0}, ["x"])
    assert v == 1.0 and parts == [0.0]


def test_partials_only_requested_variables():
    _, parts = evaluate_with_partials(ex.parse("x*y+z"), {"x": 2.0, "y": 5.0, "z": 1.0}, ["y"])
    assert parts == [2.0]


def test_ad_matches_fd_on_corpus():
    corpus = expression_corpus(200)
    checked = 0
    for k, e in enumerate(corpus):
        variables = sorted(ex.scan([e])[0])
        if not variables:
            continue
        for env in corpus_points(e, count=8, seed=1000 + k):
            _, ad = evaluate_with_partials(e, env, variables)
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


def _trees():
    """Trees as the parser builds them: literals are finite and not negative."""
    literals = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Lit)
    names = st.sampled_from(["x", "y", "t", "sin", "e1", "p_2"]).map(Var)
    return st.recursive(
        literals | names,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(Call, st.sampled_from(sorted(ex.FUNCTIONS)), sub),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_trees())
def test_round_trip_property(e):
    assert ex.parse(ex.to_string(e)) == e, ex.to_string(e)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_trees())
def test_round_trip_agrees_with_the_frozen_oracle(e):
    back = ex.parse(ex.to_string(e))
    assert to_frozen(back) == to_frozen(e)
    assert repr(back) == repr(e)


# ------------------------------------------- nodes against the frozen dataclasses


def _any_trees():
    """Trees with every literal a constructor can meet: signed zeros, infinities,
    NaN and negative values, and negations of negated literals."""
    special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0])
    literals = (st.floats() | special).map(Lit)
    names = st.sampled_from(["x", "y"]).map(Var)
    return st.recursive(
        literals | names,
        lambda sub: st.one_of(
            sub.map(Neg),
            sub.map(Neg).map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(Call, st.sampled_from(sorted(ex.FUNCTIONS)), sub),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_any_trees(), _any_trees())
def test_nodes_compare_hash_and_print_as_the_frozen_dataclasses(a, b):
    # from_frozen(to_frozen(a)) is a distinct tree over the same float objects
    nodes = [a, b, from_frozen(to_frozen(a)), Lit(0.0), Lit(-0.0), Lit(math.nan)]
    for x in nodes:
        fx = to_frozen(x)
        assert hash(x) == hash(fx)
        assert repr(x) == repr(fx)
        assert repr(x.lit) == repr(frozen_literal_value(fx))
        for y in nodes:
            assert (x == y) == (fx == to_frozen(y))
            assert (x != y) == (fx != to_frozen(y))


def test_node_equality_hand_cases():
    nan = math.nan
    assert Lit(0.0) == Lit(-0.0) and hash(Lit(0.0)) == hash(Lit(-0.0))
    assert repr(Lit(-0.0)) == "Lit(value=-0.0)"
    assert Lit(nan) == Lit(nan) and Lit(nan) != Lit(float("nan"))  # the same float object, or not
    assert BinOp("+", Var("x"), Lit(1.0)) != Call("sin", Var("x")) and Var("x") != "x"
    assert [e.lit for e in (Lit(2.0), Neg(Lit(2.0)), Neg(Neg(Lit(2.0))))] == [2.0, -2.0, None]
    assert ex.neg(Neg(Neg(Lit(2.0)))) == Neg(Lit(2.0))


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


def test_scan_lists_the_variables_and_finds_a_literal_zero_divisor():
    assert ex.scan([ex.parse("x*sin(y)+2")]) == ({"x", "y"}, False)
    assert ex.scan([ex.parse("x"), ex.BinOp("/", ex.Var("z"), ex.Lit(0.0))]) == ({"x", "z"}, True)
    deep = ex.Var("w")
    for _ in range(5000):  # past the recursion limit: the walk keeps a stack
        deep = ex.Call("sin", deep)
    assert ex.scan([deep]) == ({"w"}, False)


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


FOLD_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, 1e-308, 1e308, ex.parse("1e999").value]
FOLD_OPERANDS = (
    [Lit(v) for v in FOLD_VALUES]
    + [Neg(Lit(v)) for v in FOLD_VALUES]
    + [Var("x"), Neg(Var("x"))]
)


@pytest.mark.parametrize("build, reference", [
    (ex.add, fold_add), (ex.sub, fold_sub), (ex.mul, fold_mul), (ex.div, fold_div),
])
def test_folding_constructors_equal_their_reference_fold(build, reference):
    # every pair of signed zeros, tiny, huge and infinite literals, negated or not:
    # sums and products that overflow, inf - inf, inf * 0 and x/0 keep their nodes
    assert FOLD_VALUES[-1] == math.inf
    for a in FOLD_OPERANDS:
        for b in FOLD_OPERANDS:
            assert repr(build(a, b)) == repr(reference(a, b)), (a, b)


def test_literal_quotients_fold_keeping_the_sign_of_zero():
    assert repr(ex.div(Lit(0.0), Lit(-2.0))) == "Lit(value=-0.0)"
    assert ex.div(Lit(1e308), Lit(0.5)) == BinOp("/", Lit(1e308), Lit(0.5))
    for zero in (Lit(0.0), Lit(-0.0), Neg(Lit(0.0))):
        for num in (Lit(0.0), Lit(1.0)):
            with pytest.raises(ex.DomainError, match="division by zero"):
                ex.evaluate(ex.div(num, zero), {})


def test_building_a_model_folds_its_literal_quotients_without_the_interpreter(monkeypatch):
    calls = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
    models.by_name("rigid:1,2,3")  # its divisors 2, 4 and 6 meet zero numerators
    assert calls == []


def test_diff_of_structural_zero_is_literal_zero():
    assert ex.diff(ex.parse("4.2"), "x") == Lit(0.0)
    assert ex.diff(ex.parse("sin(y)*exp(z)+y^3"), "x") == Lit(0.0)
    assert ex.diff(ex.parse("x*y"), "x") == Var("y")


def _rule_diff(e, var):
    """``ex.diff`` by its rules alone, every term built and folded: the reference."""
    if isinstance(e, Lit):
        return Lit(0.0)
    if isinstance(e, Var):
        return Lit(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return ex.neg(_rule_diff(e.arg, var))
    if isinstance(e, Call):
        return ex.mul(ex._CHAIN[e.fn](e), _rule_diff(e.arg, var))
    a, b = e.lhs, e.rhs
    da = _rule_diff(a, var)
    if e.op == "^":
        c = b.lit
        if c == 0.0:
            return Lit(0.0)
        if c == 1.0:
            return da
        if c is not None:
            return ex.mul(ex.mul(c, ex.power(a, c - 1.0)), da)
        log_term = ex.mul(_rule_diff(b, var), ex.call("log", a))
        return ex.mul(e, ex.add(log_term, ex.div(ex.mul(b, da), a)))
    db = _rule_diff(b, var)
    if e.op in "+-":
        return (ex.add if e.op == "+" else ex.sub)(da, db)
    if e.op == "*":
        return ex.add(ex.mul(da, b), ex.mul(a, db))
    return ex.div(ex.sub(da, ex.mul(e, db)), b)


def test_diff_equals_its_rules_where_it_skips_zero_terms():
    # literal operands (zeros of both signs, negatives, a literal divisor of 0) and
    # subtrees free of the variable reach every place where diff returns 0 unbuilt
    rng = random.Random(11)
    atoms = ["x", "y", "2", "0", "3.5", "-1", "-0", "(1/0)"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(atoms)
        pick = rng.random()
        if pick < 0.5:
            return f"({gen(depth - 1)}{rng.choice('+-*/^')}{gen(depth - 1)})"
        if pick < 0.65:
            return f"-{gen(depth - 1)}"
        if pick < 0.85:
            return f"{rng.choice(sorted(ex.FUNCTIONS))}({gen(depth - 1)})"
        return f"({gen(depth - 1)})^{rng.choice(['2', '3', '0', '1', '-1', '0.5'])}"

    exprs = expression_corpus() + [ex.parse(gen(4)) for _ in range(3000)]
    for e in exprs:
        for v in ("x", "y", "w"):
            assert repr(ex.diff(e, v)) == repr(_rule_diff(e, v)), (ex.to_string(e), v)


def test_diff_matches_dual_arithmetic_on_corpus():
    checked = 0
    for k, e in enumerate(expression_corpus(200)):
        variables = sorted(ex.scan([e])[0])
        if not variables:
            continue
        derivs = [ex.diff(e, v) for v in variables]
        for env in corpus_points(e, count=8, seed=1000 + k):
            _, ad = evaluate_with_partials(e, env, variables)
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
        variables = sorted(ex.scan([e])[0])
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
        variables = sorted(ex.scan([e])[0])
        derivs = [ex.diff(e, v) for v in variables]
        fn = compile_exprs([e], variables)
        points = corpus_points(e, count=20, seed=3000 + k, box=(0.1, 2.0))
        assert len(points) == 20
        for env in points:
            _, ad = evaluate_with_partials(e, env, variables)
            for d, a in zip(derivs, ad):
                assert ex.evaluate(d, env) == pytest.approx(a, rel=1e-12, abs=1e-300), (src, env)
            assert fn([env[v] for v in variables]) == [ex.evaluate(e, env)], (src, env)


def test_non_literal_exponents_diff_matches_sympy():
    sp = pytest.importorskip("sympy")
    for k, src in enumerate(NON_LITERAL_POWERS):
        e = ex.parse(src)
        sym = _to_sympy(e, sp)
        for v in sorted(ex.scan([e])[0]):
            reference = sp.diff(sym, sp.Symbol(v))
            d = ex.diff(e, v)
            for env in corpus_points(e, count=5, seed=3100 + k, box=(0.1, 2.0)):
                subs = {sp.Symbol(name): sp.Float(val, 30) for name, val in env.items()}
                expected = float(reference.evalf(30, subs=subs))
                assert ex.evaluate(d, env) == pytest.approx(expected, rel=1e-12), (src, v, env)


def test_non_literal_exponent_of_non_positive_base_raises():
    e = ex.parse("x^y")
    fn = compile_exprs([e], ["x", "y"])
    for x in (0.0, -0.0, -1.5):
        env = {"x": x, "y": 2.0}
        with pytest.raises(ex.DomainError):
            ex.evaluate(e, env)
        with pytest.raises(ex.DomainError):
            evaluate_with_partials(e, env, ["x", "y"])
        with pytest.raises(ArithmeticError):
            fn([x, 2.0])


# ------------------------------------------------------------ depth limit


DEPTH_K = {  # name -> source nested k levels deep
    "parens": lambda k: "(" * k + "x" + ")" * k,
    "calls": lambda k: "sin(" * k + "x" + ")" * k,
    "minus": lambda k: "-" * k + "x",
    "powers": lambda k: "2^" * k + "x",
    "powers of x": lambda k: "x^" * k + "x",
}


@pytest.mark.parametrize("nest", DEPTH_K.values(), ids=DEPTH_K.keys())
def test_parse_accepts_the_depth_limit_and_rejects_one_more(nest):
    e = ex.parse(nest(ex.MAX_DEPTH))
    assert ex.parse(ex.to_string(e)) == e
    with pytest.raises(ex.ParseError, match="nested deeper than 100 levels"):
        ex.parse(nest(ex.MAX_DEPTH + 1))
    # with a tail after it, the depth error's token is not the end of the input
    for src in [nest(ex.MAX_DEPTH), nest(ex.MAX_DEPTH + 1), nest(ex.MAX_DEPTH + 1) + " + 1"]:
        assert parse_outcome(ex.parse, src) == parse_outcome(reference_parse, src)


def test_long_sums_and_products_are_not_nesting():
    # they parse in a loop: 50 groups of 50 terms nest only 50 levels deep
    src = "x"
    for _ in range(50):
        src = "(" + "+".join([src] + ["x"] * 49) + ")"
    assert isinstance(ex.parse(src), ex.BinOp)
    assert isinstance(ex.parse("*".join(["x"] * 5000)), ex.BinOp)
