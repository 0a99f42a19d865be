"""The exact zero test ``expr.is_zero`` and the checks that skip what it proves.

sympy is the oracle: every "proved" answer must agree with
``sympy.expand(a - b) == 0`` on exact rational literals, and on small
polynomial trees (which stay far inside the term cap) the answer must be
complete as well.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import affgebroid
from affmech import expr as ex
from affmech.algebroid import (
    AlgebroidChart,
    KSection,
    SamplePlan,
    validate_chart,
)
from affmech.affgebroid import VStarSection, pullback_identities, vertical_restriction_check
from affmech.dynamics import compile_rk4, hamilton_stage
from affmech.expr import BinOp, Call, Lit, Neg, Var
from affmech.models import by_name

from helpers import expression_corpus, points, section_max_abs, section_max_diff

sp = pytest.importorskip("sympy")

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


def to_sympy(e):
    """The tree in sympy, each literal at its exact binary value."""
    if isinstance(e, Lit):
        return sp.Rational(e.value)
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, Neg):
        return -to_sympy(e.arg)
    if isinstance(e, Call):
        return getattr(sp, e.fn)(to_sympy(e.arg))
    a, b = to_sympy(e.lhs), to_sympy(e.rhs)
    if e.op == "^":
        return a**b
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]


def sympy_zero(e) -> bool:
    return sp.expand(to_sympy(e)) == 0


def polynomials(depth=3):
    """Polynomial trees at most ``depth`` levels deep; degree at most 8 in x, y, z."""
    leaf = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 0.1, 1.5, 1e-3, 7.25]).map(Lit),
        st.sampled_from(["x", "y", "z"]).map(Var),
    )
    if depth == 0:
        return leaf
    sub = polynomials(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(lambda a, c: BinOp("/", a, Lit(c)), sub, st.sampled_from([2.0, 0.5, 3.0])),
        st.builds(lambda a, k: BinOp("^", a, Lit(k)), sub, st.sampled_from([0.0, 1.0, 2.0])),
    )


# ------------------------------------------------------------ the proof


def test_is_zero_cases():
    proved = ["x*x - x^2", "(x+y)^2 - (x^2+2*x*y+y^2)", "x/2 - 0.5*x", "x/3*3 - x",
              "x/(1+1) - 0.5*x", "x^0 - 1", "-(x-y) - (y-x)", "0"]
    not_proved = [
        "0.1+0.2-0.3",  # binary literals: not 0 exactly
        "x - y", "x^2 - x", "1",
        "sin(x) - sin(x)", "x/y - x/y", "x^2.5 - x^2.5", "x^-1 - x^-1",  # not polynomials
        "x/(1-1) - x/(1-1)",  # evaluation divides by zero
        "x^33 - x^33", "(x^16)^3 - (x^16)^3", "2^33 - 2^33",  # degree above MAX_DEGREE
    ]
    for src in proved:
        assert ex.is_zero(ex.parse(src)), src
    for src in not_proved:
        assert not ex.is_zero(ex.parse(src)), src
    for v in (float("inf"), float("nan")):
        assert not ex.is_zero(BinOp("-", Lit(v), Lit(v)))


def test_is_zero_agrees_with_sympy_on_the_corpus():
    corpus = expression_corpus(200)
    proved = 0
    for a, b in zip(corpus, corpus[1:] + corpus[:1]):
        for lhs, rhs in [(a, a), (a, ex.substitute(a, {})), (a, b)]:
            d = BinOp("-", lhs, rhs)
            if ex.is_zero(d):
                proved += 1
                assert sympy_zero(d), ex.to_string(d)
    assert proved >= 50


@PROPERTY
@given(polynomials(), polynomials())
def test_is_zero_agrees_with_sympy_on_polynomial_pairs(a, b):
    d = BinOp("-", a, b)
    assert ex.is_zero(d) == sympy_zero(d), ex.to_string(d)


@PROPERTY
@given(polynomials(), polynomials(), polynomials())
def test_is_zero_proves_ring_identities(a, b, c):
    for lhs, rhs in [
        ((a + b) * c, a * c + b * c),
        ((a - b) ** Lit(2.0), a * a - Lit(2.0) * a * b + b * b),
        (a * b * c, c * (b * a)),
        (a / Lit(3.0) * Lit(3.0), a),
    ]:
        d = BinOp("-", lhs, rhs)
        assert ex.is_zero(d) and sympy_zero(d), ex.to_string(d)
        # one extra term breaks the identity
        assert not ex.is_zero(BinOp("-", lhs, rhs + Var("x"))), ex.to_string(d)


def test_expansion_past_the_term_cap_is_sampled_quickly(monkeypatch):
    variables = [f"x{i}" for i in range(1, 9)]
    src = "(" + "+".join(variables) + ")^12"  # 50388 terms expanded
    a, b = ex.parse(src), ex.parse(src)
    chart = AlgebroidChart(variables, [[0.0] * 8], [[[0.0]]])
    draws = []
    real = SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units", lambda self, *a: draws.append(a) or real(self, *a))
    start = time.perf_counter()
    dev = section_max_diff(KSection.function(chart, a), KSection.function(chart, b),
                           SamplePlan(count=5))
    assert time.perf_counter() - start < 1.0
    assert dev == 0.0 and sorted(draws) == [(8, j, 0, 5) for j in range(8)]  # each variable once


# ------------------------------------------------- what a proof may skip


def test_overflowing_proved_identity_is_still_sampled():
    chart = AlgebroidChart(["t"], [[0.0]], [[[0.0]]])
    s = KSection.function(chart, "t*t - t*t")
    assert ex.is_zero(s.coeffs[()].node)
    # t*t overflows to inf on this box, and inf - inf is NaN
    worst, _ = section_max_abs(s, SamplePlan(box={"t": (1e200, 1e201)}, count=3))
    assert worst != worst
    assert not ex.magnitude_below(s.coeffs[()].node, {"t": 1e201})
    # on the default box the same identity is proved and nothing is drawn
    assert section_max_abs(s, SamplePlan(count=3)) == (0.0, ())


@PROPERTY
@given(polynomials(), st.floats(min_value=1.0, max_value=1e120))
def test_a_bounded_polynomial_evaluates_finite(e, r):
    if ex.magnitude_below(e, dict.fromkeys("xyz", r)):
        corner = dict.fromkeys("xyz", -r)
        for env in points(SamplePlan(box=dict.fromkeys("xyz", (-r, r)), count=5), "xyz") + [corner]:
            assert math.isfinite(ex.evaluate(e, env)), (ex.to_string(e), env)


def test_division_by_an_underflowing_constant_is_sampled():
    e = ex.parse("x/(1e-200*1e-200) - x/(1e-200*1e-200)")
    assert ex.is_zero(e)
    assert not ex.magnitude_below(e, {"x": 1.0})


@pytest.mark.parametrize("src", ["sin(x)", "x^y", "x^-1", "x^-2", "x^0.5", "1 + exp(x)"])
def test_magnitude_below_proves_nothing_outside_the_polynomials(src):
    # |x| <= 1 and |y| <= 1 bound every value, but x^-1, x^-2 and x^0.5 raise at x = 0
    # (x^0.5 also at x < 0), and a call or a non-literal exponent is no polynomial
    assert not ex.magnitude_below(ex.parse(src), {"x": 1.0, "y": 1.0})


def test_magnitude_below_keeps_literal_integer_exponents():
    assert ex.magnitude_below(ex.parse("x^0 + x^3 - 2*y^2"), {"x": 1.0, "y": 1.0})
    assert not ex.magnitude_below(ex.parse("x^3"), {"x": 1e101})


def test_magnitude_below_divides_by_a_literal_without_the_interpreter(monkeypatch):
    # every divisor of these Hamiltonians and their partials is a literal
    hamiltonians = [by_name(name).hamiltonian for name in ("trivial:3", "oscillator", "rigid:1,2,3")]
    calls, real = [], ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, env: calls.append(ex.to_string(e)) or real(e, env))
    assert ex.magnitude_below(ex.parse("x/2"), {"x": 1.0})
    assert ex.magnitude_below(ex.parse("x/(-4)"), {"x": 1.0})
    for h in hamiltonians:
        compile_rk4(*hamilton_stage(h))
    assert calls == []
    # a zero divisor proves nothing, whether literal or a constant the interpreter evaluates
    for src in ("x/0", "x/(-0)", "x/(2*0)"):
        assert not ex.magnitude_below(ex.parse(src), {"x": 1.0}), src
    assert calls[0] == "2*0"


def test_fully_proved_checks_draw_no_points(monkeypatch):
    draws = []
    real = SamplePlan.units
    monkeypatch.setattr(SamplePlan, "units", lambda self, *a: draws.append(a) or real(self, *a))
    bundle = by_name("trivial:3")
    plan = SamplePlan(box=dict(bundle.sample.box), seed=5)
    gamma = VStarSection(bundle.chart, ["q1*q2 + 0.5*t", "t^2", "-q3"])
    report = pullback_identities(gamma, bundle.hamiltonian, plan)
    assert report.lambda_dev == 0.0 and report.omega_dev == 0.0 and report.points == 100
    assert vertical_restriction_check(bundle.hamiltonian, plan).holds
    assert validate_chart(bundle.chart.prolongation().chart, plan).valid
    assert draws == []


def test_sign_flip_in_omega_h_fails_the_pullback_identity(monkeypatch):
    bundle = by_name("trivial:3")
    n = bundle.chart.n
    real = affgebroid.omega_h

    def flipped(h):
        s = real(h)
        coeffs = {idx: c.node for idx, c in s.coeffs.items()}
        coeffs[(0, n + 1)] = ex.neg(coeffs[(0, n + 1)])
        return KSection(s.chart, 2, coeffs)

    gamma = VStarSection(bundle.chart, ["q1*q2 + 0.5*t", "t^2", "-q3"])
    assert pullback_identities(gamma, bundle.hamiltonian).holds
    monkeypatch.setattr(affgebroid, "omega_h", flipped)
    report = pullback_identities(gamma, bundle.hamiltonian)
    assert report.lambda_dev == 0.0
    assert report.omega_dev > 0.1 and not report.holds
