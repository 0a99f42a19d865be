"""The sparse ``differential`` and ``pullback`` against the dense basis walks.

``helpers.dense_differential`` and ``helpers.dense_pullback`` visit every
index tuple of the basis; the sparse versions visit only nonzero entries
and must give the same section: the same keys in the same order, equal
coefficient trees and the same printed expressions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import expr as ex
from affmech.affgebroid import (
    HamiltonianSection,
    VStarSection,
    covector_morphism,
    hamiltonian_morphism,
    lambda_h,
    omega_h,
    vertical_inclusion_morphism,
)
from affmech.algebroid import KSection, differential, pullback
from affmech.modelfile import load_model
from affmech.models import by_name

from helpers import dense_differential, dense_pullback

BUILTINS = ["trivial:1", "trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3", "perturbed-so3"]

SO3_TEXT = """
[space]
m = 1
n = 3
vars = s, y1, y2, y3

[structure]
1,2,3 = 0.7
2,3,1 = -1.3
3,1,2 = 1.9
{extra}
[hamiltonian]
H = y1^2/2+y2^2/2+y3^2/2
"""


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    out = [by_name(name) for name in BUILTINS]
    for label, extra in (("scaled", ""), ("offdiag", "1,2,2 = 0.45\n")):
        path = tmp_path_factory.mktemp("so3") / f"so3_{label}.model"
        path.write_text(SO3_TEXT.format(extra=extra))
        out.append(load_model(str(path)))
    return out


def charts_of(bundle):
    aff = bundle.chart
    return {
        "bidual": aff.bidual_chart(),
        "vertical": aff.vertical_chart(),
        "prolongation": aff.prolongation().chart,
        "vertical_prolongation": aff.vertical_prolongation().chart,
        "aplus_prolongation": aff.aplus_prolongation().chart,
    }


def assert_same(got: KSection, want: KSection):
    assert got.chart is want.chart and got.degree == want.degree
    assert list(got.coeffs) == list(want.coeffs)
    for key in want.coeffs:
        a, b = got.coeffs[key].node, want.coeffs[key].node
        assert a == b, key
        assert ex.to_string(a) == ex.to_string(b), key


def test_d_and_dd_match_the_dense_walk_on_every_chart(bundles):
    compared = 0
    for bundle in bundles:
        for chart in charts_of(bundle).values():
            sections = [KSection.function(chart, ex.Var(v)) for v in chart.base_vars]
            sections += [KSection.basis_covector(chart, a) for a in range(chart.rank)]
            for s in sections:
                d = differential(s)
                assert_same(d, dense_differential(s))
                assert_same(differential(d), dense_differential(d))
                compared += 1
    assert compared > 300  # sections, each compared at d and at dd


def test_d_matches_on_the_prolongation_sections(bundles):
    for bundle in bundles:
        ap = bundle.chart.aplus_prolongation()
        for s in (ap.liouville(), ap.canonical_symplectic(), omega_h(bundle.hamiltonian)):
            assert_same(differential(s), dense_differential(s))


CONSTANTS = ["2.5", "-1", "0"]


@st.composite
def sparse_sections(draw):
    bundle = by_name(draw(st.sampled_from(["trivial:2", "oscillator", "rigid:1,2,3", "perturbed-so3"])))
    chart = draw(st.sampled_from(list(charts_of(bundle).values())))
    degree = draw(st.integers(0, min(2, chart.rank)))
    variables = chart.base_vars
    keys = [()] if degree == 0 else sorted(
        draw(st.sets(st.tuples(*[st.integers(0, chart.rank - 1)] * degree)
                     .map(lambda t: tuple(sorted(set(t))))
                     .filter(lambda t: len(t) == degree), max_size=4))
    )
    coeffs = {}
    for key in keys:
        a = draw(st.sampled_from(variables + CONSTANTS))
        b = draw(st.sampled_from(variables + CONSTANTS))
        op = draw(st.sampled_from(["+", "*", "-"]))
        coeffs[key] = ex.parse(f"{a}{op}{b}^2")
    return KSection(chart, degree, coeffs)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(sparse_sections())
def test_d_matches_on_generated_sparse_sections(s):
    d = differential(s)
    assert_same(d, dense_differential(s))
    if d.degree <= 2:
        assert_same(differential(d), dense_differential(d))


def _poly(rng, variables):
    terms = [f"{rng.uniform(-2, 2):.3f}*{rng.choice(variables)}" for _ in range(2)]
    return "+".join(terms) + f"+{rng.choice(variables)}^2"


def test_pullback_matches_along_every_morphism(bundles):
    rng = random.Random(20261018)
    compared = 0
    for bundle in bundles:
        aff = bundle.chart
        for _ in range(3):
            gamma = VStarSection(aff, [_poly(rng, aff.base_vars) for _ in range(aff.n)])
            h = HamiltonianSection(aff, bundle.hamiltonian.H + ex.parse(_poly(rng, aff.all_vars())))
            ap = aff.aplus_prolongation()
            cases = [
                (covector_morphism(gamma), lambda_h(h)),
                (covector_morphism(gamma), omega_h(h)),
                (hamiltonian_morphism(h), ap.liouville()),
                (hamiltonian_morphism(h), ap.canonical_symplectic()),
            ]
            inclusion = vertical_inclusion_morphism(aff)
            dst = inclusion.dst
            seeded = {
                (a,): ex.parse(_poly(rng, dst.base_vars)) for a in range(dst.rank) if rng.random() < 0.6
            }
            one = KSection(dst, 1, seeded)
            cases += [(inclusion, one), (inclusion, differential(one))]
            cases += [(inclusion, KSection.function(dst, ex.parse(_poly(rng, dst.base_vars))))]
            for morph, s in cases:
                assert_same(pullback(morph, s), dense_pullback(morph, s))
                compared += 1
    assert compared >= 126
