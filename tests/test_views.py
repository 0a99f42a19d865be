"""``affgebroid.validate_charts`` against ``validate_chart`` on the charts it does not build.

The oracle validates the real ``vertical_chart()`` and ``prolongation().chart``
one by one, in the command line's order, and stops at the first evaluation
error.  The derivation must give the same reports, field by field (a NaN
equals a NaN), or the same error message at the same point after the same
reports.
"""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import affgebroid, algebroid
from affmech import expr as ex
from affmech.affgebroid import AffgebroidChart, CoSection, VStarSection, validate_charts
from affmech.algebroid import SamplePlan, chart_residuals, validate_chart
from affmech.cli import main
from affmech.modelfile import ModelFileError, load_model, parse_model_text
from affmech.models import by_name

from test_golden import MODEL_FILES

BUILTINS = ["trivial:1", "trivial:3", "oscillator", "linear:tangent3", "rigid:1,2,3",
            "rigid:1e308,1,1", "perturbed-so3"]
LABELS = ("bidual", "vertical", "prolongation")


def fields(report):
    return tuple("nan" if v != v else v for v in dataclasses.astuple(report))


def outcome(reports):
    """The reports of an iterator of (label, report), then the evaluation error that ends it."""
    out = []
    try:
        for label, report in reports:
            out.append((label, fields(report)))
    except ex.EvalError as err:
        out.append(("error", str(err), err.point))
    return out


def oracle(aff, plan):
    charts = (aff.bidual_chart(), aff.vertical_chart(), aff.prolongation().chart)
    return outcome((label, validate_chart(chart, plan)) for label, chart in zip(LABELS, charts))


def assert_derived(aff, plan):
    want = oracle(aff, plan)
    assert outcome(validate_charts(aff, plan)) == want
    return want


# ------------------------------------------------------------ generated models

BASE = ["t", "q1", "q2"]
FIBERS = ["p1", "p2", "p3"]
CONSTANTS = ["0.5", "2", "-1", "0.3"]


@st.composite
def entries(draw, base):
    x, y = draw(st.sampled_from(base)), draw(st.sampled_from(base))
    c = draw(st.sampled_from(CONSTANTS))
    return draw(st.sampled_from([
        "0", "0", "0", "1", c,
        f"{c}*{x}", f"{x}*{y} - {c}", f"{x}^2 + {c}*{y}",  # polynomials
        f"sin({x})", f"exp({c}*{x})", f"log({x})", f"sqrt({x})",  # calls
        f"1/({x} - {c})", f"{x}/{y}", f"{c}/(2*{x})",  # divisions
        "1e308", f"1e308*{x}", f"{x}*1e308*1e308",  # overflows
    ]))


def _row(draw, strategy, count):
    return ", ".join(draw(strategy) for _ in range(count))


@st.composite
def model_files(draw):
    """Model files with m, n <= 3; one in three has data that holds the axioms by construction.

    Such data have constant anchors and no brackets, or the anchor of e_0
    alone and so(3) brackets with seeded scales, which may be functions when
    that anchor is 0.
    """
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base, fibers = BASE[:m], FIBERS[:n]
    lines = ["[space]", f"m = {m}", f"n = {n}", f"vars = {', '.join(base + fibers)}", "[anchor]"]
    constants = st.sampled_from(["0", "1", *CONSTANTS])
    kind = draw(st.sampled_from(["any", "any", "constant", "so3"]))
    if kind == "any":
        rho0 = _row(draw, entries(base), m)
        rows = [_row(draw, entries(base), m) for _ in range(n)]
        c0 = "; ".join(_row(draw, entries(base), n) for _ in range(n))
        triples = st.tuples(*[st.integers(1, n)] * 3).filter(lambda k: k[0] != k[1])
        unique = st.lists(triples, max_size=4, unique_by=lambda k: (*sorted(k[:2]), k[2]))
        cv = [(k, draw(entries(base))) for k in draw(unique)]
    else:
        rho0 = _row(draw, constants if kind == "constant" else entries(base), m)
        rows = [_row(draw, constants if kind == "constant" else st.just("0"), m) for _ in range(n)]
        c0 = "; ".join(", ".join(["0"] * n) for _ in range(n))
        scales = constants if set(rho0.split(", ")) != {"0"} else entries(base)
        cv = [(k, draw(scales)) for k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))] * (kind == "so3" and n == 3)
    lines += [f"rho0 = {rho0}", "rhoV = " + "; ".join(rows), "[structure]", f"C0 = {c0}"]
    lines += [f"{a},{b},{c} = {entry}" for (a, b, c), entry in cv]
    lines += ["[hamiltonian]", f"H = {fibers[0]}^2/2", "[sampling]"]
    for v in base:
        if draw(st.booleans()):
            lo = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.3, 0.5]))
            width = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]))  # lo == hi pins v
            lines.append(f"box.{v} = {lo!r}, {lo + width!r}")
    lines.append(f"count = {draw(st.integers(5, 300))}")
    lines.append(f"seed = {draw(st.integers(0, 2**31))}")
    return "\n".join(lines) + "\n"


def test_generated_models_give_the_reports_of_the_charts():
    tally = {"valid": 0, "invalid": 0, "errors": 0}

    @settings(max_examples=320, derandomize=True, deadline=None)
    @given(model_files())
    def check(text):
        bundle = parse_model_text(text)
        got = assert_derived(bundle.chart, bundle.sample)
        if got[-1][0] == "error":
            tally["errors"] += 1
        else:
            valid = all(v != "nan" and v <= 1e-8 for _, r in got for v in r[:3])
            tally["valid" if valid else "invalid"] += 1

    check()
    assert min(tally.values()) >= 30, tally  # 198, 51 and 71 of the 320 cases


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_give_the_reports_of_the_charts(name):
    bundle = by_name(name)
    assert_derived(bundle.chart, bundle.sample)
    assert_derived(bundle.chart, SamplePlan(count=7, seed=3))


LOADS_NO_MODEL = {"fiber_anchor.model", "fiber_section.model", "zero_h.model"}


@pytest.mark.parametrize("name", sorted(set(MODEL_FILES) - LOADS_NO_MODEL))
def test_golden_model_files_give_the_reports_of_the_charts(name, tmp_path):
    path = tmp_path / name
    path.write_text(MODEL_FILES[name])
    bundle = load_model(path)
    assert_derived(bundle.chart, bundle.sample)


def test_a_sampled_model_reads_each_view_at_its_own_points():
    # the Jacobi residual of the sin(t) bracket is sampled: the prolongation
    # draws its points over t and p1..p3, so its maximum differs from the bidual's
    bundle = parse_model_text(MODEL_FILES["so3_sin.model"])
    (_, bidual), (_, vertical), (_, prolongation) = validate_charts(bundle.chart, bundle.sample)
    assert bidual.jacobi_max == vertical.jacobi_max > 0.5
    assert prolongation.jacobi_max > 0.5 and prolongation.jacobi_max != bidual.jacobi_max
    assert prolongation.worst_jacobi.startswith("d(d ~e")


# ----------------------------------------------------------------- the spy


def test_validate_builds_no_derived_chart_and_proves_each_residual_once(monkeypatch):
    proved = 0
    for name in ["trivial:3", "rigid:1,2,3", "perturbed-so3"]:
        bidual = by_name(name).chart.bidual_chart()
        res = chart_residuals(bidual)
        want = [ex.to_string(e) for family in [res.sums, *res.coordinates.values(), *res.covectors]
                for e in family.values()]
        calls, real = [], ex.is_zero
        with monkeypatch.context() as patch:
            patch.setattr(ex, "is_zero", lambda e: calls.append(e) or real(e))
            for module in (affgebroid, algebroid):
                patch.setattr(module, "prolong", lambda *a: pytest.fail("prolong called"))
            patch.setattr(AffgebroidChart, "vertical_chart",
                          lambda self: pytest.fail("vertical_chart called"))
            assert main(["validate", name]) in (0, 1)
        assert [ex.to_string(e) for e in calls] == want, name
        assert len({id(e) for e in calls}) == len(calls), name
        proved += len(calls)
    assert proved > 0


# ------------------------------------------------- chart data reads base only


def model(rho_v: str) -> str:
    return f"[space]\nm = 1\nn = 1\nvars = x1, p1\n[anchor]\nrho0 = 1\nrhoV = {rho_v}\n" \
           "[hamiltonian]\nH = p1^2/2\n"


@pytest.mark.parametrize("rho_v, message", [
    ("z", "chart entry rhoV[0][0] reads variables ['z'], which are not base variables ['x1']"),
    ("p1", "chart entry rhoV[0][0] reads variables ['p1'], which are not base variables ['x1']"),
    ("x1/0", "chart entry rhoV[0][0] divides by a literal zero"),
    ("1 + x1/(-0)", "chart entry rhoV[0][0] divides by a literal zero"),
])
def test_chart_data_that_reads_a_fiber_or_unknown_variable_is_an_input_error(
        rho_v, message, tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text(model(rho_v))
    for command in (["validate", str(path)], ["hj", str(path), "--alpha", "alphaV=1"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    with pytest.raises(ModelFileError, match=re.escape(message)):
        parse_model_text(model(rho_v))


@pytest.mark.parametrize("field, data, name", [
    ("rho0", ["0", "y"], "rho0[1]"),
    ("rhoV", [["x", "q"]], "rhoV[0][1]"),
    ("C0", [["sin(y)"]], "C0[0][0]"),
    ("CV", [[["x*y"]]], "CV[0][0][0]"),
])
def test_chart_entries_name_their_place_when_they_read_other_variables(field, data, name):
    shape = {"rho0": ["0", "0"], "rhoV": [["0", "0"]], "C0": [["0"]], "CV": [[["0"]]], field: data}
    with pytest.raises(ValueError, match=re.escape(f"chart entry {name} reads variables")):
        AffgebroidChart(["x", "s"], ["y"], **shape)


@pytest.mark.parametrize("alpha0, alpha_v, message", [
    ("z", "q1", "alpha0 reads variables ['z'], which are not base variables ['t', 'q1']"),
    ("p1*0", "q1", "alpha0 reads variables ['p1'], which are not base variables ['t', 'q1']"),
    ("1/0", "q1", "alpha0 divides by a literal zero"),
    ("t", "p1 + q1", "alphaV[0] reads variables ['p1'], which are not base variables ['t', 'q1']"),
    ("t", "1 + q1/(-0)", "alphaV[0] divides by a literal zero"),
])
def test_a_section_that_reads_a_non_base_variable_is_an_input_error(
        alpha0, alpha_v, message, tmp_path, capsys):
    chart = by_name("trivial:1").chart
    with pytest.raises(ValueError, match=re.escape(message)):
        CoSection(chart, ex.parse(alpha0), [ex.parse(alpha_v)])
    for command in ("hj", "verify"):
        assert main([command, "trivial:1", "--alpha", f"alpha0={alpha0};alphaV={alpha_v}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    # in a model file, the message names the section and the component's line
    path = tmp_path / "bad.model"
    path.write_text("[space]\nm = 2\nn = 1\nvars = t, q1, p1\n[hamiltonian]\nH = p1^2/2\n"
                    f"[sections]\none.alpha0 = {alpha0}\none.alphaV = {alpha_v}\n")
    line = 8 if message.startswith("alpha0") else 9
    with pytest.raises(ModelFileError, match=re.escape(f"line {line}: section 'one': {message}")):
        load_model(path)


def test_a_v_star_section_that_reads_a_non_base_variable_is_refused():
    chart = by_name("trivial:1").chart
    with pytest.raises(ValueError, match=re.escape("gammaV[0] reads variables ['p1'], which")):
        VStarSection(chart, [ex.parse("q1*p1")])
    with pytest.raises(ValueError, match=re.escape("gammaV[0] divides by a literal zero")):
        VStarSection(chart, [ex.parse("t/0")])


def test_a_deep_chart_entry_is_checked_without_recursion():
    deep = ex.Var("x")
    for _ in range(5000):
        deep = ex.BinOp("+", deep, ex.Lit(1.0))
    AffgebroidChart(["x"], ["y"], [1.0], [[deep]], [[0.0]], [[[0.0]]])
    with pytest.raises(ValueError, match="reads variables"):
        AffgebroidChart(["x"], ["y"], [1.0], [[ex.BinOp("*", deep, ex.Var("y"))]], [[0.0]],
                        [[[0.0]]])


# ------------------------------------------------------- where the anchor fails

def test_an_anchor_failure_prints_where(tmp_path, capsys):
    path = tmp_path / "anchor.model"
    path.write_text(MODEL_FILES["anchor_compat.model"])
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    where = [line for line in out if "worst" in line]
    assert where == ["bidual_worst_anchor = d(d q1) component (0, 1)",
                     "prolongation_worst_anchor = d(d q1) component (0, 1)"]
    assert out.index(where[0]) == out.index("bidual_valid = False") + 1
    assert "vertical_valid = True" in out
    report = validate_chart(load_model(path).chart.bidual_chart())
    assert report.anchor_max == 1.0 and report.worst_anchor == "d(d q1) component (0, 1)"
    assert not math.isnan(report.jacobi_max) and report.worst_jacobi == ""


def test_a_passing_anchor_check_prints_no_location(capsys):
    assert main(["validate", "perturbed-so3"]) == 1
    out = capsys.readouterr().out
    assert "worst_anchor" not in out and "bidual_worst = " in out


NAN = "t*1e308*1e308 - t*1e308*1e308"  # inf - inf at every t > 0; proved 0 exactly, but sampled


def test_a_nan_residual_fails_its_check_and_says_where():
    text = f"""[space]
m = 2
n = 3
vars = t, q1, p1, p2, p3
[anchor]
rho0 = 1, 0
rhoV = 0, {NAN}; 0, 0; 0, 0
[structure]
1,2,3 = 1
2,3,1 = 1
3,1,2 = 1
1,2,2 = {NAN}
[sampling]
box.t = 0.5, 1
"""
    bundle = parse_model_text(text)
    reports = dict(validate_charts(bundle.chart, bundle.sample))
    assert assert_derived(bundle.chart, bundle.sample)[-1][0] == "prolongation"
    for report in reports.values():
        assert math.isnan(report.anchor_max) and math.isnan(report.jacobi_max)
        assert not report.valid
    assert reports["bidual"].worst_anchor == "d(d q1) component (2, 3)"
    assert reports["vertical"].worst_jacobi == "d(d e1) component (0, 1, 2)"
    assert reports["prolongation"].worst_jacobi == "d(d ~e2) component (0, 1, 2)"
