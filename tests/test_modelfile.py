import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmech import expr as ex
from affmech.cli import main
from affmech.algebroid import validate_chart
from affmech.hj import cocycle_residual
from affmech.modelfile import ModelFileError, load_model, parse_model_text

from helpers import hj_residual, points

FREE_PARTICLE = """
# free particle on the line, with the spreading-packet solution
[space]
m = 2
n = 1
vars = t, q1, p1

[anchor]
rho0 = 1, 0
rhoV = 0, 1

[hamiltonian]
H = p1^2/2

[sections]
w.alpha0 = -(q1^2)/(2*(t+1)^2)
w.alphaV = q1/(t+1)
bad.alphaV = q1

[sampling]
box.t = -0.5, 1
count = 60
seed = 7
"""

SO3_LINEAR = """
[space]
m = 1
n = 3
vars = s, y1, y2, y3

[structure]
1,2,3 = 1
2,3,1 = 1
3,1,2 = 1

[hamiltonian]
H = y1^2/2 + y2^2/4 + y3^2/6
"""


def test_parse_free_particle_round_trip():
    bundle = parse_model_text(FREE_PARTICLE, name="free")
    chart = bundle.chart
    assert chart.base_vars == ["t", "q1"]
    assert chart.fiber_vars == ["p1"]
    assert bundle.sample.count == 60
    assert bundle.sample.seed == 7
    assert bundle.sample.interval("t") == (-0.5, 1.0)
    assert validate_chart(chart.bidual_chart(), bundle.sample).valid
    assert cocycle_residual(bundle.section("w"), bundle.sample).is_cocycle
    assert hj_residual(bundle.section("w"), bundle.hamiltonian, bundle.sample).is_solution
    assert not hj_residual(bundle.section("bad"), bundle.hamiltonian, bundle.sample).is_solution


def test_sparse_structure_completion():
    bundle = parse_model_text(SO3_LINEAR, name="so3")
    chart = bundle.chart
    env = {"s": 0.0}
    assert ex.evaluate(chart.CV[0][1][2], env) == 1.0
    assert ex.evaluate(chart.CV[1][0][2], env) == -1.0
    assert validate_chart(chart.bidual_chart(), bundle.sample).valid


def test_missing_section_defaults_to_zero_blocks():
    text = """
[space]
m = 1
n = 1
vars = u, w
"""
    bundle = parse_model_text(text)
    env = {"u": 0.3}
    assert ex.evaluate(bundle.chart.rho0[0], env) == 0.0
    assert ex.evaluate(bundle.hamiltonian.H, env | {"w": 0.1}) == 0.0


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("vars = t, q1", "vars lists"),
        ("m = zero", "must be an integer"),
        ("rho0 = 1", "needs 2 expressions"),
        ("rhoV = 0, 1; 0, 0", "needs 1 rows"),
        ("H = p1^^2", "bad expression"),
        ("w.alphaV = q1, q1", "needs 1 expressions"),
        ("box.nope = 0, 1", "unknown variable"),
        ("box.t = 1, 0", "lo < hi"),
        ("count = many", "must be an integer"),
    ],
)
def test_malformed_fields_report_lines(mutation, fragment):
    key = mutation.split("=", 1)[0].strip()
    lines = []
    for line in FREE_PARTICLE.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith(key + " ") or stripped.startswith(key + "="):
            lines.append(mutation)
        else:
            lines.append(line)
    text = "\n".join(lines)
    if key not in FREE_PARTICLE:
        text += "\n" + mutation
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text)
    assert fragment in str(err.value)
    assert len(re.findall(r"line \d+:", str(err.value))) == 1  # the prefix appears once


def test_nonpositive_sample_count_is_model_error():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(FREE_PARTICLE.replace("count = 60", "count = 0"))
    assert "sample count" in str(err.value)


def test_structure_triple_errors():
    base = SO3_LINEAR.replace("1,2,3 = 1", "{}")
    for bad, fragment in [
        ("1,1,3 = 1", "equal lower indices"),
        ("0,2,3 = 1", "out of range"),
        ("1,2 = 1", "index triples"),
        ("a,b,c = 1", "non-integer"),
    ]:
        with pytest.raises(ModelFileError) as err:
            parse_model_text(base.format(bad))
        assert fragment in str(err.value)
    with pytest.raises(ModelFileError) as err:
        parse_model_text(SO3_LINEAR + "\n[structure]\n1,2,3 = 5\n")
    assert "duplicate" in str(err.value)


def test_mirrored_triple_rejected():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(SO3_LINEAR.replace("2,3,1 = 1", "2,1,3 = -1"))
    assert "duplicates" in str(err.value)


def test_unknown_section_and_stray_content():
    with pytest.raises(ModelFileError) as err:
        parse_model_text("[nonsense]\nx = 1\n")
    assert "unknown section" in str(err.value)
    with pytest.raises(ModelFileError) as err:
        parse_model_text("m = 1\n")
    assert "before any" in str(err.value)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "missing.model")


def test_load_model_from_disk(tmp_path):
    path = tmp_path / "free.model"
    path.write_text(FREE_PARTICLE)
    bundle = load_model(path)
    assert bundle.name == "free"
    assert bundle.chart.m == 2


def test_sampling_entries_are_checked_on_their_line():
    lines = FREE_PARTICLE.splitlines()
    for old, new, fragment in [
        ("box.t = -0.5, 1", "box.p1 = 0, 1", "unknown variable 'p1'"),  # fibers are never sampled
        ("box.t = -0.5, 1", "box.t = 0, inf", "finite"),
        ("box.t = -0.5, 1", "box.t = nan, 1", "finite"),
        ("box.t = -0.5, 1", "box.t = 1, 0", "lo < hi"),
        ("count = 60", "count = 0", "sample count"),
    ]:
        with pytest.raises(ModelFileError) as err:
            parse_model_text(FREE_PARTICLE.replace(old, new))
        assert fragment in str(err.value)
        assert err.value.line == lines.index(old) + 1, new
    pinned = parse_model_text(FREE_PARTICLE.replace("box.t = -0.5, 1", "box.t = 0.5, 0.5"))
    assert {p["t"] for p in points(pinned.sample, ["t", "q1"])} == {0.5}


# ------------------------------------------------- generated model-file text

# per [section]: lines that fit m = 2, n = 2 (vars t, q1, y1, y2), then broken ones
LINES = {
    "space": (
        ["m = 2", "n = 2", "vars = t, q1, y1, y2"],
        ["m = 0", "m = two", "n = 3", "vars = t, q1, y1", "vars = t, t, y1, y2", "vars t q1"],
    ),
    "anchor": (
        ["rho0 = 1, 0", "rho0 = 1, q1", "rhoV = 0, 1; 0, t", "rhoV = 0, 1; 0, 0"],
        ["rho0 = 1", "rhoV = 0, 1", "rhoV = 0, 1; 0", "rho0 = 1, (", "rho0 = 1, log(q1)",
         "rhoV = 0, zz; 0, 1"],
    ),
    "structure": (
        ["C0 = 0, 0; 0, 0", "C0 = 0, 1; -1, 0", "1,2,1 = 1", "1,2,2 = q1", "2,1,1 = 0.5*t"],
        ["1,1,2 = 1", "1,2 = 1", "1,2,3 = 1", "a,b,c = 1", "C0 = 0", "1,2,1 = 1/(t-t)"],
    ),
    "hamiltonian": (
        ["H = y1^2/2 + y2^2/2", "H = y1*y2 + q1^2", "H = sin(y1) + t*y2"],
        ["H = y1^", "H = zz", "H = log(q1) + y1", "H = sqrt(y1)", "H = 1e308*1e308*y1"],
    ),
    "sections": (
        ["w.alpha0 = 0.5", "w.alphaV = q1, 0", "v.alpha0 = 1", "v.alphaV = 0, 0"],
        ["w.alphaV = q1", "w.beta = 1", "walpha0 = 1", "w.alpha0 = (", "w.alphaV = sqrt(q1), 1"],
    ),
    "sampling": (
        ["count = 7", "seed = 3", "box.t = -0.5, 1", "box.q1 = 0, 0.5"],
        ["count = 0", "count = x", "count = 2000000", "box.zz = 0, 1", "box.t = 1, 0",
         "box.t = 0", "box.t = a, b", "box.t = nan, 1", "size = 3"],
    ),
}
STRAY = ["no equals sign", "[unknown]", "[anchor", "= 1"]


def _key(line):
    return line.split("=", 1)[0].strip()


@st.composite
def model_texts(draw):
    """Model text of every [section], valid lines with a few broken ones among them."""
    sections = draw(st.permutations(sorted(LINES)))
    body = {}
    for section in sections:
        valid = LINES[section][0]
        unique = st.lists(st.sampled_from(valid), max_size=3, unique_by=_key)
        body[section] = list(valid) if section == "space" else draw(unique)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        section = draw(st.sampled_from(sections))
        line = draw(st.sampled_from(LINES[section][1] + STRAY))
        body[section].insert(draw(st.integers(0, len(body[section]))), line)
    return "\n".join(line for section in sections for line in [f"[{section}]", *body[section], ""])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(model_texts(), st.sampled_from(["w", "v", "v", "alpha0=q1;alphaV=t,q1"]))
def test_generated_model_text_loads_or_names_its_error(tmp_path_factory, text, alpha):
    try:
        parse_model_text(text)
    except ModelFileError:
        pass
    path = tmp_path_factory.getbasetemp() / "generated.model"
    path.write_text(text)
    model = str(path)
    for argv in (
        ["validate", model],
        ["hj", model, "--alpha", alpha, "--samples", "5"],
        ["verify", model, "--alpha", alpha, "--points", "1", "--horizon", "0.1"],
        ["flow", model, "--x0=0.1,0.2", "--y0=0.3,-0.2", "--t-end=0.1", "--step=0.02"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), (argv, text, err.getvalue())
        assert "internal error" not in err.getvalue(), (argv, text, err.getvalue())
