"""Sectioned key-value model files.

A model file is a plain-text description of one affgebroid chart plus a
Hamiltonian, named dual sections, and a sampling plan::

    # free particle
    [space]
    m = 2
    n = 1
    vars = t, q1, p1          # m base names, then n fiber names

    [anchor]
    rho0 = 1, 0               # m expressions
    rhoV = 0, 1               # n rows of m expressions, rows split by ';'

    [structure]
    C0 = 0                    # n rows of n expressions: row a, column g = C^g_{0a}
    1,2,3 = 1                 # sparse CV triple: C^3_{12} = 1, antisymmetric
                              # completion C^3_{21} = -1 is automatic

    [hamiltonian]
    H = p1^2/2

    [sections]
    w.alpha0 = -(q1^2)/(2*(t+1)^2)
    w.alphaV = q1/(t+1)       # n expressions

    [sampling]
    box.t = -0.5, 1
    count = 100
    seed = 42

Omitted anchor/structure blocks default to zero; expressions never contain
',' or ';', so those are safe separators.  Indices in CV triples are
one-based.
"""

from __future__ import annotations

from pathlib import Path

from . import expr as ex
from .algebroid import SamplePlan, check_box_var
from .affgebroid import AffgebroidChart, CoSection, HamiltonianSection
from .models import MAX_DIMENSION, ModelBundle

__all__ = ["ModelFileError", "load_model", "parse_model_text"]

_SECTIONS = {"space", "anchor", "structure", "hamiltonian", "sections", "sampling"}


class ModelFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def load_model(path) -> ModelBundle:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ModelFileError(f"cannot read '{p}': {err.strerror}") from None
    return parse_model_text(text, name=p.stem)


def parse_model_text(text: str, name: str = "model") -> ModelBundle:
    entries = _collect(text)

    m = _int_field(entries, "space", "m")
    n = _int_field(entries, "space", "n")
    raw_vars, line = _field(entries, "space", "vars")
    names = [v.strip() for v in raw_vars.split(",") if v.strip()]
    if len(names) != m + n:
        raise ModelFileError(f"vars lists {len(names)} names, expected m+n = {m+n}", line)
    if len(set(names)) != len(names):
        raise ModelFileError("variable names must be distinct", line)
    base, fibers = names[:m], names[m:]

    rho0 = _expr_list(entries, "anchor", "rho0", m)
    rhoV = _expr_rows(entries, "anchor", "rhoV", n, m)
    C0 = _expr_rows(entries, "structure", "C0", n, n)
    CV = _sparse_cv(entries, n)

    try:  # the chart comes from several lines: its message names the entry instead
        chart = AffgebroidChart(base, fibers, rho0, rhoV, C0, CV)
    except ValueError as err:
        raise ModelFileError(str(err)) from None
    h_src, h_line = _field(entries, "hamiltonian", "H", default=("0", None))
    try:
        hamiltonian = HamiltonianSection(chart, _parse_expr(h_src, h_line))
    except ModelFileError:
        raise  # already names its line
    except (ValueError, TypeError) as err:
        raise ModelFileError(str(err), h_line) from None

    sections = _sections(entries, chart, n)
    sample = _sampling(entries, base)

    return ModelBundle(
        name=name,
        chart=chart,
        hamiltonian=hamiltonian,
        sections=sections,
        sample=sample,
    )


# ------------------------------------------------------------------ helpers


def _collect(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    entries: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelFileError("unterminated section header", lineno)
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ModelFileError(
                    f"unknown section '{current}'; expected one of {sorted(_SECTIONS)}", lineno
                )
            continue
        if current is None:
            raise ModelFileError("content before any [section] header", lineno)
        if "=" not in line:
            raise ModelFileError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries[current]:
            raise ModelFileError(f"duplicate key '{key}' in [{current}]", lineno)
        entries[current][key] = (value.strip(), lineno)
    return entries


def _field(entries, section, key, default=None):
    if key in entries[section]:
        return entries[section][key]
    if default is not None:
        return default
    raise ModelFileError(f"missing required key '{key}' in [{section}]")


def _int_field(entries, section, key) -> int:
    value, line = _field(entries, section, key)
    n = _number(int, value, f"'{key}' must be an integer, got {value!r}", line)
    if n < 1:
        raise ModelFileError(f"'{key}' must be positive", line)
    if n > MAX_DIMENSION:  # before the chart and its n^3 entries are built
        raise ModelFileError(f"'{key}' = {n} is past the budget of {MAX_DIMENSION}", line)
    return n


def _number(kind, text: str, message: str, line):
    """``kind(text)`` (int or float), else a ModelFileError with ``message`` on ``line``.
    A '_' is refused: int and float read it as a digit separator, ``expr.parse`` does not."""
    try:
        if "_" not in text:
            return kind(text)
    except ValueError:
        pass
    raise ModelFileError(message, line)


def _parse_expr(src: str, line):
    try:
        return ex.parse(src)
    except ex.ParseError as err:
        raise ModelFileError(f"bad expression {src!r}: {err}", line) from None


def _expr_list(entries, section, key, count):
    if key not in entries[section]:
        return [ex.Lit(0.0)] * count
    value, line = entries[section][key]
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ModelFileError(f"'{key}' needs {count} expressions, got {len(parts)}", line)
    return [_parse_expr(p, line) for p in parts]


def _expr_rows(entries, section, key, rows, cols):
    if key not in entries[section] or not entries[section][key][0]:
        return [[ex.Lit(0.0)] * cols for _ in range(rows)]
    value, line = entries[section][key]
    raw_rows = [r.strip() for r in value.split(";")]
    if len(raw_rows) != rows:
        raise ModelFileError(f"'{key}' needs {rows} rows separated by ';'", line)
    out = []
    for r in raw_rows:
        parts = [p.strip() for p in r.split(",")]
        if len(parts) != cols:
            raise ModelFileError(f"'{key}' rows need {cols} expressions", line)
        out.append([_parse_expr(p, line) for p in parts])
    return out


def _sparse_cv(entries, n):
    zero = ex.Lit(0.0)  # one node for every default entry: n^3 of them at the dimension budget
    CV = [[[zero] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for key, (value, line) in entries["structure"].items():
        if key == "C0":
            continue
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 3:
            raise ModelFileError(
                f"structure keys are 'C0' or index triples 'a,b,c', got '{key}'", line
            )
        a, b, c = (_number(int, p, f"non-integer index in triple '{key}'", line) for p in parts)
        if not all(1 <= v <= n for v in (a, b, c)):
            raise ModelFileError(f"triple '{key}' out of range 1..{n}", line)
        if a == b:
            raise ModelFileError(f"triple '{key}' has equal lower indices", line)
        if (a, b, c) in seen or (b, a, c) in seen:
            raise ModelFileError(f"triple '{key}' duplicates an earlier entry", line)
        seen.add((a, b, c))
        node = _parse_expr(value, line)
        CV[a - 1][b - 1][c - 1] = node
        CV[b - 1][a - 1][c - 1] = ex.Neg(node)
    return CV


def _sections(entries, chart, n):
    staged: dict[str, dict[str, tuple[str, int]]] = {}
    for key, (value, line) in entries["sections"].items():
        if "." not in key:
            raise ModelFileError(
                f"section entries are 'NAME.alpha0' or 'NAME.alphaV', got '{key}'", line
            )
        name, part = key.rsplit(".", 1)
        if part not in ("alpha0", "alphaV"):
            raise ModelFileError(f"unknown section component '{part}'", line)
        staged.setdefault(name, {})[part] = (value, line)
    out = {}
    for name, parts in staged.items():
        a0_src, a0_line = parts.get("alpha0", ("0", None))
        alpha0 = _parse_expr(a0_src, a0_line)
        if "alphaV" in parts:
            av_src, av_line = parts["alphaV"]
            comps = [p.strip() for p in av_src.split(",")]
            if len(comps) != n:
                raise ModelFileError(
                    f"'{name}.alphaV' needs {n} expressions, got {len(comps)}", av_line
                )
            alphaV = [_parse_expr(p, av_line) for p in comps]
        else:
            alphaV = [ex.Lit(0.0)] * n
        try:
            out[name] = CoSection(chart, alpha0, alphaV)
        except ValueError as err:  # it names the component, alpha0 or alphaV[a]: give its line
            part = "alpha0" if str(err).startswith("alpha0") else "alphaV"
            raise ModelFileError(f"section '{name}': {err}", parts[part][1]) from None
    return out


def _sampling(entries, base_vars):
    box = {}
    count, seed = 100, 42
    for key, (value, line) in entries["sampling"].items():
        if key in ("count", "seed"):
            parsed = _number(int, value, f"'{key}' must be an integer, got {value!r}", line)
            if key == "count":
                _check_plan(line, count=parsed)
                count = parsed
            else:
                seed = parsed
        elif key.startswith("box."):
            var = key[len("box."):]
            try:
                check_box_var(var, base_vars)
            except ValueError as err:
                raise ModelFileError(str(err), line) from None
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ModelFileError(f"box needs 'lo, hi', got {value!r}", line)
            message = f"box bounds must be numbers, got {value!r}"
            lo, hi = (_number(float, p, message, line) for p in parts)
            _check_plan(line, box={var: (lo, hi)})
            box[var] = (lo, hi)
        else:
            raise ModelFileError(f"unknown sampling key '{key}'", line)
    return SamplePlan(box=box, count=count, seed=seed)


def _check_plan(line, **fields):
    """Run SamplePlan's checks on one sampling entry, keeping its line."""
    try:
        SamplePlan(**fields)
    except ValueError as err:
        raise ModelFileError(str(err), line) from None
