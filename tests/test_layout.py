"""The package's public names, the place of ``expr`` at the bottom of its
imports, the one home of the Hamilton formula, the one caller of the batched
walk, one sampling call per check, the one tokenizer and parser, slotted
expression nodes, and no public function that only the tests call."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import affmech
from affmech import expr as ex

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(affmech.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"affmech.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_expr_imports_no_other_affmech_module():
    tree = ast.parse(Path(ex.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("affmech")):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("affmech")]
    assert found == []


def test_only_affgebroid_reads_the_chart_data():
    # the Hamilton equations are written once, in affgebroid.hamilton_field;
    # a module that reads rho0, rhoV, C0 or CV elsewhere would be writing them again
    package = Path(affmech.__file__).parent
    reads = sorted(
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in {"rho0", "rhoV", "C0", "CV"}
    )
    assert reads and all(r.startswith("affgebroid.py:") for r in reads), reads


def test_only_the_sampled_route_calls_the_batched_walk():
    # every sampled check measures its residuals through algebroid._max_abs; a second
    # caller of expr.evaluate_many would be a second route, with its own fallback
    package = Path(affmech.__file__).parent
    callers = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in package.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "evaluate_many" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    )
    assert set(callers) == {"algebroid._max_abs"}, callers


def test_each_sampled_check_is_one_call_of_the_sampling_entry():
    # a check samples all of its families in one algebroid._max_abs call; the wrappers that
    # sampled one section or one difference per call live on only in tests/helpers.py
    package = Path(affmech.__file__).parent
    wrappers, calls = [], Counter()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in {
                    "max_abs_check", "section_max_abs", "section_max_diff"
                }:
                    wrappers.append(f"{path.name}:{node.lineno} {node.name}")
                elif isinstance(node, ast.Call) and "_max_abs" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)
                ):
                    calls[f"{path.stem}.{getattr(top, 'name', '<module>')}"] += 1
    assert wrappers == []
    assert {"affgebroid.pullback_identities", "affgebroid.vertical_restriction_check"} <= set(calls)
    assert {caller: n for caller, n in calls.items() if n > 1} == {}


def test_expr_holds_the_one_tokenizer_and_parser():
    # one findall and one descent over its token strings; the tokenizer and parser
    # they replaced live on only as the reference parser in tests/helpers.py
    package = Path(affmech.__file__).parent
    kept, regex_users = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        kept += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in {"_tokenize", "_Parser"}
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            if "re" in imported:
                regex_users.append(path.stem)
    assert kept == []
    assert regex_users == ["expr"]


NODES = [ex.Lit(1.0), ex.Var("x"), ex.Neg(ex.Var("x")), ex.BinOp("+", ex.Var("x"), ex.Lit(1.0)),
         ex.Call("sin", ex.Var("x"))]


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_expression_nodes_are_slotted(node):
    # a node with a __dict__ or a dataclass __init__ costs several times as much to build
    assert "__slots__" in vars(type(node))
    assert not hasattr(node, "__dict__")


def test_expr_applies_no_dataclass_decorator():
    tree = ast.parse(Path(ex.__file__).read_text())
    decorators = [
        ast.unparse(d)
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        for d in node.decorator_list
    ]
    assert not [d for d in decorators if "dataclass" in d]


# public functions that no subcommand, library route or benchmark call reaches, kept on purpose
UNREACHED_BY_DESIGN = {
    "reeb": "the Reeb section of the cosymplectic pair, checked by the tests against reeb_solve",
    "validate_chart": "the validator of one AlgebroidChart, which the tests run on each chart view",
}


def _public_functions(tree):
    """The public top-level functions and the public methods of the top-level classes."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (f for f in body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def _names(tree) -> Counter:
    """How often each name is read, as a Name, an Attribute or an import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name.rsplit(".", 1)[-1]] += 1
    return found


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each public function or method of ``src/`` is named in ``src/`` or ``perfbench/``.

    Names in ``affmech/__init__`` and in the function's own body do not
    count.  The check is by name only, so a function that shares a common
    name (``component``, ``values``) with something used passes it.
    """
    package = Path(affmech.__file__).parent
    bench = package.parents[1] / "perfbench"
    sources = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = Counter()
    for path, tree in [*sources.items(), *((p, ast.parse(p.read_text())) for p in bench.glob("*.py"))]:
        if path != package / "__init__.py":
            used += _names(tree)
    unused = sorted(
        f"{path.name}:{fn.lineno} {fn.name}"
        for path, tree in sources.items()
        for fn in _public_functions(tree)
        if used[fn.name] <= _names(fn)[fn.name] and fn.name not in UNREACHED_BY_DESIGN
    )
    assert unused == []
    kept = {fn.name for tree in sources.values() for fn in _public_functions(tree)}
    assert set(UNREACHED_BY_DESIGN) <= kept
