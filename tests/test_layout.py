"""The package's public names, the place of ``expr`` at the bottom of its
imports, the one home of the Hamilton formula, and slotted expression nodes."""

import ast
import importlib
import pkgutil
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
