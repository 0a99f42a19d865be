"""The package's public names, the place of ``expr`` at the bottom of its
imports, and the one home of the Hamilton formula."""

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
