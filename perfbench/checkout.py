"""Locate the checkout the benchmark runs in and import affmech from its sources.

Every benchmark entry point imports this module first.  The package is
always taken from ``src/`` of the checkout that holds this directory, never
from an installed copy, so a run measures exactly the code beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"


class CheckoutError(RuntimeError):
    pass


def use_checkout_src() -> None:
    """Put ``src/`` first on the import path and check that affmech comes from it."""
    package = SRC / "affmech"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no affmech sources under {package}")
    sys.path.insert(0, str(SRC))
    import affmech

    if Path(affmech.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"affmech was imported from {affmech.__file__}, not {package}")
