"""Reference kernel that tracks how fast the machine runs Python right now.

On a shared machine the speed of the same Python code drifts by 10-20 %
over tens of seconds, as other tenants come and go.  The benchmark runs this
fixed kernel after every operation and scales its times to the speed at
which the kernel takes ``REFERENCE_S``:

    scaled time = measured time * REFERENCE_S / kernel time nearby

The kernel is plain Python that does the same kind of work as the program
(a recursive forward-mode walk over a tuple tree: dict lookups, float
arithmetic and a new small list per node) and
shares no code with affmech, so no change to the program moves it.  The raw
figures and the kernel times are recorded beside the scaled ones.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 1.0e-3  # nominal kernel time; scaled figures read as if the kernel took this long


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        return ("var", rng.choice("abc")) if rng.random() < 0.5 else ("lit", rng.uniform(-1, 1))
    return (rng.choice("+-*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _evaluate(node, env) -> tuple[float, list[float]]:
    """Value and gradient in (a, b, c), one new list per node, as forward-mode AD does."""
    kind = node[0]
    if kind == "lit":
        return node[1], [0.0, 0.0, 0.0]
    if kind == "var":
        grad = [0.0, 0.0, 0.0]
        grad["abc".index(node[1])] = 1.0
        return env[node[1]], grad
    a, da = _evaluate(node[1], env)
    b, db = _evaluate(node[2], env)
    if kind == "+":
        return a + b, [x + y for x, y in zip(da, db)]
    if kind == "-":
        return a - b, [x - y for x, y in zip(da, db)]
    return a * b, [x * b + a * y for x, y in zip(da, db)]


_TREE = _tree(random.Random(0), 7)
_POINTS = [(0.1 * i, 0.2, -0.3) for i in range(5)]


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    start = time.perf_counter()
    for point in _POINTS:
        _evaluate(_TREE, dict(zip("abc", point)))
    return time.perf_counter() - start
