"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside ``src/``, every module-level public function
and every public method of a public class in the affmech layers.  A wrapped
function is patched in every affmech module that binds it, so calls through
``ex.evaluate`` and through ``from .algebroid import differential`` are both
seen.  Self-recursive functions (``evaluate``, ``substitute``) record their
top-level call only: while it runs, the module binds the original again.

A span records its name, start, end and parent span.  Self time is a span's
duration minus the time its child spans cover.  Counters (expression nodes,
output coefficients, sample points, RK4 steps) are taken where the work
happens.  Work done for counters (counting nodes, probing coefficients for
zeros) runs with tracing suspended and its time is taken off the trace
clock, so it lands in no span.  Statistics cover every span; the spans
themselves are kept in memory up to ``span_cap`` and written out at the end.
"""

from __future__ import annotations

import inspect
import json
import random
import sys
import time
from pathlib import Path

LAYERS = ["cli", "models", "modelfile", "expr", "algebroid", "affgebroid", "dynamics", "hj"]
CHART_BUILDS = [
    "affgebroid.AffgebroidChart.bidual_chart",
    "affgebroid.AffgebroidChart.vertical_chart",
    "affgebroid.AffgebroidChart.prolongation",
    "affgebroid.AffgebroidChart.vertical_prolongation",
    "affgebroid.AffgebroidChart.aplus_prolongation",
]
PROBE_POINTS = 3  # points at which differential outputs are probed for exact zeros


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.span_count = 0
        self.stack: list[list] = []  # open spans: [span id, time covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = {}
        self.paused = 0.0
        self.suspended = False
        self._nodes: dict[int, tuple[object, int]] = {}
        self._probe_envs: dict[tuple, list[dict]] = {}

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            json.dump({
                "fields": ["id", "name", "parent", "start_s", "end_s"],
                "spans_total": self.span_count,
                "spans_kept": len(self.spans),
                "spans": self.spans,
            }, fh)

    # -------------------------------------------------------------- counters

    def nodes(self, e) -> int:
        """Node count of an expression tree, cached by object identity."""
        hit = self._nodes.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        total, todo = 0, [e]
        while todo:
            node = todo.pop()
            total += 1
            for child in ("arg", "lhs", "rhs"):
                sub = getattr(node, child, None)
                if sub is not None:
                    todo.append(sub)
        if len(self._nodes) > 50_000:
            self._nodes.clear()
        self._nodes[id(e)] = (e, total)
        return total

    def zero_coeffs(self, section, eval_errors) -> int:
        """Output coefficients that evaluate to exactly 0.0 at every probe point."""
        variables = tuple(section.chart.base_vars)
        envs = self._probe_envs.get(variables)
        if envs is None:
            rng = random.Random(0)
            envs = [{v: rng.uniform(-1.0, 1.0) for v in variables} for _ in range(PROBE_POINTS)]
            self._probe_envs[variables] = envs
        zeros = 0
        for coeff in section.coeffs.values():
            try:
                zeros += all(coeff.value(env) == 0.0 for env in envs)
            except eval_errors:
                pass
        return zeros


def _make_wrapper(tracer: Tracer, name: str, fn, after=None, rebind=None):
    stats = tracer.stat(name)
    stack = tracer.stack
    spans = tracer.spans
    cap = tracer.span_cap
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if tracer.suspended:
            return fn(*args, **kwargs)
        tracer.span_count += 1
        sid = tracer.span_count
        parent = stack[-1][0] if stack else 0
        frame = [sid, 0.0]
        stack.append(frame)
        if rebind is not None:
            setattr(rebind[0], rebind[1], fn)
        start = clock() - tracer.paused
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock() - tracer.paused
            if rebind is not None:
                setattr(rebind[0], rebind[1], wrapper)
            stack.pop()
            duration = end - start
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if sid <= cap:
                spans.append((sid, name, parent, start, end))
        if after is not None:
            t0 = clock()
            tracer.suspended = True
            try:
                after(tracer, args, result)
            finally:
                tracer.suspended = False
                tracer.paused += clock() - t0
        return result

    return wrapper


def _counter_hooks(eval_errors):
    def nodes(key):
        return lambda tr, args, result: tr.count(key, tr.nodes(args[0]))

    def differential(tr, args, result):
        tr.count("algebroid.differential.coeffs_out", len(result.coeffs))
        tr.count("algebroid.differential.zero_coeffs", tr.zero_coeffs(result, eval_errors))

    return {
        "expr.evaluate": nodes("expr.evaluate.nodes"),
        "expr.evaluate_with_partials": nodes("expr.evaluate_with_partials.nodes"),
        "algebroid.differential": differential,
        "algebroid.pullback": lambda tr, args, result: tr.count(
            "algebroid.pullback.coeffs_out", len(result.coeffs)),
        "algebroid.SamplePlan.points": lambda tr, args, result: tr.count(
            "algebroid.SamplePlan.points.points", len(result)),
        "dynamics.integrate_field": lambda tr, args, result: tr.count(
            "dynamics.integrate_field.steps", len(result.times) - 1),
    }


def _public_targets(module):
    """(traced name, owner, attribute, function, kind) for each public callable a layer defines."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj, "function"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for meth, raw in vars(obj).items():
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield f"{short}.{attr}.{meth}", obj, meth, raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield f"{short}.{attr}.{meth}", obj, meth, raw, "method"


def install(tracer: Tracer) -> None:
    """Wrap every public callable of the affmech layers."""
    from affmech import expr

    packages = [m for n, m in sys.modules.items() if n == "affmech" or n.startswith("affmech.")]
    hooks = _counter_hooks((expr.EvalError, ArithmeticError, ValueError))
    for layer in LAYERS:
        module = sys.modules[f"affmech.{layer}"]
        for name, owner, attr, fn, kind in list(_public_targets(module)):
            rebind = None
            if kind == "function" and fn.__name__ in fn.__code__.co_names:
                rebind = (module, attr)
            wrapper = _make_wrapper(tracer, name, fn, hooks.get(name), rebind)
            if kind == "function":
                for pkg in packages:
                    for bound, value in list(vars(pkg).items()):
                        if value is fn:
                            setattr(pkg, bound, wrapper)
            elif kind == "method":
                setattr(owner, attr, wrapper)
            else:
                setattr(owner, attr, kind(wrapper))


# -------------------------------------------------------------- per-layer


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer numbers of the traced run, keyed by metric name."""

    def calls(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])[0] / ops

    def self_ms(*names):
        return sum(tracer.stats.get(n, [0, 0.0, 0.0])[2] for n in names) * 1e3 / ops

    def total_ms(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])[1] * 1e3 / ops

    def counter(key):
        return tracer.counters.get(key, 0.0) / ops

    coeffs = tracer.counters.get("algebroid.differential.coeffs_out", 0.0)
    zeros = tracer.counters.get("algebroid.differential.zero_coeffs", 0.0)
    return {
        "expr.parse.calls": calls("expr.parse"),
        "expr.parse.self_ms": self_ms("expr.parse"),
        "expr.evaluate.calls": calls("expr.evaluate"),
        "expr.evaluate.nodes": counter("expr.evaluate.nodes"),
        "expr.evaluate.self_ms": self_ms("expr.evaluate"),
        "expr.evaluate_with_partials.calls": calls("expr.evaluate_with_partials"),
        "expr.evaluate_with_partials.nodes": counter("expr.evaluate_with_partials.nodes"),
        "expr.evaluate_with_partials.self_ms": self_ms("expr.evaluate_with_partials"),
        "algebroid.differential.calls": calls("algebroid.differential"),
        "algebroid.differential.coeffs_out": counter("algebroid.differential.coeffs_out"),
        "algebroid.differential.zero_coeff_share": zeros / coeffs if coeffs else 0.0,
        "algebroid.pullback.coeffs_out": counter("algebroid.pullback.coeffs_out"),
        "algebroid.FnCoeff.value.calls": calls("algebroid.FnCoeff.value"),
        "algebroid.FnCoeff.value.self_ms": self_ms("algebroid.FnCoeff.value"),
        "algebroid.FnCoeff.value_and_partials.calls": calls("algebroid.FnCoeff.value_and_partials"),
        "algebroid.FnCoeff.value_and_partials.self_ms": self_ms("algebroid.FnCoeff.value_and_partials"),
        "algebroid.validate_chart.self_ms": self_ms("algebroid.validate_chart"),
        "algebroid.SamplePlan.points.points": counter("algebroid.SamplePlan.points.points"),
        "algebroid.prolong.self_ms": self_ms("algebroid.prolong"),
        "affgebroid.charts.self_ms": self_ms(*CHART_BUILDS),
        "affgebroid.HamiltonianSection.gradients.calls": calls("affgebroid.HamiltonianSection.gradients"),
        "affgebroid.pullback_identities.self_ms": self_ms("affgebroid.pullback_identities"),
        "affgebroid.vertical_restriction_check.self_ms": self_ms("affgebroid.vertical_restriction_check"),
        "dynamics.hamilton_rhs.calls": calls("dynamics.hamilton_rhs"),
        "dynamics.hamilton_rhs.self_ms": self_ms("dynamics.hamilton_rhs"),
        "dynamics.integrate_field.steps": counter("dynamics.integrate_field.steps"),
        "dynamics.integrate_field.self_ms": self_ms("dynamics.integrate_field"),
        "hj.cocycle_residual.self_ms": self_ms("hj.cocycle_residual"),
        "hj.hj_residual.self_ms": self_ms("hj.hj_residual"),
        "hj.f_of.calls": calls("hj.f_of"),
        "hj.verify_theorem.self_ms": self_ms("hj.verify_theorem"),
        "models.by_name.self_ms": self_ms("models.by_name"),
        "models.by_name.total_ms": total_ms("models.by_name"),
        "modelfile.load_model.self_ms": self_ms("modelfile.load_model"),
        "modelfile.load_model.total_ms": total_ms("modelfile.load_model"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
