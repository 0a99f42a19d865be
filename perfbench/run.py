"""Run one workload of the affmech benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {structure,trajectory,hj-churn} \
        --seed N --seconds S --trace {0,1}

One process and one thread run a closed loop: the next operation starts
when the previous one returns.  Work is issued in whole rounds (one
operation per case of the workload); one untimed round runs first.  Every
answer is checked, and every operation, the first round's too, counts
toward ``attempted`` and ``failed``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs untraced for half the time and traced for the
other half, and reports per-operation layer numbers and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's metadata.  Results, and the spans of a traced run, are
also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
from checkout import ROOT, SRC, WORKDIR, CheckoutError, use_checkout_src

WORKLOADS = ["structure", "trajectory", "hj-churn"]
SETUP_REPEATS = 7
KERNEL_WINDOW = 31  # kernel runs whose median scales a round: seconds of load history, not minutes
SETUP_TIMEOUT_S = 60
SHOWN_FAILURES = 5
MIN_TIMED_OPS = 100  # keeps at least 10 operations beyond p90


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # seconds, scaled to reference speed
    round_rates: list[float] = field(default_factory=list)  # operations per second of each round, scaled
    raw_latencies: list[float] = field(default_factory=list)
    raw_round_rates: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Median over rounds, so a passing burst of load elsewhere on the machine weighs little."""
        return statistics.median(self.round_rates)


def run_phase(workload, seconds: float, tracer=None, min_ops: int = 0) -> Phase:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` operations are done.

    The reference kernel runs after every operation, outside its timing; the
    median of the last ``KERNEL_WINDOW`` kernel times scales a round's figures.
    """
    from workloads import run_op  # imports affmech, so only once src/ is on the path

    phase = Phase()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.suspended = True  # building the inputs is not the program's work
        ops = workload.next_round()
        if tracer is not None:
            tracer.suspended = False
        round_start = time.perf_counter()
        latencies, kernels = [], []
        for op in ops:
            elapsed, failure = run_op(op)
            latencies.append(elapsed)
            if failure is not None:
                phase.failures.append(failure)
            kernels.append(speed.kernel_seconds())
        now = time.perf_counter()
        rate = len(ops) / (now - round_start - sum(kernels))
        phase.kernel_s += kernels
        scale = speed.REFERENCE_S / statistics.median(phase.kernel_s[-KERNEL_WINDOW:])
        phase.raw_latencies += latencies
        phase.latencies += [t * scale for t in latencies]
        phase.raw_round_rates.append(rate)
        phase.round_rates.append(rate / scale)
        if now - start >= seconds and len(phase.latencies) >= min_ops:
            return phase


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def measure_setup(models: list[str]) -> list[float]:
    """Raw set-up seconds of ``SETUP_REPEATS`` fresh processes."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(probe), *models],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def end_to_end(timed: Phase, raw_setup_s: list[float]) -> dict[str, tuple[float, str]]:
    """``setup_s`` is scaled by the timed phase's median kernel time: a kernel
    timed right around a process start or exit reads the machine's speed
    unreliably, and the set-up ran seconds before, at much the same speed."""
    scale = speed.REFERENCE_S / statistics.median(timed.kernel_s)
    return {
        "ops_per_s": (timed.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(timed.latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(raw_setup_s) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    ops = len(traced.latencies)
    metrics = {
        "trace.ops_per_s": (traced.ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.overhead": (untraced.ops_per_s / traced.ops_per_s, "ratio"),
        "trace.spans": (tracer.span_count / ops, "count/op"),
    }
    for name, value in tracing.layer_metrics(tracer, ops).items():
        if name.endswith("_share"):
            unit = "ratio"
        elif name.endswith("_ms"):
            unit = "ms/op"
        else:
            unit = "count/op"
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_src()
    except CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    import numpy

    import workloads  # imports affmech, so only once src/ is on the path

    outdir = WORKDIR / f"{args.workload}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, outdir)
    raw_setup_s = measure_setup(workload.models)
    phases = [run_phase(workload, 0.0)]  # one untimed round: lazy set-up and caches
    if args.trace:
        untraced = run_phase(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_phase(workload, args.seconds / 2, tracer)
        phases += [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        tracer.write_spans(outdir / "spans.json")
        functions = {
            name: {"calls": s[0], "total_ms": s[1] * 1e3, "self_ms": s[2] * 1e3}
            for name, s in sorted(tracer.stats.items()) if s[0]
        }
    else:
        timed = run_phase(workload, args.seconds, min_ops=MIN_TIMED_OPS)
        phases.append(timed)
        metrics = end_to_end(timed, raw_setup_s)
        functions = {}

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    last = phases[-1]
    timed_ops = len(last.latencies)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": read_commit(),
        "src_lines": src_lines(),
        "ops_timed": timed_ops,
        "p90_tail_samples": timed_ops - math.ceil(0.9 * timed_ops),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:SHOWN_FAILURES],
        "kernel_median_ms": statistics.median(last.kernel_s) * 1e3,
        "kernel_reference_ms": speed.REFERENCE_S * 1e3,
        "raw_ops_per_s": statistics.median(last.raw_round_rates),
        "raw_op_p50_ms": statistics.median(last.raw_latencies) * 1e3,
        "raw_op_p90_ms": nearest_rank(last.raw_latencies, 0.9) * 1e3,
        "raw_setup_runs_s": raw_setup_s,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (outdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "functions": functions}, indent=1)
    )
    for failure in failures[:SHOWN_FAILURES]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
