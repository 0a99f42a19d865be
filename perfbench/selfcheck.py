"""Self-check of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It confirms that

1. the oracle counts a wrong answer as a failure: every negative control
   below is an operation with a deliberately wrong expectation, or one that
   raises, and each must fail;
2. a short untraced and a short traced run of each workload answer every
   operation correctly and report exactly the metrics BENCHMARK.json names;
3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from checkout import ROOT, WORKDIR, use_checkout_src

RUN_TIMEOUT_S = 180


def negative_controls(workloads) -> list[str]:
    """Names of the controls that the oracle wrongly passed."""
    from affmech import affgebroid

    outdir = WORKDIR / "selfcheck"
    outdir.mkdir(parents=True, exist_ok=True)
    valid_file = outdir / "so3_scaled.model"
    valid_file.write_text(workloads.so3_model_text((1.0, 2.0, 3.0), None, 7))

    def wrong_oscillator_reference(row):
        return abs(row[2] - 0.5)  # claims q stays at its start value

    controls = [
        workloads.validate_op("perturbed-so3", True, "perturbed-so3 expected valid"),
        workloads.validate_op(str(valid_file), False, "scaled so3 file expected invalid"),
        workloads.validate_op("no-such-model", True, "unknown model expected valid"),
        workloads.verify_op("linear:tangent3", "grad_sq", [0.5, 0.5, 0.5], True),
        workloads.verify_op("trivial:3", "w_free", [0.0, 0.1, 0.2, 0.3], False),
        workloads.hj_op("trivial:2", "cubic expected to solve", "0", ["q1^2", "q2^2"],
                        None, 1, cocycle=True, solution=True),
        workloads.hj_op("trivial:2", "rotation expected closed", "0", ["q2", "-q1"],
                        None, 1, cocycle=True, solution=False),
        workloads.flow_op("oscillator", [0.0, 0.5], [0.5], 0.0, 1, wrong_oscillator_reference),
        workloads.Op("pullback_identities that raises",
                     lambda: affgebroid.pullback_identities(None, None), workloads.expect_holds),
    ]
    passed = []
    for op in controls:
        _, failure = workloads.run_op(op)
        print(f"control {'ok  ' if failure else 'MISS'} {failure or op.kind}")
        if failure is None:
            passed.append(op.kind)
    return passed


def run_benchmark(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def short_runs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            print(f"run {workload} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {proc.stderr.strip()}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
    return problems


def bare_directory() -> list[str]:
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "hj-churn", 0)
    shutil.rmtree(bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    if proc.returncode == 0 or printed_result:
        return ["bare directory: the benchmark did not refuse to run"]
    return []


def main() -> int:
    use_checkout_src()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"control passed: {kind}" for kind in negative_controls(workloads)]
    problems += short_runs(spec)
    problems += bare_directory()
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
