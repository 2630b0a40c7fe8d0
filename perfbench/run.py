#!/usr/bin/env python3
"""Run one workload of the separ benchmark and print its metrics.

    python3 perfbench/run.py --workload short-messages --seed 0 --seconds 20 --trace 0

One client runs the workload's ops in a closed loop, each op starting
when the last one ends, for ``--seconds`` seconds. Each op's output is
checked right after it, outside the op's timing. ``--trace 0`` prints
the end-to-end metrics. ``--trace 1`` runs a fixed number of ops twice,
untraced and then traced, and prints the per-layer metrics and the
tracing overhead.

Standard output ends with two JSON lines: the run's details (environment
fingerprint, sample counts, extra figures), then one object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 2 means
the checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
              "import separ, separ.analysis, separ.cli; print(time.perf_counter() - t)")


def measure_setup() -> list[float]:
    """Import time of the package in fresh processes, one per sample."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "seed": seed,
    }


@dataclass
class Run:
    latencies: list[float] = field(default_factory=list)
    steps: list[tuple[float, ...]] = field(default_factory=list)
    problems: list[tuple[int, str]] = field(default_factory=list)
    evidence: list = field(default_factory=list)


def run_ops(workload, deadline_s=None, count=None, keep=False) -> Run:
    """Closed loop over the workload's inputs, until ``deadline_s`` seconds
    have passed or for ``count`` ops. With ``keep``, each op's evidence
    is kept for the caller."""
    run = Run()
    start = perf_counter()
    for index, inp in enumerate(workload.inputs()):
        ev = None
        t0 = perf_counter()
        try:
            out, steps = workload.op(inp)
        except Exception as exc:  # a failing op is counted, and the run goes on
            run.latencies.append(perf_counter() - t0)
            run.problems.append((index, f"op raised {exc!r}"))
        else:
            run.latencies.append(perf_counter() - t0)
            run.steps.append(steps)
            try:
                ev = workload.evidence(inp, out)
                reason = workload.check(index, inp, ev)
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason:
                run.problems.append((index, reason))
            del out
        if keep:
            run.evidence.append(ev)
        if count is not None and len(run.latencies) >= count:
            break
        if deadline_s is not None and perf_counter() - start >= deadline_s:
            break
    return run


def end_to_end(workload_name, seed, seconds, workdir):
    import numpy as np
    from workloads import WORKLOADS

    setup = measure_setup()
    workload = WORKLOADS[workload_name](seed, workdir)
    run = run_ops(workload, deadline_s=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = np.array(run.latencies)
    step_p50 = np.median(np.array(run.steps), axis=0) if run.steps else np.zeros(2)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / latencies.sum(), "1/s"),
        "op_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "op_p99_ms": (float(np.percentile(latencies, 99)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed = len({index for index, _ in run.problems})
    details = {
        "ops": len(latencies),
        "fail_ratio": failed / len(latencies),
        "op_p99_samples_beyond": int(len(latencies) * 0.01),
        "step_p50_ms": [float(t) * 1e3 for t in step_p50],
        "setup_samples_s": setup,
    }
    if workload_name == "bulk-file":
        mb = workload.size / 1e6
        details["encrypt_mb_per_s"] = mb / step_p50[0]
        details["decrypt_mb_per_s"] = mb / step_p50[1]
    return len(latencies), run.problems, metrics, details


def traced(workload_name, seed, workdir, ops=None):
    """Run the same ops untraced and then traced, each pass on a fresh
    workload object, and return per-layer metrics. The traced outputs
    must equal the untraced ones."""
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    ops = ops or cls.trace_ops
    # one op first, so that neither pass pays the process's warm-up
    run_ops(cls(seed, workdir), count=1)
    plain = run_ops(cls(seed, workdir), count=ops, keep=True)
    with Tracer() as tracer:
        traced_run = run_ops(cls(seed, workdir), count=ops, keep=True)
    problems = plain.problems + traced_run.problems
    for index, (a, b) in enumerate(zip(plain.evidence, traced_run.evidence)):
        if a != b:
            problems.append((index, "traced output differs from untraced output"))
    metrics, samples = tracer.metrics()
    metrics["trace.overhead_ratio"] = (sum(traced_run.latencies) / sum(plain.latencies), "ratio")
    details = {"ops": ops, "samples": samples, "absent": sorted(tracer.absent)}
    return ops, problems, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "separ" / "__init__.py", ROOT / "tests" / "reference_oracle.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = fingerprint(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            attempted, problems, metrics, details = traced(args.workload, args.seed, workdir)
        else:
            attempted, problems, metrics, details = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    for index, reason in problems:
        print(f"FAILED op {index}: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": env, "details": details}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len({index for index, _ in problems}),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
