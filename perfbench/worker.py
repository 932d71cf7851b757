"""One workload in one fresh, single-threaded process.

Imports hungerlab, generates and parses the workload's chains, makes one
warm call per kind of operation, then prints "ready": the parent times
set-up from its spawn to that line. A `--role setup` worker stops there.
A `--role main` worker goes on to run whole passes of the workload's
fixed operation list until its time is up, checks every output outside
the timed region, and writes the raw measurements to `--result` as JSON.
The passes time the reference loop (reference.py) between operations, so
that run.py can normalise each time by the host's speed.
With `--trace 1` it runs untraced passes for half the time and traced
passes for the other half.

Started by run.py, which reduces the raw numbers to metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hungerlab  # noqa: E402  set-up starts with this import
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 3
MAX_FAILURE_NOTES = 20
# Operation time between two samples of the reference loop.
REFERENCE_EVERY_S = 0.2


def run_pass(ops, failures, tracer=None, traced_ops=None):
    """Run every operation once. Returns the pass record.

    Only the library or CLI call is timed; the check and the step count
    read the result afterwards. An exception from the call or the check
    marks the operation failed and the pass goes on. When traced, each
    operation's arithmetic paths and kernel steps go to `traced_ops`.
    The reference loop is timed before the first operation, after the last
    and after every REFERENCE_EVERY_S of operation time; the pass record
    keeps each sample with the index of the operation that follows it.
    """
    # Freeze what survives (the inputs, the benchmark's own records) so that
    # full collections during the pass scan only what the pass allocates.
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    timings = []
    wall = 0.0
    steps = 0
    refs = [[0, reference.sample()]]
    since_ref = 0.0
    for k, op in enumerate(ops):
        error = result = None
        if tracer is not None:
            tracer.op_paths.clear()
            kernel_steps = tracer.counts["kernels.steps"]
            tracer.active = True
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:
            error = exc
        dt = clock() - t0
        if tracer is not None:
            tracer.active = False
            kernel_steps = tracer.counts["kernels.steps"] - kernel_steps
        requested = 0
        if error is None:
            try:
                op.check(result)
                requested = op.requested(result)
            except Exception as exc:
                error = exc
        steps += requested
        if tracer is not None:
            seen = traced_ops.setdefault(op.label, {"paths": set(), "kernel_steps": 0,
                                                    "requested_steps": 0})
            seen["paths"].update(tracer.op_paths)
            seen["kernel_steps"] += kernel_steps
            seen["requested_steps"] += requested
        if error is not None and len(failures) < MAX_FAILURE_NOTES:
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
        timings.append([k, dt, error is None])
        wall += dt
        since_ref += dt
        if since_ref >= REFERENCE_EVERY_S or k == len(ops) - 1:
            refs.append([k + 1, reference.sample()])
            since_ref = 0.0
    return {"wall_s": wall, "steps": steps, "ops": timings, "refs": refs}


def run_passes(ops, budget, min_passes, failures, tracer=None, traced_ops=None):
    """Whole passes until the next one would end past `budget` seconds.

    At least `min_passes`, unless the machine is so slow that they would
    run past 1.5 times the budget; then two (one when min_passes is 1).
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, failures, tracer, traced_ops))
        n = len(passes)
        projected_end = (time.perf_counter() - start) * (n + 1) / n
        if n >= min_passes and projected_end > budget:
            return passes
        if n >= min(2, min_passes) and projected_end > 1.5 * budget:
            return passes


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy

    return {
        "backend": hungerlab.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, Path(args.workdir),
                               "smoke" if args.smoke else "full")
    failures = []
    for op in workload.warm:
        try:
            op.check(op.call())
        except Exception as exc:
            failures.append(f"warm {op.label}: {type(exc).__name__}: {exc}")
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    ops = workload.ops
    min_passes = 1 if args.smoke else MIN_PASSES
    out = {
        "env": environment(args.seed),
        "labels": [op.label for op in ops],
        "min_passes": min_passes,
        "warm": len(workload.warm),
        "warm_failed": len(failures),
    }
    if args.trace:
        out["passes"] = run_passes(ops, args.seconds / 2, 1, failures)
        tracer = Tracer()
        traced_ops = {}
        tracer.install()
        try:
            traced = run_passes(ops, args.seconds / 2, 1, failures, tracer, traced_ops)
        finally:
            tracer.uninstall()
        out["traced_passes"] = traced
        out["layers"] = tracer.layer_metrics(len(traced))
        out["functions"] = tracer.function_table(len(traced))
        out["traced_ops"] = {
            label: {"path": "+".join(sorted(t["paths"])) or "none",
                    "kernel_steps_per_requested": t["kernel_steps"] / t["requested_steps"]
                    if t["requested_steps"] else None}
            for label, t in traced_ops.items()}
    else:
        out["passes"] = run_passes(ops, args.seconds, min_passes, failures)
    out["failures"] = failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
