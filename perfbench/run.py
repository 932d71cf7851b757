"""Layered benchmark of hungerlab: end-to-end metrics per workload, and a
traced run that splits the time by module.

Usage, from the root of the repository:

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload firing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload orbits --smoke   # fast smoke mode

Each workload runs in fresh single-threaded worker processes on the live
backend (see worker.py). Set-up is timed in several of them and the median
reported. Every time is reported in host-normalised seconds, so that a slow
spell of a shared host does not read as a slower program: an operation's
time is scaled by the reference loop's nominal time over its time measured
around the operation, a set-up time by the reference interpreter's nominal
set-up over its set-up measured just before (see reference.py). The raw
times are written to the result file as well. The untraced run (`--trace 0`) reports the end-to-end metrics,
the traced run (`--trace 1`) the per-layer ones. Both print every metric
by name and unit, write everything, environment included, to
perfbench/out/<workload>-seed<seed>-trace<t>.json, and end with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

Exits with 2, printing no result, when the package source is missing, and
with 1 when a worker fails or runs out of time.
"""

import argparse
import bisect
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("firing", "sweeps", "orbits")
# Workers per run, in order; every one's set-up is timed and the median
# reported. Probes before and after the measuring worker sample the machine
# at both ends of the run.
ROLES = ("setup", "setup", "main", "setup", "setup")
DEADLINE_S = 170  # a single-workload invocation must end within 180 s
TAIL_LADDER = (50, 75, 90, 95, 99)
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# ROADMAP item 1's reference latencies, seconds, for the matching operations.
ROADMAP_BASELINE = {
    "run n=3 rational zero": ("bare run, N=1e5, 3 states", 0.37),
    "cli stationary reflecting3 N=100000": ("CLI stationary --N 100000", 2.7),
    "cli basin basin_demo3": ("basin_scan at step 1/20 (CLI adds the CSV)", 2.0),
}


class BenchError(Exception):
    """A worker failed, timed out or wrote no result."""


def percentile(sorted_xs, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_level(count):
    """Highest ladder percentile with at least ten operations beyond it.

    Counted over the minimum number of passes, not over the passes run, so
    that each workload keeps one percentile however many passes fit.
    """
    return max(p for p in TAIL_LADDER if count * (1 - p / 100) >= 10 or p == 50)


def read_line(proc, deadline):
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.monotonic()))
    return proc.stdout.readline().strip() if ready else ""


def until_ready(cmd, name, log, deadline):
    """Spawn `cmd`; return (seconds from spawn to its "ready" line, process)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
                            stdout=subprocess.PIPE, stderr=log, text=True)
    try:
        line = read_line(proc, deadline)
        setup_s = time.perf_counter() - t0
        if line != "ready":
            raise BenchError(f"{name} did not get ready; see {log.name}")
    except BaseException:
        stop(proc)
        raise
    return setup_s, proc


def reference_setup(log, deadline):
    """Spawn-to-ready seconds of the bare reference interpreter."""
    took, proc = until_ready([sys.executable, "-c", reference.SETUP_CODE],
                             "reference interpreter", log, deadline)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("reference interpreter did not exit") from None
    finally:
        stop(proc)
    return took


def spawn(args, role, workdir, result, log, deadline):
    """Start a worker; return (seconds from spawn to "ready", process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--smoke", str(int(args.smoke)),
           "--role", role, "--workdir", str(workdir), "--result", str(result)]
    return until_ready(cmd, f"{role} worker", log, deadline)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_workers(args):
    """Run the workers of ROLES in turn, each after two spawns of the
    reference interpreter. Returns ([(setup time, mean reference set-up
    time)] per worker, raw result)."""
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    log_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    setups = []
    try:
        with open(log_path, "w") as log:
            result = tmp / "result.json"
            for k, role in enumerate(ROLES):
                ref_s = statistics.mean(reference_setup(log, deadline) for _ in range(2))
                setup_s, proc = spawn(args, role, tmp / f"work{k}", result, log, deadline)
                setups.append((setup_s, ref_s))
                try:
                    proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
                    code = proc.returncode
                except subprocess.TimeoutExpired:
                    raise BenchError(f"{role} worker ran past {DEADLINE_S} s") from None
                finally:
                    stop(proc)
                if code != 0:
                    raise BenchError(f"{role} worker exited with {code}; see {log_path}")
            return setups, json.loads(result.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def normalised(passes):
    """The passes with every operation time scaled to the reference speed,
    by the median of the two reference samples taken before the operation
    and the two after it."""
    out = []
    for p in passes:
        at = [k for k, _s in p["refs"]]
        samples = [s for _k, s in p["refs"]]
        ops = []
        for k, dt, ok in p["ops"]:
            j = bisect.bisect_right(at, k)  # samples[:j] were taken before op k
            local = statistics.median(samples[max(0, j - 2):j + 2])
            ops.append([k, dt * reference.REFERENCE_S / local, ok])
        out.append({**p, "ops": ops, "wall_s": sum(op[1] for op in ops)})
    return out


def op_latencies(passes):
    return sorted(dt * 1000 for p in passes for _k, dt, _ok in p["ops"])


def median_pass(passes):
    """Time of one pass of the fixed list, each operation at its median
    over the passes: a slow spell of the machine then spoils single
    operations, not the whole figure."""
    return sum(statistics.median(op[1] for op in same) for same in
               zip(*(p["ops"] for p in passes)))


def end_to_end(raw, setups):
    passes = normalised(raw["passes"])
    lat = op_latencies(passes)
    wall = median_pass(passes)
    tail = tail_level(len(raw["labels"]) * raw["min_passes"])
    metrics = {
        "setup_s": (statistics.median(s * reference.SETUP_REFERENCE_S / ref
                                      for s, ref in setups), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (statistics.median(p["steps"] for p in passes) / wall, "1/s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_tail_ms": (percentile(lat, tail), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    note = f"op_tail_ms is p{tail:g} of {len(lat)} operations in {len(passes)} passes"
    return metrics, note


def per_layer(raw):
    """Per-layer metrics. The tracer's times are scaled by the reference
    loop's median over the traced passes, a coarser normalisation than the
    per-operation one of the end-to-end metrics."""
    speed = reference.REFERENCE_S / statistics.median(
        s for p in raw["traced_passes"] for _k, s in p["refs"])
    metrics = {}
    for name, (value, unit) in raw["layers"].items():
        if name.endswith(".self_s"):
            value *= speed
        elif name == "kernels.steps_per_s":
            value /= speed
        metrics[name] = (value, unit)
    overhead = (median_pass(normalised(raw["traced_passes"]))
                - median_pass(normalised(raw["passes"])))
    metrics["trace.overhead_s"] = (overhead, "s")
    note = (f"per pass of {len(raw['labels'])} operations; "
            f"{len(raw['traced_passes'])} traced and {len(raw['passes'])} untraced passes")
    return metrics, note


def by_label(raw):
    """Median normalised latency and count per operation label, untraced
    passes."""
    groups = {}
    for p in normalised(raw["passes"]):
        for k, dt, _ok in p["ops"]:
            groups.setdefault(raw["labels"][k], []).append(dt)
    return {label: {"count": len(xs), "median_s": statistics.median(xs)}
            for label, xs in groups.items()}


def run_one(args):
    """Run one workload in one mode; print the report; return the summary."""
    setups, raw = run_workers(args)
    all_passes = raw["passes"] + raw.get("traced_passes", [])
    attempted = raw["warm"] + sum(len(p["ops"]) for p in all_passes)
    failed = raw["warm_failed"] + sum(not ok for p in all_passes for _k, _dt, ok in p["ops"])
    if args.trace:
        metrics, note = per_layer(raw)
    else:
        metrics, note = end_to_end(raw, setups)
    ops = by_label(raw)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": raw["env"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "note": note,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reference_s": reference.REFERENCE_S,
        "setup_reference_nominal_s": reference.SETUP_REFERENCE_S,
        "setup_runs_s": [s for s, _ref in setups],
        "setup_reference_s": [ref for _s, ref in setups],
        "pass_reference_s": [statistics.median(s for _k, s in p["refs"]) for p in raw["passes"]],
        "raw_setup_s": statistics.median(s for s, _ref in setups),
        "raw_wall_s": median_pass(raw["passes"]),
        "pass_walls_s": [p["wall_s"] for p in raw["passes"]],
        "traced_pass_walls_s": [p["wall_s"] for p in raw.get("traced_passes", [])],
        "operations": ops, "failures": raw["failures"],
        "roadmap_baseline": {
            label: {"roadmap": what, "roadmap_s": ref, "measured_s": ops[label]["median_s"]}
            for label, (what, ref) in ROADMAP_BASELINE.items()
            if label in ops and not args.smoke
        },
    }
    if args.trace:
        summary["traced_operations"] = raw["traced_ops"]
        summary["functions"] = raw["functions"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1))

    env = raw["env"]
    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={env['backend']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} commit={env['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}; {note}")
    print(f"  times normalised to a {reference.REFERENCE_S * 1000:g} ms reference loop, "
          f"which took {statistics.median(summary['pass_reference_s']) * 1000:.3g} ms "
          f"(raw wall_s {summary['raw_wall_s']:.6g}); set-up to a "
          f"{reference.SETUP_REFERENCE_S:g} s reference interpreter, which took "
          f"{statistics.median(summary['setup_reference_s']):.3g} s "
          f"(raw setup_s {summary['raw_setup_s']:.6g})")
    for label, row in summary["roadmap_baseline"].items():
        print(f"  {label}: {row['measured_s']:.3f} s normalised "
              f"(ROADMAP {row['roadmap']}: {row['roadmap_s']} s)")
    for line in raw["failures"]:
        print(f"  FAILED {line}")
    print(f"  written to {path.relative_to(ROOT)}")
    return summary


def result_line(summaries, prefix):
    metrics = {}
    for s in summaries:
        for name, m in s["metrics"].items():
            metrics[f"{s['workload']}.{name}" if prefix else name] = m
    return json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30,
                    help="measured time per run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hungerlab" / "__init__.py").is_file():
        print(f"error: no hungerlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    summaries = []
    try:
        for name in names:
            for mode in modes:
                summaries.append(run_one(argparse.Namespace(**{
                    **vars(args), "workload": name, "trace": mode})))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(summaries, prefix=len(summaries) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
