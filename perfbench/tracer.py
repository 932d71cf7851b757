"""Per-layer tracing from outside the package.

A layer is one module of hungerlab. `Tracer.install()` replaces every
function defined in a layer module, wherever the package or one of its
modules binds it (`hungerlab.run`, `hungerlab.estimators.run`,
`hungerlab._kernels.greedy_run`, ...), by a wrapper that opens a span:
layer, function, start and end, nested in the caller's span. A layer's
self time is its span's duration minus the time of the spans it encloses.
Spans are folded into per-function totals as they close, held in memory
and written out when the run ends. Hooks on a few functions read their
arguments and results to count work at the same boundaries.

Nothing inside `src/` changes; `uninstall()` puts the originals back.
"""

import functools
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("chain_model", "_linalg", "hunger_engine", "_kernels",
          "estimators", "recurrence", "baselines", "cli")

# Called once per element, token or step: a span around them would measure
# the wrapper. Their time stays with the caller (CSV output, parsing, the
# Fraction loops).
UNTRACED = {"fmt_scalar", "parse_rational", "hungriest_index", "fire_step",
            "_fmt", "_cell", "_say"}

# Bytes a kernel step touches, per state: read h for the argmax, read the
# fired row, write h. Computed from the step count, not measured.
BYTES_PER_STATE_STEP = 24


def metric_prefix(layer: str) -> str:
    """Metric names must start with a letter: `_kernels` reports as `kernels`."""
    return layer.lstrip("_")


def brent_steps(mu: int, lam: int) -> int:
    """Firing steps `_kernels.brent_cycle` takes to return (mu, lam).

    Phase one compares the tortoise at 2^k - 1 with the next 2^k hare
    positions and stops in the first window with 2^k - 1 >= mu and
    2^k >= lam, after 2^k - 1 + lam hare steps. Phase two fires lam hare
    steps, then mu steps of both.
    """
    k = 0
    while 2**k - 1 < mu or 2**k < lam:
        k += 1
    return 2**k - 1 + 2 * lam + 2 * mu


def _kernel_hook(steps_of):
    def hook(tracer, args, kwargs, result, error, nested):
        if error is None:
            h = args[0]
            tracer.kernel_ran(steps_of(args, result), h.shape[0],
                              "int64" if h.dtype.kind == "i" else "float")
    return hook


def _count(name, amount_of):
    def hook(tracer, args, kwargs, result, error, nested):
        if error is None and not nested:
            tracer.counts[name] += amount_of(args, kwargs, result)
    return hook


def _fallback(counter):
    def hook(tracer, args, kwargs, result, error, nested):
        tracer.op_paths.add("Fraction")
        if counter:
            tracer.counts[counter] += 1
    return hook


def _find_cycle(tracer, args, kwargs, result, error, nested):
    if error is None:
        tracer.counts["recurrence.requested_steps"] += result.entry_steps + result.period
    elif type(error).__name__ == "CapExceeded":
        tracer.counts["recurrence.capped"] += 1


def _points(args, kwargs, result):
    if hasattr(result, "entries"):
        return len(result.entries)
    return len(result) if isinstance(result, list) else 1


def _csv_bytes(tracer, args, kwargs, result, error, nested):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--output" in argv:
        out = argv[argv.index("--output") + 1]
        for path in (out, out + ".classes"):
            if os.path.exists(path):
                tracer.counts["cli.csv_bytes"] += os.path.getsize(path)


def _arg(pos, name):
    return lambda args, kwargs, result: args[pos] if len(args) > pos else kwargs.get(name, 0)


HOOKS = {
    "_kernels.greedy_run": _kernel_hook(lambda a, r: a[2]),
    "_kernels.greedy_advance": _kernel_hook(lambda a, r: a[2]),
    "_kernels.chip_add_count": _kernel_hook(lambda a, r: r if r >= 0 else a[3]),
    "_kernels.brent_cycle": _kernel_hook(
        lambda a, r: brent_steps(int(r[0]), int(r[1])) if r[0] >= 0 else 2 * a[2]),
    "_kernels.reinsert_loop": _kernel_hook(lambda a, r: a[5]),
    "hunger_engine.run": _count("hunger_engine.steps", _arg(2, "steps")),
    "hunger_engine.run_with_reinsertion": _count("hunger_engine.steps", _arg(3, "steps")),
    "hunger_engine.chip_add": _count("hunger_engine.steps", lambda a, k, r: r[1].steps),
    "hunger_engine._run_fraction": _fallback("hunger_engine.fallback_calls"),
    "hunger_engine._chip_add_fraction": _fallback("hunger_engine.fallback_calls"),
    "hunger_engine._reinsert_fraction": _fallback("hunger_engine.fallback_calls"),
    "recurrence._fraction_cycle": _fallback(None),
    "recurrence.find_cycle": _find_cycle,
    "baselines.rotor_run": _count("baselines.steps", _arg(3, "N")),
    "baselines.engel_run": _count("baselines.steps", lambda a, k, r: r.entry_steps + r.period),
    "baselines.compare_two_state": _count("baselines.steps", lambda a, k, r: 2 * a[1]),
    "cli.main": _csv_bytes,
}
for _name in ("discrepancy_profile", "hitting_profile", "absorption_profile",
              "escape_profile", "return_time_profile", "hitting_distribution",
              "absorption_time", "escape_probability", "expected_return_time",
              "normalized_firing_vector"):
    HOOKS["estimators." + _name] = _count("estimators.points", _points)


class Tracer:
    """Spans and counters of one traced run, folded per function."""

    def __init__(self):
        self.active = False
        self.stack = []  # one [layer, seconds of enclosed spans] per open span
        self.funcs = {}  # "layer.function" -> [calls, total seconds, self seconds]
        self.counts = defaultdict(float)
        self.kernel_steps_under = defaultdict(int)  # layer -> kernel steps in its spans
        self.op_paths = set()  # arithmetic paths seen since the last reset
        self._saved = []

    def kernel_ran(self, steps, n, path):
        self.counts["kernels.steps"] += steps
        self.counts["kernels.computed_bytes"] += BYTES_PER_STATE_STEP * n * steps
        for layer in {frame[0] for frame in self.stack}:
            self.kernel_steps_under[layer] += steps
        self.op_paths.add(path)

    def _wrap(self, fn, layer):
        qual = f"{layer}.{fn.__name__}"
        stats = self.funcs.setdefault(qual, [0, 0.0, 0.0])
        hook = HOOKS.get(qual)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if hook is not None:
                    hook(tracer, args, kwargs, result, error, nested)

        return span

    def install(self):
        """Wrap every layer function in every hungerlab namespace."""
        if self._saved:
            return
        wrappers = {}
        names = [m for m in sys.modules if m == "hungerlab" or m.startswith("hungerlab.")]
        for mod in (sys.modules[m] for m in names):
            for name, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or name in UNTRACED:
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if package != "hungerlab" or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                self._saved.append((mod, name, value))
                setattr(mod, name, wrappers[value])

    def uninstall(self):
        for mod, name, value in self._saved:
            setattr(mod, name, value)
        self._saved = []

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, per pass of the workload: name -> (value, unit)."""
        out = {}
        by_layer = defaultdict(lambda: [0, 0.0])
        for qual, (calls, _total, self_s) in self.funcs.items():
            layer = qual.split(".")[0]
            by_layer[layer][0] += calls
            by_layer[layer][1] += self_s
        for layer in LAYERS:
            calls, self_s = by_layer[layer]
            out[f"{metric_prefix(layer)}.calls"] = (calls / passes, "count")
            out[f"{metric_prefix(layer)}.self_s"] = (self_s / passes, "s")

        def calls_of(qual):
            return self.funcs.get(qual, [0])[0] / passes

        c = self.counts
        kernel_self = by_layer["_kernels"][1]
        under = self.kernel_steps_under["recurrence"]
        out.update({
            "chain_model.hunger_matrix_calls": (calls_of("chain_model.hunger_matrix"), "count"),
            "chain_model.stationary_calls": (calls_of("chain_model.stationary_distribution"), "count"),
            "hunger_engine.steps": (c["hunger_engine.steps"] / passes, "count"),
            "hunger_engine.fallback_calls": (c["hunger_engine.fallback_calls"] / passes, "count"),
            "kernels.steps": (c["kernels.steps"] / passes, "count"),
            "kernels.steps_per_s": (c["kernels.steps"] / kernel_self if kernel_self else 0.0, "1/s"),
            "kernels.computed_bytes": (c["kernels.computed_bytes"] / passes, "B"),
            "estimators.points": (c["estimators.points"] / passes, "count"),
            "recurrence.useful_step_ratio": (
                c["recurrence.requested_steps"] / under if under else 0.0, "ratio"),
            "recurrence.capped": (c["recurrence.capped"] / passes, "count"),
            "baselines.steps": (c["baselines.steps"] / passes, "count"),
            "cli.csv_bytes": (c["cli.csv_bytes"] / passes, "B"),
        })
        return out

    def function_table(self, passes: int) -> dict:
        return {
            qual: {"calls": calls / passes, "total_s": total / passes, "self_s": self_s / passes}
            for qual, (calls, total, self_s) in sorted(self.funcs.items())
            if calls
        }
