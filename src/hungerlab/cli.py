"""Command line front end.

Every subcommand reads a chain definition file, writes plot-ready CSV to
--output (or standard output) and a short human summary to standard
error. Exit codes: 0 success, 2 validation or usage error, 3 a step cap
was hit, 4 the operation does not support the chain's mode, 141 (128 +
SIGPIPE) the reader of standard output closed it early, as `| head` does.

Two writers write a header and rows: _table one row per result through csv
(the cycle, basin, .classes, cover, conjectures and engel tables), _blocks
blocks of rows through _kernels.csv_rows, straight from the run's integer or
float64 arrays (sweeps, traces, rotor itinerary, compare2), which _chunks
cuts into PROFILE_CHUNK rows. A csv_rows field is a constant text (the exact
value), Labels (labels from the quoted label table), Ratios (cells num/den
reduced by their gcd and written as "a" or "a/b"; float64 cells by repr) or
Deviations; Labels.take, like Ratios.take and Deviations.take, gives a field
over some of its rows. The C body writes int64 and float64 blocks; Python-int
blocks and the numpy backend take the reference body, with the same bytes.
"""

import argparse
import csv
import functools
import io
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from ._kernels import Labels, Ratios, csv_rows
from .baselines import compare_two_state, engel_run, rotor_run
from .chain_model import (
    FLOAT,
    RATIONAL,
    MarkovChain,
    absorbing_states,
    fmt_scalar,
    is_irreducible,
    parse_chain,
)
from .errors import (
    CapExceeded,
    ChainFormatError,
    FloatModeUnsupported,
    HungerLabError,
    Stabilized,
)
from .estimators import (
    absorption_profile,
    discrepancy_profile,
    escape_profile,
    hitting_profiles,
    return_time_profile,
)
from .hunger_engine import DEFAULT_CAP, _hunger_blocks, chip_add, run
from .recurrence import basin_scan, conjecture_reports, covering_detail, find_cycle

DEFAULT_N = 1000
DEFAULT_STEP = Fraction(1, 20)
DEFAULT_BOUNDS = (Fraction(-3, 2), Fraction(3, 2))
PROFILE_CHUNK = 1 << 14  # profile and trace rows formatted per write


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (Fraction, int)):
        return fmt_scalar(Fraction(x))
    return repr(float(x))


def _cell(x) -> str:
    if isinstance(x, (tuple, list)):
        return ";".join(_fmt(c) for c in x)
    return _fmt(x)


def _load_chain(args) -> MarkovChain:
    with open(args.chain, "r") as f:
        chain = parse_chain(f.read())
    mode = getattr(args, "mode", None)
    if mode is None or mode == chain.mode:
        return chain
    if mode == FLOAT:
        P = [{j: float(p) for j, p in row} for row in chain.rows()]
        return MarkovChain(P, chain.labels, FLOAT)
    raise ChainFormatError("cannot reinterpret a float chain as rational")


def _state_index(chain: MarkovChain, token: str) -> int:
    """Resolve a state reference: label first, then 1-based index."""
    if token in chain.labels:
        return chain.labels.index(token)
    try:
        k = int(token)
    except ValueError:
        raise ValueError(f"unknown state {token!r}") from None
    if not 1 <= k <= chain.n:
        raise ValueError(f"state index {k} out of range 1..{chain.n}")
    return k - 1


def _rational(text) -> Fraction:
    """Fraction(text), with a zero denominator a ValueError like any other
    malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_hunger(chain: MarkovChain, text):
    if text is None:
        return None
    tokens = [t.strip() for t in text.split(",")]
    if chain.mode == RATIONAL:
        return tuple(_rational(t) for t in tokens)
    return tuple(float(t) for t in tokens)


def _out(path):
    return open(path, "w", newline="") if path else nullcontext(sys.stdout)


def _table(path, header, rows):
    """Write header and rows through csv, to path or standard output."""
    with _out(path) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _blocks(path, header, blocks):
    """Write header, then csv_rows of each block of fields, to path or standard output."""
    with _out(path) as f:
        f.write(",".join(header) + "\n")
        for fields in blocks:
            csv_rows(f, fields)


def _chunks(fields, rows):
    """The csv_rows fields over rows rows, in blocks of PROFILE_CHUNK rows."""
    for lo in range(0, rows, PROFILE_CHUNK):
        part = slice(lo, lo + PROFILE_CHUNK)
        yield [f if isinstance(f, str) else f.take(part) for f in fields]


def _tally(chain, counts) -> str:
    """label:count for each state, comma separated."""
    return ", ".join(f"{label}:{int(c)}" for label, c in zip(chain.labels, counts))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    chain = _load_chain(args)
    absorbing = sorted(absorbing_states(chain))
    _say(f"mode: {chain.mode}")
    _say(f"states: {chain.n} ({', '.join(chain.labels)})")
    _say(
        "absorbing: "
        + (", ".join(chain.labels[i] for i in absorbing) if absorbing else "none")
    )
    _say(f"irreducible: {'yes' if is_irreducible(chain) else 'no'}")
    _say("ok")
    return 0


def _quoted(labels):
    """Each label as csv writes it in a row (the empty lead field keeps an
    empty label from being written as "")."""
    quoted = []
    for label in labels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["", label])
        quoted.append(buf.getvalue()[1:-1])
    return quoted


def _write_trace(path, chain, trace, removed=False):
    """Write the trace CSV: the hunger vector before the first step and
    after each fire, from the run's own scaled values. removed takes the
    chip off the last fired state in the final row, as chip_add does. A
    block holds PROFILE_CHUNK rows of up to 64 states, fewer rows of more,
    so its (rows, n) arrays stay at most PROFILE_CHUNK * 64 cells however
    large the chain."""
    names = np.append(-1, trace.fired)  # step 0 fires nothing: -1 is the empty field
    quoted = _quoted(chain.labels)
    chunk = min(PROFILE_CHUNK, max(1, PROFILE_CHUNK * 64 // chain.n))

    def blocks():
        hunger = _hunger_blocks(chain, trace.initial_h, trace.fired, chunk)
        for lo, (block, S) in zip(range(0, len(names), chunk), hunger):
            hi = lo + len(block)
            if removed and hi == len(names):
                block[-1, names[-1]] -= S
            den = None if chain.mode == FLOAT else S
            steps = Ratios(np.arange(lo, hi), 1)
            yield [steps, Labels(quoted, names[lo:hi]), Ratios(block, den)]

    _blocks(path, ["step", "fired"] + [f"h_{k + 1}" for k in range(chain.n)], blocks())


def cmd_simulate(args) -> int:
    chain = _load_chain(args)
    h0 = _parse_hunger(chain, args.h0)
    trace = run(chain, h0, args.steps)
    _write_trace(args.output, chain, trace)
    _say(f"fired {trace.steps} steps; v = ({_tally(chain, trace.v)})")
    _say("final hunger: " + ",".join(_fmt(x) for x in trace.final_h))
    return 0


def cmd_chip_add(args) -> int:
    chain = _load_chain(args)
    h0 = _parse_hunger(chain, args.h0)
    i = _state_index(chain, args.at)
    result, trace = chip_add(chain, h0, i, args.cap)
    _write_trace(args.output, chain, trace, removed=True)
    _say(
        "fired: "
        + " ".join(chain.labels[int(k)] for k in trace.fired)
        + f" ({trace.steps} steps)"
    )
    _say("final hunger: " + ",".join(_fmt(x) for x in result))
    return 0


def _write_profile(args, profile):
    est, exact = profile.est._replace(sep=";"), _cell(profile.exact)
    fields = [Ratios(profile.Ns, 1), est, exact, profile.dev, profile.nd]
    header = ["N", "estimate", "exact", "deviation", "N_times_deviation"]
    _blocks(args.output, header, _chunks(fields, len(profile.Ns)))


def _last(profile, at="") -> str:
    """The final estimate, then `at`, then its exact value and deviation."""
    return (
        f"{_fmt(profile.estimates[-1])}{at} (exact {_fmt(profile.exact)},"
        f" deviation {_fmt(profile.entries[-1][1])})"
    )


def cmd_stationary(args) -> int:
    chain = _load_chain(args)
    h0 = _parse_hunger(chain, args.h0)
    profile = discrepancy_profile(chain, h0, args.N)
    _write_profile(args, profile)
    _say(f"stationary: {_cell(profile.exact)}")
    _say(f"sup of N times L1 deviation over N <= {args.N}: {_fmt(profile.sup_Nd)}")
    return 0


def cmd_hitting(args) -> int:
    chain = _load_chain(args)
    v = _state_index(chain, args.src)
    absorbing = sorted(absorbing_states(chain))
    if args.target is not None:
        u = _state_index(chain, args.target)
    else:
        if not absorbing:
            raise ValueError("chain has no absorbing states")
        u = absorbing[0]
        _say(f"no --target given; using {chain.labels[u]}")
    if u not in absorbing:
        raise ValueError(f"target {chain.labels[u]} is not absorbing")
    profiles = hitting_profiles(chain, v, args.N)
    _write_profile(args, profiles[u])
    for w, p in profiles.items():
        _say(f"target {chain.labels[w]}: a_N = {_last(p)}")
    return 0


def cmd_absorb(args) -> int:
    chain = _load_chain(args)
    profile = absorption_profile(chain, _state_index(chain, args.src), args.N)
    _write_profile(args, profile)
    _say(f"b_N = {_last(profile, f' at N = {args.N}')}")
    return 0


def cmd_escape(args) -> int:
    chain = _load_chain(args)
    v = _state_index(chain, args.src)
    u = _state_index(chain, args.target)
    profile = escape_profile(chain, v, u, args.N)
    _write_profile(args, profile)
    _say(
        f"escape probability to {chain.labels[u]} before returning to "
        f"{chain.labels[v]}: {_last(profile, f' at N = {args.N}')}"
    )
    return 0


def cmd_return_time(args) -> int:
    chain = _load_chain(args)
    v = _state_index(chain, args.src)
    profile = return_time_profile(chain, v, args.N)
    _write_profile(args, profile)
    _say(f"return time to {chain.labels[v]}: {_last(profile, f' at N = {args.N}')}")
    return 0


def cmd_cycle(args) -> int:
    chain = _load_chain(args)
    h0 = _parse_hunger(chain, args.h0)
    info = find_cycle(chain, h0, args.cap)
    header = ["entry_steps", "period", "order_class"]
    _table(args.output, header, [[info.entry_steps, info.period, info.order_class]])
    _say(f"entry after {info.entry_steps} steps, period {info.period}")
    _say("per-cycle firing counts: " + _tally(chain, info.firing_counts()))
    _say("representative: " + ",".join(_fmt(x) for x in info.representative))
    return 0


def cmd_basin(args) -> int:
    chain = _load_chain(args)
    bounds = tuple(_rational(b) for b in args.bounds)
    scan = basin_scan(chain, bounds, _rational(args.step), args.cap)
    _table(
        args.output, ["h1", "h2", "recurrent", "period", "order_class", "entry_steps"],
        ([_fmt(c.h1), _fmt(c.h2)] + (
            ["", "", "", ""] if c.period is None
            else [_fmt(c.recurrent), c.period, c.class_id, c.entry_steps]
        ) for c in scan.cells),
    )
    classes = list(enumerate(scan.classes, 1))
    if args.output:
        _table(args.output + ".classes", ["order_class", "order"], classes)
        _say(f"classes written to {args.output}.classes")
    else:
        for k, s in classes:
            _say(f"class {k}: {s}")
    recurrent = sum(1 for c in scan.cells if c.recurrent)
    capped = sum(1 for c in scan.cells if c.period is None)
    _say(
        f"{len(scan.cells)} cells: {recurrent} recurrent, "
        f"{len(scan.classes)} order classes, {capped} capped"
    )
    return 0


def cmd_cover(args) -> int:
    chain = _load_chain(args)
    h0 = _parse_hunger(chain, args.h0)
    det = covering_detail(chain, h0, args.cap)
    _table(args.output, ["steps", "member"], [[det.steps, _fmt(det.member)]])
    verdict = "lies" if det.member else "DOES NOT lie"
    _say(
        f"after {det.steps} steps the displacement {verdict} in the "
        "firing-difference lattice"
    )
    return 0


def cmd_conjectures(args) -> int:
    chain = _load_chain(args)
    bounds = tuple(_rational(b) for b in args.bounds)
    reports = conjecture_reports(
        chain, args.samples, bounds, _rational(args.step), args.seed, args.cap
    )
    _table(
        args.output, ["conjecture", "checked", "violations", "skipped"],
        ([r.name, r.checked, r.violations, r.skipped] for r in reports),
    )
    for r in reports:
        _say(
            f"{r.name}: {r.checked} checked, {r.violations} violations, "
            f"{r.skipped} skipped"
        )
        for note in r.notes:
            _say(f"  {note}")
    return 0


def cmd_engel(args) -> int:
    chain = _load_chain(args)
    c0 = [int(t) for t in args.chips.split(",")]
    d = [int(t) for t in args.thresholds.split(",")] if args.thresholds else None
    header = ["state", "cycle_count"]
    try:
        rec = engel_run(chain, c0, d, args.cap)
    except Stabilized as s:
        _table(args.output, header, [])
        _say(f"stabilized after {s.steps} firings")
        return 0
    _table(args.output, header, zip(chain.labels, rec.cycle_counts))
    _say(
        f"configuration repeated: entry after {rec.entry_steps} firings, "
        f"period {rec.period}"
    )
    _say("per-cycle firing counts: " + _tally(chain, rec.cycle_counts))
    return 0


def cmd_rotor(args) -> int:
    chain = _load_chain(args)
    start = _state_index(chain, args.start)
    rotors = (
        [int(t) for t in args.rotors.split(",")] if args.rotors else None
    )
    trace = rotor_run(chain, start, rotors, args.N)
    rows = len(trace.itinerary)
    fields = [Ratios(np.arange(rows), 1), Labels(_quoted(chain.labels), trace.itinerary)]
    _blocks(args.output, ["step", "state"], _chunks(fields, rows))
    _say("visits: " + _tally(chain, trace.visits))
    return 0


def cmd_compare2(args) -> int:
    comp = compare_two_state(_rational(args.q), args.N)
    Ns = comp.hunger.Ns
    fields = [Ratios(Ns, 1), comp.hunger.dev, comp.rotor.dev]
    _blocks(args.output, ["N", "hunger_dev", "rotor_dev"], _chunks(fields, len(Ns)))
    _say(
        f"max deviation over N in [2, {args.N}]: "
        f"hunger {_fmt(comp.hunger_max)}, rotor {_fmt(comp.rotor_max)}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, chain=True):
    if chain:
        p.add_argument("--chain", required=True, help="chain definition file")
        p.add_argument(
            "--mode",
            choices=[RATIONAL, FLOAT],
            help="override the file's mode (rational files may run as float)",
        )
    p.add_argument("--output", help="CSV output path (default: standard output)")


@functools.cache  # built on the first main call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hungerlab",
        description="deterministic chip-firing simulators and estimators "
        "for finite Markov chains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, chain=True):
        p = sub.add_parser(name, help=help)
        _add_common(p, chain)
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse and describe a chain file")

    p = command("simulate", cmd_simulate, "run the greedy game, emit a trace")
    p.add_argument("--h0", help="initial hunger, comma separated")
    p.add_argument("--steps", type=int, default=DEFAULT_N)

    p = command("chip-add", cmd_chip_add, "insert a chip and fire to absorption")
    p.add_argument("--at", required=True, help="state to insert the chip at")
    p.add_argument("--h0", help="initial hunger, comma separated")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command(
        "stationary", cmd_stationary, "stationary-distribution discrepancy sweep"
    )
    p.add_argument("--h0", help="initial hunger, comma separated")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command("hitting", cmd_hitting, "absorption-probability estimates")
    p.add_argument("--from", dest="src", required=True, help="start state")
    p.add_argument("--target", help="absorbing state for the sweep")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command("absorb", cmd_absorb, "expected-absorption-time estimates")
    p.add_argument("--from", dest="src", required=True, help="start state")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command("escape", cmd_escape, "probability of reaching u before returning")
    p.add_argument("--from", dest="src", required=True, help="home state v")
    p.add_argument("--target", required=True, help="target state u")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command("return-time", cmd_return_time, "expected-return-time estimates")
    p.add_argument("--from", dest="src", required=True, help="state to return to")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command("cycle", cmd_cycle, "detect the orbit cycle of one start")
    p.add_argument("--h0", help="initial hunger, comma separated")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command("basin", cmd_basin, "grid scan of recurrence on 3-state chains")
    p.add_argument(
        "--bounds", nargs=2, default=DEFAULT_BOUNDS,
        help="grid bounds, low high (write negatives as decimals, e.g. -1.5)"
    )
    p.add_argument("--step", default=DEFAULT_STEP, help="grid step, e.g. 1/20")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command("cover", cmd_cover, "push a start onto the recurrent set")
    p.add_argument("--h0", help="initial hunger, comma separated")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command(
        "conjectures", cmd_conjectures, "empirical scans of the open conjectures"
    )
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--bounds", nargs=2, default=DEFAULT_BOUNDS,
        help="sample bounds, low high (write negatives as decimals, e.g. -1.5)"
    )
    p.add_argument("--step", default=DEFAULT_STEP, help="tiling grid step")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command("engel", cmd_engel, "threshold chip-firing until a repeat")
    p.add_argument("--chips", required=True, help="initial chips, comma separated")
    p.add_argument("--thresholds", help="per-state thresholds, comma separated")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = command("rotor", cmd_rotor, "rotor-router walk")
    p.add_argument("--start", required=True, help="start state")
    p.add_argument("--rotors", help="initial rotor positions, comma separated")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    p = command(
        "compare2", cmd_compare2, "greedy game vs rotor walk, 2-state chain",
        chain=False,
    )
    p.add_argument("--q", default="1/10", help="crossing probability")
    p.add_argument("--N", type=int, default=DEFAULT_N)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped reading (`| head`): that ends the output, not
        # an error. Later flushes, the one at exit too, go to os.devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # standard output is not a file descriptor
        finally:
            os.close(devnull)
        return 141
    except (HungerLabError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        if isinstance(exc, CapExceeded):
            return 3
        return 4 if isinstance(exc, FloatModeUnsupported) else 2


if __name__ == "__main__":
    sys.exit(main())
