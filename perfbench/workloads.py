"""The three workloads: their generated inputs, fixed operation lists and the
check that makes every operation's output count as correct or failed.

An operation is one public library call, or one `hungerlab.cli.main(argv)`
call that writes CSV to a file. Library functions are always looked up on
the `hungerlab` package (and the CLI on `hungerlab.cli`) at call time, so
the tracer's wrappers see every call.

Each builder draws every random input from the seed first, then turns the
inputs into operations at a given size: the full size for the timed passes
and a tiny size for the one warm call per kind of operation in set-up.
"""

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Union

import numpy as np

import chains as gen
import hungerlab
import hungerlab.cli
from hungerlab.chain_model import float_matrix

SHIPPED = Path(__file__).resolve().parent.parent / "chains"

# Sizes per workload: "full" for the measured passes, "smoke" for the fast
# mode and its tests, "warm" for the set-up calls.
SIZES = {
    "firing": {
        "full": {"steps": 100_000, "frac3": 55_000, "frac30": 7_000},
        "smoke": {"steps": 2_000, "frac3": 500, "frac30": 100},
        "warm": {"steps": 50, "frac3": 20, "frac30": 10},
    },
    "sweeps": {
        "full": {"big": 100_000, "small": 10_000},
        "smoke": {"big": 2_000, "small": 500},
        "warm": {"big": 50, "small": 50},
    },
    "orbits": {
        # The two grids give two equal clusters of latencies (about 0.15 and
        # 0.3 ms), and a median between them swung by a third from seed to
        # seed. Engel cycles (0.05 ms) as many as the slower grid and the
        # slow operations put the median in the middle of the faster grid's
        # cluster; 100 starts per circulant chain put p99 in the middle of
        # theirs.
        "full": {"grid": Fraction(1, 20), "starts": 100, "engel": 1970},
        "smoke": {"grid": Fraction(1, 2), "starts": 3, "engel": 2},
        "warm": {"grid": Fraction(3, 2), "starts": 1, "engel": 1},
    },
}

GRID_BOUNDS = (Fraction(-3, 2), Fraction(3, 2))


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation of a workload pass.

    steps is the number of firing steps the user asked for, or a function
    of the result when only the result knows it (orbits).
    """

    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    steps: Union[int, Callable[[object], int]]

    def requested(self, result) -> int:
        return self.steps(result) if callable(self.steps) else self.steps


@dataclass
class Workload:
    ops: List[Op]
    warm: List[Op]


def cached(compute):
    """Run `compute` once, on first use, and keep its value."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def write_and_parse(workdir: Path, name: str, chain):
    """Write a generated chain as a document and parse it back, as a user
    loading a chain file would. Returns (parsed chain, path)."""
    path = workdir / f"{name}.json"
    path.write_text(hungerlab.chain_to_document(chain))
    return hungerlab.parse_chain(path.read_text()), path


def load_shipped(name):
    path = SHIPPED / f"{name}.json"
    return hungerlab.parse_chain(path.read_text()), path


def cli_call(argv):
    def call():
        try:
            return hungerlab.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return exc.code

    return call


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def scalar(cell: str, rational: bool):
    return Fraction(cell) if rational else float(cell)


def cell_value(cell: str, rational: bool):
    parts = [scalar(c, rational) for c in cell.split(";")]
    return tuple(parts) if len(parts) > 1 else parts[0]


def as_float(cell: str) -> float:
    if "/" in cell:
        a, b = cell.split("/")
        return int(a) / int(b)
    return float(cell)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def expected_final(chain, h0, v):
    """h0 + v H with H = P - I, over the nonzero entries of P."""
    h = list(h0)
    for i, row in enumerate(chain.P):
        vi = int(v[i])
        if vi:
            for j, p in enumerate(row):
                if p:
                    h[j] += vi * p
            h[i] -= vi
    return h


def start_vector(chain, h0):
    if chain.mode == hungerlab.RATIONAL:
        return tuple(Fraction(x) for x in h0) if h0 is not None else (Fraction(0),) * chain.n
    return tuple(float(x) for x in h0) if h0 is not None else (0.0,) * chain.n


def check_final(chain, h0, v, final, steps):
    expected = expected_final(chain, h0, v)
    if chain.mode == hungerlab.RATIONAL:
        require(tuple(final) == tuple(expected), "final_h != initial_h + v.H")
    else:
        err = max(abs(a - b) for a, b in zip(final, expected))
        require(err <= 1e-12 * steps * chain.n + 1e-9, f"float drift {err}")


def check_run(chain, h0, steps):
    h0 = start_vector(chain, h0)

    def check(trace):
        require(trace.steps == steps and int(trace.v.sum()) == steps, "step count")
        require(
            np.array_equal(np.bincount(trace.fired, minlength=chain.n), trace.v),
            "v disagrees with fired",
        )
        require(tuple(trace.initial_h) == h0, "initial_h")
        check_final(chain, h0, trace.v, trace.final_h, steps)

    return check


def adjacency(chain):
    return np.array([[p > 0 for p in row] for row in chain.P])


def check_rotor(chain, start, N):
    adj = adjacency(chain)

    def check(trace):
        it = trace.itinerary
        require(len(it) == N + 1 and it[0] == start, "itinerary length or start")
        require(bool(adj[it[:-1], it[1:]].all()), "rotor moved along a zero edge")
        require(np.array_equal(np.bincount(it, minlength=chain.n), trace.visits), "visits")

    return check


def check_reinsertion(chain, schedule, steps):
    absorbing = hungerlab.absorbing_states(chain)

    def check(tr):
        fired = tr.fired
        plain = fired[fired >= 0]
        require(np.array_equal(np.bincount(plain, minlength=chain.n), tr.v), "v")
        inserts = np.flatnonzero(fired == -1)
        require(len(inserts) == tr.insertions and inserts[0] == 0, "insertion steps")
        h = expected_final(chain, start_vector(chain, None), tr.v)
        for k, t in enumerate(inserts):
            s = schedule[k % len(schedule)]
            for j, p in enumerate(chain.P[s]):
                h[j] += p
            if t > 0:
                gone = int(fired[t - 1])
                require(gone in absorbing, "reinsertion without an absorbed chip")
                h[gone] -= 1
        require(tuple(tr.final_h) == tuple(h), "final_h != replayed walk")
        require(tr.min_h >= -1 and tr.max_h <= chain.n, "boundedness lemma")

    return check


def rerouted_hitting(chain, v, u):
    """(exact, Pi, eps) for a_N(u) from v; exact from the library's
    hitting_oracle, checked against numpy."""
    exact = hungerlab.hitting_oracle(chain, v)[u]
    rer = hungerlab.reroute(chain, v)
    Pi, eps = gen.rerouted_bound(rer)
    pi = gen.stationary(float_matrix(rer.chain))
    pi_u = pi[rer.kept.index(u)] if u in rer.kept else 0.0
    require(abs(float(exact) - pi_u / Pi) <= 1e-9, "hitting oracle disagrees with numpy")
    return exact, Pi, eps


def rerouted_absorption(chain, v):
    """(exact, Pi, eps) for b_N from v; exact from the library's stationary
    solve of the rerouted chain, checked against numpy."""
    rer = hungerlab.reroute(chain, v)
    pi = hungerlab.stationary_distribution(rer.chain)
    exact = 1 / sum(pi[u] for u in rer.absorbing_images) - 1
    Pi, eps = gen.rerouted_bound(rer)
    require(abs(float(exact) - (1 / Pi - 1)) <= 1e-9 * max(1.0, float(exact)),
            "absorption oracle disagrees with numpy")
    return exact, Pi, eps


def hitting_limit(Pi, eps):
    """Bound on N * |a_N - h| for the rows where N Pi >= 2 eps."""
    return lambda N: np.where(N * Pi >= 2 * eps, 2 * eps * N / (N * Pi - eps), np.inf)


def absorption_limit(Pi, eps):
    """Bound on N * |b_N - b| for the rows where N Pi >= 2 eps."""
    return lambda N: np.where(
        N * Pi >= 2 * eps, eps * N / (Pi * (N * Pi - eps)), np.inf
    )


def sweep_oracle(kind, chain, params):
    """(exact value, bound function of N) for one CLI sweep."""
    if kind == "stationary":
        exact = hungerlab.stationary_distribution(chain)
        pi, eps = gen.firing_bound(float_matrix(chain))
        require(max(abs(float(a) - b) for a, b in zip(exact, pi)) <= 1e-9,
                "stationary oracle disagrees with numpy")
        return exact, lambda N: np.full(N.shape, eps)
    if kind == "hitting":
        exact, Pi, eps = rerouted_hitting(chain, params["v"], params["u"])
        return exact, hitting_limit(Pi, eps)
    if kind == "absorb":
        exact, Pi, eps = rerouted_absorption(chain, params["v"])
        return exact, absorption_limit(Pi, eps)
    split, v0, _ = hungerlab.split_vertex(chain, params["v"])
    if kind == "escape":
        exact, Pi, eps = rerouted_hitting(
            hungerlab.make_absorbing(split, params["u"]), v0, params["u"]
        )
        return exact, hitting_limit(Pi, eps)
    # return-time: exact 1/pi_v from the original chain's stationary solve
    pi = hungerlab.stationary_distribution(chain)
    exact = 1 / pi[params["v"]]
    rer_exact, Pi, eps = rerouted_absorption(split, v0)
    require(abs(float(exact) - float(rer_exact)) <= 1e-9 * float(exact),
            "return-time oracle disagrees with the rerouted chain")
    return exact, absorption_limit(Pi, eps)


def point_estimate(kind, chain, params, N):
    """The library's single-N estimate that the sweep's last row repeats."""
    if kind == "stationary":
        est = hungerlab.normalized_firing_vector(hungerlab.run(chain, None, N))
        return est if chain.mode == hungerlab.RATIONAL else tuple(float(x) for x in est)
    if kind == "hitting":
        ests = hungerlab.hitting_distribution(chain, params["v"], N)
        return next(e.a_N for e in ests if e.target == params["u"])
    if kind == "absorb":
        return hungerlab.absorption_time(chain, params["v"], N).b_N
    if kind == "escape":
        return hungerlab.escape_probability(chain, params["v"], params["u"], N).a_N
    return hungerlab.expected_return_time(chain, params["v"], N).b_N


def check_sweep(kind, chain, params, N, out):
    rational = chain.mode == hungerlab.RATIONAL
    oracle = cached(lambda: sweep_oracle(kind, chain, params))
    point = cached(lambda: point_estimate(kind, chain, params, N))

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        with open(out, newline="") as f:
            rows = csv.reader(f)
            require(next(rows) == ["N", "estimate", "exact", "deviation",
                                   "N_times_deviation"], "CSV header")
            first = last = None
            nd = []
            for row in rows:
                first = first or row
                last = row
                nd.append(as_float(row[4]))
        require(len(nd) == N and first[0] == "1" and last[0] == str(N), "CSV rows")
        exact, limit = oracle()
        require(cell_value(first[2], rational) == exact, "exact column != oracle")
        Ns = np.arange(1, N + 1, dtype=np.float64)
        bound = limit(Ns) * (1 + 1e-9) + 1e-12
        worst = int(np.argmax(np.asarray(nd) - bound))
        require(nd[worst] <= bound[worst],
                f"N*deviation {nd[worst]} above the bound {bound[worst]} at N={worst + 1}")
        require(cell_value(last[1], rational) == point(), "last row != point estimate")

    return check


# ---------------------------------------------------------------------------
# firing: long runs, kernel-bound


def build_firing(rng: random.Random, workdir: Path, size: str) -> Workload:
    inputs = []
    for n in (3, 30, 300):
        chain, path = write_and_parse(workdir, f"mix{n}", gen.mixture_chain(rng, n))
        inputs.append((n, chain, path, gen.zero_sum_start(rng, n), rng.randrange(n)))
    chain3, path3 = inputs[0][1], inputs[0][2]
    chain30 = inputs[1][1]
    sinks = rng.sample(range(30), 2)
    sink30 = hungerlab.make_absorbing(hungerlab.make_absorbing(chain30, sinks[0]), sinks[1])
    schedule = rng.sample([i for i in range(30) if i not in sinks], 5)
    huge = [(3, chain3, gen.huge_scale_start(rng, 3), "frac3") for _ in range(2)] + [
        (30, chain30, gen.huge_scale_start(rng, 30), "frac30") for _ in range(2)]
    return_from = rng.randrange(3)
    floats = {n: gen.as_float(chain) for n, chain, *_ in inputs}

    def ops_at(sz):
        steps = sz["steps"]
        ops = []
        for n, chain, _, start, rotor_start in inputs:
            for mode, c in (("rational", chain), ("float", floats[n])):
                for tag, h in (("zero", None), ("start", start)):
                    ops.append(Op(
                        f"run n={n} {mode} {tag}", f"run {mode}",
                        lambda c=c, h=h: hungerlab.run(c, h, steps),
                        check_run(c, h, steps), steps,
                    ))
            ops.append(Op(
                f"rotor_run n={n}", "rotor_run",
                lambda c=chain, s=rotor_start: hungerlab.rotor_run(c, s, None, steps),
                check_rotor(chain, rotor_start, steps), steps,
            ))
        ops.append(Op(
            "run_with_reinsertion n=30", "run_with_reinsertion",
            lambda: hungerlab.run_with_reinsertion(sink30, None, schedule, steps),
            check_reinsertion(sink30, schedule, steps), steps,
        ))
        for n, chain, h, size_key in huge:
            k = sz[size_key]
            ops.append(Op(
                f"run n={n} Fraction start", "run Fraction",
                lambda c=chain, h=h, k=k: hungerlab.run(c, h, k),
                check_run(chain, h, k), k,
            ))
        out = workdir / "simulate.csv"
        ops.append(Op(
            "cli simulate n=3", "cli simulate",
            cli_call(["simulate", "--chain", str(path3), "--steps", str(steps),
                      "--output", str(out)]),
            check_simulate(chain3, steps, out), steps,
        ))
        ops.append(Op(
            "expected_return_time n=3", "expected_return_time",
            lambda: hungerlab.expected_return_time(chain3, return_from, steps),
            check_return_time(chain3, return_from, steps), steps,
        ))
        ops.append(Op(
            "zero_period n=30", "zero_period",
            lambda: hungerlab.zero_period(chain30),
            lambda period: require(period == 30, f"zero period {period} != 30"),
            lambda period: period,
        ))
        return ops

    return Workload(ops_at(SIZES["firing"][size]),
                    first_of_each_kind(ops_at(SIZES["firing"]["warm"])))


def check_simulate(chain, steps, out):
    index = {label: i for i, label in enumerate(chain.labels)}

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        rows = read_csv(out)
        require(len(rows) == steps + 2 and rows[-1][0] == str(steps), "CSV rows")
        v = np.bincount([index[r[1]] for r in rows[2:]], minlength=chain.n)
        final = tuple(Fraction(x) for x in rows[-1][2:])
        check_final(chain, start_vector(chain, None), v, final, steps)

    return check


def check_return_time(chain, v, N):
    split, v0, _ = hungerlab.split_vertex(chain, v)
    bound = cached(lambda: absorption_limit(*gen.rerouted_bound(hungerlab.reroute(split, v0))))

    def check(est):
        # doubly stochastic chains have uniform pi, so the return time is n
        require(est.N == N and est.exact == chain.n, "exact return time != n")
        require(N * float(est.deviation) <= bound()(np.float64(N)) * (1 + 1e-9),
                "N*deviation above the bound")

    return check


# ---------------------------------------------------------------------------
# sweeps: CLI estimate profiles, bound by profile building and CSV output


def build_sweeps(rng: random.Random, workdir: Path, size: str) -> Workload:
    g30, g30_path = write_and_parse(workdir, "mix30", gen.mixture_chain(rng, 30))
    sinks = rng.sample(range(30), 2)
    g30a, g30a_path = write_and_parse(
        workdir, "mix30_sinks",
        hungerlab.make_absorbing(hungerlab.make_absorbing(g30, sinks[0]), sinks[1]),
    )
    live = [i for i in range(30) if i not in sinks]
    shipped = {name: load_shipped(name) for name in (
        "reflecting3", "basin_demo3", "two_sinks5", "absorbing_walk5")}
    chains = dict(shipped, mix30=(g30, g30_path), mix30_sinks=(g30a, g30a_path))
    g30_v, g30_u = rng.sample(range(30), 2)
    picks = {
        "hit": (rng.choice(live), rng.choice(sinks)),
        "absorb": rng.choice(live),
        "escape": (g30_v, g30_u),
        "return": rng.randrange(30),
        "rotor": rng.randrange(30),
    }
    cover_h0 = gen.zero_sum_start(rng, 30)

    # (subcommand, chain, from, target, tier, float mode); states 0-based.
    # One sweep at the big N: a 2-second operation swings with the host's
    # speed inside it, which samples between operations cannot see, and
    # three of them left room for only two passes in a run.
    specs = [
        ("stationary", "reflecting3", None, None, "big", False),
        ("stationary", "basin_demo3", None, None, "small", False),
        ("stationary", "mix30", None, None, "small", False),
        ("stationary", "reflecting3", None, None, "small", True),
        ("hitting", "two_sinks5", 1, 0, "small", False),
        ("hitting", "absorbing_walk5", 1, 4, "small", False),
        ("hitting", "mix30_sinks", *picks["hit"], "small", False),
        ("absorb", "absorbing_walk5", 2, None, "small", False),
        ("absorb", "mix30_sinks", picks["absorb"], None, "small", False),
        ("escape", "reflecting3", 0, 2, "small", False),
        ("escape", "mix30", *picks["escape"], "small", False),
        ("return-time", "basin_demo3", 2, None, "small", False),
        ("return-time", "mix30", picks["return"], None, "small", False),
    ]
    floats = {}

    def ops_at(sz):
        ops = []
        for k, (kind, name, v, u, tier, as_float) in enumerate(specs):
            chain, path = chains[name]
            if as_float:
                chain = floats.setdefault(name, gen.as_float(chain))
            N = sz[tier]
            out = workdir / f"sweep{k}.csv"
            argv = [kind, "--chain", str(path), "--N", str(N), "--output", str(out)]
            if v is not None:
                argv += ["--from", str(v + 1)]
            if u is not None:
                argv += ["--target", str(u + 1)]
            if as_float:
                argv += ["--mode", "float"]
            mode = " float" if as_float else ""
            ends = "".join(f" {k}={s + 1}" for k, s in (("from", v), ("to", u)) if s is not None)
            ops.append(Op(
                f"cli {kind} {name}{mode}{ends} N={N}", f"cli {kind}{mode}", cli_call(argv),
                check_sweep(kind if kind != "return-time" else "return", chain,
                            {"v": v, "u": u}, N, out),
                N,
            ))
        N = sz["big"]
        out = workdir / "rotor.csv"
        ops.append(Op(
            f"cli rotor mix30 N={N}", "cli rotor",
            cli_call(["rotor", "--chain", str(g30_path), "--start", str(picks["rotor"] + 1),
                      "--N", str(N), "--output", str(out)]),
            check_rotor_csv(g30, picks["rotor"], N, out), N,
        ))
        out = workdir / "cover.csv"
        ops.append(Op(
            "cli cover mix30", "cli cover",
            cli_call(["cover", "--chain", str(g30_path),
                      "--h0=" + ",".join(str(x) for x in cover_h0), "--output", str(out)]),
            check_cover(g30, cover_h0, out),
            lambda rc: int(read_csv(out)[1][0]) if rc == 0 else 0,
        ))
        return ops

    return Workload(ops_at(SIZES["sweeps"][size]),
                    first_of_each_kind(ops_at(SIZES["sweeps"]["warm"])))


def check_rotor_csv(chain, start, N, out):
    index = {label: i for i, label in enumerate(chain.labels)}
    adj = adjacency(chain)
    last = cached(lambda: int(hungerlab.rotor_run(chain, start, None, N).itinerary[-1]))

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        rows = read_csv(out)
        it = np.array([index[r[1]] for r in rows[1:]])
        require(len(it) == N + 1 and it[0] == start, "CSV rows")
        require(bool(adj[it[:-1], it[1:]].all()), "rotor moved along a zero edge")
        require(it[-1] == last(), "last state != rotor_run")

    return check


def check_cover(chain, h0, out):
    steps = cached(lambda: hungerlab.covering_detail(chain, h0).steps)

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        rows = read_csv(out)
        require(rows[1] == [str(steps()), "1"], f"cover row {rows[1]}")

    return check


# ---------------------------------------------------------------------------
# orbits: thousands of short cycle detections, bound by per-call set-up


def grid_values(step):
    lo, hi = GRID_BOUNDS
    values, x = [], lo
    while x <= hi:
        values.append(x)
        x += step
    return values


def check_cycle(chain, h0):
    h0 = start_vector(chain, h0)

    def check(info):
        require(info.period >= 1 and info.entry_steps >= 0, "empty orbit")
        rep = tuple(info.representative)
        lap = hungerlab.run(chain, rep, info.period)
        require(tuple(lap.final_h) == rep, "one period does not return to the representative")
        require(tuple(int(i) for i in lap.fired) == info.order, "firing order")
        entry = hungerlab.run(chain, h0, info.entry_steps)
        require(tuple(entry.final_h) == rep, "entry does not reach the representative")

    return check


def check_zero_period(chain):
    lcd = cached(lambda: hungerlab.lcd_of_stationary(chain))

    def check(period):
        # uniform pi on a doubly stochastic chain: lcd is n
        require(period == lcd() == chain.n, "zero orbit period != lcd_of_stationary")

    return check


def thresholds(chain):
    return [math.lcm(*(p.denominator for p in row)) for row in chain.P]


def check_engel(chain):
    """The check of an Engel walk from c0, as a function of c0."""
    d = thresholds(chain)
    pi = gen.stationary(float_matrix(chain))

    def check_from(c0):
        def check(rec):
            require(rec.repeated and rec.period >= 1, "no repeated configuration")
            require(sum(rec.final) == sum(c0), "chips not conserved")
            w = np.array([c * di for c, di in zip(rec.cycle_counts, d)], dtype=float)
            require(np.abs(w / w.sum() - pi).max() <= 1e-9, "cycle does not certify pi")

        return check

    return check_from


def check_basin(chain, values, out, spot):
    # rows run h1 in the outer loop, as basin_scan does
    expected = cached(lambda: [
        (i * len(values) + j,
         hungerlab.find_cycle(chain, (values[i], values[j], -values[i] - values[j])))
        for i, j in spot
    ])

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        rows = read_csv(out)[1:]
        require(len(rows) == len(values) ** 2, "grid rows")
        require(all(r[3] for r in rows), "capped cell")
        for k, info in expected():
            r = rows[k]
            require((r[2], int(r[3]), int(r[5])) == (
                "1" if info.entry_steps == 0 else "0", info.period, info.entry_steps),
                f"cell {r[:2]} disagrees with find_cycle")

    return check


def check_cycle_csv(chain, h0, out):
    info = cached(lambda: hungerlab.find_cycle(chain, h0))
    check_lap = check_cycle(chain, h0)

    def check(rc):
        require(rc == 0, f"exit code {rc}")
        row = read_csv(out)[1]
        lib = info()
        require(row == [str(lib.entry_steps), str(lib.period), lib.order_class], "cycle row")
        check_lap(lib)

    return check


def orbit_steps(info):
    return info.entry_steps + info.period


def basin_steps(out):
    return lambda rc: sum(int(r[3]) + int(r[5]) for r in read_csv(out)[1:]) if rc == 0 else 0


def build_orbits(rng: random.Random, workdir: Path, size: str) -> Workload:
    demo, demo_path = load_shipped("basin_demo3")
    g3, _ = write_and_parse(workdir, "mix3", gen.mixture_chain(rng, 3))
    circ = [write_and_parse(workdir, f"circ30_{k}", gen.mixture_chain(rng, 30, circulant=True))
            for k in range(2)]
    max_starts = SIZES["orbits"]["full"]["starts"]
    starts = [[gen.zero_sum_start(rng, 30) for _ in range(max_starts)] for _ in circ]
    engel_c0 = {
        name: [[di + rng.randint(0, 2 * di) for di in thresholds(c)]
               for _ in range(SIZES["orbits"]["full"]["engel"])]
        for name, c in (("basin_demo3", demo), ("mix3", g3))
    }
    cycle_h0 = gen.zero_sum_start(rng, 30)
    spot_seed = rng.random()

    def ops_at(sz):
        values = grid_values(sz["grid"])
        ops = []
        for name, chain in (("basin_demo3", demo), ("mix3", g3)):
            for h1 in values:
                for h2 in values:
                    h = (h1, h2, -h1 - h2)
                    ops.append(Op(
                        f"find_cycle {name} grid", "find_cycle n=3",
                        lambda c=chain, h=h: hungerlab.find_cycle(c, h),
                        check_cycle(chain, h), orbit_steps,
                    ))
        for k, (chain, _) in enumerate(circ):
            for h in starts[k][:sz["starts"]]:
                ops.append(Op(
                    "find_cycle circ30 start", "find_cycle n=30",
                    lambda c=chain, h=h: hungerlab.find_cycle(c, h),
                    check_cycle(chain, h), orbit_steps,
                ))
            ops.append(Op(
                "zero_period circ30", "zero_period",
                lambda c=chain: hungerlab.zero_period(c),
                check_zero_period(chain), lambda period: period,
            ))
            ops.append(Op(
                "pi from the zero cycle circ30", "normalized_firing_vector",
                lambda c=chain: hungerlab.normalized_firing_vector(hungerlab.run(c, None, c.n)),
                lambda est, n=chain.n: require(est == (Fraction(1, n),) * n, "cycle pi != uniform"),
                chain.n,
            ))
        for name, chain in (("basin_demo3", demo), ("mix3", g3)):
            check_from = check_engel(chain)
            for c0 in engel_c0[name][:sz["engel"]]:
                ops.append(Op(
                    f"engel_run {name}", "engel_run",
                    lambda c=chain, c0=c0: hungerlab.engel_run(c, c0),
                    check_from(c0),
                    lambda rec: rec.entry_steps + rec.period,
                ))
        out = workdir / "basin.csv"
        spot = random.Random(spot_seed).sample(
            [(i, j) for i in range(len(values)) for j in range(len(values))], 3)
        ops.append(Op(
            "cli basin basin_demo3", "cli basin",
            cli_call(["basin", "--chain", str(demo_path), "--bounds", "-1.5", "1.5",
                      "--step", str(sz["grid"]), "--output", str(out)]),
            check_basin(demo, values, out, spot), basin_steps(out),
        ))
        out = workdir / "cycle.csv"
        chain, path = circ[0]
        ops.append(Op(
            "cli cycle circ30", "cli cycle",
            cli_call(["cycle", "--chain", str(path),
                      "--h0=" + ",".join(str(x) for x in cycle_h0), "--output", str(out)]),
            check_cycle_csv(chain, cycle_h0, out),
            lambda rc: sum(int(x) for x in read_csv(out)[1][:2]) if rc == 0 else 0,
        ))
        return ops

    return Workload(ops_at(SIZES["orbits"][size]),
                    first_of_each_kind(ops_at(SIZES["orbits"]["warm"])))


BUILDERS = {"firing": build_firing, "sweeps": build_sweeps, "orbits": build_orbits}


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Generate the inputs of one workload from its seed; chain files and CLI
    output go to `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir, size)
