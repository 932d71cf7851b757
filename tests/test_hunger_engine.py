import hashlib
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import (
    FLOAT,
    RATIONAL,
    CapExceeded,
    IIsAbsorbing,
    MarkovChain,
    absorbing_states,
    absorption_profile,
    basin_scan,
    chip_add,
    common_denominator,
    compare_two_state,
    conjecture_reports,
    covering_detail,
    discrepancy_profile,
    engel_run,
    find_cycle,
    fire_step,
    goldbug_chain,
    harmonic_chain,
    hitting_profiles,
    hunger_matrix,
    hungriest_index,
    lazy_run,
    make_absorbing,
    parse_chain,
    rotor_run,
    run,
    run_with_reinsertion,
    zero_hunger,
    zero_period,
)
from hungerlab import hunger_engine
from hungerlab.hunger_engine import SparseHunger
from oracles import (
    chain40_document, dense_rows, doubling_chip_add, random_absorbing_chain,
    random_irreducible_chain,
)

F = Fraction


def apply_fires(chain, h, fired):
    """Replay a fired sequence against the hunger matrix (slow reference)."""
    H = hunger_matrix(chain).H
    cur = list(h)
    for i in fired:
        for j in range(chain.n):
            cur[j] += H[i][j]
    return tuple(cur)


# ---------------------------------------------------------------------------
# single steps


def test_hungriest_breaks_ties_low():
    assert hungriest_index((F(0), F(0), F(0))) == 0
    assert hungriest_index((F(-1), F(2), F(2))) == 1
    # five-state walk snapshot: v2 beats v4
    assert hungriest_index((F(0), F(3, 5), F(0), F(2, 5), F(0))) == 1


def test_fire_step_adds_hunger_row(reflecting3):
    H = hunger_matrix(reflecting3).H
    new, i = fire_step(reflecting3, zero_hunger(reflecting3))
    assert i == 0
    assert new == H[0]


def test_coerce_rejects_bad_vectors(reflecting3):
    with pytest.raises(ValueError):
        run(reflecting3, (F(1), F(-1)), 1)
    with pytest.raises(ValueError):
        run(reflecting3, (0.5, -0.5, 0.0), 1)  # floats in rational mode


# ---------------------------------------------------------------------------
# plain runs


def test_run_zero_and_negative_steps(reflecting3):
    t = run(reflecting3, None, 0)
    assert t.steps == 0
    assert t.final_h == t.initial_h == zero_hunger(reflecting3)
    assert list(t.v) == [0, 0, 0]
    with pytest.raises(ValueError):
        run(reflecting3, None, -1)


def test_run_reflecting_rotation(reflecting3):
    # from zero the doubly reflecting walk fires 1, 2, 3, 1, 2, 3, ...
    t = run(reflecting3, None, 12)
    assert [int(x) for x in t.fired] == [k % 3 for k in range(12)]
    assert list(t.v) == [4, 4, 4]
    assert t.final_h == zero_hunger(reflecting3)


def test_run_trace_invariant_and_conservation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        chain = random_irreducible_chain(rng, n)
        h0 = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n))
        t = run(chain, h0, 60)
        assert t.final_h == apply_fires(chain, h0, [int(x) for x in t.fired])
        assert sum(t.final_h) == sum(h0)
        assert t.v.sum() == 60
        counts = np.bincount(np.asarray(t.fired), minlength=n)
        assert list(counts) == list(t.v)


def fire_steps(chain, h, steps):
    """Iterate fire_step, the one-step oracle: (fired indices, final h)."""
    fired = []
    for _ in range(steps):
        h, i = fire_step(chain, h)
        fired.append(i)
    return fired, h


def force_big_ints(monkeypatch):
    """Send every rational chain down the Python-int path, whatever its scale."""
    monkeypatch.setattr(hunger_engine, "_int64_safe", lambda *a: False)


def test_run_int64_path_matches_fraction_path(reflecting3, basin_demo3, monkeypatch):
    rng = random.Random(23)
    cases = [
        (reflecting3, (F(1, 7), F(-1, 7), F(0))),
        (basin_demo3, (F(4, 5), F(-1, 10), F(-7, 10))),
    ]
    for _ in range(6):
        chain = random_irreducible_chain(rng, 3)
        h0 = tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3))
        cases.append((chain, h0))
    fast = [run(chain, h0, 200) for chain, h0 in cases]
    assert all(hunger_engine._scaled(c, h)[0].dtype == np.int64 for c, h in cases)
    force_big_ints(monkeypatch)
    for (chain, h0), fast in zip(cases, fast):
        assert hunger_engine._scaled(chain, h0)[0].dtype == object
        slow = run(chain, h0, 200)
        assert list(fast.fired) == list(slow.fired)
        assert fast.final_h == slow.final_h
        assert list(fast.v) == list(slow.v)
        assert fire_steps(chain, h0, 200) == (list(slow.fired), slow.final_h)


def test_run_float_mode_tracks_rational(reflecting3):
    doc = (
        '{"mode": "float", "P": [[0.5, 0.5, 0.0],'
        " [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]}"
    )
    fchain = parse_chain(doc)
    ft = run(fchain, None, 30)
    rt = run(reflecting3, None, 30)
    assert list(ft.fired) == list(rt.fired)
    assert ft.final_h == pytest.approx([float(x) for x in rt.final_h])


def test_float_hunger_rejects_non_finite():
    fchain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    absorbing = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.0, 1.0]]}')
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            run(fchain, [bad, 0.0], 5)
        with pytest.raises(ValueError, match="finite"):
            chip_add(absorbing, [0.0, bad], 0)
        with pytest.raises(ValueError, match="finite"):
            run_with_reinsertion(absorbing, [bad, 0.0], [0], 5)


def test_run_huge_denominator_falls_back():
    # scale overflows the int64 budget, forcing the exact path
    chain = parse_chain(
        '{"mode": "rational", "P": [["1/2", "1/2"], ["1/2", "1/2"]]}'
    )
    h0 = (F(1, 2**40 + 1), -F(1, 2**40 + 1))
    t = run(chain, h0, 25)
    assert sum(t.final_h) == 0
    assert t.final_h == apply_fires(chain, h0, [int(x) for x in t.fired])


# ---------------------------------------------------------------------------
# chip addition


def test_chip_add_five_state_walk(absorbing_walk5):
    result, trace = chip_add(absorbing_walk5, None, 2)
    assert result == (F(1, 5), F(1, 5), F(2, 5), F(-3, 5), F(-1, 5))
    assert [int(x) for x in trace.fired] == [1, 3, 4]
    assert trace.initial_h == (F(0), F(3, 5), F(0), F(2, 5), F(0))
    # one fire in, the walk passes through the middle panel
    mid, i = fire_step(absorbing_walk5, trace.initial_h)
    assert i == 1
    assert mid == (F(1, 5), F(1, 5), F(1, 5), F(2, 5), F(0))
    # trace keeps the pre-removal vector so the replay identity holds
    assert trace.final_h == apply_fires(
        absorbing_walk5, trace.initial_h, [1, 3, 4]
    )
    assert trace.final_h == (F(1, 5), F(1, 5), F(2, 5), F(-3, 5), F(4, 5))


def test_chip_add_conserves_total(absorbing_walk5, two_sinks5):
    for chain in (absorbing_walk5, two_sinks5):
        h0 = (F(0), F(1, 3), F(-1, 3), F(0), F(0))
        result, trace = chip_add(chain, h0, 1)
        assert sum(result) == sum(h0)
        assert int(trace.fired[-1]) in absorbing_states(chain)


def test_chip_add_rejects_absorbing_insertion(absorbing_walk5):
    for i in (0, 4):
        with pytest.raises(IIsAbsorbing):
            chip_add(absorbing_walk5, None, i)


def test_chip_add_cap(absorbing_walk5):
    with pytest.raises(CapExceeded):
        chip_add(absorbing_walk5, None, 2, cap=2)
    # a chain without absorbing states can never stop, so the cap fires
    chain = parse_chain(
        '{"mode": "rational", "P": [["1/2", "1/2"], ["1/2", "1/2"]]}'
    )
    with pytest.raises(CapExceeded):
        chip_add(chain, None, 0, cap=100)


def test_chip_add_without_absorbing_state_fails_before_firing(monkeypatch):
    def fire(*args):
        raise AssertionError("a kernel ran")

    for kernels in (hunger_engine._kernels, hunger_engine._kernels.reference):
        monkeypatch.setattr(kernels, "greedy_run", fire)
    chain = parse_chain(
        '{"mode": "rational", "P": [["1/2", "1/2"], ["1/2", "1/2"]]}'
    )
    with pytest.raises(CapExceeded) as err:
        chip_add(chain, None, 0)
    assert err.value.cap == hunger_engine.DEFAULT_CAP


def test_chip_add_deterministic(absorbing_walk5):
    a = chip_add(absorbing_walk5, None, 3)
    b = chip_add(absorbing_walk5, None, 3)
    assert a[0] == b[0]
    assert list(a[1].fired) == list(b[1].fired)


def test_chip_add_fraction_fallback_agrees(absorbing_walk5, monkeypatch):
    chain = absorbing_walk5
    h0 = zero_hunger(chain)
    fast_result, fast_trace = chip_add(chain, h0, 2)
    force_big_ints(monkeypatch)
    slow_result, slow_trace = chip_add(chain, h0, 2)
    assert slow_result == fast_result
    assert list(slow_trace.fired) == list(fast_trace.fired)
    assert slow_trace.initial_h == fast_trace.initial_h
    assert slow_trace.final_h == fast_trace.final_h
    fired, h = fire_steps(chain, slow_trace.initial_h, slow_trace.steps)
    assert fired == list(slow_trace.fired)
    assert h == slow_trace.final_h
    assert fired[-1] in absorbing_states(chain)
    assert not absorbing_states(chain) & set(fired[:-1])
    with pytest.raises(CapExceeded):
        chip_add(chain, h0, 2, cap=1)


def kernel_runs(monkeypatch):
    """Record (steps asked for, steps taken) of every greedy_run call that
    hunger_engine makes."""
    runs = []
    greedy_run = hunger_engine._kernels.greedy_run

    def recorded(*args):
        runs.append((args[2], greedy_run(*args)))
        return runs[-1][1]

    monkeypatch.setattr(hunger_engine._kernels, "greedy_run", recorded)
    return runs


def test_chip_add_fires_each_step_once_past_buffer_doublings(monkeypatch):
    """2501 fires to absorption, two doublings past the 1024-entry first
    buffer: each greedy_run call fills the buffer's new half, the last one
    up to the absorbing fire or the cap. The cap counts fires, and
    absorption on fire `cap` succeeds."""
    chain = parse_chain(
        '{"mode": "rational", "P": [["4999/5000", "1/5000"], ["0", "1"]]}'
    )
    fired, h = fire_steps(chain, chip_add(chain, None, 0)[1].initial_h, 2501)
    runs = kernel_runs(monkeypatch)
    for cap, sizes in ((2501, [1024, 1024, 453]), (10**7, [1024, 1024, 2048])):
        runs.clear()
        result, trace = chip_add(chain, None, 0, cap=cap)
        assert [asked for asked, _ in runs] == sizes
        assert trace.steps == len(trace.fired) == 2501
        assert trace.v.tolist() == [2500, 1]
        assert fired == list(trace.fired)
        assert h == trace.final_h
        assert result == (F(2499, 5000), F(-2499, 5000))
    for cap in (2500, 0):
        with pytest.raises(CapExceeded):
            chip_add(chain, None, 0, cap=cap)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        chip_add(chain, None, 0, cap=-1)


def reducible_chain(rng, n, closed, mode):
    """A chain with 1..n-1 sinks, other rows of denominator <= 6 with
    P_ii < 1; with `closed`, two or more of them form a class that only
    moves within itself, so a chip inserted there is never absorbed."""
    order = rng.sample(range(n), n)
    k = rng.randint(1, n - 1)
    sinks, rest = order[:k], order[k:]
    inner = rest[: rng.randint(2, len(rest))] if closed and len(rest) >= 2 else []
    P = []
    for i in range(n):
        if i in sinks:
            P.append({i: 1})
            continue
        targets = inner if i in inner else range(n)
        den = rng.randint(1, 6)
        counts = dict.fromkeys(targets, 0)
        for _ in range(den):
            counts[rng.choice(targets)] += 1
        if counts[i] == den:  # not a sink: move one chip elsewhere
            counts[i] -= 1
            counts[rng.choice([j for j in targets if j != i])] += 1
        P.append({j: F(c, den) for j, c in counts.items() if c})
    if mode == FLOAT:
        P = [{j: float(p) for j, p in row.items()} for row in P]
    return MarkovChain(P, mode=mode)


def chip_add_outcome(add, chain, h, i, cap):
    try:
        result, t = add(chain, h, i, cap)
    except CapExceeded as err:
        return "cap", err.cap
    return result, t.fired.tolist(), t.v.tolist(), t.steps, t.initial_h, t.final_h


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.integers(2, 6), st.booleans(),
    st.sampled_from(("rational", "float", "big")), st.sampled_from((12, 1200)),
    st.data(),
)
def test_chip_add_matches_the_doubling_loop(seed, n, closed, kind, spread, data):
    """chip_add ends at the first greedy_run call that stops short of its
    buffer without an absorbing fire, where its orbit repeats; the loop
    that fires on to absorption or the cap is the reference. Starts spread
    up to 1200 give transients past the first buffer's 1024 fires. Caps run
    from 0 to just past the absorption step; chips in a closed class
    without sinks meet the cap on both sides. `big` starts near 2^62 take
    the Python-int path."""
    rng = random.Random(seed)
    chain = reducible_chain(rng, n, closed, FLOAT if kind == "float" else RATIONAL)
    i = rng.choice([s for s in range(n) if s not in absorbing_states(chain)])
    h = [F(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(n)]
    if kind == "float":
        h = [float(x) for x in h]
    elif kind == "big":
        h = [x + 2**62 for x in h]
    reach = chip_add_outcome(doubling_chip_add, chain, h, i, 6000)
    cap = data.draw(st.integers(0, 6000 if reach[0] == "cap" else reach[3] + 2))
    expected = chip_add_outcome(doubling_chip_add, chain, h, i, cap)
    assert chip_add_outcome(chip_add, chain, h, i, cap) == expected


def test_chip_add_finds_a_chip_that_is_never_absorbed_quickly():
    """Inserted at v1 of [[1/2,1/2,0],[1/2,1/2,0],[0,0,1]], the chip never
    leaves {v1, v2}: its orbit cycles within the first buffer, and chip_add
    says so without firing toward the 10^7 cap. The time bound is for the
    compiled kernels; the numpy backend fires in Python."""
    h = F(1, 2)
    chain = MarkovChain([[h, h, 0], [h, h, 0], [0, 0, 1]])
    with pytest.raises(CapExceeded):
        chip_add(chain, None, 0)  # first-call setup, not timed
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        chip_add(chain, None, 0)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            chip_add(chain, None, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.cap == hunger_engine.DEFAULT_CAP
    assert elapsed < 0.05 or hunger_engine._kernels.active_backend() != "c"
    assert peak < 5 * 2**20


def test_chip_add_refuses_a_float_fixed_point_at_a_live_state(monkeypatch):
    """From (1e20, -1e20, 0) a fire at v1 of a float chain adds -1/2 and
    1/2, which round away: v1 fires forever without changing h. The first
    greedy_run call sees h repeat (period 1) at v1, which does not absorb,
    and ends short of its buffer: CapExceeded, not an absorption."""
    chain = MarkovChain([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]], mode=FLOAT)
    runs = kernel_runs(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        chip_add(chain, (1e20, -1e20, 0.0), 0, cap=10**6)
    assert err.value.cap == 10**6
    assert runs == [(1024, 5)]  # h copied after 4 fires, the same after 5


def test_chip_add_stops_at_a_cycle_past_a_transient(monkeypatch):
    """From (1000, -1000, 0) the chip at v1 of the chain above fires 2000
    steps before its orbit closes with period 2, past two buffers of 1024
    fires. The third greedy_run call, of 2048, sees the period (h copied
    after 4 of its fires, the same 2 fires later) and ends short:
    CapExceeded after 2054 fires, not after the 10^7 of the cap."""
    h = F(1, 2)
    chain = MarkovChain([[h, h, 0], [h, h, 0], [0, 0, 1]])
    start = (F(1000), F(-1000), F(0))
    g, rows, _ = hunger_engine._scaled(chain, (F(2001, 2), F(-1999, 2), F(0)))
    assert hunger_engine._kernels.brent_cycle(g, rows, 10**4) == (2000, 2)
    runs = kernel_runs(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        chip_add(chain, start, 0)
    assert err.value.cap == hunger_engine.DEFAULT_CAP
    assert runs == [(1024, 1024), (1024, 1024), (2048, 6)]


def test_chip_add_random_chains_terminate():
    rng = random.Random(5)
    for _ in range(15):
        chain = random_absorbing_chain(rng, rng.choice((3, 4, 5)))
        i = next(
            s for s in range(chain.n) if s not in absorbing_states(chain)
        )
        result, trace = chip_add(chain, None, i)
        assert sum(result) == 0
        assert trace.steps >= 1


# ---------------------------------------------------------------------------
# remove and reinsert


def test_reinsertion_validation(absorbing_walk5):
    with pytest.raises(ValueError):
        run_with_reinsertion(absorbing_walk5, None, [], 5)
    with pytest.raises(ValueError):
        run_with_reinsertion(absorbing_walk5, None, [7], 5)
    with pytest.raises(ValueError):
        run_with_reinsertion(absorbing_walk5, None, [0], 5)  # absorbing
    with pytest.raises(CapExceeded):
        run_with_reinsertion(absorbing_walk5, None, [2], 50, cap=10)


def test_reinsertion_zero_steps(absorbing_walk5):
    t = run_with_reinsertion(absorbing_walk5, None, [2], 0)
    assert t.steps == 0
    assert t.insertions == 0
    assert t.min_h == t.max_h == 0


def test_reinsertion_lower_bound(absorbing_walk5):
    t = run_with_reinsertion(absorbing_walk5, None, [2], 12)
    assert t.min_h >= -1


def test_reinsertion_two_sided_bound(absorbing_walk5):
    # one chip in flight: totals sit in {0, 1}, so with a = -1 every
    # entry stays at or below (1) - (n-1)a
    n = absorbing_walk5.n
    t = run_with_reinsertion(absorbing_walk5, None, [1, 2, 3], 100)
    assert t.min_h >= -1
    assert t.max_h <= 1 - (n - 1) * -1


def test_reinsertion_lemma_on_ten_thousand_states():
    """The lemma's bounds, exactly, on a generated 10^4-state chain: each
    state steps to the next with 2/3 and to a random state with 1/3, 20
    states absorb, the start has denominators up to 6 and the chip is
    reinserted through 7 states for 2 * 10^5 steps."""
    n = 10**4
    rng = np.random.default_rng(7)
    absorbing = set(rng.choice(n, size=20, replace=False).tolist())
    rows = []
    for i, r in enumerate(rng.integers(0, n, size=n).tolist()):
        if i in absorbing:
            rows.append({i: F(1)})
        else:
            row = {(i + 1) % n: F(2, 3)}
            row[r] = row.get(r, 0) + F(1, 3)
            rows.append(row)
    nums, dens = rng.integers(-6, 7, size=n), rng.integers(1, 7, size=n)
    h0 = [F(int(a), int(b)) for a, b in zip(nums, dens)]
    free = sorted(set(range(n)) - absorbing)
    schedule = rng.choice(free, size=7, replace=False).tolist()
    t = run_with_reinsertion(MarkovChain(rows), h0, schedule, 2 * 10**5)
    a = min(h0) - 1
    assert t.min_h >= a
    assert t.max_h <= sum(h0) + 1 - (n - 1) * a
    assert t.insertions == np.count_nonzero(t.fired == -1) > 1


def test_reinsertion_sentinels_and_counts(absorbing_walk5):
    t = run_with_reinsertion(absorbing_walk5, None, [2], 40)
    fired = [int(x) for x in t.fired]
    assert fired[0] == -1  # the run opens with an insertion
    assert t.insertions == fired.count(-1)
    assert t.v.sum() == t.steps - t.insertions
    assert all(f == -1 or 0 <= f < absorbing_walk5.n for f in fired)


@pytest.mark.parametrize("name, mode, digest", [
    ("two_sinks5", RATIONAL, "c8dc8b2bc194eca14d689e74b8682727b9973097d369165502ee5526c32d2912"),
    ("two_sinks5", FLOAT, "875426a40cc28b4b5ca76b9f97a0226176b2328bfae03824907a1c78d6aa9c9d"),
    ("sinks40", RATIONAL, "0717238783f4d34054dfb9b0c44b42ec5095a59cfe39e4133f1f7c927e7701e3"),
    ("sinks40", FLOAT, "79b1c2d49a16b1a59860580605b5e747d76a068dd71e4a566be50c954df89922"),
])
def test_reinsertion_walk_unchanged(two_sinks5, name, mode, digest):
    """40000 steps of the walk pinned by sha256, on either backend: the
    firing sequence's own sha256, the counts, insertions, extrema and final
    vector. sinks40 is the 40-state chain with states 1 and 21 made
    absorbing, which takes the compiled tree past one block."""
    chain, schedule = two_sinks5, [1, 2]
    if name == "sinks40":
        c40 = parse_chain(json.dumps(chain40_document()))
        chain, schedule = make_absorbing(make_absorbing(c40, 0), 20), [5, 17, 33]
    if mode == FLOAT:
        chain = MarkovChain([[float(x) for x in row] for row in chain.P], chain.labels, FLOAT)
    t = run_with_reinsertion(chain, None, schedule, 40000)
    record = (hashlib.sha256(t.fired.tobytes()).hexdigest(), t.v.tolist(),
              t.insertions, t.min_h, t.max_h, t.final_h)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


def test_reinsertion_min_includes_initial(absorbing_walk5):
    h0 = (F(0), F(-2), F(1), F(0), F(1))
    t = run_with_reinsertion(absorbing_walk5, h0, [2], 1)
    assert t.min_h <= -2


def test_reinsertion_fraction_path_agrees(absorbing_walk5, monkeypatch):
    chain = absorbing_walk5
    steps = 60
    fast = run_with_reinsertion(chain, None, [1, 3], steps)
    force_big_ints(monkeypatch)
    slow = run_with_reinsertion(chain, None, [1, 3], steps)
    assert [int(x) for x in fast.fired] == [int(x) for x in slow.fired]
    assert fast.final_h == slow.final_h
    assert fast.min_h == slow.min_h
    assert fast.max_h == slow.max_h
    assert fast.insertions == slow.insertions
    assert_reinsertion_replays(chain, None, [1, 3], slow)


def assert_reinsertion_replays(chain, h0, schedule, t):
    """Replay a reinsertion trace: fire_step for fires, remove-and-reinsert
    by hand otherwise."""
    cur, prev, inserted = hunger_engine.coerce_hunger(chain, h0), None, 0
    seen = list(cur)
    for f in t.fired:
        if f == -1:
            s = schedule[inserted % len(schedule)]
            inserted += 1
            cur = tuple(
                x + p - (j == prev) for j, (x, p) in enumerate(zip(cur, chain.P[s]))
            )
        else:
            cur, i = fire_step(chain, cur)
            assert i == f
        prev = int(f)
        seen.extend(cur)
    assert cur == t.final_h
    assert (min(seen), max(seen), inserted) == (t.min_h, t.max_h, t.insertions)


def assert_chip_add_replays(chain, h0, i, result, trace):
    """Replay a chip addition: insert at i, fire_step to the first absorbing
    arrival, take the chip off there."""
    h0 = hunger_engine.coerce_hunger(chain, h0)
    assert trace.initial_h == tuple(x + p for x, p in zip(h0, chain.P[i]))
    fired, h = fire_steps(chain, trace.initial_h, trace.steps)
    assert fired == list(trace.fired)
    assert h == trace.final_h
    absorbing = absorbing_states(chain)
    assert fired[-1] in absorbing and not absorbing & set(fired[:-1])
    assert result == tuple(x - (j == fired[-1]) for j, x in enumerate(h))


# ---------------------------------------------------------------------------
# which arithmetic runs: int64 keys, or Python ints past the int64 bound


def test_int64_safe_edges():
    # zero keys: values stay in [-unit, 3 unit], so 3 unit + 4 unit < 2**62
    unit = (2**62 - 4) // 7
    assert hunger_engine._int64_safe([0, 0, 0], unit, 3)
    assert not hunger_engine._int64_safe([0, 0, 0], unit + 1, 3)
    # a = -K - 1, b = 1 - 2a = 2K + 3, so 2K + 7 < 2**62
    K = 2**61 - 4
    assert hunger_engine._int64_safe([-K, K, 0], 1, 3)
    assert not hunger_engine._int64_safe([-K - 1, K + 1, 0], 1, 3)
    # the total counts: one more unit of it passes the bound
    assert not hunger_engine._int64_safe([-K, K + 1, 0], 1, 3)


def test_huge_denominator_start_runs_on_int64_keys(reflecting3):
    """Denominators 2**40 and 2**41 - 9 put S*h far past int64; the keys
    only rank three fractional parts."""
    p, q = 2**40 + 15, 2**41 - 9
    h = (F(1, p), F(1, q), -F(1, p) - F(1, q))
    g, rows, keys = hunger_engine._scaled(reflecting3, h)
    assert keys.S >= 2**80
    assert (g.dtype, keys.R, keys.unit) == (np.int64, 3, 6)
    assert keys.hunger(g) == h
    t = run(reflecting3, h, 300)
    assert fire_steps(reflecting3, h, 300) == (list(t.fired), t.final_h)


def test_zero_start_keys_are_scaled_hunger(basin_demo3):
    g, rows, keys = hunger_engine._scaled(basin_demo3, zero_hunger(basin_demo3))
    D = common_denominator(basin_demo3)
    assert (keys.R, keys.M, keys.unit, keys.S) == (1, 1, D, D)
    assert g.tolist() == [0] * 3
    H = hunger_matrix(basin_demo3).H
    assert dense_rows(rows).tolist() == [[D * x for x in row] for row in H]
    # CSR: each row's nonzero entries and its diagonal, columns ascending
    kept = [[j for j, x in enumerate(row) if x or i == j] for i, row in enumerate(H)]
    assert rows.indptr.tolist() == [0, *itertools.accumulate(map(len, kept))]
    assert rows.indices.tolist() == [j for cols in kept for j in cols]
    assert rows.values.tolist() == [D * H[i][j] for i, cols in enumerate(kept) for j in cols]


# magnitudes near 2**70, and a chain with a 2**64 denominator: both past int64
HUGE = 2**70 + 3
WIDE = parse_chain(
    '{"mode": "rational", "P": [["0", "18446744073709551615/18446744073709551616",'
    ' "1/18446744073709551616"], ["1/2", "0", "1/2"], ["0", "0", "1"]]}'
)


@pytest.mark.parametrize(
    "chain_name, h0",
    [
        ("absorbing_walk5", tuple(HUGE + x for x in (F(0), F(1, 7), F(-1, 3), F(1, 2), F(0)))),
        ("wide", (F(1, 3), F(-1, 3), F(0))),
    ],
)
def test_past_int64_takes_the_big_int_path(request, chain_name, h0):
    chain = WIDE if chain_name == "wide" else request.getfixturevalue(chain_name)
    assert hunger_engine._scaled(chain, h0)[0].dtype == object
    t = run(chain, h0, 200)
    assert fire_steps(chain, h0, 200) == (list(t.fired), t.final_h)
    i = next(s for s in range(chain.n) if s not in absorbing_states(chain))
    result, trace = chip_add(chain, h0, i)
    assert_chip_add_replays(chain, h0, i, result, trace)
    schedule = [s for s in range(chain.n) if s not in absorbing_states(chain)]
    t = run_with_reinsertion(chain, h0, schedule, 150)
    assert_reinsertion_replays(chain, h0, schedule, t)


@st.composite
def big_denominator_cases(draw):
    """A random chain (absorbing or irreducible) and a start whose
    denominators reach 2**64."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    absorbing = draw(st.booleans())
    chain = (random_absorbing_chain if absorbing else random_irreducible_chain)(rng, n)
    h0 = []
    for _ in range(n):
        den = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**64)))
        h0.append(F(draw(st.integers(-3 * den, 3 * den)), den))
    return chain, tuple(h0)


def outcomes(chain, h0):
    """run, chip_add, run_with_reinsertion and find_cycle on one start."""
    out = {"run": run(chain, h0, 150)}
    absorbing = absorbing_states(chain)
    if absorbing:
        i = next(s for s in range(chain.n) if s not in absorbing)
        out["chip_add"] = (i, *chip_add(chain, h0, i))
        schedule = [s for s in range(chain.n) if s not in absorbing]
        out["reinsert"] = (schedule, run_with_reinsertion(chain, h0, schedule, 120))
    else:
        try:
            out["cycle"] = find_cycle(chain, h0, cap=4000)
        except CapExceeded:
            out["cycle"] = None
    return out


@settings(max_examples=40, deadline=None)
@given(big_denominator_cases())
def test_big_denominator_starts_match_big_ints_and_fire_step(case):
    chain, h0 = case
    fast = outcomes(chain, h0)
    with pytest.MonkeyPatch.context() as m:
        force_big_ints(m)
        slow = outcomes(chain, h0)
    t, u = fast["run"], slow["run"]
    assert (list(t.fired), t.v.tolist(), t.final_h) == (list(u.fired), u.v.tolist(), u.final_h)
    assert fire_steps(chain, h0, 150) == (list(t.fired), t.final_h)
    if "chip_add" in fast:
        (i, result, trace), (_, result2, trace2) = fast["chip_add"], slow["chip_add"]
        assert (result, list(trace.fired), trace.final_h) == (
            result2, list(trace2.fired), trace2.final_h
        )
        assert_chip_add_replays(chain, h0, i, result, trace)
        (schedule, t), (_, u) = fast["reinsert"], slow["reinsert"]
        assert (list(t.fired), t.final_h, t.min_h, t.max_h, t.insertions) == (
            list(u.fired), u.final_h, u.min_h, u.max_h, u.insertions
        )
        assert_reinsertion_replays(chain, h0, schedule, t)
    else:
        info = fast["cycle"]
        assert info == slow["cycle"]
        if info is not None:
            fired, rep = fire_steps(chain, h0, info.entry_steps)
            assert rep == info.representative
            fired, back = fire_steps(chain, rep, info.period)
            assert (back, tuple(fired)) == (rep, info.order)


# ---------------------------------------------------------------------------
# lazy countable chains


def test_lazy_chain_labels_states_by_index():
    assert hunger_engine.LazyChain().label(4) == "s4"


def test_goldbug_rows_and_labels():
    g = goldbug_chain()
    assert g.label(0) == "-1"
    assert g.label(1) == "0"
    assert g.label(5) == "4"
    assert g.is_absorbing(0) and g.is_absorbing(1)
    assert g.row(3) == [(1, F(1, 2)), (4, F(1, 2))]


def test_goldbug_marches_right():
    g = goldbug_chain()
    h0 = {0: F(-1, 2), 1: F(-1, 2), 2: F(-1, 2)}
    t = lazy_run(g, h0, 2, 3)
    assert t.fired == [3, 4, 5]
    assert not t.absorbed
    # same run, long horizon: after k fires the freshest state is 2 + k
    t = lazy_run(g, h0, 2, 50)
    assert t.fired == list(range(3, 53))


def test_goldbug_absorbs_from_cold_start():
    g = goldbug_chain()
    t = lazy_run(g, {}, 2, 10)
    # the tie at 1/2 resolves to the enumeration's low end, state -1
    assert t.fired == [0]
    assert t.absorbed
    assert t.steps == 1
    assert sum(t.final.values()) == 0


def test_lazy_run_rejects_absorbing_insertion():
    g = goldbug_chain()
    with pytest.raises(IIsAbsorbing):
        lazy_run(g, {}, 1, 4)


@pytest.mark.parametrize("chain", [goldbug_chain(), harmonic_chain()])
def test_lazy_run_rejects_negative_state_indices(chain):
    # countable chains enumerate states 0, 1, 2, ...: a negative index, to
    # insert at or as a tracked key, fails before any fire
    for h0, at in (({-3: 1}, 2), ({}, -1), ({-1: F(1, 2)}, 3)):
        k = at if at < 0 else min(h0)
        with pytest.raises(ValueError, match=rf"state index {k} out of range 0, 1, 2"):
            lazy_run(chain, h0, at, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda walk: chip_add(walk, None, 2.0),
        lambda walk: chip_add(walk, None, 1.5),
        lambda walk: run_with_reinsertion(walk, None, [1.7], 5),
        lambda walk: lazy_run(goldbug_chain(), {2.5: 1}, 2, 3),
        lambda walk: lazy_run(goldbug_chain(), {}, 2.0, 3),
    ],
    ids=["chip_add-2.0", "chip_add-1.5", "schedule-1.7", "lazy-key", "lazy-insert"],
)
def test_state_indices_must_be_integers(absorbing_walk5, call):
    # a float is not a state index, a whole one included: each call fails
    # before any fire instead of indexing numpy or truncating the float
    with pytest.raises(ValueError, match=r"state index \d\.\d is not an integer"):
        call(absorbing_walk5)


@pytest.mark.parametrize(
    "call",
    [
        lambda chains: run(chains["reflect"], None, 2.5),
        lambda chains: run(chains["reflect"], None, 5.0),
        lambda chains: run_with_reinsertion(chains["walk"], None, [1], 2.5),
        lambda chains: rotor_run(chains["reflect"], 0, None, 2.5),
        lambda chains: compare_two_state(F(1, 3), 2.5),
        lambda chains: find_cycle(chains["reflect"], None, cap=2.5),
        lambda chains: chip_add(chains["walk"], None, 2, cap=2.5),
        lambda chains: zero_period(chains["reflect"], cap=2.5),
        lambda chains: basin_scan(chains["basin"], (F(-1), F(1)), F(1, 2), cap=2.5),
    ],
    ids=["run", "run-5.0", "reinsertion", "rotor", "compare2", "find_cycle",
         "chip_add", "zero_period", "basin_scan"],
)
def test_step_counts_and_caps_must_be_integers(
    reflecting3, absorbing_walk5, basin_demo3, call
):
    # refused as state indices are, not leaked as a TypeError from range or
    # a ctypes.ArgumentError from a compiled kernel
    chains = {"reflect": reflecting3, "walk": absorbing_walk5, "basin": basin_demo3}
    with pytest.raises(ValueError, match=r"(steps|N|cap) \d\.\d is not an integer"):
        call(chains)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda c: run(c["reflect"], None, -1), "steps must be >= 0"),
        (lambda c: run_with_reinsertion(c["walk"], None, [1], -1), "steps must be >= 0"),
        (lambda c: run_with_reinsertion(c["walk"], None, [1], 0, -1), "cap must be >= 0"),
        (lambda c: chip_add(c["walk"], None, 2, cap=-1), "cap must be >= 0"),
        (lambda c: lazy_run(goldbug_chain(), {}, 2, -1), "steps must be >= 0"),
        (lambda c: find_cycle(c["reflect"], None, cap=-1), "cap must be >= 0"),
        (lambda c: zero_period(c["reflect"], cap=-1), "cap must be >= 0"),
        (lambda c: covering_detail(c["basin"], None, cap=-1), "cap must be >= 0"),
        (lambda c: basin_scan(c["basin"], (F(-1), F(1)), F(1, 2), cap=-1),
         "cap must be >= 0"),
        (lambda c: conjecture_reports(c["basin"], samples=2, cap=-1), "cap must be >= 0"),
        (lambda c: conjecture_reports(c["basin"], samples=-1), "samples must be >= 0"),
        (lambda c: engel_run(c["reflect"], (1, 2, 1), None, -1), "cap must be >= 0"),
        (lambda c: rotor_run(c["reflect"], 0, None, -1), "N must be >= 0"),
        (lambda c: discrepancy_profile(c["reflect"], None, 0), "N_max must be >= 1"),
        (lambda c: hitting_profiles(c["walk"], 2, 0), "N_max must be >= 1"),
        (lambda c: absorption_profile(c["walk"], 2, -1), "N_max must be >= 1"),
        (lambda c: engel_run(c["reflect"], (1, 2, 1), None, 2.5),
         "cap 2.5 is not an integer"),
        (lambda c: discrepancy_profile(c["reflect"], None, 2.5),
         "N_max 2.5 is not an integer"),
        (lambda c: hitting_profiles(c["walk"], 2, 2.5), "N_max 2.5 is not an integer"),
        (lambda c: absorption_profile(c["walk"], 2, 2.5), "N_max 2.5 is not an integer"),
    ],
    ids=["run", "reinsertion-steps", "reinsertion-cap", "chip_add", "lazy_run",
         "find_cycle", "zero_period", "covering_detail", "basin_scan",
         "conjecture_reports", "conjecture_reports-samples", "engel_run", "rotor_run", "discrepancy_profile",
         "hitting_profiles", "absorption_profile", "engel_run-2.5",
         "discrepancy_profile-2.5", "hitting_profiles-2.5", "absorption_profile-2.5"],
)
def test_counts_below_their_least_value_are_refused(
    reflecting3, absorbing_walk5, basin_demo3, call, message
):
    # every step count, N, N_max, cap and samples count goes through
    # chain_model._count, which names the argument: no call fires, scans or
    # caps on such a count
    chains = {"reflect": reflecting3, "walk": absorbing_walk5, "basin": basin_demo3}
    with pytest.raises(ValueError) as info:
        call(chains)
    assert str(info.value) == message


def test_numpy_integer_step_counts_and_caps(reflecting3, absorbing_walk5):
    five = np.int64(5)
    t = run(reflecting3, None, five)
    assert type(t.steps) is int
    assert t.fired.tolist() == run(reflecting3, None, 5).fired.tolist()
    t = run_with_reinsertion(absorbing_walk5, None, [1], five, cap=np.int64(9))
    assert type(t.steps) is int
    assert rotor_run(reflecting3, 0, None, five).itinerary.shape == (6,)
    assert find_cycle(reflecting3, None, cap=np.int64(100)) == find_cycle(reflecting3)
    assert chip_add(absorbing_walk5, None, 2, cap=np.int64(100))[1].steps == 3


def test_numpy_integer_state_indices(absorbing_walk5):
    i = np.int64(2)
    result, _ = chip_add(absorbing_walk5, None, i)
    assert result == chip_add(absorbing_walk5, None, 2)[0]
    a = run_with_reinsertion(absorbing_walk5, None, np.array([1, 3]), 9)
    b = run_with_reinsertion(absorbing_walk5, None, [1, 3], 9)
    assert list(a.fired) == list(b.fired)
    g = goldbug_chain()
    assert lazy_run(g, {i: F(1, 2)}, i, 3).rows == lazy_run(g, {2: F(1, 2)}, 2, 3).rows


def test_lazy_run_accepts_sparse_hunger():
    g = goldbug_chain()
    t = lazy_run(g, SparseHunger({0: F(-1, 2), 1: F(-1, 2), 2: F(-1, 2)}), 2, 1)
    assert t.fired == [3]
    assert t.rows[0][0] is None  # opening row is the insertion snapshot


def test_harmonic_enumeration_round_trip():
    h = harmonic_chain()
    for m in range(120):
        i, j = h.pair_of(m)
        assert 0 <= j <= i
        assert h.index_of(i, j) == m
    assert h.label(0) == "v(0,0)"
    assert h.label(h.index_of(5, 4)) == "v(5,4)"
    for i in range(6):  # v(0,0) absorbs and every v(i,i) drops to it
        assert h.row(h.index_of(i, i)) == [(0, F(1))]


def test_harmonic_partial_sums():
    h = harmonic_chain()
    for n in range(1, 13):
        t = lazy_run(h, {}, h.index_of(n, 0), n - 1)
        assert t.fired == [h.index_of(n, j) for j in range(1, n)]
        top = h.index_of(n, n)
        assert t.final[top] == sum(F(1, k) for k in range(1, n + 1))
    t = lazy_run(h, {}, h.index_of(5, 0), 4)
    assert t.final[h.index_of(5, 5)] == F(137, 60)


def test_reference_rows_table_is_built_once(absorbing_walk5, monkeypatch):
    builds = []
    build = hunger_engine._kernels.SparseRows._build_table
    monkeypatch.setattr(
        hunger_engine._kernels.SparseRows, "_build_table",
        lambda rows: builds.append(rows) or build(rows),
    )
    # D = 2**61 puts the keys past int64: Brent's finder, which writes the
    # cycle's order in the same call, runs on the reference body
    e = F(1, 2**61)
    circulant = MarkovChain([[0, 1 - e, e], [e, 0, 1 - e], [1 - e, e, 0]])
    assert hunger_engine._scaled(circulant, zero_hunger(circulant))[0].dtype == object
    assert find_cycle(circulant).period == 3
    assert len(builds) == 1
    # chip_add fires into a buffer doubling from 1024 entries, one
    # greedy_run call a size, all on the same rows
    H = 2**70
    _, trace = chip_add(absorbing_walk5, (H - 1000, H, H, H, H - 1000), 2)
    assert trace.steps > 4096
    assert len(builds) == 2
