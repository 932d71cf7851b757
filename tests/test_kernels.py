"""The kernels on sparse rows against the dense oracle, the reference bodies
on Python ints against int64, and the build fallback.

Each property test builds random arguments, runs the numpy reference and
(when loaded) the compiled kernel on SparseRows, and the dense oracle
(tests/oracles.py: np.argmax and whole-row adds) on the same rows as an
n x n array, each on its own copy, and requires bit-identical results:
return values and every array the kernel writes. rotor_walk's oracle is
the walk on a list of every slot.
"""

import io
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hungerlab
from hungerlab import _kernels
from hungerlab._kernels import SparseRows
from hungerlab.chain_model import fmt_scalar
from hungerlab.cli import PROFILE_CHUNK, _quoted
from oracles import DENSE_KERNELS, dense_rows, sparse_rows

compiled = pytest.mark.skipif(
    _kernels.active_backend() != "c", reason="the C kernels are not loaded"
)
SPARSE = [_kernels.reference] + ([_kernels] if _kernels.active_backend() == "c" else [])


@st.composite
def cases(draw):
    """Random dense rows, start, absorbing mask, schedule and step count.

    Rows are S*(P - I) on int64 or P - I on float64 for a random sparse P
    with entries k/S. A power-of-two S makes the float arithmetic exact so
    float orbits can close; small integer starts make argmax ties common.
    Sizes past 8 states give trees of several blocks and levels. The
    schedule holds 1-5 entries, so greedy_run's reinsertion walk cycles it.
    """
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([64, 129, 300])))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    S = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 64]))
    steps = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        support = rng.choice(n, size=rng.integers(1, min(n, 4) + 1), replace=False)
        np.add.at(counts[i], rng.choice(support, size=S), 1)
    start = rng.integers(-2 * S, 2 * S + 1, size=n)
    if dtype is np.int64:
        rows = counts - S * np.eye(n, dtype=np.int64)
        h = start.astype(np.int64)
        one = np.int64(S)
    else:
        rows = counts / S - np.eye(n)
        h = start / S
        h[rng.random(n) < 0.2] = -0.0
        one = 1.0
    absorbing = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    schedule = rng.integers(0, n, size=draw(st.integers(1, 5)))
    return h, rows, absorbing, one, schedule, steps


def run_all(name, h, rows, *rest):
    """Run kernel `name` on each sparse implementation, given SparseRows,
    and on the dense oracle, given the n x n rows, each on its own copy of
    the array arguments. rows may be dense or SparseRows, which may hold
    explicit zeros.

    Returns [(result, args), ...], args without the rows, with the dense
    oracle's last.
    """
    sparse = rows if isinstance(rows, SparseRows) else sparse_rows(rows)
    dense = dense_rows(rows) if rows is sparse else rows
    runs = [(getattr(k, name), sparse) for k in SPARSE]
    runs.append((getattr(DENSE_KERNELS, name), dense))
    out = []
    for fn, r in runs:
        mine = [a.copy() if isinstance(a, np.ndarray) else a for a in (h, *rest)]
        out.append((fn(mine[0], r, *mine[1:]), mine))
    return out


def assert_same_arrays(a, b):
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


def assert_all_agree(name, h, rows, *rest):
    """run_all, requiring every implementation to return what the dense
    oracle returns and to write the same arrays; returns the oracle's
    (result, args)."""
    *mine, (dense_res, dense_args) = run_all(name, h, rows, *rest)
    for res, args in mine:
        assert np.array(res).tolist() == np.array(dense_res).tolist()
        assert_same_arrays(args, dense_args)
    return dense_res, dense_args


def last_copy(n, k):
    """The step of greedy_run's last copy of h before step k: the largest
    power of two below k that is >= n."""
    copied = 1
    while copied < n or 2 * copied < k:
        copied *= 2
    return copied


@settings(max_examples=60, deadline=None, database=None)
@given(cases())
def test_greedy_run_matches_reference(case):
    """Without a stop state (every fire recorded) and with the absorbing
    mask as stop states: ends at the first absorbing arrival, or where h
    is what it was at the last copy, when the orbit has repeated without
    one."""
    h, rows, absorbing, _, _, steps = case
    n = h.shape[0]
    fired = np.zeros(steps, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    for stop in (np.zeros_like(absorbing), absorbing):
        dense_res, dense_args = assert_all_agree(
            "greedy_run", h, rows, steps, fired, v, stop
        )
        k = int(dense_res)
        dense_fired = dense_args[2]
        assert not stop[dense_fired[: k - 1]].any()
        if k < steps and not stop[dense_fired[k - 1]]:  # the orbit repeated
            copied = last_copy(n, k)
            assert copied < k
            back = h.copy()
            DENSE_KERNELS.greedy_run(
                back, rows, copied, np.zeros(copied, np.int64), np.zeros(n, np.int64),
                np.zeros(n, np.bool_),
            )
            assert (back == dense_args[0]).all()
        else:
            assert k == steps or 0 < k and stop[dense_fired[k - 1]]


@settings(max_examples=60, deadline=None, database=None)
@given(cases())
def test_brent_cycle_matches_reference(case):
    """Every implementation returns the same (mu, lam) and leaves the same
    vector in h0: the start advanced mu steps, or the start itself."""
    h, rows, _, _, _, steps = case
    assert_all_agree("brent_cycle", h, rows, 10 * steps)


@settings(max_examples=60, deadline=None, database=None)
@given(cases())
def test_brent_cycle_writes_the_period_order(case):
    """Given an order buffer of at least lam entries, every implementation
    writes the lam states greedy_run fires from the cycle entry it returns,
    and nothing past them; a shorter buffer, or none, is left as it was.
    (mu, lam) and the vector left in h0 never depend on the buffer."""
    h, rows, _, _, _, steps = case
    n, cap, guard = h.shape[0], 10 * steps, -7
    for brent in [k.brent_cycle for k in SPARSE] + [DENSE_KERNELS.brent_cycle]:
        r = rows if brent is DENSE_KERNELS.brent_cycle else sparse_rows(rows)
        entry = h.copy()
        mu, lam = map(int, brent(entry, r, cap))
        expected = np.zeros(max(lam, 0), np.int64)
        if mu >= 0:
            DENSE_KERNELS.greedy_run(
                entry.copy(), rows, lam, expected, np.zeros(n, np.int64),
                np.zeros(n, np.bool_),
            )
        for size in {0, max(lam - 1, 0), max(lam, 0), lam + 3}:
            buf = np.full(size + 2, guard, np.int64)  # two entries past it
            h0 = h.copy()
            assert tuple(map(int, brent(h0, r, cap, buf[:size]))) == (mu, lam)
            assert h0.tobytes() == entry.tobytes()
            written = lam if 0 <= mu and lam <= size else 0
            assert buf[:written].tolist() == expected[:written].tolist()
            assert (buf[written:] == guard).all()


@settings(max_examples=60, deadline=None, database=None)
@given(cases())
def test_greedy_run_with_extrema_matches_reference(case):
    """The remove-and-reinsert walk, and with an empty schedule chip
    addition, tracking extrema (the compiled kernels' reads of the entries a
    step can move past them against the dense oracle's scan of every entry)
    and not. The stop states are the absorbing mask, or every state, which
    puts an insertion after every fire: its removal rescans a block, and its
    row and chip go through the tree like a fire's row."""
    h, rows, absorbing, one, schedule, steps = case
    n = h.shape[0]
    fired = np.zeros(steps, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    for sched in (schedule, schedule[:0]):
        for stop in (absorbing, np.ones(n, np.bool_)):
            for extrema in (np.zeros(2, dtype=h.dtype), None):
                dense_res, dense_args = assert_all_agree(
                    "greedy_run", h, rows, steps, fired, v, stop, one, sched, extrema
                )
                if len(sched):
                    assert int(dense_res) == steps
                    insertions = dense_args[2][::2] if stop.all() else dense_args[2][:1]
                    assert (insertions == -1).all()


@st.composite
def long_runs(draw):
    """A run past its orbit's transient and first periods, for greedy_run's
    orbit check: int64 rows, or float64 ones whose weights (k/S) are exact
    for S a power of two and rounded otherwise, a start spread wide (a long
    transient) that may hold -0.0, v counting already, a stop state on the
    cycle, off it or none, and a step count up to about 5000 just before,
    on or after a period boundary, counted from the cycle entry or from the
    step where the walk sees the period (its copy at a power of two >= n,
    mu and lam, then lam fires). Orbits that do not close within 5000 fires
    (a rounded float map's may never) get any step count. Also returns the
    step where a run with the stop state off the cycle ends once its orbit
    repeats, or None."""
    n = draw(st.integers(2, 48))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    S = draw(st.sampled_from([1, 2, 3, 4, 6, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        support = rng.choice(n, size=rng.integers(1, min(n, 4) + 1), replace=False)
        np.add.at(counts[i], rng.choice(support, size=S), 1)
    spread = draw(st.sampled_from([2, 20, 100])) * S
    h = rng.integers(-spread, spread + 1, size=n)
    if dtype is np.int64:
        rows = sparse_rows(counts - S * np.eye(n, dtype=np.int64))
    else:
        rows = sparse_rows(counts / S - np.eye(n))
        h = h / S
        h[rng.random(n) < 0.2] = -0.0
    order = np.zeros(5000, np.int64)
    mu, lam = _kernels.brent_cycle(h.copy(), rows, 5000, order)
    stop, repeats = np.zeros(n, np.bool_), None
    if mu < 0:
        steps = draw(st.integers(0, 5000))
    else:
        seen = 1
        while seen < max(n, mu, lam):
            seen *= 2
        base = draw(st.sampled_from([mu, seen + lam]))
        periods = draw(st.integers(0, max(0, (5000 - base) // lam)))
        steps = max(0, base + periods * lam + draw(st.sampled_from([-1, 0, 1])))
        cycle = np.unique(order[:lam])
        where = draw(st.sampled_from(["none", "on the cycle", "off the cycle"]))
        if where == "on the cycle":
            stop[draw(st.sampled_from(cycle.tolist()))] = True
        elif where == "off the cycle" and len(cycle) < n:
            stop[draw(st.sampled_from(np.setdiff1d(np.arange(n), cycle).tolist()))] = True
            repeats = seen + lam
    return h, rows, stop, steps, rng.integers(0, 100, size=n), repeats


@settings(max_examples=60, deadline=None, database=None)
@given(long_runs())
def test_greedy_run_past_the_orbits_transient_and_period(case):
    """Runs long enough for the compiled walk to see its orbit repeat and
    copy the rest of its fires (int64 ones; a float run without a stop
    state fires every step): the return value, fired, v (counting
    already) and the final h are the reference's and the dense oracle's,
    with and without extrema. With the stop state off the cycle, the run
    ends at its first stop fire in the transient, or where the walk sees
    the period, whichever comes first."""
    h, rows, stop, steps, v, repeats = case
    n = h.shape[0]
    for extrema in (None, np.zeros(2, h.dtype)):
        k, _ = assert_all_agree(
            "greedy_run", h, rows, steps, np.full(steps, -9, np.int64), v, stop,
            h.dtype.type(0), (), extrema,
        )
        if repeats is not None:
            free = np.zeros(steps, np.int64)
            DENSE_KERNELS.greedy_run(
                h.copy(), dense_rows(rows), steps, free, np.zeros(n, np.int64),
                np.zeros(n, np.bool_),
            )
            stops = np.flatnonzero(stop[free]).tolist()
            assert k == min([steps, repeats] + [t + 1 for t in stops[:1]])


def test_brent_cycle_past_many_untouched_states():
    """300 states: 297 absorbing ones, never fired, at equal hunger below
    three that move among themselves from a wide start. Every tortoise and
    hare agree on the 297 leading entries, so comparing them after every
    fire would cost O(n) a fire; the compiled body compares on a hash match
    only, and returns the reference's mu and lam, entry vector and order.
    A cap that phase one stays within (its blocks end by 2^13 fires) but
    phase two passes (mu > cap) gives (-1, -1) and leaves h0 alone."""
    n = 300
    rows = np.zeros((n, n), np.int64)  # 12 (P - I)
    rows[297:, 297:] = [[-12, 6, 6], [4, -8, 4], [9, 3, -12]]
    h = np.zeros(n, np.int64)
    h[297:] = [108000, -36000, 2400]
    rows = sparse_rows(rows)
    results = []
    for body in SPARSE:
        h0, order = h.copy(), np.full(64, -1, np.int64)
        results.append((body.brent_cycle(h0, rows, 10**6, order), h0.tolist(), order.tolist()))
    assert results[0][0] == (11413, 41)
    assert all(r == results[0] for r in results)
    for body in SPARSE:
        h0 = h.copy()
        assert body.brent_cycle(h0, rows, 10000) == (-1, -1)
        assert h0.tolist() == h.tolist()


@compiled
def test_a_million_steps_from_zero_on_a_doubly_stochastic_chain():
    """From zero hunger each of the n states of a doubly stochastic chain
    fires once and h is zero again, so the orbit's period is n: a run of
    3333 periods on 300 states fires every state 3333 times and ends at
    zero, the compiled walk firing only its first periods."""
    n, third = 300, Fraction(1, 3)
    P = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for shift, w in ((1, Fraction(1, 6)), (7, third), (100, Fraction(1, 2))):
            P[i][(i + shift) % n] += w
    trace = hungerlab.run(hungerlab.MarkovChain(P), None, 3333 * n)
    assert (trace.v == 3333).all()
    assert all(x == 0 for x in trace.final_h)
    assert trace.fired[-n:].tolist() == trace.fired[:n].tolist()


@st.composite
def signed_cases(draw):
    """Rows of several blocks that are not rows of H = P - I: each holds the
    diagonal and up to four other entries, every one drawn from -3 .. 3, so
    off-diagonal entries can be negative or an explicit zero (kept in the
    CSR arrays) and the diagonal can rise. Float values are quarters, so
    float sums stay exact."""
    n = draw(st.one_of(st.integers(9, 40), st.sampled_from([64, 129])))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr, indices, values = [0], [], []
    for i in range(n):
        others = rng.choice(n, size=rng.integers(0, min(n, 5)), replace=False)
        cols = np.union1d(others, [i])
        indices += cols.tolist()
        values += rng.integers(-3, 4, size=cols.shape[0]).tolist()
        indptr.append(len(indices))
    values = np.array(values, dtype)
    h = rng.integers(-6, 7, size=n).astype(dtype)
    if dtype is np.float64:
        values /= 4
        h /= 4
    rows = SparseRows(np.array(indptr, np.int64), np.array(indices, np.int64), values)
    return h, rows, rng.random(n) < 0.2, draw(st.integers(0, 200))


@settings(max_examples=60, deadline=None, database=None)
@given(signed_cases())
def test_kernels_on_rows_that_fall_off_the_diagonal(case):
    """A fire's entries that do not rise have their block rescanned,
    wherever they are: greedy_run (without extrema, which assume rows of H)
    and brent_cycle agree with the reference and the dense oracle."""
    h, rows, stop, steps = case
    n = h.shape[0]
    for mask in (np.zeros(n, np.bool_), stop):
        assert_all_agree(
            "greedy_run", h, rows, steps, np.zeros(steps, np.int64),
            np.zeros(n, np.int64), mask,
        )
    assert_all_agree("brent_cycle", h, rows, 10 * steps)


@pytest.mark.parametrize("seed", range(16))
def test_int64_adds_that_wrap_fire_as_numpy(seed):
    """Keys within a few fires of 2^63 - 1 or of -2^63: a rise past the top
    wraps to a large negative key and a fall past the bottom (a fire, or the
    removal of the chip) to a large positive one, as numpy's int64 does.
    The compiled tree must judge a move by the keys, not by the sign of
    what was added. Plain fires, the reinsertion walk (without extrema)
    and Brent agree with numpy, on chains of one block and of several."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([5, 12, 30, 70]))
    S = 4
    counts = np.zeros((n, n), np.int64)
    for i in range(n):
        support = rng.choice(n, size=3, replace=False)
        np.add.at(counts[i], rng.choice(support, size=S), 1)
    rows = counts - S * np.eye(n, dtype=np.int64)
    if seed % 2:
        h = np.iinfo(np.int64).max - rng.integers(0, 2, size=n)
        h[rng.random(n) < 0.3] = rng.integers(-S, S + 1)
    else:
        h = np.iinfo(np.int64).min + rng.integers(0, 2 * S, size=n)
    steps = 200
    schedule = rng.integers(0, n, size=3)
    stop = rng.random(n) < 0.3
    wrapped = False
    with np.errstate(over="ignore"):
        for args in ((np.zeros(n, np.bool_),), (stop,), (stop, np.int64(S), schedule)):
            _, (after, *_) = assert_all_agree(
                "greedy_run", h, rows, steps, np.zeros(steps, np.int64),
                np.zeros(n, np.int64), *args,
            )
            wrapped |= any(abs(x - y) > 2**62 for x, y in zip(after.tolist(), h.tolist()))
        assert_all_agree("brent_cycle", h, rows, 500)
    assert wrapped


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_a_lower_state_rising_to_the_leafs_hunger_fires_next(dtype):
    """Two blocks. State 5 leads block 0 at 10 and state 12 is the
    hungriest; firing 12 lifts states 2 and 7 from 9 to 10. State 2 ties
    the leaf with a lower index, so it takes the leaf and fires next; 7
    ties it with a higher index and does not. Then 5 fires, as np.argmax
    picks it over 7."""
    n = 16
    state = np.arange(n)
    rows = np.zeros((n, n), dtype)
    rows[state, state] = -4
    rows[state, (state + 1) % n] = 4
    rows[12] = 0
    rows[12, [2, 7, 12]] = [1, 1, -20]
    h = np.zeros(n, dtype)
    h[[2, 5, 7, 12]] = [9, 10, 9, 20]
    _, oracle = assert_all_agree(
        "greedy_run", h, rows, 4, np.zeros(4, np.int64), np.zeros(n, np.int64),
        np.zeros(n, np.bool_),
    )
    assert oracle[2][:3].tolist() == [12, 2, 5]


BIG = 2**70


@settings(max_examples=60, deadline=None, database=None)
@given(cases().filter(lambda case: case[0].dtype == np.int64))
def test_reference_on_python_ints_matches_int64(case):
    """The big-int path: each reference body on object arrays of Python ints,
    scaled by BIG past the int64 range, fires exactly as the live kernel on
    int64, and its hunger values are the int64 ones times BIG. _kernels.<name>
    on the same object arrays picks the reference body itself, so it gives
    the same results and writes the same arrays."""
    h, dense, absorbing, one, schedule, steps = case
    n = h.shape[0]
    rows = sparse_rows(dense)
    big_h = h.astype(object) * BIG
    big_rows = SparseRows(rows.indptr, rows.indices, rows.values.astype(object) * BIG)

    def scaled(a):
        return (np.asarray(a).astype(object) * BIG).tolist()

    for body in (_kernels.reference, _kernels):
        for stop in (np.zeros_like(absorbing), absorbing):
            small = [h.copy(), np.zeros(steps, np.int64), np.zeros(n, np.int64)]
            big = [big_h.copy(), np.zeros(steps, np.int64), np.zeros(n, np.int64)]
            k = _kernels.greedy_run(small[0], rows, steps, small[1], small[2], stop)
            assert body.greedy_run(big[0], big_rows, steps, big[1], big[2], stop) == k
            assert big[1].tolist() == small[1].tolist()
            assert big[2].tolist() == small[2].tolist()
            assert big[0].tolist() == scaled(small[0])

        small_h, big_h2 = h.copy(), big_h.copy()
        order, big_order = np.zeros(steps, np.int64), np.zeros(steps, np.int64)
        mu_lam = tuple(map(int, _kernels.brent_cycle(small_h, rows, 10 * steps, order)))
        assert body.brent_cycle(big_h2, big_rows, 10 * steps, big_order) == mu_lam
        assert big_h2.tolist() == scaled(small_h)
        assert big_order.tolist() == order.tolist()

        small = [h.copy(), np.zeros(steps, np.int64), np.zeros(n, np.int64)]
        big = [big_h.copy(), np.zeros(steps, np.int64), np.zeros(n, np.int64)]
        extrema, big_extrema = np.zeros(2, np.int64), np.zeros(2, object)
        k = _kernels.greedy_run(
            small[0], rows, steps, small[1], small[2], absorbing, one, schedule, extrema
        )
        assert body.greedy_run(
            big[0], big_rows, steps, big[1], big[2], absorbing, int(one) * BIG,
            schedule, big_extrema,
        ) == k
        assert big_extrema.tolist() == scaled(extrema)
        assert big[1].tolist() == small[1].tolist()
        assert big[2].tolist() == small[2].tolist()
        assert big[0].tolist() == scaled(small[0])


def test_reference_bodies_stay_sparse_on_a_ring():
    """Each reference body fires a few steps on a ring of 10^5 states (step
    left or right with probability 1/2, scaled by 2): its dense rows would
    take 80 GB, the sparse ones and the per-row table a few MB."""
    n = 10**5
    state = np.arange(n)
    cols = np.sort(np.stack([state - 1, state, state + 1], axis=1) % n, axis=1)
    values = np.where(cols == state[:, None], -2, 1)
    rows = SparseRows(np.arange(0, 3 * n + 1, 3), cols.ravel(), values.ravel())
    start = np.zeros(n, np.int64)
    start[0] = 2
    ref = _kernels.reference
    tracemalloc.start()
    try:
        h, fired, v = start.copy(), np.zeros(6, np.int64), np.zeros(n, np.int64)
        assert ref.greedy_run(h, rows, 6, fired, v, np.zeros(n, np.bool_)) == 6
        assert fired.tolist() == [0, 1, 0, n - 1, 2, 1]
        assert h.sum() == 2 and v.sum() == 6

        h0 = start.copy()
        assert ref.brent_cycle(h0, rows, 5) == (-1, -1)
        assert h0.tolist() == start.tolist()

        h, fired, v = start.copy(), np.zeros(4, np.int64), np.zeros(n, np.int64)
        extrema = np.zeros(2, np.int64)
        assert ref.greedy_run(
            h, rows, 4, fired, v, np.zeros(n, np.bool_), np.int64(2),
            np.ones(4, np.int64), extrema,
        ) == 4
        assert extrema.tolist() == [-1, 3]
        assert fired.tolist() == [-1, 0, 0, 1]
        assert h.sum() == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_sparse_rows_reject_other_layouts():
    indptr, indices = np.array([0, 1, 2]), np.array([0, 1])
    values = np.array([-1, -1])
    for bad in (
        (indptr.astype(np.int32), indices, values),
        (indptr, indices.astype(np.int32), values),
        (indptr, np.array([0, 9, 1])[::2], values),
        (indptr, indices, np.array([-1, -1, 0])),
        (np.zeros((1, 3), np.int64), indices, values),
    ):
        with pytest.raises(ValueError):
            SparseRows(*bad)


@compiled
def test_read_only_rows_fire_as_writable_ones():
    rows = sparse_rows(np.array([[-2, 1, 1], [1, -1, 0], [1, 1, -2]]))
    arrays = [a.copy() for a in (rows.indptr, rows.indices, rows.values)]
    for a in arrays:
        a.flags.writeable = False
    runs = []
    for r in (rows, SparseRows(*arrays)):
        h, fired = np.array([0, 1, -1]), np.zeros(50, np.int64)
        _kernels.greedy_run(h, r, 50, fired, np.zeros(3, np.int64), np.zeros(3, np.bool_))
        runs.append((h.tolist(), fired.tolist()))
    assert runs[0] == runs[1]


def test_checked_rows_are_read_only():
    """SparseRows makes the indptr and indices it checked read-only, and
    times() shares them, so rows cannot change between the check and a
    kernel (an index edited to -1 would fire a wrapped column on numpy and
    be refused by C)."""
    rows = hungerlab.parse_chain(REFLECT.read_text())._kernel_rows[0]
    for a in (rows.indices, rows.indptr, rows.times(3, np.int64).indices):
        with pytest.raises(ValueError, match="read-only"):
            a[1] = -1
    assert rows.times(3, np.int64).indices is rows.indices


def refusals(call):
    """The messages of the ValueErrors call(body) raises on the reference
    body and on _kernels, the compiled body on the C backend: one message
    when both refuse alike."""
    messages = set()
    for body in (_kernels.reference, _kernels):
        with pytest.raises(ValueError) as info:
            call(body)
        messages.add(str(info.value))
    return messages


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 2, 3], [0, 3, 2]),  # a column past the last state
    ([0, 2, 1, 3], [0, 1, 2]),  # a row ending before it starts
    ([0, 1, 2, 2], [0, 1, 2]),  # an entry past the last row
    ([0, 2, 3, 4], [1, 0, 1, 2]),  # a row's columns descending
    ([0, 3, 5], [0, 1, 1, 0, 1]),  # a column listed twice, added once by h[cols] +=
])
def test_sparse_rows_refuse_rows_that_are_not_csr(indptr, indices):
    """Well-formed arrays that are not n states' CSR rows, columns strictly
    ascending: SparseRows refuses them when made, so no body of a kernel
    is handed rows that another body would refuse or fire differently."""
    with pytest.raises(ValueError, match="^rows are not the CSR rows of n states$"):
        SparseRows(np.array(indptr), np.array(indices), np.ones(len(indices), np.int64))


# ---------------------------------------------------------------------------
# the rotor-router walk: every body against the slot-list walk


def rotor_arrays(start, N, run_ptr, targets, counts, at, left):
    """rotor_walk's arguments as int64 arrays, the itinerary holding the start."""
    itinerary = np.zeros(N + 1, np.int64)
    itinerary[0] = start
    return [itinerary, *(np.array(a, np.int64) for a in (run_ptr, targets, counts, at, left))]


@st.composite
def rotor_cases(draw):
    """Random runs of n states' rotors: 1-4 runs a state of 1-5 slots each,
    any targets, and each rotor anywhere in its runs (its last slot when
    left is 1)."""
    n = draw(st.integers(1, 40))
    N = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs_of = rng.integers(1, 5, size=n)
    run_ptr = np.concatenate([[0], np.cumsum(runs_of)])
    counts = rng.integers(1, 6, size=run_ptr[-1])
    at = run_ptr[:-1] + rng.integers(0, runs_of)
    left = rng.integers(1, counts[at] + 1)
    targets = rng.integers(0, n, size=run_ptr[-1])
    return rotor_arrays(rng.integers(n), N, run_ptr, targets, counts, at, left)


def walk_all(args):
    """rotor_walk on each sparse body and the slot-list oracle, each on its
    own copy: [(steps, arrays), ...], the oracle's last."""
    out = []
    for body in (*SPARSE, DENSE_KERNELS):
        mine = [a.copy() for a in args]
        out.append((body.rotor_walk(*mine), mine))
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(rotor_cases())
def test_rotor_walk_matches_reference(args):
    """The same itinerary, and at and left at the same final rotors."""
    *mine, (expected, expected_args) = walk_all(args)
    assert expected == args[0].shape[0] - 1
    for steps, arrays in mine:
        assert steps == expected
        assert_same_arrays(arrays, expected_args)


def test_rotor_walk_edge_cases():
    """N = 0 walks nothing and keeps the rotors. A rotor in the last slot of
    a run moves on to the next run, and from the last run wraps to the
    first."""
    # state 0: runs (1, 2 slots), (0, 3 slots), its rotor in the last slot
    # of the last run; state 1: one run of one slot, back to 0
    runs = ([0, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1])
    for body in (*SPARSE, DENSE_KERNELS):
        args = rotor_arrays(0, 0, *runs)
        assert body.rotor_walk(*args) == 0
        assert [a.tolist() for a in args] == [[0], *runs]
        args = rotor_arrays(0, 4, *runs)
        assert body.rotor_walk(*args) == 4
        assert args[0].tolist() == [0, 0, 1, 0, 1]
        assert (args[4].tolist(), args[5].tolist()) == ([1, 2], [3, 1])


def test_rotor_walk_on_a_ring():
    """10^5 steps on a ring of 10^4 states, each rotor alternating left and
    right (ascending targets): every body walks as the slot list does, one
    state to either side a step."""
    n, N = 10**4, 10**5
    state = np.arange(n)
    targets = np.sort(np.stack([state - 1, state + 1], axis=1) % n, axis=1).ravel()
    args = rotor_arrays(0, N, np.arange(0, 2 * n + 1, 2), targets, np.ones(2 * n),
                        2 * state, np.ones(n))
    *mine, (expected, expected_args) = walk_all(args)
    for steps, arrays in mine:
        assert steps == expected == N
        assert_same_arrays(arrays, expected_args)
    assert np.isin((np.diff(expected_args[0]) % n), (1, n - 1)).all()


GOOD_RUNS = ([0, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1])


def test_rotor_walk_rejects_malformed_runs():
    """Runs that do not describe n states' rotors: both bodies raise the
    same ValueError before the walk reads past them."""
    for body in (_kernels.reference, _kernels):
        assert body.rotor_walk(*rotor_arrays(0, 4, *GOOD_RUNS)) == 4
    for runs in (
        (0, [1, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1]),  # run_ptr[0] != 0
        (0, [0, 2, 2], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1]),  # run_ptr[n] != runs
        (0, [0, 3, 2], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1]),  # decreasing
        (0, [0, 3, 3], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1]),  # a state without runs
        (0, [0, 2, 3], [1, 2, 0], [2, 3, 1], [1, 2], [1, 1]),  # a target past n
        (0, [0, 2, 3], [1, 0, -1], [2, 3, 1], [1, 2], [1, 1]),  # a negative target
        (0, [0, 2, 3], [1, 0, 0], [2, 0, 1], [0, 2], [1, 1]),  # a run of no slots
        (0, [0, 2, 3], [1, 0, 0], [2, 3, 1], [2, 2], [1, 1]),  # at outside its row
        (0, [0, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [0, 1]),  # no slot left
        (0, [0, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [4, 1]),  # more left than slots
        (2, [0, 2, 3], [1, 0, 0], [2, 3, 1], [1, 2], [1, 1]),  # a start past n
    ):
        start, *arrays = runs
        assert refusals(lambda body: body.rotor_walk(*rotor_arrays(start, 4, *arrays))) == {
            "rotor_walk: the runs are not the rotors of n states"
        }


@compiled
def test_compiled_kernels_reject_mismatched_arrays():
    """Arrays that do not fit a compiled kernel's dtypes, shapes or layout:
    the C wrappers refuse them before handing pointers to C. Rows changed
    out of bounds after they were made, made writable again to do so: the C
    code checks them again."""
    h = np.zeros(3, dtype=np.int64)
    dense = np.zeros((3, 3), dtype=np.int64)
    rows = sparse_rows(dense)
    v = np.zeros(3, dtype=np.int64)
    stop = np.zeros(3, dtype=np.bool_)
    fired = np.zeros(1, np.int64)
    for bad in (
        (h, sparse_rows(dense.astype(np.float64)), 1, fired, v, stop),
        (h, rows, 5, np.zeros(4, np.int64), v, stop),
        (h.astype(np.int32), sparse_rows(dense.astype(np.int32)), 1, fired, v, stop),
        (h, rows, 1, fired, v, stop.astype(np.uint8)),
        (h, rows, 1, fired, v, np.zeros(4, np.bool_)),
        (h, sparse_rows(np.zeros((2, 2), np.int64)), 1, fired, v, stop),
    ):
        with pytest.raises(ValueError):
            _kernels.greedy_run(*bad)
    with pytest.raises(ValueError):
        _kernels.brent_cycle(h, sparse_rows(np.zeros((4, 4), np.int64)), 10)
    moved = sparse_rows(dense)
    moved.indices.flags.writeable = True
    moved.indices[1] = 3  # past the last state, after SparseRows checked it
    with pytest.raises(ValueError, match="not the CSR rows"):
        _kernels.greedy_run(h, moved, 1, fired, v, stop)
    with pytest.raises(ValueError, match="not the CSR rows"):
        _kernels.brent_cycle(h, moved, 10)
    frozen = np.zeros(4, np.int64)
    frozen.flags.writeable = False
    for order in (np.zeros(4, np.int32), np.zeros((2, 2), np.int64),
                  np.zeros(8, np.int64)[::2], frozen, [0, 0, 0, 0]):
        with pytest.raises(ValueError):
            _kernels.brent_cycle(h, rows, 10, order)
    for schedule, extrema in (
        (np.array([0, 3]), np.zeros(2, np.int64)),  # a state past the last
        (np.array([0, 1]), np.zeros(2, np.float64)),  # extrema not h's dtype
        (np.array([0, 1]), np.zeros(3, np.int64)),
    ):
        with pytest.raises(ValueError):
            _kernels.greedy_run(
                h, rows, 1, fired, v, stop, np.int64(1), schedule, extrema
            )
    itinerary, *runs = rotor_arrays(0, 4, *GOOD_RUNS)
    read_only = itinerary.copy()
    read_only.flags.writeable = False
    for bad in (
        [itinerary[:0], *runs],  # no start
        [read_only, *runs],
        [itinerary.astype(np.int32), *runs],
        [itinerary, *runs[:3], runs[3][:1], runs[4][:1]],  # one rotor for two states
        [itinerary, runs[0], runs[1], runs[2][:2], *runs[3:]],  # a count missing
        [itinerary, *runs[:4], runs[4].astype(np.float64)],
    ):
        with pytest.raises(ValueError, match="do not match the kernel"):
            _kernels.rotor_walk(*bad)


# ---------------------------------------------------------------------------
# the CSV row writer: C body against the reference, byte for byte

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
EDGES = [0, 1, -1, INT64_MAX, INT64_MIN]
LABELS = _quoted(["v1", "a,b", 'say "hi"', "état", "", "x y", "中"])
# nan, infinities, signed zeros, the least and largest subnormals, the least
# normal, where repr turns to exponent form, and two where Schubfach as Java
# writes it would give two digits (4.9e-324, 7.9e-323)
FLOAT_EDGES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 8e-323,
               2.225073858507201e-308, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
               1e-4, 1e-5, 0.5, -1.5]


def written(body, fields):
    """What body.csv_rows writes for fields."""
    f = io.StringIO()
    body.csv_rows(f, fields)
    return f.getvalue()


def edged(rng, a, share=0.2):
    """a with a share of its entries replaced by EDGES."""
    hit = rng.random(a.shape) < share
    a[hit] = rng.choice(np.array(EDGES, dtype=np.int64), size=int(hit.sum()))
    return a


@st.composite
def row_blocks(draw, rows=None):
    """Random csv_rows fields: an integer column, labels (index -1
    included), a constant text, a group of k cells over one denominator, a
    single cell over a denominator a row and 1 or 3 float64 cells (random
    bit patterns and FLOAT_EDGES), in a random order."""
    if rows is None:
        rows = draw(st.integers(1, 30))
    k = draw(st.sampled_from([1, 2, 3, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([3, 10**6, INT64_MAX]))
    num = edged(rng, rng.integers(-top, top, size=(rows, k), dtype=np.int64, endpoint=True))
    den = draw(st.sampled_from([1, 2, 6, 7, 2**40, INT64_MAX, np.int64(12)]))
    col = edged(rng, rng.integers(-top, top, size=rows, dtype=np.int64, endpoint=True))
    dens = rng.integers(1, draw(st.sampled_from([2, 60, INT64_MAX])), size=rows,
                        dtype=np.int64, endpoint=True)
    dens[rng.random(rows) < 0.2] = INT64_MAX
    table = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    if draw(st.booleans()):
        num = np.asfortranarray(num)  # strided rows, as a profile's counts.T
    floats = rng.integers(0, 2**64, size=(rows, draw(st.sampled_from([1, 3]))),
                          dtype=np.uint64).view(np.float64)
    hit = rng.random(floats.shape) < 0.3
    floats[hit] = rng.choice(FLOAT_EDGES, size=int(hit.sum()))
    fields = [
        _kernels.Ratios(np.arange(rows) + draw(st.integers(0, 2**40)), 1),
        _kernels.Labels(table, rng.integers(-1, len(table), size=rows)),
        draw(st.sampled_from(["3/8;1/4;3/8", "0", "é"])),
        _kernels.Ratios(num if draw(st.booleans()) else num[:, :1].ravel(), den,
                        draw(st.sampled_from(";,"))),
        _kernels.Ratios(col, dens, ";"),
        _kernels.Ratios(floats if floats.shape[1] > 1 else floats.ravel(), None,
                        draw(st.sampled_from(";,"))),
    ]
    return draw(st.permutations(fields))


@compiled
@settings(max_examples=300, deadline=None)
@given(row_blocks())
def test_csv_rows_match_the_reference(fields):
    assert written(_kernels, fields) == written(_kernels.reference, fields)


@compiled
@settings(max_examples=3, deadline=None)
@given(row_blocks(rows=PROFILE_CHUNK + 1))
def test_csv_rows_match_the_reference_past_a_chunk(fields):
    assert written(_kernels, fields) == written(_kernels.reference, fields)


def test_csv_rows_write_edge_cells_as_fractions_print():
    dens = [1, 2, 3, 6, 2**62, INT64_MAX]
    num = np.array([EDGES] * len(dens), dtype=np.int64)
    fields = [_kernels.Ratios(num, np.array(dens), ";")]
    expected = "".join(
        ";".join(fmt_scalar(Fraction(a, d)) for a in EDGES) + "\n" for d in dens
    )
    for body in (_kernels, _kernels.reference):
        assert written(body, fields) == expected


@pytest.mark.parametrize("den", [
    np.array([6, 4, 9], np.int32), np.array([6, 4, 2**70], dtype=object), 2**64 + 6,
])
def test_ratios_the_c_body_cannot_take_print_as_fractions(den):
    """A den array that is not int64, or one den past int64, takes the
    reference body on either backend, and both write the reduced Fractions."""
    num = np.array([-3, 2**40, 12])
    field = _kernels.Ratios(num, den)
    assert _kernels._Arguments.fields([field]) is None
    dens = den.tolist() if isinstance(den, np.ndarray) else [den] * 3
    expected = "".join(
        fmt_scalar(Fraction(a, int(d))) + "\n" for a, d in zip(num.tolist(), dens)
    )
    for body in (_kernels, _kernels.reference):
        assert written(body, [field]) == expected


@compiled
def test_float_cells_write_as_repr():
    """The C body's float64 cells are repr's bytes: FLOAT_EDGES, every
    power of two and its neighbours, subnormals, the subnormal/normal border,
    integers, powers of ten, each with both signs, and 10^6 random bit
    patterns."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    bits = np.concatenate([np.arange(1, 5 * 10**4), 2**52 + np.arange(-5 * 10**4, 5 * 10**4)])
    x = np.concatenate([
        FLOAT_EDGES, twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf),
        bits.view(np.float64), np.arange(5 * 10**4), [float(f"1e{k}") for k in range(-323, 309)],
    ])
    x = np.concatenate([x, -x, np.random.default_rng(29).integers(
        0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)])
    field = _kernels.Ratios(x, None)
    assert _kernels._Arguments.fields([field]) is not None  # the C body runs
    assert written(_kernels, [field]).splitlines() == list(map(repr, x.tolist()))


@pytest.mark.parametrize("last", [6, 2**64 - 1], ids=["fits-int64", "past-int64"])
def test_unsigned_den_arrays_print_as_fractions(last):
    """np.gcd has no loop for int64 with uint64: both bodies take an
    unsigned den array as int64, on the C body where it fits, and as Python
    ints past int64."""
    field = _kernels.Ratios(np.array([-3, 2**40, 12]), np.array([6, 6, last], np.uint64))
    if _kernels.active_backend() == "c":
        assert (_kernels._Arguments.fields([field]) is not None) == (last < 2**63)
    for body in (_kernels, _kernels.reference):
        assert written(body, [field]) == f"-1/2\n549755813888/3\n{Fraction(12, last)}\n"


@pytest.mark.parametrize("field, expected", [
    (_kernels.Ratios(np.array([-3, 2**40, 12]), np.uint64(6)), ["-1/2", "549755813888/3", "2"]),
    # m^2 q = 3 * 2^80: an np.int64 q times the int m^2 passes int64
    (_kernels.Deviations(np.array([-3, 2**40, 12]), np.array([1, 2, 3]), np.int64(1),
                         np.int64(3)), ["10/3", "1649267441663/3", "11/3"]),
], ids=["uint64-den", "int64-p-q"])
def test_numpy_integer_scalars_write_as_python_ints(field, expected):
    """A numpy integer den, p or q writes what the Python int does, from the
    C body on the C backend."""
    if _kernels.active_backend() == "c":
        assert _kernels._Arguments.fields([field]) is not None
    for body in (_kernels, _kernels.reference):
        assert written(body, [field]) == "".join(cell + "\n" for cell in expected)


@compiled
def test_csv_rows_wider_than_a_piece():
    # one row's bound passes _PIECE: each write holds a single row
    num = np.arange(-3000, 3000, dtype=np.int64).reshape(3, 2000)
    fields = [_kernels.Ratios(num, np.array([1, 7, INT64_MAX]), ",")]
    assert 2000 * 41 > _kernels._PIECE
    assert written(_kernels, fields) == written(_kernels.reference, fields)


def refusals_writing_nothing(fields):
    """refusals of csv_rows on fields, requiring that each body leaves
    its file empty."""
    files = []

    def call(body):
        files.append(io.StringIO())
        body.csv_rows(files[-1], fields)

    messages = refusals(call)
    assert [f.getvalue() for f in files] == ["", ""]
    return messages


# rows before a refused last one: more than one piece of the compiled body
LONG_BLOCK = 20_000


@pytest.mark.parametrize("den", [0, -1, INT64_MIN, np.array([3, 0]), np.array([2, -3])])
def test_csv_rows_refuse_denominators_below_one(den):
    """Both bodies refuse the block alike, and write none of it, also when
    the rows before the bad denominator pass _PIECE bytes."""
    fields = [_kernels.Ratios(np.array([1, 2]), den)]
    assert refusals(lambda body: written(body, fields)) == {"csv_rows: a denominator is <= 0"}
    dens = np.full(LONG_BLOCK, 7, np.int64)
    dens[-1] = np.atleast_1d(den)[-1]
    long = [_kernels.Ratios(np.arange(LONG_BLOCK) + 10**6, dens)]
    assert len(written(_kernels.reference, [long[0].take(slice(-1))])) > _kernels._PIECE
    assert refusals_writing_nothing(long) == {"csv_rows: a denominator is <= 0"}


@pytest.mark.parametrize("index", [-2, 3])
def test_csv_rows_refuse_label_indices_out_of_range(index):
    """Index -1 writes an empty field; one below it or past the k = 3
    labels is refused alike by both bodies, whether the other fields take
    the C body (int64 or float64 cells) or the reference (Python ints), and
    neither writes any of the block, also when the rows before the bad index
    pass _PIECE bytes."""
    for rows in (3, LONG_BLOCK):
        at = np.zeros(rows, np.int64)
        at[1], at[-1] = -1, index
        labels = _kernels.Labels(LABELS[:3], at)
        for other in (_kernels.Ratios(np.arange(rows), 1), _kernels.Ratios(np.ones(rows), None),
                      _kernels.Ratios(np.arange(rows).astype(object), 1)):
            assert refusals_writing_nothing([labels, other]) == {
                "csv_rows: a label index is out of range"
            }


@pytest.mark.parametrize("index", [np.array([0.5, 1.7]), np.array([0.0, 1.0]), [0, 1]],
                         ids=["fractions", "whole-floats", "list"])
def test_csv_rows_refuse_label_indices_that_are_not_integer_arrays(index):
    """The compiled wrapper would cast a float index to int64: both bodies
    refuse any index but an integer array, alone or beside int64 or float
    cells."""
    labels = _kernels.Labels(["a", "b"], index)
    for others in ([], [_kernels.Ratios(np.arange(2), 1)], [_kernels.Ratios(np.ones(2), None)]):
        assert refusals_writing_nothing([labels, *others]) == {
            "csv_rows: a label index is out of range"
        }


@pytest.mark.parametrize("fields", [["a"], []], ids=["text", "none"])
def test_csv_rows_refuse_blocks_without_rows(fields):
    """A block whose fields hold no array has no row count."""
    assert refusals_writing_nothing(fields) == {
        "csv_rows: no field holds an array to count the rows"
    }


UNEQUAL = [
    [_kernels.Ratios(np.arange(3), 1), _kernels.Labels(["a", "b"], np.array([0, 1]))],
    # float64 cells: the C body's FLOATS kind
    [_kernels.Ratios(np.arange(3.0), None), _kernels.Labels(["a", "b"], np.array([0, 1]))],
    [_kernels.Ratios(np.arange(2), np.array([1, 2, 3]))],
    [_kernels.Ratios(np.arange(2), np.array([1, 2, 3], dtype=object))],
    [_kernels.Deviations(np.arange(3), np.ones(2, np.int64), 1, 3)],
    [_kernels.Deviations(np.arange(2), np.ones(2, np.int64), 1, 3, np.ones(3, np.int64))],
    # q past 2^126: the reference body on either backend
    [_kernels.Deviations(np.arange(2), np.ones(2, np.int64), 1, 2**127, np.ones(3, np.int64))],
]


@pytest.mark.parametrize("fields", UNEQUAL, ids=[
    "labels", "float-labels", "den", "object-den", "deviation-den", "scale", "wide-scale",
])
def test_csv_rows_refuse_fields_of_unequal_length(fields):
    """Every array of every field holds the block's rows: both bodies refuse
    a block where one does not, and write none of it."""
    assert refusals_writing_nothing(fields) == {"csv_rows: the fields' lengths differ"}


def deviation_cells(field):
    """The cells a Deviations field holds, as the reduced Fractions print."""
    num, den, p, q, scale = (x.tolist() if isinstance(x, np.ndarray) else x for x in field)
    return [
        str((1 if scale is None else scale[r]) * abs(Fraction(num[r], den[r]) - Fraction(p, q)))
        for r in range(len(num))
    ]


@st.composite
def deviation_blocks(draw, rows=None):
    """Random Deviations fields that the C body takes: p and q up to
    2^126 - 1 (p = 0, p > q and p < 0 included), reduced or not; dens sharing
    prime powers with q; num = 0, num near den p / q and negative nums;
    scales of 1, 0 and below 0; magnitudes up to the largest m with
    m^2 max(|p|, q) < 2^126. An integer column and the deviations unscaled
    and scaled, in a random order."""
    if rows is None:
        rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smooth = 2 ** draw(st.integers(0, 40)) * 3 ** draw(st.integers(0, 12)) * 7
    widest_q = 2**126 - 1
    q = draw(st.one_of(
        st.sampled_from([1, 2, 3, 2**62, INT64_MAX, 2**64 + 1, smooth, smooth << 60]),
        st.integers(1, INT64_MAX), st.integers(1, widest_q),
    ))
    p = draw(st.one_of(
        st.just(0), st.integers(0, q), st.integers(q, widest_q), st.integers(-widest_q, 0)
    ))
    if draw(st.booleans()):
        g = math.gcd(p, q)
        p, q = p // g, q // g
    widest = min(math.isqrt((2**126 - 1) // max(abs(p), q)), INT64_MAX)
    top = min(draw(st.sampled_from([1, 3, 10**5, 2**40, widest])), widest)
    den = rng.integers(1, top, size=rows, dtype=np.int64, endpoint=True)
    den[0] = top
    share = rng.random(rows) < 0.3
    den[share] = [  # divisors of q, most of them smooth ones
        g if (g := math.gcd(q, d * smooth)) <= top else math.gcd(q, d)
        for d in den[share].tolist()
    ]
    num = rng.integers(-top, top, size=rows, dtype=np.int64, endpoint=True)
    near = [min(max(d * p // q, -top), top) for d in den.tolist()]
    pick = rng.choice(4, size=rows, p=[0.4, 0.3, 0.15, 0.15])
    num = np.where(pick == 1, np.array(near, dtype=np.int64), num)
    num = np.where(pick == 2, 0, np.where(pick == 3, np.abs(num), num))
    scale = rng.integers(0, top, size=rows, dtype=np.int64, endpoint=True)
    scale[rng.random(rows) < 0.2] = 1
    scale[rng.random(rows) < 0.1] *= -1
    scale[-1] = top
    fields = [
        _kernels.Ratios(np.arange(1, rows + 1), 1),
        _kernels.Deviations(num, den, p, q),
        _kernels.Deviations(num, den, p, q, scale),
    ]
    return draw(st.permutations(fields))


@compiled
@settings(max_examples=300, deadline=None)
@given(deviation_blocks())
def test_deviation_cells_match_the_reference(fields):
    assert _kernels._Arguments.fields(fields) is not None  # the C body runs
    out = written(_kernels, fields)
    assert out == written(_kernels.reference, fields)
    cells = [deviation_cells(f) if isinstance(f, _kernels.Deviations)
             else [str(x) for x in f.num.tolist()] for f in fields]
    assert out == "".join(",".join(row) + "\n" for row in zip(*cells))


@compiled
@settings(max_examples=3, deadline=None)
@given(deviation_blocks(rows=PROFILE_CHUNK + 1))
def test_deviation_cells_match_the_reference_past_a_chunk(fields):
    assert written(_kernels, fields) == written(_kernels.reference, fields)


@pytest.mark.parametrize("num, p, q, c", [
    (2**62 - 1, 1, 4, True),  # m^2 max(|p|, q) just below 2^126
    (2**62, 1, 4, False),  # exactly 2^126
    (INT64_MIN, 0, 1, False),  # m = 2^63
    (5, 1, 2**63, True),  # p and q are 128-bit words
    (5, -(2**63) - 1, 3, True),
    (5, 1, 2**121, True),  # 25 * 2^121 < 2^126
    (6, 1, 2**121, False),  # 36 * 2^121 > 2^126
    (1, -(2**126), 3, False),
    (5, 7, 0, False),  # q <= 0: _Arguments.block refuses it for both bodies
])
def test_wide_deviations_take_the_reference_body(num, p, q, c):
    field = _kernels.Deviations(np.array([num, 3]), np.array([1, 3]), p, q, np.array([1, 1]))
    if q <= 0:
        assert refusals(lambda body: written(body, [field])) == {"csv_rows: a denominator is <= 0"}
        return
    assert (_kernels._Arguments.fields([field]) is not None) == c
    expected = "".join(cell + "\n" for cell in deviation_cells(field))
    for body in (_kernels, _kernels.reference):
        assert written(body, [field]) == expected


@pytest.mark.parametrize("den", [np.array([3, 0]), np.array([2, -3])])
def test_deviation_cells_refuse_denominators_below_one(den):
    fields = [_kernels.Deviations(np.array([1, 2]), den, 1, 3)]
    assert refusals(lambda body: written(body, fields)) == {"csv_rows: a denominator is <= 0"}


# ---------------------------------------------------------------------------
# building and falling back, in a fresh copy of the package

REFLECT = Path(__file__).resolve().parent.parent / "chains" / "reflecting3.json"
RUN = (
    "import hungerlab, pathlib\n"
    f"chain = hungerlab.parse_chain(pathlib.Path(r'{REFLECT}').read_text())\n"
    "print(hungerlab.__file__)\n"
    "print(hungerlab.active_backend())\n"
    "print([int(i) for i in hungerlab.run(chain, None, 20).fired])\n"
)


def import_copy(root, backend=None, path=None, break_source=False):
    """Copy the package, without its build cache, to root and import it there
    in a child process running RUN."""
    root.mkdir()
    pkg = root / "hungerlab"
    shutil.copytree(
        Path(hungerlab.__file__).parent, pkg,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if break_source:
        with open(pkg / "_kernels.c", "a") as f:
            f.write("\nthis is not C;\n")
    env = {k: v for k, v in os.environ.items() if k != "HUNGERLAB_BACKEND"}
    env["PYTHONPATH"] = str(root)
    if backend is not None:
        env["HUNGERLAB_BACKEND"] = backend
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run(
        [sys.executable, "-c", RUN],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )


def expected_output(root, backend):
    trace = hungerlab.run(hungerlab.parse_chain(REFLECT.read_text()), None, 20)
    fired = [int(i) for i in trace.fired]
    return f"{root / 'hungerlab' / '__init__.py'}\n{backend}\n{fired}\n"


def test_import_without_compiler_falls_back_to_numpy(tmp_path):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    proc = import_copy(tmp_path / "pkg", path=empty)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_output(tmp_path / "pkg", "numpy")

    proc = import_copy(tmp_path / "insist", backend="c", path=empty)
    assert proc.returncode != 0
    assert "ImportError: cannot build _kernels.c" in proc.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_build_is_cached_and_compiler_errors_surface(tmp_path):
    proc = import_copy(tmp_path / "fresh")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_output(tmp_path / "fresh", "c")
    cache = tmp_path / "fresh" / "hungerlab" / "__pycache__"
    assert [p.suffix for p in cache.glob("_kernels-*")] == [".so"]

    proc = import_copy(tmp_path / "insist", backend="c", break_source=True)
    assert proc.returncode != 0
    assert "ImportError: cc could not build _kernels.c" in proc.stderr
    assert "error" in proc.stderr.split("could not build", 1)[1]

    proc = import_copy(tmp_path / "fallback", break_source=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_output(tmp_path / "fallback", "numpy")


@compiled
def test_build_returns_the_library_path(monkeypatch):
    """_build loads the library at _library(), a name that changes with the
    source or the flags."""
    lib = _kernels._library()
    assert _kernels._build() == lib and lib.exists()
    assert lib.parent == _kernels.SOURCE.parent / "__pycache__"
    monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + ("-g",))
    assert _kernels._library() != lib
