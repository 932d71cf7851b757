import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import (
    CapExceeded,
    FloatModeUnsupported,
    HasAbsorbing,
    MarkovChain,
    YNotOnZ,
    basin_scan,
    canonical_order,
    conjecture_reports,
    covering_check,
    covering_detail,
    find_cycle,
    hunger_matrix,
    is_recurrent,
    lattice_basis,
    lattice_member,
    lcd_of_stationary,
    parse_chain,
    run,
    stationary_distribution,
    zero_hunger,
    zero_period,
)
from hungerlab import _linalg, chain_model, hunger_engine, recurrence
from hungerlab.cli import main
from hungerlab.hunger_engine import fire_step
from oracles import random_irreducible_chain

F = Fraction

# canonical firing orders of the four demo-chain basins; the zero orbit
# lives in the first one
RED = "112112112311211213"
GREEN = "112112113121121123"
CYAN = "111211231121121123"
VIOLET = "111211213121121123"


# ---------------------------------------------------------------------------
# cycle detection


def test_zero_orbit_reflecting(reflecting3):
    info = find_cycle(reflecting3)
    assert info.entry_steps == 0
    assert info.period == 3
    assert info.representative == zero_hunger(reflecting3)
    assert info.order == (0, 1, 2)
    assert info.order_class == "123"
    assert info.firing_counts() == (1, 1, 1)


def test_zero_orbit_demo_chain(basin_demo3):
    info = find_cycle(basin_demo3)
    assert info.entry_steps == 0
    assert info.period == 18
    assert info.firing_counts() == (11, 5, 2)
    assert info.order_class == RED


def test_firing_counts_hold_states_off_the_cycle():
    # v3 never fires once the orbit cycles between v1 and v2
    chain = MarkovChain([[0, 1, 0], [1, 0, 0], [F(1, 2), F(1, 2), 0]])
    info = find_cycle(chain)
    assert info.order == (0, 1)
    assert info.firing_counts() == (1, 1, 0)


def test_transient_start(basin_demo3):
    info = find_cycle(basin_demo3, (F(10), F(-10), F(0)))
    assert info.entry_steps > 0
    assert not is_recurrent(basin_demo3, (F(10), F(-10), F(0)))
    assert is_recurrent(basin_demo3, info.representative)


def test_find_cycle_validation(basin_demo3, absorbing_walk5):
    fchain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(FloatModeUnsupported):
        find_cycle(fchain)
    with pytest.raises(FloatModeUnsupported):
        lattice_basis(fchain)
    with pytest.raises(FloatModeUnsupported):
        lattice_member(fchain, (0.0, 0.0))
    with pytest.raises(HasAbsorbing):
        find_cycle(absorbing_walk5)
    with pytest.raises(CapExceeded):
        find_cycle(basin_demo3, None, cap=5)


def assert_closes(chain, info):
    """The representative returns to itself after `period` fire_steps, firing
    `order` on the way."""
    h, order = info.representative, []
    for _ in range(info.period):
        h, i = fire_step(chain, h)
        order.append(i)
    assert h == info.representative
    assert tuple(order) == info.order


def test_fraction_walk_matches_brent(reflecting3, basin_demo3, monkeypatch):
    starts = [
        (reflecting3, (F(1), F(-1), F(0))),
        (basin_demo3, zero_hunger(basin_demo3)),
        (basin_demo3, (F(4, 5), F(-1, 10), F(-7, 10))),
    ]
    fast = [find_cycle(chain, h) for chain, h in starts]
    monkeypatch.setattr(hunger_engine, "_int64_safe", lambda *a: False)
    for (chain, h), info in zip(starts, fast):
        slow = find_cycle(chain, h)
        assert slow == info
        assert_closes(chain, slow)
    with pytest.raises(CapExceeded):
        find_cycle(basin_demo3, zero_hunger(basin_demo3), 3)


def test_cycle_of_start_that_overflows_int64(basin_demo3, capsys):
    # S*h passes int64 by far; the keys rank three fractional parts and
    # stay small, so the orbit runs on the int64 kernels
    p, q = 2**40 + 15, 2**41 - 9
    h = (F(1, p), F(1, q), -F(1, p) - F(1, q))
    g, _, keys = hunger_engine._scaled(basin_demo3, h)
    assert keys.S >= 2**80
    assert g.dtype == np.int64
    info = find_cycle(basin_demo3, h)
    assert (info.entry_steps, info.period, info.order_class) == (0, 18, RED)
    assert info.representative == h
    assert_closes(basin_demo3, info)
    demo = str(Path(__file__).resolve().parent.parent / "chains" / "basin_demo3.json")
    h0 = ",".join(str(x) for x in h)
    assert main(["cycle", "--chain", demo, "--h0", h0]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"0,18,{RED}"


def test_cycle_counts_solve_stationary():
    rng = random.Random(90)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        chain = random_irreducible_chain(rng, n)
        h0 = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
        info = find_cycle(chain, h0)
        counts = info.firing_counts()
        H = hunger_matrix(chain).H
        disp = [
            sum(counts[i] * H[i][j] for i in range(n)) for j in range(n)
        ]
        assert all(d == 0 for d in disp)  # one full cycle moves nothing
        pi = stationary_distribution(chain)
        assert tuple(F(c, info.period) for c in counts) == pi


def test_zero_period_matches_lcd(reflecting3, basin_demo3):
    assert zero_period(reflecting3) == 3
    assert zero_period(basin_demo3) == 18
    rng = random.Random(91)
    for _ in range(10):
        chain = random_irreducible_chain(rng, rng.choice((2, 3, 4)))
        assert zero_period(chain) == lcd_of_stationary(chain)


# ---------------------------------------------------------------------------
# canonical orders


def test_canonical_order_rotation_invariant():
    order = (0, 0, 1, 0, 2)
    base = canonical_order(order)
    for k in range(1, 5):
        assert canonical_order(order[k:] + order[:k]) == base
    assert base == "11213"


def test_canonical_order_separates_arrangements():
    assert canonical_order((0, 0, 1, 1)) == "1122"
    assert canonical_order((0, 1, 0, 1)) == "1212"


def test_canonical_order_wide_chains():
    assert canonical_order((9, 0, 1), n=12) == "1-2-10"
    assert canonical_order((0, 1, 2)) == "123"
    with pytest.raises(ValueError):
        canonical_order(())


# words of 1-40 symbols over 1-4 letters; repeating one makes periodic
# inputs, where several rotations tie for least
WORDS = st.integers(1, 4).flatmap(
    lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(WORDS, st.integers(1, 8))
def test_least_rotation_is_the_least(word, repeats):
    s = tuple(word * repeats)[:40]
    k = recurrence._least_rotation(s)
    assert s[k:] + s[:k] == min(s[i:] + s[:i] for i in range(len(s)))


# ---------------------------------------------------------------------------
# basin scans


def test_basin_scan_needs_three_states(two_sinks5):
    with pytest.raises(ValueError):
        basin_scan(two_sinks5, (F(0), F(0)), F(1))


def test_basin_scan_origin_cell(basin_demo3):
    scan = basin_scan(basin_demo3, (F(0), F(0)), F(1))
    assert len(scan.cells) == 1
    cell = scan.cells[0]
    assert (cell.h1, cell.h2) == (0, 0)
    assert cell.recurrent is True
    assert cell.period == 18
    assert cell.class_id == 1
    assert cell.entry_steps == 0
    assert scan.classes == [RED]


def test_basin_scan_small_grid(basin_demo3):
    scan = basin_scan(basin_demo3, (F(-1, 2), F(1, 2)), F(1, 2))
    assert len(scan.cells) == 9
    # outer loop over h1: the first three cells share h1 = -1/2
    assert [(c.h1, c.h2) for c in scan.cells[:3]] == [
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(0)),
        (F(-1, 2), F(1, 2)),
    ]
    assert all(c.period == 18 for c in scan.cells)
    assert all(1 <= c.class_id <= len(scan.classes) for c in scan.cells)
    for cls in scan.classes:
        assert cls in (RED, GREEN, CYAN, VIOLET)


def test_basin_scan_capped_cells(basin_demo3):
    scan = basin_scan(basin_demo3, (F(0), F(0)), F(1), cap=5)
    cell = scan.cells[0]
    assert cell.recurrent is None
    assert cell.period is None
    assert cell.class_id is None
    assert scan.classes == []


def test_violet_point(basin_demo3):
    info = find_cycle(basin_demo3, (F(4, 5), F(-1, 10), F(-7, 10)))
    assert info.order_class == VIOLET


# ---------------------------------------------------------------------------
# displacement lattice


def test_lattice_basis_reflecting(reflecting3):
    lat = lattice_basis(reflecting3)
    assert lat.basis == (
        (F(-1), F(3, 2), F(-1, 2)),
        (F(1, 2), F(-3, 2), F(1)),
    )
    assert lat.p_vec == (1, 1, 1)
    assert lat.lcd == 3


def test_lattice_basis_demo(basin_demo3):
    lat = lattice_basis(basin_demo3)
    assert lat.p_vec == (11, 5, 2)
    assert lat.lcd == 18
    for row in lat.basis:
        assert sum(row) == 0


def count_calls(monkeypatch, module, name):
    calls = []
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


def test_lattice_basis_solves_once(basin_demo3, monkeypatch):
    calls = count_calls(monkeypatch, _linalg, "_rref")
    assert lattice_basis(basin_demo3).lcd == 18
    assert len(calls) == 1


def test_lattice_member_solves_and_builds_h_once(basin_demo3, monkeypatch):
    y = lattice_basis(basin_demo3).basis[0]
    solves = count_calls(monkeypatch, _linalg, "_rref")
    builds = count_calls(monkeypatch, chain_model, "hunger_matrix")
    assert lattice_member(basin_demo3, y)
    assert (len(solves), len(builds)) == (1, 1)


def test_conjecture_reports_solve_once(basin_demo3, monkeypatch):
    calls = count_calls(monkeypatch, _linalg, "_rref")
    conjecture_reports(basin_demo3, samples=5, step=Fraction(1, 2))
    assert len(calls) == 1


def test_lattice_member_basics(reflecting3):
    lat = lattice_basis(reflecting3)
    assert lattice_member(reflecting3, (F(0), F(0), F(0)))
    assert lattice_member(reflecting3, lat.basis[0])
    combo = tuple(2 * a - 3 * b for a, b in zip(lat.basis[0], lat.basis[1]))
    assert lattice_member(reflecting3, combo)
    half = tuple(a / 2 for a in lat.basis[0])
    assert not lattice_member(reflecting3, half)


def test_lattice_member_rejects_a_vector_off_the_lattice(basin_demo3):
    """basin_demo3 rejects (-4/5, -4/5, 8/5), and on all 81 zero-sum vectors
    of fifths in [-4/5, 4/5]^2 agrees with a brute force over the integer
    vectors w with sum(w) = 0 and |w_i| <= 12."""
    assert not lattice_member(basin_demo3, (F(-4, 5), F(-4, 5), F(8, 5)))
    H = hunger_matrix(basin_demo3).H
    reached = set()
    for w1 in range(-12, 13):
        for w2 in range(max(-12, -12 - w1), min(12, 12 - w1) + 1):
            w = (w1, w2, -w1 - w2)
            reached.add(tuple(sum(a * b for a, b in zip(w, col)) for col in zip(*H)))
    fifths = [F(k, 5) for k in range(-4, 5)]
    ys = [(a, b, -a - b) for a in fifths for b in fifths]
    assert [lattice_member(basin_demo3, y) for y in ys] == [y in reached for y in ys]
    assert 1 < sum(y in reached for y in ys) < len(ys)


def test_lattice_member_validation(reflecting3):
    with pytest.raises(YNotOnZ):
        lattice_member(reflecting3, (F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        lattice_member(reflecting3, (F(0), F(0)))
    single = parse_chain('{"mode": "rational", "P": [["1"]]}')
    assert lattice_member(single, (F(0),))


# ---------------------------------------------------------------------------
# covering


def test_covering_recurrent_start(reflecting3):
    detail = covering_detail(reflecting3)
    assert detail.steps == 0
    assert detail.reached == zero_hunger(reflecting3)
    assert detail.member


def test_covering_transient_start(reflecting3):
    detail = covering_detail(reflecting3, (F(1), F(-1), F(0)))
    assert detail.steps == 3  # one full period clears the transient
    assert detail.member
    assert is_recurrent(reflecting3, detail.reached)
    assert covering_check(reflecting3, (F(1), F(-1), F(0)))


def test_covering_random_starts(basin_demo3):
    rng = random.Random(92)
    for _ in range(8):
        h = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2))
        h = h + (-sum(h),)
        detail = covering_detail(basin_demo3, h)
        assert detail.steps % 18 == 0
        assert detail.member


def test_covering_reaches_the_plain_run_endpoint(reflecting3, basin_demo3):
    rng = random.Random(93)
    for chain in (reflecting3, basin_demo3):
        for _ in range(6):
            h = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2))
            h = h + (-sum(h),)
            detail = covering_detail(chain, h)
            assert detail.reached == run(chain, h, detail.steps).final_h


# ---------------------------------------------------------------------------
# conjecture scans


def test_conjecture_reports_demo(basin_demo3):
    period, tiling = conjecture_reports(
        basin_demo3, samples=40, bounds=(F(-1, 2), F(1, 2)), step=F(1, 2)
    )
    assert period.name == "period-uniformity"
    assert period.checked + period.skipped == 40
    assert period.consistent
    assert tiling.name == "recurrent-tiling"
    assert tiling.checked > 0
    assert tiling.consistent


def test_conjecture_reports_skip_capped_orbits(basin_demo3):
    # cap 20 passes the zero period (18) but not every orbit's entry and
    # period: those starts and grid points are skipped, not counted
    period, tiling = conjecture_reports(basin_demo3, samples=20, cap=20)
    assert (period.checked, period.violations, period.skipped) == (10, 0, 10)
    assert (tiling.checked, tiling.violations, tiling.skipped) == (525, 0, 2386)
    # below the zero period the scan has no base period to compare against
    with pytest.raises(CapExceeded):
        conjecture_reports(basin_demo3, samples=20, cap=10)


def test_conjecture_reports_non_planar():
    rng = random.Random(93)
    chain = random_irreducible_chain(rng, 4)
    period, tiling = conjecture_reports(chain, samples=6)
    assert period.checked + period.skipped == 6
    assert tiling.checked == 0
    assert any("3-state" in note for note in tiling.notes)


# ---------------------------------------------------------------------------
# grid scans against a per-cell find_cycle loop

# doubly stochastic (uniform pi, zero period 3) with D = 3 * 2**62: no grid
# key passes _int64_safe, so every cell fires on Python ints
E = F(1, 2**62)
HUGE_D = recurrence.MarkovChain([
    [F(1, 3), F(1, 3) + E, F(1, 3) - E],
    [F(1, 3) + E, F(1, 3) - 2 * E, F(1, 3) + E],
    [F(1, 3) - E, F(1, 3) + E, F(1, 3)],
])


def per_cell_basin(chain, values, cap):
    """basin_scan's cells and classes, one find_cycle call a cell."""
    ids, cells = {}, []
    for h1 in values:
        for h2 in values:
            try:
                info = find_cycle(chain, (h1, h2, -h1 - h2), cap)
            except CapExceeded:
                cells.append((h1, h2, None, None, None, None))
                continue
            k = ids.setdefault(info.order_class, len(ids) + 1)
            cells.append((h1, h2, info.entry_steps == 0, info.period, k, info.entry_steps))
    return cells, list(ids)


def per_cell_tiling(chain, values, cap):
    """The tiling tally, one is_recurrent call a distinct start."""
    basis = lattice_basis(chain).basis
    seen, checked, violations, skipped, notes = {}, 0, 0, 0, []

    def recurrent(h):
        if h not in seen:
            seen[h] = is_recurrent(chain, h, cap)
        return seen[h]

    for h1 in values:
        for h2 in values:
            x = (h1, h2, -h1 - h2)
            try:
                if not recurrent(x):
                    continue
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        if (a, b) == (0, 0):
                            continue
                        checked += 1
                        y = tuple(p - a * s - b * t for p, s, t in zip(x, *basis))
                        if recurrent(y):
                            violations += 1
                            if len(notes) < 5:
                                notes.append(
                                    f"recurrent overlap at shift {(a, b)} from x={x}"
                                )
            except CapExceeded:
                skipped += 1
    return checked, violations, skipped, notes


def per_sample_periods(chain, samples, bounds, seed, cap, base):
    """The period-uniformity tally, one find_cycle call a sample, each
    start drawn with randint(1, 20) denominators (for bounds that hold an
    integer, every denominator fits)."""
    rng = random.Random(seed)
    lo, hi = bounds
    checked = violations = skipped = 0
    for _ in range(samples):
        coords = []
        for _ in range(2):
            den = rng.randint(1, 20)
            coords.append(F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den))
        h = (*coords, -sum(coords))
        try:
            info = find_cycle(chain, h, cap)
        except CapExceeded:
            skipped += 1
            continue
        checked += 1
        violations += info.period != base
    return checked, violations, skipped


def assert_scans_match_per_cell_loops(chain, bounds, step, cap, samples=0, seed=0):
    values = recurrence._grid(bounds, step)
    scan = basin_scan(chain, bounds, step, cap)
    cells = [
        (c.h1, c.h2, c.recurrent, c.period, c.class_id, c.entry_steps)
        for c in scan.cells
    ]
    assert (cells, scan.classes) == per_cell_basin(chain, values, cap)
    period, tiling = conjecture_reports(chain, samples, bounds, step, seed, cap)
    base = lcd_of_stationary(chain)
    assert (period.checked, period.violations, period.skipped) == per_sample_periods(
        chain, samples, bounds, seed, cap, base
    )
    assert (tiling.checked, tiling.violations, tiling.skipped, tiling.notes) == (
        per_cell_tiling(chain, values, cap)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32), st.booleans(), st.integers(-8, 4), st.integers(1, 4),
    st.integers(0, 6), st.integers(1, 6), st.integers(1, 3), st.integers(0, 40),
    st.integers(0, 8),
)
def test_grid_scans_match_a_per_cell_find_cycle_loop(
    seed, huge, lo_num, lo_den, span, den, step_num, extra, samples
):
    chain = HUGE_D if huge else random_irreducible_chain(random.Random(seed), 3)
    lo, step = F(lo_num, lo_den), F(step_num, den)
    hi = lo + F(span, den)
    cap = lcd_of_stationary(chain) + extra  # small, but past the zero period
    # random samples need an integer in the bounds; 0 is one
    samples = samples if lo <= 0 <= hi else 0
    assert_scans_match_per_cell_loops(chain, (lo, hi), step, cap, samples, seed)


def test_grid_scans_prepare_once(basin_demo3, monkeypatch):
    made = []
    for chain in (basin_demo3, HUGE_D):
        chain._kernel_rows  # a chain's own rows, made once, before the scans
    rows = recurrence._kernels.SparseRows
    init, times = rows.__init__, rows.times
    monkeypatch.setattr(rows, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(rows, "times", lambda self, *a: made.append(1) or times(self, *a))
    cycles = count_calls(monkeypatch, recurrence, "find_cycle")
    brents = count_calls(monkeypatch, recurrence._kernels, "brent_cycle")
    runs = count_calls(monkeypatch, recurrence._kernels, "greedy_run")
    names = count_calls(monkeypatch, recurrence, "canonical_order")
    orbits = []
    orbit = recurrence._orbit
    monkeypatch.setattr(
        recurrence, "_orbit", lambda *a: orbits.append(orbit(*a)) or orbits[-1]
    )
    recurrence._short_order_name.cache_clear()
    scan = basin_scan(basin_demo3, (F(-3, 2), F(3, 2)), F(1, 4))
    # one set of rows for the grid, no find_cycle call, one brent_cycle
    # call and no greedy_run a cell, one name a distinct order
    assert (len(made), len(cycles), len(scan.cells)) == (1, 0, 169)
    assert (len(brents), len(runs)) == (169, 0)
    assert len(names) == len({order for _, _, order in orbits}) < 169
    assert len({c.class_id for c in scan.cells}) == len(scan.classes)
    # a grid where every key fails _int64_safe: each of the 9 cells is
    # re-keyed by _scaled, with its own rows, and still no find_cycle call
    basin_scan(HUGE_D, (F(-1), F(1)), F(1), 30)
    assert (len(made), len(cycles), len(brents), len(runs)) == (10, 0, 178, 0)


def test_find_cycle_past_the_order_buffer(basin_demo3, monkeypatch):
    """Periods longer than the order buffer are fired again by greedy_run,
    on int64 keys and on Python ints (HUGE_D), with the same CycleInfo."""
    starts = [None, (F(3, 2), F(-1, 20), F(-29, 20)), (F(-7, 5), F(1, 2), F(9, 10))]
    cases = [(basin_demo3, h) for h in starts] + [(HUGE_D, (F(1), F(-1), F(0)))]
    one_call = [find_cycle(chain, h) for chain, h in cases]
    runs = count_calls(monkeypatch, recurrence._kernels, "greedy_run")
    assert runs == []
    monkeypatch.setattr(recurrence, "_ORDER_BUFFER", 2)
    assert [find_cycle(chain, h) for chain, h in cases] == one_call
    assert [args[2] for args in runs] == [info.period for info in one_call]
    assert min(info.period for info in one_call) > 2
    # pi = (2, 4097) / 4099: a zero period past the buffer itself
    monkeypatch.undo()
    runs = count_calls(monkeypatch, recurrence._kernels, "greedy_run")
    chain = recurrence.MarkovChain([[F(1, 2), F(1, 2)], [F(1, 4097), F(4096, 4097)]])
    info = find_cycle(chain, (F(7, 3), F(-7, 3)))
    assert (info.entry_steps, info.period) == (5, 4099) and len(runs) == 1
    assert 4099 > recurrence._ORDER_BUFFER
    lap = run(chain, info.representative, info.period)
    assert lap.final_h == info.representative
    assert tuple(lap.fired.tolist()) == info.order


def test_order_names_are_canonical_and_bounded():
    """The memo gives canonical_order's names, keeps orders of up to 256
    fires only, and never more than its maxsize of them."""
    recurrence._short_order_name.cache_clear()
    rng = random.Random(3)
    short = set()
    for _ in range(5000):
        n = rng.choice([2, 3, 12])
        order = tuple(rng.randrange(n) for _ in range(rng.choice([1, 5, 256, 257, 300])))
        assert recurrence._order_name(order, n) == canonical_order(order, n)
        if len(order) <= 256:
            short.add((order, n))
    info = recurrence._short_order_name.cache_info()
    assert info.maxsize == 1024
    assert info.currsize == min(len(short), info.maxsize)
    assert len(short) > info.maxsize


def test_grid_scans_mix_int64_and_fallback_cells(basin_demo3):
    # the corner cells' keys are past int64, the others are small; with a
    # small cap the far orbits are capped on either path
    big = F(2**61)
    for chain in (basin_demo3, HUGE_D):
        assert_scans_match_per_cell_loops(chain, (-big, big), big, 40, samples=3)
