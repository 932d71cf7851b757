import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import (
    CapExceeded,
    ChipConfig,
    EngelRecord,
    FloatModeUnsupported,
    MarkovChain,
    Stabilized,
    compare_two_state,
    engel_run,
    hunger_matrix,
    parse_chain,
    rotor_run,
    run,
    stationary_distribution,
)
from conftest import load_chain
from oracles import (
    random_absorbing_chain,
    random_irreducible_chain,
    slot_table_rotor_run,
)

F = Fraction


def two_state(q):
    return MarkovChain([[1 - q, q], [q, 1 - q]])


# ---------------------------------------------------------------------------
# chip configurations


def test_chip_config_default_thresholds(reflecting3, absorbing_walk5):
    assert ChipConfig.build(reflecting3, (0, 0, 0)).d == (2, 2, 2)
    assert ChipConfig.build(absorbing_walk5, (0,) * 5).d == (1, 5, 5, 5, 1)


def test_chip_config_validation(reflecting3):
    with pytest.raises(ValueError):
        ChipConfig.build(reflecting3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        ChipConfig.build(reflecting3, (-1, 0, 0))
    with pytest.raises(ValueError):
        ChipConfig.build(reflecting3, (0, 0, 0), d=(3, 2, 2))  # 3/2 chips
    with pytest.raises(ValueError):
        ChipConfig.build(reflecting3, (0, 0, 0), d=(0, 2, 2))
    fchain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(FloatModeUnsupported):
        ChipConfig.build(fchain, (0, 0))


# ---------------------------------------------------------------------------
# the Engel machine


def test_engel_unit_cycle(reflecting3):
    rec = engel_run(reflecting3, (1, 2, 1))
    assert rec.entry_steps == 0
    assert rec.period == 3
    assert rec.cycle_counts == (1, 1, 1)
    assert rec.repeated
    assert sum(rec.final) == 4  # chips are conserved
    assert rec.final == (1, 2, 1)


def test_engel_stabilizes(reflecting3, absorbing_walk5):
    with pytest.raises(Stabilized) as exc:
        engel_run(reflecting3, (0, 0, 0))
    assert exc.value.steps == 0
    # on an absorbing chain the chips eventually stop moving
    with pytest.raises(Stabilized) as exc:
        engel_run(absorbing_walk5, (0, 5, 0, 0, 0))
    assert exc.value.steps >= 1


def test_engel_cap(reflecting3):
    with pytest.raises(CapExceeded):
        engel_run(reflecting3, (1, 2, 1), cap=2)


def test_engel_refuses_thresholds_of_another_length(reflecting3):
    with pytest.raises(ValueError, match="expected 3 thresholds"):
        engel_run(reflecting3, (1, 2, 1), (2, 2))


def test_engel_cycle_certifies_stationary_vector(reflecting3):
    # uniform thresholds: the raw firing counts already solve pi P = pi
    rec = engel_run(reflecting3, (1, 2, 1))
    H = hunger_matrix(reflecting3).H
    assert all(
        sum(rec.cycle_counts[i] * H[i][j] for i in range(3)) == 0
        for j in range(3)
    )
    # in general each firing at i moves d_i chips, so the certified
    # stationary vector is counts weighted by the thresholds
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        chain = random_irreducible_chain(rng, n)
        cfg = ChipConfig.build(chain, (0,) * n)
        # total >= sum(d) keeps some state eligible forever
        rec = engel_run(chain, cfg.d)
        assert rec.repeated
        w = [rec.cycle_counts[i] * cfg.d[i] for i in range(n)]
        H = hunger_matrix(chain).H
        disp = [sum(w[i] * H[i][j] for i in range(n)) for j in range(n)]
        assert all(x == 0 for x in disp)
        total = sum(w)
        pi = stationary_distribution(chain)
        assert tuple(F(x, total) for x in w) == pi
        assert sum(rec.final) == sum(cfg.d)


def engel_per_call(chain, c0, d=None, cap=10**7):
    """The Engel walk with its moves built from P's Fractions on every
    call: a record, or the exception's type and steps."""
    rows = [chain.row(i) for i in range(chain.n)]
    if d is None:
        d = [math.lcm(*(p.denominator for _, p in row)) for row in rows]
    moves = []
    for i, row in enumerate(rows):
        move = {i: -d[i]}
        for j, p in row:
            move[j] = move.get(j, 0) + int(d[i] * p)
        moves.append(move)
    absorbing = {i for i, row in enumerate(rows) if row == [(i, 1)]}
    c, counts = list(c0), [0] * chain.n
    seen = {tuple(c): (0, tuple(counts))}
    for step in range(1, cap + 1):
        fire = [i for i in range(chain.n) if i not in absorbing and c[i] >= d[i]]
        if not fire:
            return Stabilized, step - 1
        for j, chips in moves[fire[0]].items():
            c[j] += chips
        counts[fire[0]] += 1
        if tuple(c) in seen:
            entry, then = seen[tuple(c)]
            cycle = tuple(a - b for a, b in zip(counts, then))
            return EngelRecord(entry, step - entry, cycle, tuple(counts), tuple(c), True)
        seen[tuple(c)] = (step, tuple(counts))
    return CapExceeded, cap


def engel_outcome(chain, c0, d=None, cap=10**7):
    try:
        return engel_run(chain, c0, d, cap)
    except (Stabilized, CapExceeded) as e:
        return type(e), e.steps if isinstance(e, Stabilized) else cap


SHIPPED = ("reflecting3", "basin_demo3", "absorbing_walk5", "two_sinks5")


@pytest.mark.parametrize("name", SHIPPED)
def test_engel_default_moves_match_a_per_call_build(name):
    chain = load_chain(f"{name}.json")  # a fresh chain: nothing cached yet
    lcds = [math.lcm(*(p.denominator for _, p in chain.row(i))) for i in range(chain.n)]
    rng = random.Random(name)
    for k in range(60):
        c0 = [rng.randint(0, 3 * di) for di in lcds]
        cap = rng.choice((5, 50, 10**7))
        assert engel_outcome(chain, c0, None, cap) == engel_per_call(chain, c0, None, cap)
        # explicit thresholds, twice the row lcds: checked, moves built per call
        d = [2 * x for x in lcds]
        assert engel_outcome(chain, c0, d, cap) == engel_per_call(chain, c0, d, cap)
    assert chain._chip_firing[0] == tuple(lcds)


def test_engel_explicit_thresholds_leave_the_default_alone(reflecting3):
    chain = load_chain("reflecting3.json")
    first = engel_run(chain, (4, 4, 4), (2, 4, 2))
    assert first == engel_per_call(chain, (4, 4, 4), (2, 4, 2))
    assert engel_run(chain, (4, 4, 4)) == engel_per_call(chain, (4, 4, 4))
    assert engel_run(chain, (4, 4, 4), (2, 4, 2)) == first
    with pytest.raises(ValueError, match="does not clear"):
        engel_run(chain, (4, 4, 4), (3, 2, 2))
    assert engel_run(reflecting3, (4, 4, 4)) == engel_run(chain, (4, 4, 4))


def test_engel_checks_c0_on_every_call(reflecting3):
    engel_run(reflecting3, (1, 2, 1))  # the default moves are now kept
    with pytest.raises(ValueError, match="expected 3 chip counts"):
        engel_run(reflecting3, (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        engel_run(reflecting3, (1, -2, 1))
    with pytest.raises(ValueError, match="is not an integer"):
        engel_run(reflecting3, (1, 2.5, 1))
    fchain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(FloatModeUnsupported):
        engel_run(fchain, (1, 1))


# ---------------------------------------------------------------------------
# rotor walks


def test_rotor_reproduces_dwell_cycle(reflecting3):
    t = rotor_run(reflecting3, 0, (1, 1, 1), 12)
    assert list(t.itinerary) == [0, 1, 2, 2, 1, 0] * 2 + [0]
    assert t.d == (2, 2, 2)
    assert t.rotors == (1, 1, 1)  # back where it started after full cycles
    # per-cycle visits: two per state
    cycle = list(t.itinerary[1:7])
    assert [cycle.count(i) for i in range(3)] == [2, 2, 2]


def test_rotor_zero_steps_and_validation(reflecting3):
    t = rotor_run(reflecting3, 2)
    assert list(t.itinerary) == [2]
    assert list(t.visits) == [0, 0, 1]
    with pytest.raises(ValueError):
        rotor_run(reflecting3, 5)
    with pytest.raises(ValueError):
        rotor_run(reflecting3, 0, (0, 0, 2))  # slot out of range
    with pytest.raises(ValueError):
        rotor_run(reflecting3, 0, N=-1)
    fchain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(FloatModeUnsupported):
        rotor_run(fchain, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: rotor_run(chain, 1.0, None, 5),
        lambda chain: rotor_run(chain, 0, (0.0, 0, 0), 5),
        lambda chain: ChipConfig.build(chain, [1.5, 2.9, 0]),
        lambda chain: ChipConfig.build(chain, [0, 0, 0], [2.5, 2, 2]),
        lambda chain: engel_run(chain, [1.5, 2.9, 0]),
    ],
    ids=["rotor-start", "rotor-positions", "chips", "thresholds", "engel-chips"],
)
def test_baselines_refuse_non_integer_inputs(reflecting3, call):
    """A float start, rotor slot, chip count or threshold is refused, not
    truncated to another configuration or used as a list index."""
    with pytest.raises(ValueError, match="is not an integer"):
        call(reflecting3)


def test_baselines_take_numpy_integers(reflecting3):
    i64 = np.int64
    t = rotor_run(reflecting3, i64(1), (i64(0), 0, 0), 5)
    assert t.itinerary.tolist() == [1, 0, 0, 1, 2, 1]
    cfg = ChipConfig.build(reflecting3, np.array([1, 2, 1]), np.array([2, 2, 2]))
    assert cfg == ChipConfig((1, 2, 1), (2, 2, 2))
    assert type(cfg.c[0]) is int and type(cfg.d[0]) is int


def test_rotor_visit_counts_match_itinerary(reflecting3):
    t = rotor_run(reflecting3, 0, None, 37)
    iti = list(t.itinerary)
    assert len(iti) == 38
    assert [iti.count(i) for i in range(3)] == list(t.visits)


def test_rotor_blocks_for_reciprocal_q():
    for k in (3, 4, 7):
        chain = two_state(F(1, k))
        t = rotor_run(chain, 0, (0, 1), 2 * k)
        assert t.d == (k, k)
        arrivals = list(t.itinerary[1:])
        assert arrivals.count(0) == k
        assert arrivals.count(1) == k
        assert t.rotors == (0, 1)  # a full block returns the rotor state


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32), st.sampled_from(("irreducible", "absorbing")),
    st.integers(2, 6), st.integers(0, 500), st.booleans(),
    st.sampled_from(("none", "any", "near d")),
)
def test_rotor_walk_matches_the_slot_table(seed, kind, n, N, tiny, turned):
    """rotor_run reads each rotor's slots as runs of the cached chip moves,
    rotated to the rotor; the walk on a list of every slot is the
    reference. A tiny row gives one state 10^6 slots. Rotors start at slot
    0, anywhere, or in the last three slots before d_i."""
    rng = random.Random(seed)
    make = random_irreducible_chain if kind == "irreducible" else random_absorbing_chain
    chain = make(rng, n)
    if tiny:
        rows = [dict(row) for row in chain.rows()]
        i, j, k = (rng.randrange(n) for _ in range(3))
        rows[i] = {j: F(1, 10**6)}
        rows[i][k] = rows[i].get(k, 0) + 1 - F(1, 10**6)
        chain = MarkovChain(rows)
    d = chain._chip_firing[0]
    rotors = {
        "none": None,
        "any": tuple(rng.randrange(di) for di in d),
        "near d": tuple(di - 1 - rng.randrange(min(di, 3)) for di in d),
    }[turned]
    start = rng.randrange(n)
    itinerary, visits, final, ref_d = slot_table_rotor_run(chain, start, rotors, N)
    t = rotor_run(chain, start, rotors, N)
    assert t.itinerary.dtype == np.int64
    assert t.itinerary.tolist() == itinerary.tolist()
    assert t.visits.tolist() == visits.tolist()
    assert (t.rotors, t.d) == (final, ref_d)


def test_rotor_walk_holds_a_row_not_its_slots():
    """A 10-step walk from a state with 10^6 slots (one entry 1/10^6) keeps
    the row's two runs, not a 10^6-entry slot list, from slot 0 and from
    the last slot."""
    rotor_run(two_state(F(1, 3)), 0, None, 10)  # first-call setup, not traced
    eps = F(1, 10**6)
    chain = MarkovChain([[eps, 1 - eps, 0], [F(1, 2), 0, F(1, 2)], [0, 1, 0]])
    turned = (10**6 - 1, 1, 0)
    tracemalloc.start()
    try:
        walks = [rotor_run(chain, 0, rotors, 10) for rotors in (None, turned)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert walks[0].itinerary.tolist() == [0, 0, 1, 0, 1, 2, 1, 0, 1, 2, 1]
    assert walks[0].rotors == (4, 0, 0) and walks[0].d == (10**6, 2, 1)
    for t, rotors in zip(walks, (None, turned)):
        itinerary, _, final, _ = slot_table_rotor_run(chain, 0, rotors, 10)
        assert (t.itinerary.tolist(), t.rotors) == (itinerary.tolist(), final)


def test_rotor_walk_without_self_loops_from_the_last_slot_of_a_run():
    """Rows with P_ii = 0 have no slots pointing home (their diagonal run is
    dropped), and rotors starting in the last slot of a run move on to the
    next run, or wrap from the last run to the first."""
    chain = MarkovChain([
        [0, F(1, 2), F(1, 2)], [F(1, 3), 0, F(2, 3)], [F(1, 4), F(3, 4), 0],
    ])
    # slots: [1, 2], [0, 2, 2], [0, 1, 1, 1]
    for rotors in ((1, 0, 0), (0, 2, 3), (1, 2, 0)):
        itinerary, visits, final, d = slot_table_rotor_run(chain, 0, rotors, 50)
        t = rotor_run(chain, 0, rotors, 50)
        assert t.itinerary.tolist() == itinerary.tolist()
        assert t.visits.tolist() == visits.tolist()
        assert (t.rotors, t.d) == (final, d) and d == (2, 3, 4)
    assert rotor_run(chain, 0, (1, 0, 0), 3).itinerary.tolist() == [0, 2, 0, 1]


def test_rotor_walk_with_slot_counts_past_int64():
    """d_1 = 2^70: the runs are rotated to the rotor and cut at N + 1 slots
    before they are repeated."""
    e = F(1, 2**70)
    chain = MarkovChain([[e, 1 - e], [F(1, 2), F(1, 2)]])
    t = rotor_run(chain, 0, None, 10)
    assert t.itinerary.tolist() == [0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1]
    assert (t.rotors, t.d) == ((5, 1), (2**70, 2))
    t = rotor_run(chain, 0, (2**70 - 1, 1), 10)
    assert t.itinerary.tolist() == [0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0]
    assert t.rotors == (3, 1)


# ---------------------------------------------------------------------------
# the two-state comparison


def test_hunger_alternates_for_any_q():
    for q in (F(1, 10), F(1, 3), F(9, 10), F(2, 7)):
        trace = run(two_state(q), None, 20)
        assert [int(x) for x in trace.fired] == [k % 2 for k in range(20)]


def test_compare_two_state_q_tenth():
    cmp = compare_two_state(F(1, 10), 1000)
    assert cmp.q == F(1, 10)
    assert cmp.hunger.entries[0][:2] == cmp.rotor.entries[0][:2] == (1, F(1, 2))
    # alternation: off by 1/(2n) at odd n, exact at even n
    assert cmp.hunger_max == F(1, 6)
    assert cmp.rotor_max == F(1, 2)
    assert cmp.hunger_max < cmp.rotor_max
    for n, hdev, _ in cmp.hunger.entries[1:]:
        assert hdev == (F(0) if n % 2 == 0 else F(1, 2 * n))


def test_compare_two_state_validation():
    with pytest.raises(ValueError):
        compare_two_state(F(0), 10)
    with pytest.raises(ValueError):
        compare_two_state(F(1), 10)
    with pytest.raises(ValueError):
        compare_two_state(F(1, 2), 1)


def test_compare_two_state_other_q():
    # the hunger bound does not depend on q; the rotor's does
    for q in (F(1, 3), F(2, 5)):
        cmp = compare_two_state(q, 400)
        assert cmp.hunger_max == F(1, 6)
        assert cmp.hunger_max <= cmp.rotor_max
