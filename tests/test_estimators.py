import io
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import (
    MarkovChain,
    NonUniqueStationary,
    UEqualsV,
    ZeroSteps,
    absorption_profile,
    absorption_time,
    discrepancy_profile,
    escape_probability,
    escape_profile,
    expected_return_time,
    hitting_distribution,
    hitting_oracle,
    hitting_profile,
    normalized_firing_vector,
    parse_chain,
    reroute,
    return_time_profile,
    run,
    split_vertex,
    stationary_distribution,
)
from hungerlab import _kernels, _linalg, estimators
from oracles import (
    absorption_solve_float,
    first_transient,
    hitting_solve_float,
    random_absorbing_chain,
)

F = Fraction

HALF_COIN = '{"mode": "rational", "P": [["1/2", "1/2"], ["0", "1"]]}'


# ---------------------------------------------------------------------------
# normalized firing vectors and the stationary sweep


def test_normalized_firing_vector(reflecting3):
    assert normalized_firing_vector(run(reflecting3, None, 3)) == (
        F(1, 3),
        F(1, 3),
        F(1, 3),
    )
    assert normalized_firing_vector(run(reflecting3, None, 4)) == (
        F(1, 2),
        F(1, 4),
        F(1, 4),
    )
    with pytest.raises(ZeroSteps):
        normalized_firing_vector(run(reflecting3, None, 0))


def test_discrepancy_profile_reflecting(reflecting3):
    prof = discrepancy_profile(reflecting3, None, 120)
    assert prof.exact == (F(1, 3), F(1, 3), F(1, 3))
    assert prof.sup_Nd == F(4, 3)
    # N * deviation is D over the one lcd, held once as a plain int
    assert type(prof.nd.den) is int and prof.nd.den == 3
    for N, dev, nd in prof.entries:
        # counts follow the floor formula, so N*deviation is 0 or 4/3
        assert nd == (F(0) if N % 3 == 0 else F(4, 3))
        assert nd == dev * N
    # counts at N=100: floors of (N+2)/3, (N+1)/3, N/3
    assert prof.estimates[99] == (F(34, 100), F(33, 100), F(33, 100))
    assert prof.entries[0] == (1, F(4, 3), F(4, 3))


def test_discrepancy_profile_matches_prefix_runs(reflecting3):
    prof = discrepancy_profile(reflecting3, None, 25)
    for N in (1, 7, 18, 25):
        assert prof.estimates[N - 1] == normalized_firing_vector(
            run(reflecting3, None, N)
        )


def test_discrepancy_profile_validation(reflecting3, two_sinks5):
    with pytest.raises(ValueError):
        discrepancy_profile(reflecting3, None, 0)
    with pytest.raises(NonUniqueStationary):
        discrepancy_profile(two_sinks5, None, 10)


def test_discrepancy_profile_float_mode():
    doc = (
        '{"mode": "float", "P": [[0.5, 0.5, 0.0],'
        " [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]}"
    )
    prof = discrepancy_profile(parse_chain(doc), None, 60)
    assert prof.sup_Nd == pytest.approx(4 / 3)
    assert prof.entries[59][1] == pytest.approx(0.0, abs=1e-12)


def test_discrepancy_profile_general_start(basin_demo3):
    h0 = (F(1, 2), F(-1, 2), F(0))
    prof = discrepancy_profile(basin_demo3, h0, 400)
    pi = stationary_distribution(basin_demo3)
    assert prof.exact == pi
    # deviations shrink like 1/N: the tail entry sits under sup/N
    N, dev, nd = prof.entries[-1]
    assert nd <= prof.sup_Nd
    assert dev <= prof.sup_Nd / N


# ---------------------------------------------------------------------------
# hitting probabilities


def test_hitting_oracle_five_state_walk(absorbing_walk5):
    z = hitting_oracle(absorbing_walk5, 2)
    assert z == {0: F(15, 31), 4: F(16, 31)}
    # boundary rows of the solve
    assert hitting_oracle(absorbing_walk5, 0) == {0: F(1), 4: F(0)}
    assert hitting_oracle(absorbing_walk5, 4) == {0: F(0), 4: F(1)}


def test_hitting_oracle_eliminates_once_for_all_targets(absorbing_walk5, monkeypatch):
    calls = []
    rref = _linalg._rref
    monkeypatch.setattr(
        _linalg, "_rref", lambda *args: calls.append(args) or rref(*args)
    )
    assert hitting_oracle(absorbing_walk5, 2) == {0: F(15, 31), 4: F(16, 31)}
    assert len(calls) == 1


def test_hitting_oracle_solves_only_where_absorption_is_reachable():
    """v2 and v3 pass the chip between them and never absorb, so their
    hitting probability is 0, and from v4 the chance of v1 is the 1/2 of
    stepping there at once. Solving over v2 and v3 as well would leave a
    singular system whose free variable is set to 0."""
    h = F(1, 2)
    P = [[1, 0, 0, 0], [0, h, h, 0], [0, h, h, 0], [h, h, 0, 0]]
    rational = MarkovChain(P)
    as_float = MarkovChain([[float(x) for x in row] for row in P], mode="float")
    assert repr(hitting_oracle(rational, 3)) == "{0: Fraction(1, 2)}"
    assert repr(hitting_oracle(as_float, 3)) == "{0: 0.5}"
    for chain in (rational, as_float):
        assert hitting_oracle(chain, 1) == hitting_oracle(chain, 2) == {0: 0}


def test_hitting_oracle_matches_float_solve():
    rng = random.Random(71)
    for _ in range(12):
        chain = random_absorbing_chain(rng, rng.choice((3, 4, 5)))
        v = first_transient(chain)
        exact = hitting_oracle(chain, v)
        approx = hitting_solve_float(chain, v)
        for u, p in exact.items():
            assert float(p) == pytest.approx(approx[u], abs=1e-9)


def test_hitting_distribution_two_sinks(two_sinks5):
    ests = hitting_distribution(two_sinks5, 1, 600)
    assert [e.target for e in ests] == [0, 3]
    assert {e.target: e.exact for e in ests} == {0: F(2, 3), 3: F(1, 3)}
    assert sum(e.a_N for e in ests) == 1
    for e in ests:
        assert e.deviation == abs(e.a_N - e.exact)
        assert e.deviation * e.N <= 6  # O(1/N), generous constant


def test_hitting_distribution_unreachable_sink(two_sinks5):
    # from v5 only v4 can absorb; v1 is dropped by the reroute
    ests = {e.target: e for e in hitting_distribution(two_sinks5, 4, 300)}
    assert ests[0].exact == 0
    assert ests[0].a_N == 0
    assert ests[0].deviation == 0
    assert ests[3].exact == 1


def test_hitting_zero_denominator_convention():
    chain = parse_chain(HALF_COIN)
    ests = hitting_distribution(chain, 0, 1)
    assert len(ests) == 1
    assert ests[0].a_N == 0  # no absorbing visit yet, defined as 0
    assert ests[0].exact == 1
    est = absorption_time(chain, 0, 1)
    assert est.b_N == 0


def test_hitting_profile_matches_single_shot(two_sinks5):
    prof = hitting_profile(two_sinks5, 1, 0, 240)
    one_shot = {e.target: e for e in hitting_distribution(two_sinks5, 1, 240)}
    assert prof.estimates[-1] == one_shot[0].a_N
    assert prof.exact == F(2, 3)
    assert prof.sup_Nd == max(nd for _, _, nd in prof.entries)
    assert [N for N, _, _ in prof.entries] == list(range(1, 241))


def test_hitting_profile_rejects_non_absorbing_target_before_the_run(
    two_sinks5, monkeypatch
):
    def fire(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(estimators, "run", fire)
    with pytest.raises(ValueError, match="^target v3 is not absorbing$"):
        hitting_profile(two_sinks5, 1, 2, 10**6)


def test_hitting_profile_stays_bounded(two_sinks5):
    prof = hitting_profile(two_sinks5, 1, 0, 2000)
    nds = [nd for _, _, nd in prof.entries]
    burn = nds[100:]
    # no upward trend: the last tenth never beats the earlier sup
    assert max(burn[-len(burn) // 10 :]) <= max(burn[: -len(burn) // 10])


# ---------------------------------------------------------------------------
# absorption and return times


def test_absorption_time_two_sinks(two_sinks5):
    est = absorption_time(two_sinks5, 1, 600)
    assert est.exact == 2
    assert est.deviation == abs(est.b_N - 2)
    assert est.deviation * est.N <= 12


def test_absorption_time_from_v5(two_sinks5):
    est = absorption_time(two_sinks5, 4, 400)
    assert est.exact == 2  # t = 1 + t/2 on the lazy tail


def test_absorption_exact_matches_float_solve():
    rng = random.Random(72)
    for _ in range(12):
        chain = random_absorbing_chain(rng, rng.choice((3, 4, 5)))
        v = first_transient(chain)
        est = absorption_time(chain, v, 50)
        assert float(est.exact) == pytest.approx(
            absorption_solve_float(chain, v), abs=1e-9
        )


def test_absorption_profile_matches_single_shot(absorbing_walk5):
    prof = absorption_profile(absorbing_walk5, 2, 300)
    est = absorption_time(absorbing_walk5, 2, 300)
    assert prof.estimates[-1] == est.b_N
    assert prof.exact == est.exact


def test_escape_probability_reflecting(reflecting3):
    far = escape_probability(reflecting3, 0, 2, 400)
    near = escape_probability(reflecting3, 0, 1, 400)
    assert far.exact == F(1, 4)
    assert near.exact == F(1, 2)
    assert far.deviation * far.N <= 8
    assert near.deviation * near.N <= 8


def test_escape_validation(reflecting3, absorbing_walk5):
    with pytest.raises(UEqualsV):
        escape_probability(reflecting3, 1, 1, 10)
    with pytest.raises(ValueError):
        escape_probability(absorbing_walk5, 1, 2, 10)
    with pytest.raises(UEqualsV):
        escape_profile(reflecting3, 1, 1, 10)


def test_expected_return_time(reflecting3, basin_demo3):
    est = expected_return_time(reflecting3, 0, 300)
    assert est.exact == 3
    assert est.deviation * est.N <= 9
    pi = stationary_distribution(basin_demo3)
    for v in range(3):
        assert expected_return_time(basin_demo3, v, 60).exact == 1 / pi[v]


def test_return_time_formulas_agree(reflecting3, basin_demo3):
    # absorption oracle on the split chain reproduces 1 / pi_v
    for chain in (reflecting3, basin_demo3):
        pi = stationary_distribution(chain)
        for v in range(chain.n):
            split, v0, _v1 = split_vertex(chain, v)
            est = absorption_time(split, v0, 40)
            assert est.exact == 1 / pi[v]


def test_return_time_validation(absorbing_walk5):
    with pytest.raises(ValueError):
        expected_return_time(absorbing_walk5, 1, 10)
    with pytest.raises(ValueError):
        return_time_profile(absorbing_walk5, 1, 10)


def test_sweep_profiles_are_consistent(reflecting3):
    esc = escape_profile(reflecting3, 0, 2, 150)
    assert esc.exact == F(1, 4)
    assert esc.estimates[-1] == escape_probability(reflecting3, 0, 2, 150).a_N
    ret = return_time_profile(reflecting3, 0, 150)
    assert ret.exact == 3
    assert ret.estimates[-1] == expected_return_time(reflecting3, 0, 150).b_N


# ---------------------------------------------------------------------------
# profile values pinned at N = 20000, and chains whose lcd overflows int64


@pytest.mark.parametrize("name, make, sup, rows", [
    ("stationary", lambda get: discrepancy_profile(get("reflecting3"), None, 20000),
     F(4, 3), [
         ((1, F(4, 3), F(4, 3)), (F(1), F(0), F(0))),
         ((10001, F(4, 30003), F(4, 3)),
          (F(3334, 10001), F(3334, 10001), F(3333, 10001))),
         ((20000, F(1, 15000), F(4, 3)),
          (F(6667, 20000), F(6667, 20000), F(3333, 10000))),
     ]),
    ("hitting", lambda get: hitting_profile(get("two_sinks5"), 1, 0, 20000),
     F(4, 3), [
         ((1, F(1, 3), F(1, 3)), F(1)),
         ((10001, F(1, 10002), F(10001, 10002)), F(2223, 3334)),
         ((20000, F(1, 20001), F(20000, 20001)), F(4445, 6667)),
     ]),
    ("absorb", lambda get: absorption_profile(get("absorbing_walk5"), 2, 20000),
     F(3918921, 108655), [
         ((1, F(145, 31), F(145, 31)), F(0)),
         ((10001, F(81, 54622), F(810081, 54622)), F(8239, 1762)),
         ((20000, F(48, 109213), F(960000, 109213)), F(16477, 3523)),
     ]),
    ("escape", lambda get: escape_profile(get("reflecting3"), 0, 2, 20000),
     F(5, 4), [
         ((1, F(1, 4), F(1, 4)), F(0)),
         ((10001, F(0), F(0)), F(1, 4)),
         ((20000, F(0), F(0)), F(1, 4)),
     ]),
    ("return-time", lambda get: return_time_profile(get("reflecting3"), 1, 20000),
     F(9999, 1250), [
         ((1, F(3), F(3)), F(0)),
         ((10001, F(1, 2500), F(10001, 2500)), F(7501, 2500)),
         ((20000, F(0), F(0)), F(3)),
     ]),
])
def test_profile_values_pinned(name, make, sup, rows, request):
    prof = make(request.getfixturevalue)
    assert len(prof.entries) == len(prof.estimates) == 20000
    assert prof.sup_Nd == sup
    for k, (entry, estimate) in zip((0, 10000, -1), rows):
        assert prof.entries[k] == entry
        assert prof.estimates[k] == estimate


def big_lcd_chain(a=2**60 + 1, b=2**60 + 3):
    """A 3-state cycle with a shortcut whose stationary lcd passes 2**63."""
    rows = [["0", f"{a - 1}/{a}", f"1/{a}"], ["0", "0", "1"],
            [f"{b - 1}/{b}", f"1/{b}", "0"]]
    return json.dumps({"mode": "rational", "P": rows})


def test_discrepancy_profile_with_lcd_above_int64():
    chain = parse_chain(big_lcd_chain())
    N_max = 150
    prof = discrepancy_profile(chain, None, N_max)
    pi = stationary_distribution(chain)
    assert math.lcm(*(p.denominator for p in pi)) >= 2**63
    fired = run(chain, None, N_max).fired
    counts = [0] * chain.n
    sup = 0
    assert len(prof.entries) == N_max
    for N, (entry, estimate) in enumerate(zip(prof.entries, prof.estimates), 1):
        counts[int(fired[N - 1])] += 1
        est = tuple(F(c, N) for c in counts)
        dev = sum(abs(e - p) for e, p in zip(est, pi))
        assert entry == (N, dev, N * dev)
        assert estimate == est
        sup = max(sup, N * dev)
    assert prof.sup_Nd == sup


def test_scalar_profiles_with_products_above_int64():
    # exact values with ~2**61 and ~2**64 denominators push N^2 * q past
    # int64, and the deviation cells take 128-bit products in C; past
    # N^2 q = 2**126 they take the reference body on Python ints. Each row is
    # recomputed here with Fractions from the rerouted run, and its CSV cells
    # with them.
    for a, c_body in ((2**61 + 1, True), (2**64 + 13, True), (2**120 + 1, False)):
        hit = parse_chain(json.dumps({"mode": "rational", "P": [
            ["1", "0", "0"], [f"{a - 1}/{a}", "0", f"1/{a}"], ["0", "0", "1"]]}))
        absorb = parse_chain(json.dumps({"mode": "rational", "P": [
            ["1", "0"], [f"{a - 1}/{a}", f"1/{a}"]]}))
        N_max = 80
        for chain, prof, exact in (
            (hit, hitting_profile(hit, 1, 0, N_max), F(a - 1, a)),
            (absorb, absorption_profile(absorb, 1, N_max), F(a, a - 1)),
        ):
            assert prof.exact == exact
            rer = reroute(chain, 1)
            fired = run(rer.chain, None, N_max).fired
            counts = [0] * rer.chain.n
            sup = 0
            rows = []
            for N, (entry, estimate) in enumerate(zip(prof.entries, prof.estimates), 1):
                counts[int(fired[N - 1])] += 1
                d = sum(counts[w] for w in rer.absorbing_images)
                if not d:
                    est = F(0)
                elif chain is hit:
                    est = F(counts[rer.kept.index(0)], d)
                else:
                    est = F(N, d) - 1
                dev = abs(est - exact)
                assert (entry, estimate) == ((N, dev, N * dev), est)
                sup = max(sup, N * dev)
                rows.append(f"{dev},{N * dev}\n")
            assert prof.sup_Nd == sup
            assert (_kernels._Arguments.fields([prof.dev, prof.nd]) is not None) == c_body
            f = io.StringIO()
            _kernels.csv_rows(f, [prof.dev, prof.nd])
            assert f.getvalue() == "".join(rows)


@pytest.mark.parametrize("exact", [
    F(2, 3), F(1), F(0), F(40, 3), F(2**64 + 13, 2**64 + 12), F(2**50 * 7 + 1, 7),
    F(10**30 + 1, 7),
])
def test_scalar_cells_match_fractions(exact):
    # exact = k + r / q: the cells shift num by k den when that fits int64
    # (k up to 2^50 at N = 20000 does not), and match Fractions either way
    rng = np.random.default_rng(7)
    Ns = np.arange(1, 20001, dtype=np.int64)
    den = (Ns * rng.random(Ns.size)).astype(np.int64)
    num = (den * rng.random(Ns.size) * 20).astype(np.int64)
    prof = estimators._scalar(Ns, num, den, exact, True)
    est = [F(int(a), int(d)) if d else F(0) for a, d in zip(num, den)]
    nd = [N * abs(e - exact) for N, e in zip(Ns.tolist(), est)]
    assert prof.sup_Nd == max(nd)
    assert prof.entries[-1] == (20000, nd[-1] / 20000, nd[-1])
    f = io.StringIO()
    _kernels.csv_rows(f, [prof.dev, prof.nd])
    assert f.getvalue() == "".join(f"{x / N},{x}\n" for N, x in zip(Ns.tolist(), nd))


def test_sup_Nd_is_exact_where_floats_misorder_rows():
    # N * |e - x| at two rows differs by under 2^-41 relative, below what
    # the float deviations resolve: they order the rows the wrong way
    e1, e2 = F(16374, 32749), F(16360, 32719)
    mid = (40000 * e1 + 40001 * e2) / 80001
    x = mid - F(5, 2 * mid.denominator * (2**14 - 3))
    assert x.denominator < 2**63 and e1 < x < e2
    nd1, nd2 = 40000 * (x - e1), 40001 * (e2 - x)
    assert 0 < (nd2 - nd1) / nd2 < F(1, 2**41)
    floats = [abs(a / b - x.numerator / x.denominator) * N
              for N, a, b in ((40000, 16374, 32749), (40001, 16360, 32719))]
    assert floats[0] > floats[1]
    prof = estimators._scalar(
        np.array([40000, 40001]), np.array([16374, 16360]), np.array([32749, 32719]), x, True
    )
    assert prof.sup_Nd == nd2
    assert [entry[2] for entry in prof.entries] == [nd1, nd2]


def test_sup_Nd_settles_rows_floats_cannot_tell_apart_in_linear_time():
    # est = 1 at every N against exact 1 - 1/a: the float deviations are all
    # 0, so every row is shortlisted, and N / a grows with N. Moving the pick
    # to the first row above it, one exact pass at a time, took about 45 s.
    a = 2**64 + 13
    Ns = np.arange(1, 20001, dtype=np.int64)
    t0 = time.perf_counter()
    prof = estimators._scalar(Ns, Ns, Ns, F(a - 1, a), True)
    assert time.perf_counter() - t0 < 5.0
    assert prof.sup_Nd == F(20000, a)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(1, 6),
    st.sampled_from(["ratios", "deviations", "scaled deviations"]),
    st.sampled_from([1, 2**50]),
)
def test_largest_of_many_ties_matches_fractions(seed, rows, pairs, kind, M):
    """Rows drawn from a few (num, den) pairs near (a M, b M), each also
    scaled by 1 or 2: the shortlist is mostly repeated pairs and equal
    values, and with M = 2^50 distinct values floats cannot tell apart.
    _largest gives the largest value as a Fraction."""
    rng = np.random.default_rng(seed)
    pick, m = rng.integers(0, pairs, size=rows), rng.integers(1, 3, size=rows)
    a, b = int(rng.integers(8, 100)), int(rng.integers(1, 100))
    num = (a * M + rng.integers(0, 4, size=pairs))[pick] * m
    den = (b * M + rng.integers(0, 4, size=pairs))[pick] * m
    scale = rng.integers(1, 4, size=pairs)[pick] if kind == "scaled deviations" else None
    p, q = int(rng.integers(0, 100)), int(rng.integers(1, 100))
    if kind == "ratios":
        col, values = _kernels.Ratios(num, den), map(F, num.tolist(), den.tolist())
    else:
        col = _kernels.Deviations(num, den, p, q, scale)
        s = [1] * rows if scale is None else scale.tolist()
        values = (k * abs(F(x, y) - F(p, q)) for k, x, y in zip(s, num.tolist(), den.tolist()))
    assert estimators._largest(col) == max(values)


def test_scalar_sweeps_count_only_the_states_they_read():
    """An absorption sweep on a 500-state lazy ring (state 0 absorbing)
    tallies the absorbing image's visits, not an n x N count matrix (80 MB
    here)."""
    n, N = 500, 2 * 10**4
    half = F(1, 2)
    chain = MarkovChain(
        [{0: F(1)}] + [{i: half, (i + 1) % n: half} for i in range(1, n)]
    )
    absorption_profile(chain, 1, 10, exact=F(2 * (n - 1)))  # setup, not traced
    tracemalloc.start()
    try:
        prof = absorption_profile(chain, 1, N, exact=F(2 * (n - 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert len(prof.entries) == N and prof.exact == 2 * (n - 1)
