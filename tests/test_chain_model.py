import json
import random
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from hungerlab import (
    FLOAT,
    RATIONAL,
    ChainFormatError,
    FloatModeUnsupported,
    MarkovChain,
    NoAbsorbingStates,
    NonUniqueStationary,
    VIsAbsorbing,
    absorbing_states,
    chain_to_document,
    chip_add,
    common_denominator,
    discrepancy_profile,
    hunger_matrix,
    is_irreducible,
    lattice_basis,
    lcd_of_stationary,
    make_absorbing,
    parse_chain,
    reroute,
    rotor_run,
    run,
    split_vertex,
    stationary_distribution,
    zero_period,
)
from hungerlab import _linalg
from hungerlab.chain_model import fmt_scalar
from conftest import load_chain
from oracles import random_irreducible_chain, stationary_solve_float

F = Fraction


def test_parse_defaults_labels(reflecting3):
    assert reflecting3.n == 3
    assert reflecting3.labels == ("v1", "v2", "v3")
    assert reflecting3.mode == RATIONAL
    assert reflecting3.P[0] == (F(1, 2), F(1, 2), F(0))


def test_parse_explicit_labels(two_sinks5):
    assert two_sinks5.labels == ("v1", "v2", "v3", "v4", "v5")


def test_parse_rejects_bad_documents():
    with pytest.raises(ChainFormatError):
        parse_chain("not json at all [")
    with pytest.raises(ChainFormatError, match="must be a JSON object"):
        parse_chain('[["1"]]')
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational"}')
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "imaginary", "P": [["1"]]}')
    # ragged row
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational", "P": [["1/2", "1/2"], ["1"]]}')
    # row does not sum to one
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational", "P": [["1/2", "1/3"], ["0", "1"]]}')
    # duplicate labels
    with pytest.raises(ChainFormatError):
        parse_chain(
            '{"mode": "rational", "states": ["a", "a"],'
            ' "P": [["1", "0"], ["0", "1"]]}'
        )


@pytest.mark.parametrize(
    "row, message",
    [
        ([F(3, 2), F(-1, 2)], "row 2: entry 3/2 exceeds 1"),
        ([F(-1, 3), F(4, 3)], "row 2: negative entry -1/3"),
        ([-1, 2], "row 2: negative entry -1"),
        ([F(1, 2), F(1, 3)], "row 2 sums to 5/6, expected exactly 1"),
        ([F(2, 3), F(2, 3)], "row 2 sums to 4/3, expected exactly 1"),
        ([F(1, 2**64), 1], "row 2 sums to 18446744073709551617/18446744073709551616, "
                           "expected exactly 1"),
        ([0.5, F(1, 2)], "row 2: 0.5 is not an exact rational"),
        (["1/2", F(1, 2)], "row 2: '1/2' is not an exact rational"),
        # rows given as {column: entry}
        ({0: F(1, 2), 2: F(1, 2)}, "row 2: columns must be state indices 0..1"),
        ({-1: F(1)}, "row 2: columns must be state indices 0..1"),
        ({"1": F(1)}, "row 2: columns must be state indices 0..1"),
        ({0: F(1, 2)}, "row 2 sums to 1/2, expected exactly 1"),
        ({}, "row 2 sums to 0, expected exactly 1"),
        ({1: F(3, 2), 0: F(-1, 2)}, "row 2: negative entry -1/2"),
        ({0: 0.5, 1: F(1, 2)}, "row 2: 0.5 is not an exact rational"),
    ],
)
def test_rational_rows_rejected_with_their_message(row, message):
    with pytest.raises(ChainFormatError) as err:
        MarkovChain([[F(1), 0], row])
    assert str(err.value) == message


@pytest.mark.parametrize("args, kwargs, message", [
    (([[1]],), {"mode": "imaginary"}, "unknown mode 'imaginary'"),
    (([],), {}, "a chain needs at least one state"),
    (([[1, 0], [0, 1]], ["a", "b", "c"]), {}, "label count does not match state count"),
])
def test_chains_rejected_with_their_message(args, kwargs, message):
    with pytest.raises(ChainFormatError) as err:
        MarkovChain(*args, **kwargs)
    assert str(err.value) == message


def test_rational_rows_accept_ints_and_keep_fractions():
    chain = MarkovChain([[1, 0], [F(1, 2**64), F(2**64 - 1, 2**64)]])
    assert chain.P == ((F(1), F(0)), (F(1, 2**64), F(2**64 - 1, 2**64)))
    assert all(type(x) is Fraction for row in chain.P for x in row)


def test_parse_rejects_unknown_keys_and_non_array_states():
    # the key is "states"; a "labels" key used to be dropped silently
    with pytest.raises(ChainFormatError, match="unknown keys"):
        parse_chain(
            '{"mode": "rational", "P": [["1"]], "labels": ["a"]}'
        )
    with pytest.raises(ChainFormatError, match="unknown keys"):
        parse_chain('{"mode": "rational", "P": [["1"]], "name": "one"}')
    for states in ('"a"', "null", '{"a": 1}'):
        with pytest.raises(ChainFormatError, match="states must be an array"):
            parse_chain(f'{{"mode": "rational", "P": [["1"]], "states": {states}}}')
    assert parse_chain('{"mode": "rational", "P": [["1"]], "states": ["a"]}').labels == ("a",)


def test_parse_rejects_duplicate_keys():
    # json.loads keeps a key's last value: the first P would be dropped
    with pytest.raises(ChainFormatError, match=r"duplicate keys \['P'\]"):
        parse_chain(
            '{"mode": "rational", "P": [["1"]], "P": [["1/2", "1/2"], ["1/2", "1/2"]]}'
        )
    with pytest.raises(ChainFormatError, match=r"duplicate keys \['mode'\]"):
        parse_chain('{"mode": "float", "P": [[1.0]], "mode": "rational"}')


def test_parse_mode_mismatch():
    # float literals inside a rational document
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    # decimal strings are not rational tokens
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational", "P": [["0.5", "0.5"], ["1/2", "1/2"]]}')
    # strings inside a float document
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "float", "P": [["1/2", "1/2"], [0.5, 0.5]]}')


def test_parse_rejects_negative_and_oversized():
    with pytest.raises(ChainFormatError):
        MarkovChain([[F(3, 2), F(-1, 2)], [F(0), F(1)]])
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "rational", "P": [["-1/2", "3/2"], ["0", "1"]]}')
    with pytest.raises(ChainFormatError, match="zero denominator"):
        parse_chain('{"mode": "rational", "P": [["1/0", "0"], ["0", "1"]]}')
    with pytest.raises(ChainFormatError, match="negative entry"):
        parse_chain('{"mode": "float", "P": [[-0.5, 1.5], [0.5, 0.5]]}')
    with pytest.raises(ChainFormatError, match="exceeds 1"):
        parse_chain('{"mode": "float", "P": [[1.5, 0.5], [0.5, 0.5]]}')


def test_float_row_diagonal_one_stands_alone():
    """P_00 = 1.0 beside 1e-17 sums to 1.0, but firing that state would
    still move hunger while the state counts as absorbing."""
    for P in ([[1.0, 1e-17], [0.5, 0.5]], [[0.5, 0.5], {0: 1e-300, 1: 1.0}]):
        with pytest.raises(ChainFormatError, match="diagonal entry of 1 beside"):
            MarkovChain(P, mode=FLOAT)
    with pytest.raises(ChainFormatError, match="row 1: a diagonal entry of 1 beside"):
        parse_chain('{"mode": "float", "P": [[1.0, 1e-17], [0.5, 0.5]]}')
    # off the diagonal a 1.0 is no absorbing state: its row of H is
    # [-1.0, 1.0] in floats
    c = MarkovChain([[1e-17, 1.0], [0.5, 0.5]], mode=FLOAT)
    assert list(c.row(0)) == [(0, 1e-17), (1, 1.0)] and not absorbing_states(c)
    # the rational row is exact; only its float copy rounds to 1.0
    e = F(1, 10**20)
    assert MarkovChain([[1 - e, e], [F(1, 2), F(1, 2)]]).n == 2
    # a lone 1.0, and a row renormalized near it, are fine
    assert MarkovChain([[1.0, 0.0], [1 - 1e-13, 1e-13]], mode=FLOAT).n == 2


def test_float_row_sum_tolerance():
    # off by 1e-13 renormalizes quietly; off by 1e-3 is an error
    p = 0.1
    chain = parse_chain(
        json.dumps({"mode": "float", "P": [[1 - p, p], [p, 1 - p]]})
    )
    assert abs(sum(chain.P[0]) - 1.0) < 1e-15
    with pytest.raises(ChainFormatError):
        parse_chain('{"mode": "float", "P": [[0.6, 0.5], [0.5, 0.5]]}')


def test_float_rows_reject_non_finite():
    # json reads NaN and Infinity; NaN used to pass every range check
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ChainFormatError, match="non-finite"):
            parse_chain(f'{{"mode": "float", "P": [[{bad}, 1.0], [0.5, 0.5]]}}')
    with pytest.raises(ChainFormatError, match="non-finite"):
        MarkovChain([[float("nan"), 1.0], [0.5, 0.5]], mode=FLOAT)


def test_document_round_trip(two_sinks5, basin_demo3):
    floats = MarkovChain([[0.25, 0.75, 0.0], [0.1, 0.2, 0.7], [0, 0, 1]], mode=FLOAT)
    for chain in (two_sinks5, basin_demo3, floats):
        assert parse_chain(chain_to_document(chain)) == chain
    assert json.loads(chain_to_document(floats))["P"][2] == [0.0, 0.0, 1.0]


def test_fmt_scalar_writes_floats_that_round_trip():
    assert fmt_scalar(0.1) == "0.1"
    assert float(fmt_scalar(0.1)) == 0.1


def test_absorbing_states(two_sinks5, reflecting3):
    assert absorbing_states(two_sinks5) == frozenset({0, 3})
    assert absorbing_states(reflecting3) == frozenset()


def test_irreducibility(reflecting3, two_sinks5, basin_demo3):
    assert is_irreducible(reflecting3)
    assert is_irreducible(basin_demo3)
    assert not is_irreducible(two_sinks5)


def test_hunger_matrix_rows_sum_to_zero(basin_demo3):
    H = hunger_matrix(basin_demo3).H
    for row in H:
        assert sum(row) == 0
    assert H[0] == (F(-1, 5), F(1, 5), F(0))


def test_stationary_known_values(reflecting3, basin_demo3):
    assert stationary_distribution(reflecting3) == (F(1, 3), F(1, 3), F(1, 3))
    assert stationary_distribution(basin_demo3) == (
        F(11, 18),
        F(5, 18),
        F(2, 18),
    )
    assert lcd_of_stationary(reflecting3) == 3
    assert lcd_of_stationary(basin_demo3) == 18


def test_stationary_not_unique(two_sinks5, absorbing_walk5):
    # two absorbing states span a 2-dimensional fixed space
    for chain in (two_sinks5, absorbing_walk5):
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(chain)


def test_stationary_single_sink_is_unit():
    chain = MarkovChain([[F(1, 2), F(1, 2)], [F(0), F(1)]])
    assert stationary_distribution(chain) == (F(0), F(1))


def test_stationary_matches_float_oracle():
    rng = random.Random(11)
    for _ in range(25):
        chain = random_irreducible_chain(rng, rng.randint(2, 4))
        pi = stationary_distribution(chain)
        ref = stationary_solve_float(chain)
        assert max(abs(float(a) - b) for a, b in zip(pi, ref)) < 1e-9
        assert sum(pi) == 1


def test_lcd_rejects_float_mode():
    chain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(FloatModeUnsupported):
        lcd_of_stationary(chain)
    with pytest.raises(FloatModeUnsupported):
        common_denominator(chain)


def test_float_stationary():
    chain = parse_chain('{"mode": "float", "P": [[0.5, 0.5], [0.25, 0.75]]}')
    pi = stationary_distribution(chain)
    assert abs(pi[0] - 1 / 3) < 1e-12 and abs(pi[1] - 2 / 3) < 1e-12


def test_reroute_two_sinks(two_sinks5):
    rer = reroute(two_sinks5, 1)
    assert rer.kept == (0, 1, 2, 3)
    assert rer.origin == 1
    assert rer.absorbing_images == frozenset({0, 3})
    expected = (
        (F(0), F(1), F(0), F(0)),
        (F(1, 2), F(0), F(1, 2), F(0)),
        (F(0), F(1, 2), F(0), F(1, 2)),
        (F(0), F(1), F(0), F(0)),
    )
    assert rer.chain.P == expected
    assert is_irreducible(rer.chain)
    assert rer.chain.labels == ("v1", "v2", "v3", "v4")


def test_reroute_errors(two_sinks5, reflecting3):
    with pytest.raises(VIsAbsorbing):
        reroute(two_sinks5, 0)
    with pytest.raises(NoAbsorbingStates):
        reroute(reflecting3, 0)


def test_reroute_rejects_trapping_class():
    # v reaches a closed class {d, e} that never comes back
    P = [
        [F(1)] + [F(0)] * 4,
        [F(1, 2), F(0), F(1, 2), F(0), F(0)],
        [F(0), F(0), F(0), F(1), F(0)],
        [F(0), F(0), F(0), F(0), F(1)],
        [F(0), F(0), F(0), F(1), F(0)],
    ]
    chain = MarkovChain(P)
    with pytest.raises(ValueError):
        reroute(chain, 1)


def test_make_absorbing(reflecting3):
    chain = make_absorbing(reflecting3, 2)
    assert chain.P[2] == (F(0), F(0), F(1))
    assert chain.P[0] == reflecting3.P[0]
    assert absorbing_states(chain) == frozenset({2})


def test_split_vertex(reflecting3):
    split, v0, v1 = split_vertex(reflecting3, 0)
    assert (split.n, v0, v1) == (4, 0, 3)
    assert split.labels == ("v1", "v2", "v3", "v1_in")
    # out-edges stay at v0; in-edges land on the absorbing copy
    assert split.P[0] == (F(0), F(1, 2), F(0), F(1, 2))
    assert split.P[1] == (F(0), F(0), F(1, 2), F(1, 2))
    assert split.P[2] == (F(0), F(1, 2), F(1, 2), F(0))
    assert split.P[3] == (F(0), F(0), F(0), F(1))
    assert absorbing_states(split) == frozenset({3})


def test_split_vertex_label_collision():
    chain = MarkovChain(
        [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], labels=("a", "a_in")
    )
    split, _, v1 = split_vertex(chain, 0)
    assert len(set(split.labels)) == 3
    assert split.labels[v1].startswith("a_in")


def test_chain_equality_and_hash(reflecting3):
    twin = MarkovChain([list(row) for row in reflecting3.P])
    assert twin == reflecting3
    assert hash(twin) == hash(reflecting3)


def test_chain_holds_its_nonzero_entries_once(two_sinks5):
    assert two_sinks5.indptr == (0, 1, 3, 5, 6, 8)
    assert two_sinks5.indices == (0, 0, 2, 1, 3, 3, 3, 4)
    half = F(1, 2)
    assert two_sinks5.entries == (F(1), half, half, half, half, F(1), half, half)
    assert two_sinks5.D == 2
    assert two_sinks5.row(4) == [(3, half), (4, half)]
    assert list(two_sinks5.rows())[1] == [(0, half), (2, half)]


def test_dense_view_is_built_on_first_read_and_kept():
    chain = MarkovChain([[F(1, 2), F(1, 2)], [0, 1]])
    assert "P" not in vars(chain)
    P = chain.P
    assert chain.P is P
    assert P == ((F(1, 2), F(1, 2)), (F(0), F(1)))
    assert all(type(x) is Fraction for row in P for x in row)
    floats = MarkovChain([[0.5, 0.5], [0.0, 1.0]], mode=FLOAT)
    assert floats.P == ((0.5, 0.5), (0.0, 1.0))


def test_mapping_rows_build_the_same_chain(two_sinks5, basin_demo3):
    for chain in (two_sinks5, basin_demo3):
        twin = MarkovChain([dict(row) for row in chain.rows()], labels=chain.labels)
        assert twin == chain and hash(twin) == hash(chain)
        assert twin.P == chain.P
    # keys in any order, zeros listed or not, mixed with dense rows
    assert MarkovChain([{1: F(1, 2), 0: F(1, 2)}, {0: 0, 1: 1}]) == MarkovChain(
        [[F(1, 2), F(1, 2)], [0, 1]]
    )
    assert MarkovChain([{1: 0.75, 0: 0.25}, [0.0, 1.0]], mode=FLOAT) == MarkovChain(
        [[0.25, 0.75], [0.0, 1.0]], mode=FLOAT
    )


@pytest.mark.parametrize("index", [-1, 5])
@pytest.mark.parametrize(
    "call",
    [lambda chain, i: chip_add(chain, None, i), make_absorbing, reroute, split_vertex],
    ids=["chip_add", "make_absorbing", "reroute", "split_vertex"],
)
def test_state_indices_outside_the_chain_are_rejected(absorbing_walk5, call, index):
    with pytest.raises(ValueError, match=f"state index {index} out of range 0..4"):
        call(absorbing_walk5, index)


def test_a_ring_of_100000_states_from_mapping_rows():
    # nothing here may touch all n^2 entries: the dense P alone would be
    # 10^10 of them
    n = 10**5
    half = F(1, 2)
    tracemalloc.start()
    try:
        chain = MarkovChain([{(i - 1) % n: half, (i + 1) % n: half} for i in range(n)])
        assert not absorbing_states(chain)
        assert is_irreducible(chain)
        trace = run(chain, None, n)
        rotor = rotor_run(chain, 0, None, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert "P" not in vars(chain)
    assert (len(chain.entries), chain.D) == (2 * n, 2)
    assert trace.v.sum() == n and sum(trace.final_h) == 0
    assert rotor.visits.sum() == n + 1 and rotor.d == (2,) * n


# ---------------------------------------------------------------------------
# the records each chain keeps: absorbing states and the stationary solve


def test_absorbing_mask_is_read_only_and_kept(absorbing_walk5):
    mask, states = absorbing_walk5._absorbing
    assert absorbing_walk5._absorbing[0] is mask
    assert absorbing_states(absorbing_walk5) is states
    assert mask.tolist() == [True, False, False, False, True]
    with pytest.raises(ValueError, match="read-only"):
        mask[1] = True
    assert states == {0, 4}


def random_rows(rng, n):
    """n random rational rows: unit self-loops, rows with P_ii = 1 - e for
    a tiny e (1/2^70 makes D pass int64), and rows of denominator <= 6."""
    rows = []
    for i in range(n):
        kind = rng.choice(("sink", "near", "any"))
        if kind == "sink":
            rows.append({i: F(1)})
        elif kind == "near":
            e = rng.choice((F(1, 7), F(1, 2**70)))
            rows.append({i: 1 - e, (i + 1) % n: e} if n > 1 else {i: F(1)})
        else:
            den = rng.randint(1, 6)
            row = {}
            for _ in range(den):
                j = rng.randrange(n)
                row[j] = row.get(j, 0) + F(1, den)
            rows.append(row)
    return rows


@pytest.mark.parametrize("name", ["reflecting3", "basin_demo3", "absorbing_walk5",
                                  "two_sinks5", "random"])
def test_absorbing_states_are_the_unit_diagonal(name):
    if name == "random":
        rng = random.Random(41)
        chains = [MarkovChain(random_rows(rng, rng.randint(1, 7))) for _ in range(60)]
        assert any(c.D >= 2**62 for c in chains)  # object-dtype kernel rows
        # float copies, of rows whose entries stay apart from 1 in float64
        chains += [
            MarkovChain([{j: float(x) for j, x in row} for row in c.rows()], mode=FLOAT)
            for c in chains if c.D < 2**62
        ]
    else:
        chains = [load_chain(f"{name}.json")]
    for chain in chains:
        expected = {i for i in range(chain.n) if chain.P[i][i] == 1}
        assert absorbing_states(chain) == expected
        assert chain._absorbing[0].tolist() == [i in expected for i in range(chain.n)]


def count_rref(monkeypatch):
    calls = []
    rref = _linalg._rref
    monkeypatch.setattr(_linalg, "_rref", lambda *a: calls.append(a) or rref(*a))
    return calls


def test_each_stationary_read_solves_once(basin_demo3, monkeypatch):
    # one elimination per call, pi, lcd and lcd * pi all from it; none is
    # kept on the chain, so a repeated call solves again
    calls = count_rref(monkeypatch)
    reads = [
        (stationary_distribution, (F(11, 18), F(5, 18), F(2, 18))),
        (lcd_of_stationary, 18),
        (zero_period, 18),
        (lambda c: astuple(lattice_basis(c))[1:], ((11, 5, 2), 18)),
        (lambda c: discrepancy_profile(c, None, 100).exact, (F(11, 18), F(5, 18), F(2, 18))),
    ]
    for read, expected in reads:
        for _ in range(2):
            calls.clear()
            assert read(basin_demo3) == expected
            assert len(calls) == 1


def test_a_chain_without_a_unique_pi_raises_on_every_call(monkeypatch):
    # two closed classes and no absorbing state: each call solves and
    # raises again
    half = F(1, 2)
    chain = MarkovChain([{0: half, 1: half}, {0: half, 1: half}, {2: half, 3: half},
                         {2: half, 3: half}])
    calls = count_rref(monkeypatch)
    for k, call in enumerate([stationary_distribution, stationary_distribution,
                              lcd_of_stationary, lattice_basis, zero_period]):
        with pytest.raises(NonUniqueStationary):
            call(chain)
        assert len(calls) == k + 1
    assert np.array_equal(chain._absorbing[0], np.zeros(4, dtype=bool))
