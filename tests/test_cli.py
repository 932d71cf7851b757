import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hungerlab import cli, estimators, hunger_engine, parse_chain
from hungerlab.cli import main
from oracles import START40, chain40_document

CHAINS = Path(__file__).resolve().parent.parent / "chains"
REFLECT = str(CHAINS / "reflecting3.json")
WALK5 = str(CHAINS / "absorbing_walk5.json")
SINKS = str(CHAINS / "two_sinks5.json")
DEMO = str(CHAINS / "basin_demo3.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# validate


def test_validate_describes_chain(capsys):
    code, out, err = run_cli(capsys, "validate", "--chain", WALK5)
    assert code == 0
    assert out == ""
    assert "states: 5 (v1, v2, v3, v4, v5)" in err
    assert "absorbing: v1, v5" in err
    assert "irreducible: no" in err
    assert "ok" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "--chain", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_validate_bad_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "rational"}')
    code, _, err = run_cli(capsys, "validate", "--chain", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------
# simulate and chip-add traces


def test_simulate_trace_csv(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--chain", REFLECT, "--steps", "6"
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["step", "fired", "h_1", "h_2", "h_3"]
    assert len(rows) == 8  # header + step 0 + 6 fires
    assert rows[1] == ["0", "", "0", "0", "0"]
    assert rows[2] == ["1", "v1", "-1/2", "1/2", "0"]
    assert rows[7][0] == "6"
    assert "final hunger: 0,0,0" in err


def test_simulate_firing_counts_summary(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--chain", REFLECT, "--steps", "7"
    )
    assert code == 0
    assert "v = (v1:3, v2:2, v3:2)" in err


def test_simulate_deterministic(capsys):
    argv = ("simulate", "--chain", DEMO, "--h0=1/2,-1/2,0", "--steps", "40")
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, err2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2


def test_simulate_rejects_bad_h0(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--chain", REFLECT, "--h0=1,nope,0"
    )
    assert code == 2
    assert "error:" in err


def test_chip_add_final_line(capsys):
    code, out, err = run_cli(capsys, "chip-add", "--chain", WALK5, "--at", "v3")
    assert code == 0
    assert "final hunger: 1/5,1/5,2/5,-3/5,-1/5" in err
    assert "fired: v2 v4 v5 (3 steps)" in err
    rows = rows_of(out)
    assert rows[1] == ["0", "", "0", "3/5", "0", "2/5", "0"]
    assert rows[2] == ["1", "v2", "1/5", "1/5", "1/5", "2/5", "0"]
    # last row shows the hunger vector after the chip was removed
    assert rows[-1] == ["3", "v5", "1/5", "1/5", "2/5", "-3/5", "-1/5"]


def test_chip_add_accepts_one_based_index(capsys):
    _, out_label, _ = run_cli(capsys, "chip-add", "--chain", WALK5, "--at", "v3")
    _, out_index, _ = run_cli(capsys, "chip-add", "--chain", WALK5, "--at", "3")
    assert out_label == out_index


def test_chip_add_error_codes(capsys):
    code, _, err = run_cli(capsys, "chip-add", "--chain", WALK5, "--at", "v1")
    assert code == 2  # absorbing insertion
    code, _, err = run_cli(
        capsys, "chip-add", "--chain", WALK5, "--at", "v3", "--cap", "2"
    )
    assert code == 3
    code, _, err = run_cli(capsys, "chip-add", "--chain", WALK5, "--at", "v9")
    assert code == 2
    code, out, err = run_cli(capsys, "chip-add", "--chain", REFLECT, "--at", "v1")
    assert code == 3  # no absorbing state
    assert out == ""
    assert err.splitlines() == ["error: step cap 10000000 exceeded"]


# ---------------------------------------------------------------------------
# estimator subcommands


def test_stationary_profile_csv(capsys):
    code, out, err = run_cli(
        capsys, "stationary", "--chain", REFLECT, "--N", "9"
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["N", "estimate", "exact", "deviation", "N_times_deviation"]
    assert len(rows) == 10
    assert rows[1] == ["1", "1;0;0", "1/3;1/3;1/3", "4/3", "4/3"]
    assert rows[9] == ["9", "1/3;1/3;1/3", "1/3;1/3;1/3", "0", "0"]
    assert "sup of N times L1 deviation over N <= 9: 4/3" in err


def test_stationary_rejects_two_sinks(capsys):
    code, _, err = run_cli(capsys, "stationary", "--chain", SINKS, "--N", "5")
    assert code == 2


def test_hitting_defaults_to_lowest_sink(capsys):
    code, out, err = run_cli(
        capsys, "hitting", "--chain", SINKS, "--from", "v2", "--N", "60"
    )
    assert code == 0
    assert "no --target given; using v1" in err
    assert "target v1: a_N" in err
    assert "exact 2/3" in err
    rows = rows_of(out)
    assert len(rows) == 61
    assert rows[0][0] == "N"


def test_hitting_rejects_non_absorbing_target(capsys):
    code, out, err = run_cli(
        capsys, "hitting", "--chain", SINKS, "--from", "v2", "--target", "v3",
        "--N", "10",
    )
    assert code == 2
    assert err.splitlines() == ["error: target v3 is not absorbing"]


def test_hitting_checks_the_target_before_the_run(capsys, monkeypatch):
    def sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "hitting_profiles", sweep)
    code, out, err = run_cli(
        capsys, "hitting", "--chain", SINKS, "--from", "v2", "--target", "v3",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: target v3 is not absorbing"]


def test_absorb_and_escape_and_return(capsys):
    code, out, err = run_cli(
        capsys, "absorb", "--chain", SINKS, "--from", "v2", "--N", "80"
    )
    assert code == 0
    assert "exact 2" in err
    code, out, err = run_cli(
        capsys,
        "escape", "--chain", REFLECT, "--from", "v1", "--target", "v3",
        "--N", "80",
    )
    assert code == 0
    assert "exact 1/4" in err
    code, out, err = run_cli(
        capsys, "return-time", "--chain", REFLECT, "--from", "v1", "--N", "80"
    )
    assert code == 0
    assert "exact 3" in err


def test_escape_requires_distinct_states(capsys):
    code, _, err = run_cli(
        capsys,
        "escape", "--chain", REFLECT, "--from", "v1", "--target", "v1",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# recurrence subcommands


def test_cycle_zero_orbit(capsys):
    code, out, err = run_cli(capsys, "cycle", "--chain", DEMO)
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["entry_steps", "period", "order_class"]
    assert rows[1] == ["0", "18", "112112112311211213"]
    assert "per-cycle firing counts: v1:11, v2:5, v3:2" in err


def test_cycle_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "cycle", "--chain", DEMO, "--cap", "5")
    assert code == 3


def test_cycle_float_mode_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "cycle", "--chain", DEMO, "--mode", "float"
    )
    assert code == 4


def test_basin_with_sidecar(tmp_path, capsys):
    out_path = tmp_path / "basin.csv"
    code, out, err = run_cli(
        capsys,
        "basin", "--chain", DEMO, "--bounds", "0", "0", "--step", "1",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    rows = rows_of(out_path.read_text())
    assert rows[0] == ["h1", "h2", "recurrent", "period", "order_class", "entry_steps"]
    assert rows[1] == ["0", "0", "1", "18", "1", "0"]
    side = rows_of((tmp_path / "basin.csv.classes").read_text())
    assert side[0] == ["order_class", "order"]
    assert side[1] == ["1", "112112112311211213"]
    assert "1 cells: 1 recurrent, 1 order classes, 0 capped" in err


def test_basin_stdout_lists_classes(capsys):
    code, out, err = run_cli(
        capsys, "basin", "--chain", DEMO, "--bounds", "0", "0", "--step", "1"
    )
    assert code == 0
    assert "class 1: 112112112311211213" in err


def test_basin_writes_capped_cells(capsys):
    # cap 20 stops most orbits of the 1/2 grid: their cells keep h1 and h2
    # and leave the other fields empty
    code, out, err = run_cli(
        capsys, "basin", "--chain", DEMO, "--step", "1/2", "--cap", "20"
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1 + 49
    assert rows[1] == ["-3/2", "-3/2", "", "", "", ""]
    assert rows[9] == ["-1", "-1", "0", "18", "1", "2"]
    assert sum(row[2:] == [""] * 4 for row in rows[1:]) == 34
    assert "49 cells: 2 recurrent, 4 order classes, 34 capped" in err


def test_cover_subcommand(capsys):
    code, out, err = run_cli(
        capsys, "cover", "--chain", REFLECT, "--h0=1,-1,0"
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["steps", "member"]
    assert rows[1] == ["3", "1"]
    assert "lies in the" in err


def test_conjectures_subcommand(capsys):
    # negative bounds are spelled as decimals (exact: -0.5 is -1/2)
    code, out, err = run_cli(
        capsys,
        "conjectures", "--chain", DEMO, "--samples", "10",
        "--bounds", "-0.5", "0.5", "--step", "1/2",
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["conjecture", "checked", "violations", "skipped"]
    assert rows[1][0] == "period-uniformity"
    assert rows[2][0] == "recurrent-tiling"
    assert rows[1][2] == "0"
    assert rows[2][2] == "0"
    assert "period-uniformity: 10 checked, 0 violations, 0 skipped" in err


def test_conjectures_note_a_skipped_tiling_scan(tmp_path, capsys):
    ring = tmp_path / "lazy_ring4.json"
    half = [["1/2", "1/2", "0", "0"], ["0", "1/2", "1/2", "0"],
            ["0", "0", "1/2", "1/2"], ["1/2", "0", "0", "1/2"]]
    ring.write_text(json.dumps({"mode": "rational", "P": half}))
    code, out, err = run_cli(capsys, "conjectures", "--chain", str(ring), "--samples", "5")
    assert code == 0
    assert err.endswith("  skipped: the tiling scan is defined for 3-state chains\n")


def test_conjectures_bounds_that_fit_some_denominators(capsys):
    # [1/2, 1/2] holds a multiple of 1/den for even den only
    code, out, err = run_cli(
        capsys, "conjectures", "--chain", DEMO, "--samples", "3",
        "--bounds", "0.5", "0.5",
    )
    assert code == 0
    assert "period-uniformity: 3 checked, 0 violations, 0 skipped" in err


def test_conjectures_bounds_that_fit_no_denominator(capsys):
    code, out, err = run_cli(
        capsys, "conjectures", "--chain", DEMO, "--samples", "1",
        "--bounds", "0.51", "0.52",
    )
    assert code == 2
    assert out == ""
    error = "error: bounds [51/100, 13/25] hold no k/den with den <= 20"
    assert err.splitlines() == [error]


ZERO_DENOMINATOR = "error: zero denominator in '1/0'"
BAD_GRID = "error: need step > 0 and bounds (lo, hi) with lo <= hi"


@pytest.mark.parametrize("argv, error", [
    (("simulate", "--chain", REFLECT, "--h0", "1/0,0,0"), ZERO_DENOMINATOR),
    (("stationary", "--chain", REFLECT, "--h0", "0,1/0,0"), ZERO_DENOMINATOR),
    (("cycle", "--chain", DEMO, "--h0=1/0,0,0"), ZERO_DENOMINATOR),
    (("basin", "--chain", DEMO, "--step", "1/0"), ZERO_DENOMINATOR),
    (("basin", "--chain", DEMO, "--bounds", "-1", "1/0"), ZERO_DENOMINATOR),
    (("conjectures", "--chain", DEMO, "--step", "1/0"), ZERO_DENOMINATOR),
    (("compare2", "--q", "1/0"), ZERO_DENOMINATOR),
    # a step that does not advance would never end the tiling grid
    (("conjectures", "--chain", DEMO, "--samples", "2", "--step", "0"), BAD_GRID),
    (("conjectures", "--chain", DEMO, "--samples", "2", "--step=-1/20"), BAD_GRID),
    (("return-time", "--chain", REFLECT, "--from", "9"), "error: state index 9 out of range 1..3"),
    # no --target, and no absorbing state to default to
    (("hitting", "--chain", REFLECT, "--from", "v1"), "error: chain has no absorbing states"),
])
def test_malformed_numbers_are_usage_errors(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [error]


# ---------------------------------------------------------------------------
# baseline subcommands


def test_engel_subcommand(capsys):
    code, out, err = run_cli(
        capsys, "engel", "--chain", REFLECT, "--chips", "1,2,1"
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["state", "cycle_count"]
    assert rows[1:] == [["v1", "1"], ["v2", "1"], ["v3", "1"]]
    assert "period 3" in err


def test_engel_stabilized_is_success(capsys):
    code, out, err = run_cli(
        capsys, "engel", "--chain", REFLECT, "--chips", "0,0,0"
    )
    assert code == 0
    assert rows_of(out) == [["state", "cycle_count"]]
    assert "stabilized after 0 firings" in err


def test_rotor_subcommand(capsys):
    code, out, err = run_cli(
        capsys,
        "rotor", "--chain", REFLECT, "--start", "v1", "--rotors", "1,1,1",
        "--N", "6",
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["step", "state"]
    assert [r[1] for r in rows[1:]] == ["v1", "v2", "v3", "v3", "v2", "v1", "v1"]
    assert "visits: v1:3, v2:2, v3:2" in err


def test_conjectures_cap_below_zero_period(capsys):
    code, out, err = run_cli(
        capsys, "conjectures", "--chain", DEMO, "--samples", "20", "--cap", "10"
    )
    assert code == 3
    assert out == ""
    assert "error: step cap 10 exceeded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("chip-add", "--chain", WALK5, "--at", "v3"),
        ("cycle", "--chain", DEMO),
        ("basin", "--chain", DEMO),
        ("cover", "--chain", DEMO),
        ("conjectures", "--chain", DEMO, "--samples", "2"),
        ("engel", "--chain", DEMO, "--chips", "5,3,7"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_cap_is_a_usage_error(capsys, argv):
    # not "step cap -1 exceeded" (exit 3), nor a basin of capped cells
    code, out, err = run_cli(capsys, *argv, "--cap", "-1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: cap must be >= 0"]


def test_only_stationary_reads_sup_Nd(capsys, monkeypatch):
    # the scalar sweeps' CSV and summary never read sup_Nd, so they do not
    # pay for its exact maximum
    calls = []
    largest = estimators._largest
    monkeypatch.setattr(estimators, "_largest", lambda col: calls.append(col) or largest(col))
    commands = {
        "stationary": ("--chain", REFLECT, "--N", "3000"),
        "hitting": ("--chain", SINKS, "--from", "v2", "--N", "3000"),
        "absorb": ("--chain", WALK5, "--from", "v3", "--N", "3000"),
        "escape": ("--chain", REFLECT, "--from", "v1", "--target", "v3", "--N", "3000"),
        "return-time": ("--chain", REFLECT, "--from", "v2", "--N", "3000"),
    }
    counts = {}
    for name, argv in commands.items():
        calls.clear()
        code, _, err = run_cli(capsys, name, *argv)
        assert code == 0
        counts[name] = len(calls)
        if name == "stationary":
            assert "sup of N times L1 deviation over N <= 3000: 4/3" in err
    assert counts == {
        "stationary": 1, "hitting": 0, "absorb": 0, "escape": 0, "return-time": 0,
    }


def test_compare2_subcommand(capsys):
    code, out, err = run_cli(capsys, "compare2", "--q", "1/10", "--N", "50")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["N", "hunger_dev", "rotor_dev"]
    assert len(rows) == 51
    assert rows[1] == ["1", "1/2", "1/2"]
    assert rows[2] == ["2", "0", "1/2"]
    assert "hunger 1/6, rotor 1/2" in err


def test_compare2_with_slot_counts_past_int64(capsys):
    # d = 2^70: each rotor's runs are cut to N + 1 slots
    q = f"1/{2**70}"
    code, out, err = run_cli(capsys, "compare2", "--q", q, "--N", "10")
    assert code == 0
    assert len(rows_of(out)) == 11


def test_compare2_rejects_bad_q(capsys):
    code, _, err = run_cli(capsys, "compare2", "--q", "2", "--N", "10")
    assert code == 2


# ---------------------------------------------------------------------------
# mode override and hunger parsing


def test_mode_override_runs_float(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--chain", REFLECT, "--mode", "float", "--steps", "3",
    )
    assert code == 0
    rows = rows_of(out)
    # float formatting, not fractions
    assert rows[1] == ["0", "", "0.0", "0.0", "0.0"]
    assert rows[2][2] == "-0.5"


def test_mode_override_rejects_float_to_rational(tmp_path, capsys):
    doc = {"mode": "float", "P": [[0.5, 0.5], [0.5, 0.5]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "simulate", "--chain", str(path), "--mode", "rational"
    )
    assert code == 2


def test_mode_override_rejects_a_row_that_rounds_to_absorbing(tmp_path, capsys):
    # [1 - 10^-20, 10^-20] as floats is [1.0, 1e-20]
    rows = [[f"{10**20 - 1}/{10**20}", f"1/{10**20}"], ["1/2", "1/2"]]
    doc = {"mode": "rational", "P": rows}
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", "--chain", str(path))[0] == 0
    code, out, err = run_cli(
        capsys, "simulate", "--chain", str(path), "--mode", "float", "--steps", "3"
    )
    assert (code, out) == (2, "")
    assert "row 1: a diagonal entry of 1 beside other positive ones" in err
    # off the diagonal, [10^-20, 1 - 10^-20] rounds to [1e-20, 1.0] and the
    # state still moves: it runs
    doc["P"][0].reverse()
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "simulate", "--chain", str(path), "--mode", "float", "--steps", "3"
    )
    assert (code, err) == (0, "fired 3 steps; v = (v1:1, v2:2)\nfinal hunger: 0.0,0.0\n")


def test_non_finite_input_exit_code(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"mode": "float", "P": [[NaN, 1.0], [0.5, 0.5]]}')
    code, _, err = run_cli(capsys, "simulate", "--chain", str(path))
    assert code == 2
    assert "non-finite" in err
    code, _, err = run_cli(
        capsys, "simulate", "--chain", REFLECT, "--mode", "float", "--h0=nan,0,0"
    )
    assert code == 2
    assert "finite" in err


def test_unknown_document_key_exit_code(tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(
        '{"mode": "rational", "P": [["1/2", "1/2"], ["1/2", "1/2"]],'
        ' "labels": ["a", "b"]}'
    )
    code, out, err = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 2
    assert out == ""
    assert "unknown keys ['labels']" in err


def test_duplicate_document_key_exit_code(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(
        '{"mode": "rational", "P": [["1"]], "P": [["1/2", "1/2"], ["1/2", "1/2"]]}'
    )
    code, out, err = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 2
    assert out == ""
    assert "duplicate keys ['P']" in err


def test_hunger_accepts_decimal_tokens(capsys):
    # decimal strings are exact in rational mode: 1.5 is 3/2
    code, out, err = run_cli(
        capsys, "cover", "--chain", REFLECT, "--h0=1.5,-1.5,0"
    )
    assert code == 0
    code2, out2, _ = run_cli(
        capsys, "cover", "--chain", REFLECT, "--h0=3/2,-3/2,0"
    )
    assert code2 == 0
    assert out == out2


# ---------------------------------------------------------------------------
# sweep output pinned by sha256 (CSV on stdout, summary on stderr), N = 20000

def _wide_row(*counts):
    return [f"{c}/2097143" if c else "0" for c in counts]


A65, D70 = 2**64 + 13, 2**70
# chain documents the golden tables name; chain_file writes them out
GENERATED = {
    # every row over the prime 2097143 (about 2^21): the exact hitting and
    # absorption values from v2 have 42-bit denominators, the escape value 63
    "WIDE": {"mode": "rational", "P": [
        _wide_row(0, 1000000, 1097142, 1), _wide_row(700001, 0, 1000000, 397142),
        _wide_row(3, 1048571, 0, 1048569), _wide_row(999999, 1, 1097143, 0),
    ]},
    # exact values with 65-bit denominators: p and q reach the C deviation
    # cells as 128-bit words, and every N * deviation shortlists in sup_Nd,
    # where floats cannot order the rows
    "SINKS65": {"mode": "rational", "P": [
        ["1", "0", "0"], [f"{A65 - 2}/{A65}", f"1/{A65}", f"1/{A65}"], ["0", "0", "1"],
    ]},
    "LOOP65": {"mode": "rational", "P": [[f"1/{A65}", f"{A65 - 1}/{A65}"], ["1/2", "1/2"]]},
    # a row entry of 1/2^70: d_1 = 2^70 rotor slots
    "BIG70": {"mode": "rational", "P": [[f"1/{D70}", f"{D70 - 1}/{D70}"], ["1/2", "1/2"]]},
    # pi = (2, 4097) / 4099: a period of 4099 fires, longer than find_cycle's
    # order buffer, so its order is fired a second time
    "LONG_PERIOD": {"mode": "rational", "P": [["1/2", "1/2"], ["1/4097", "4096/4097"]]},
    "C40": chain40_document(),
    # v3 never fires on the zero orbit's cycle: its count is printed as 0
    "UNFIRED": {"mode": "rational", "P": [["0", "1", "0"], ["1", "0", "0"], ["1/2", "1/2", "0"]]},
    "QUOTED": {
        "mode": "rational",
        "states": ["a,b", 'say "hi"', "end"],
        "P": [["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"], ["0", "0", "1"]],
    },
}
GENERATED["WIDE_SINKS"] = {"mode": "rational", "P": [
    ["1", "0", "0", "0"], *GENERATED["WIDE"]["P"][1:3], ["0", "0", "0", "1"],
]}
H40 = "--h0=" + ",".join(f"{x}/7" for x in START40)
H40_FLOAT = "--h0=" + ",".join(repr(x / 8) for x in START40)


def chain_file(tmp_path, chain):
    """chain itself, or the path of the GENERATED document it names,
    written into tmp_path."""
    if chain not in GENERATED:
        return chain
    path = tmp_path / f"{chain}.json"
    path.write_text(json.dumps(GENERATED[chain]))
    return str(path)


GOLDEN_SWEEPS = [
    ("stationary", REFLECT, (), "rational",
     "20c4a2502955567bf9707374b5ff7b91040a381696ed546fc43acf9d965fc607",
     "40ea11c0927dbabf0e1a1097405ea50bd341175fa28d66eaec311c6763534d75"),
    ("stationary", DEMO, (), "rational",
     "7eb342997f22b71426285a50d5a65824e96557aca124000ce58c05cdb6ca6027",
     "09ab8e2f76c5e66c52be83c4f3bdbe435b2856cee380c49bd8d21586808a1b62"),
    ("hitting", SINKS, ("--from", "v2"), "rational",
     "68947cf7eb1b7b3ae1f9979c5a5e3d29c33169695d10b8b57a99b25cca65475c",
     "8c5f8ef88ca097002f493a12c2954d8f96ec4b8f72129a04b043c97980cc6fd0"),
    ("hitting", WALK5, ("--from", "v3", "--target", "v5"), "rational",
     "503e33a226a9433eec37fdf95f84679688cd5a63d9f1038b7fea811975fe747f",
     "25759e4f87b2c21b82643b85ad9b60a252b1adb64fe732eda33ed4c16ae89f1d"),
    ("absorb", SINKS, ("--from", "v2"), "rational",
     "e2ea76dc67067178efa8c3c9f1009a2359f3398801ad9fb711e89b04783b26d7",
     "d5aad9b335a147e65afbda822752ccb4f507e82af84b1332a4baab4e67adc860"),
    ("absorb", WALK5, ("--from", "v3"), "rational",
     "27e7d7de3ccd0adcba094d84ed30c901a8fa04cd89600e048e44ae9f294eb861",
     "84683df0caf9e5a6002a0592e06f3e56a3afee8990aa7696a9f8120f4a6a5a31"),
    ("escape", REFLECT, ("--from", "v1", "--target", "v3"), "rational",
     "cc1b0033ab1ce6e58167ede55d3142257f2ca6174d353c84faef8bdfed8c003f",
     "0850fcc8b51c546bb4cdffeb80e70bd0b0328a2dc3138ed592316ea8b664b6bf"),
    ("return-time", REFLECT, ("--from", "v2"), "rational",
     "e9f08e94dac1eb1a78fcbe1272bff3fd673c0487692de54568f599ef8f0d6ab8",
     "55af7770db54edf06605b7c7471a28dbcc96b14df3dc52fd800797b35a622ae7"),
    ("stationary", REFLECT, (), "float",
     "d628f1f433a43b4a3e2d8790df2a5d82981f60d9b39c76e18cb932ddd04f0781",
     "ae786f2fbd34ad2c2b4b43df945a11cb83cb4bdcf9d04386dcd742e75f087b7b"),
    ("stationary", DEMO, (), "float",
     "91bb13a2c56200fb2526e1dc12c5ecc3be801c789f79c983ea868efeb2e1fedf",
     "02918356c4d17279254549b0cac912bbfe4ddddaa1f75f544f824e80b3461650"),
    ("hitting", SINKS, ("--from", "v2"), "float",
     "1e44e2d6157d60dcc3079db49a471e435c6559f9ccdd2ddcc9adc082bff54fe3",
     "807371908ee0558cdcf3c25cffe48cfafcf7d124e658ab7ff5f532df13dda235"),
    ("hitting", WALK5, ("--from", "v3", "--target", "v5"), "float",
     "a6f291dc2660c7f8cde6ec81a5dcc181e9e0fa4a85721f8a86e47968bfd66eb8",
     "56a79e4a2207546723b0b94bd763552202b137aac4fdd2927bd9e660aeb6ac61"),
    ("absorb", SINKS, ("--from", "v2"), "float",
     "8814d95bbb8bb397baf9fb232beaba9530b7507d1c4eef939c08044283e71879",
     "ebc3670f083420540c577a53781a1a9c7d1dabeecd32c88c28a69f40d7918d67"),
    ("absorb", WALK5, ("--from", "v3"), "float",
     "af7226599d09dd020e32a3c2718b2bcc7d3a736eb1e57bbb1bebe495d7a06c93",
     "c6025927b3ca1b10e53142a647e049ffb707fb7a0cdcc7b7c0926f31bd75a5a4"),
    ("escape", REFLECT, ("--from", "v1", "--target", "v3"), "float",
     "b871c581a8caf46d0f2010a9d76152533833c9186e29a3a38ac69cc82261335f",
     "a74be784e854d943bc8bbaf49d00673894ca043ef210f2e60b47cf3ec216744a"),
    ("return-time", REFLECT, ("--from", "v2"), "float",
     "17b04d2d66339034fa8513cee3261ce468eca106ae26a5d9448b1bd45d734db1",
     "529fc019be846e88a4a1c719960bc2bb71fe2acab9c381ee7afa027d6d46adcb"),
    # exact values with 42- and 63-bit denominators: N * deviation passes
    # int64 at N = 20000, and the deviation cells take 128-bit arithmetic
    ("hitting", "WIDE_SINKS", ("--from", "v2", "--target", "v4"), "rational",
     "bdeae093ce2dc641f0ef63fb4a3bef0b022e970a8fb07734f6df89fde5c9f0f6",
     "aa4137318f47b508385f2c9e42ca05321a6aed589f1556400f33e50d1a51157d"),
    ("absorb", "WIDE_SINKS", ("--from", "v2"), "rational",
     "99abf058a6555772adf0ba5d4efb140618577006b1b0b36e7ec6dd4c892ccb51",
     "bbda85e012e48c21578bbfae0e0b03e3ae2f5db15930dd36d448bfbfa9f2d46b"),
    ("escape", "WIDE", ("--from", "v1", "--target", "v4"), "rational",
     "6ece6ee999d89be5ad8a6d4393d8de664642285b15ce5f296542b95177fd1964",
     "3915c69c394e309d0cb8289f381517f44218e9d0012067e7ad4cf4c01b441184"),
    ("hitting", "SINKS65", ("--from", "v2", "--target", "v1"), "rational",
     "71efda17998de7a213c2e67d7048da89ff4145f577aca933d7c5546753f29cb3",
     "3e8f9575a9488170c41e701255a414558b851779575ca06433eddf85a934f9c2"),
    ("absorb", "SINKS65", ("--from", "v2"), "rational",
     "5e5aece0565f2347c1a298ea8b8b386da95c997a3850481e2af54f159882d0ad",
     "d8d68ba6147cc6b97154eea587c57152ab83a2d983c02dceeb6a40b411877245"),
    ("escape", "LOOP65", ("--from", "v1", "--target", "v2"), "rational",
     "ff7b351e7308fdeb864a7c80ce183192532ea84db48accf6e06ff67d65ac65a6",
     "bb730aa816f415c8b5747dc0b9ec86e4fdc88df82ae7a06bf535adf3f659cdf4"),
]


@pytest.mark.parametrize("sub, chain, extra, mode, out_sha, err_sha", GOLDEN_SWEEPS)
def test_sweep_output_unchanged(tmp_path, capsys, sub, chain, extra, mode, out_sha, err_sha):
    code, out, err = run_cli(
        capsys, sub, "--chain", chain_file(tmp_path, chain), "--mode", mode, *extra,
        "--N", "20000",
    )
    assert code == 0
    assert out.count("\n") == 20001
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


@pytest.mark.parametrize("argv", [
    ("stationary", "--chain", REFLECT),
    ("hitting", "--chain", SINKS, "--from", "v2", "--target", "v1"),
    ("absorb", "--chain", SINKS, "--from", "v2"),
    ("escape", "--chain", REFLECT, "--from", "v1", "--target", "v3"),
    ("return-time", "--chain", REFLECT, "--from", "v1"),
])
def test_sweeps_reject_zero_N(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--N", "0")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: N_max must be >= 1"]


def test_stationary_with_lcd_above_int64(tmp_path, capsys):
    a, b = 2**60 + 1, 2**60 + 3
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"mode": "rational", "P": [
        ["0", f"{a - 1}/{a}", f"1/{a}"], ["0", "0", "1"],
        [f"{b - 1}/{b}", f"1/{b}", "0"],
    ]}))
    code, out, err = run_cli(capsys, "stationary", "--chain", str(path), "--N", "40")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 41
    assert rows[1][:2] == ["1", "1;0;0"]
    assert err.startswith("stationary: ")


# ---------------------------------------------------------------------------
# simulate and chip-add traces pinned by sha256 (CSV on stdout, summary on
# stderr); the step counts straddle the writer's PROFILE_CHUNK boundary

BIG_X = "4611686018427387905/1099511627776"  # (2**62 + 1) / 2**40

GOLDEN_TRACES = [
    (("simulate", REFLECT, "--steps", "3000"),
     "c1a7d8f00ad0ddc9827003ecbe8e8d937f9be57c176b99d1ebba0fb252b2dd76",
     "52d403d574b5cacb6d865019c4dd3c28fa5893975f9d50f757e28ba325dd864a"),
    (("simulate", DEMO, "--h0=3/7,-1/3,-2/21", "--steps", "3000"),
     "b4a2ee16ccff2da845c30d4c699c7f65d974086bbfe7c9595fe4d81ba3ea8568",
     "f2156cef8a5a645661c51fb1808ffacd0ba717c3e9687394738514ed0416deec"),
    (("simulate", DEMO, "--mode", "float", "--h0=0.3,-0.1,-0.2",
      "--steps", "3000"),
     "5f6d10de0efd34c877d9d2866d464fa5fcf73ab82e185e8c07c7e2d0c683f784",
     "a6cb6c9357d0b4c8bdcfa2ef41ac9295e8da7e673855022fdc846dc246230693"),
    (("simulate", REFLECT, "--mode", "float", "--steps", "3000"),
     "7f95544065297610b389627fc3ef239953b786bd39ddd610ac168e445d9d3ecc",
     "95d629c354857136f7d6ecd878081588910db21c2e945d8d34321f5575039e99"),
    (("simulate", SINKS, "--steps", "500"),
     "6b2267d5a4d5a5dd8863aa0cecedc4492bf6cfa651cb869f35a87f9b97debd97",
     "c5968496f0461f96ca7f9fc7595186828c201d99d5bc95d43cf00af362adb686"),
    (("simulate", REFLECT, f"--h0={BIG_X},-{BIG_X},0", "--steps", "1000"),
     "a4be821713510afdd6d30948a2222634ab55c442d48adbc6247c9ffc561e3f0a",
     "3f5bc5a6887d240695c3af57efd29eb40bae6845cc84654e451568b24be1456a"),
    (("simulate", REFLECT, "--steps", "0"),
     "3e238980e0604a941a697da8642f9358966804694747cad8b47084c87421d060",
     "a3ad01bcbd68458c455568d5234af9719b45b3dec325b5527590d352fde06bff"),
    (("simulate", DEMO, "--h0=3/7,-1/3,-2/21", "--steps", "16383"),
     "014edc51ccc8676d3def92f1cab591e4a0cbf2b7f29cb9c44f5c4ce6554846ef",
     "6c7ae665f8e50454c178ec1b99bd0a185874a85f28aa450590a3afe8f5e4955b"),
    (("simulate", DEMO, "--h0=3/7,-1/3,-2/21", "--steps", "16384"),
     "dc89fecd023cfbb6e941b52fc52ffba016c30743ceebccfb3179e6b6547b4140",
     "68a8fcf2eea86ae16407287987ea0059bd24e761ae410e955febfc3376e0cffb"),
    (("simulate", DEMO, "--h0=3/7,-1/3,-2/21", "--steps", "16385"),
     "8ea84b975c758fd56ccdd045096bc82901641c97cee77c4bcc6465699e5cc51d",
     "ac10d79a024d0aabf2a4b3a32169ec27ec61a08cff2a104914fc9622c11d50b1"),
    (("chip-add", WALK5, "--at", "v3"),
     "ff405d5f9a195988acff330422a57c3f102b1c4db6bdcac01f131a48a52af896",
     "246e99c8e35cf65c7a377ccf0aadb23e9fe6b2241cc9775c21e50335b2b53d32"),
    (("chip-add", WALK5, "--at", "v2", "--h0=1/3,-1/2,0,1/6,0"),
     "7c961b4fae261c66221ed360e494e67ebe891d5b0621fd9bc8564ffa1fac264c",
     "d78f836c0b4ae77c8a33035c58a3f02ebf89076411d4efd64810734b4e182cf6"),
    (("chip-add", SINKS, "--mode", "float", "--at", "v3"),
     "8ad5e726e0fca8328c70c724de850ba933b917fb2a595434716837344669cd6f",
     "45b36e3fe70104ca921d3c372efc32e961dc3e3812b1273e2e57b5fa79871542"),
    (("simulate", "QUOTED", "--steps", "40"),
     "0ce5b8aff8c590de7c8f69445e092f2bc1173eced61fc2cde145a6faa0a1a82b",
     "c96cb85c8628ec5d83f4f6a77fda76043e80999a714c7957f0b4f4633a5606ba"),
    (("chip-add", "QUOTED", "--at", "a,b"),
     "f5ec8e335b74926a66cb60a21561a634c4eb65c8b48ca4ad0c3c62c2af668c0a",
     "2beb0b02bf91cc0a58b3802def3e9c43d1c1a4d900098471006bd59961b6c223"),
    # 40 states, five blocks of eight: the compiled kernels fire through a
    # tournament tree of several blocks
    (("simulate", "C40", H40, "--steps", "10000"),
     "5307bd148d0638f188c33047764c105f6d8f30a930529d8609817f951df234d8",
     "de8ff209fa4a5daf2f4e8735d2fb2ab8b42a5433689662c04d3fdb3b658b0aff"),
    (("simulate", "C40", "--mode", "float", H40_FLOAT, "--steps", "10000"),
     "a1033a9cd7b22774aa5b6adaa4af760d524eeecdaa5a55522eda5289eb3c6d12",
     "c236e09a32c745dc5c551c714a67c0dbf3231e719b02cffbf0c487925738500e"),
]


@pytest.mark.parametrize("argv, out_sha, err_sha", GOLDEN_TRACES)
def test_trace_output_unchanged(tmp_path, capsys, argv, out_sha, err_sha):
    sub, chain, *extra = argv
    code, out, err = run_cli(capsys, sub, "--chain", chain_file(tmp_path, chain), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


# rotor itineraries pinned by sha256; N + 1 rows straddle PROFILE_CHUNK
GOLDEN_ROTORS = [
    ((REFLECT, "--start", "1", "--N", "3000"),
     "bd68891d1af4bceb023f98dd4e624b72e68aa9896376b23dd71efd3912042ce3",
     "dbf5013d9e1645a4ad833cc3ac6dbf584507229a8842c3708920520ff9a67a93"),
    ((REFLECT, "--start", "2", "--rotors", "1,0,1", "--N", "16383"),
     "768534dcf4e899cb7d452ff6fdeb656157ae7a1b047384532fa741645780709c",
     "c587e0a864804c72af015150ae5461e6585771ad8affa7612667f7fb4e99212d"),
    ((REFLECT, "--start", "1", "--N", "16384"),
     "73933b566b5cefb3b6410f05d26dc50bd234c0fe25af7640f1148176a941adaf",
     "73ec6b65172a988e5add3aae2cd1e8ec3bd2aba99cc4dd4098792c41d3bc929f"),
    ((REFLECT, "--start", "3", "--N", "0"),
     "ec4d76ad46ba43ef1a0031c4dfb8c306efd385953638c5a951009fec161519d6",
     "229de0f7567d516f95085ecf1cd61f54c925b3e22a7ef9a53bd52ab37455c587"),
    (("QUOTED", "--start", "a,b", "--N", "40"),
     "7acc7c74858e8dd76ab645924aae7cf1d511c119f0c523630623c075f9893373",
     "c8e87e5e5d9af1cbcc000ceb0e4f67213d479fbcfb3bfb0d47b5e7509b4be5ea"),
    ((DEMO, "--start", "v2", "--rotors", "3,1,4", "--N", "40000"),
     "f37c974b9c9824c729c08b304b2f8b999f9b217a36a615ef162ce69421159c7c",
     "6c2d4d3c7859eab011526904c50e107eff64ad4c51b43e5b8c9311415bc53478"),
    # the rotor of v1 in the last of its 2^70 - 1 slots to v2
    (("BIG70", "--start", "v1", "--rotors", f"{D70 - 1},1", "--N", "40000"),
     "e6bbb21bf7b23ebe6a8d74aec15cd0a23bc80c67e391dbe257362c3edef44e5a",
     "38edad961c20352135c29a4ce922177c724b77a770068d6495ae19d0cc8369c9"),
]


@pytest.mark.parametrize("argv, out_sha, err_sha", GOLDEN_ROTORS)
def test_rotor_output_unchanged(tmp_path, capsys, argv, out_sha, err_sha):
    chain, *extra = argv
    code, out, err = run_cli(capsys, "rotor", "--chain", chain_file(tmp_path, chain), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


# validate, the orbit commands and the baselines pinned by sha256 (stdout,
# then the --output file and its .classes sidecar where there is one; stderr)
GOLDEN_COMMANDS = [
    (("validate", "--chain", REFLECT),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "f0e426bd17653dd0f0ff6be8be424aa3e840edd14e5f99a828a105dba6e0b32e"),
    (("validate", "--chain", DEMO),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "f0e426bd17653dd0f0ff6be8be424aa3e840edd14e5f99a828a105dba6e0b32e"),
    (("validate", "--chain", WALK5),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "a188ed3e04f078cbad5c0eb6593504b6ec146e08951b6f8189b4fa0f7a9e57ca"),
    (("validate", "--chain", SINKS),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ce50901ef84d4b0b87a73c7aa1437bc3301a8f7ef57699a47a18041f28a603ad"),
    (("validate", "--chain", DEMO, "--mode", "float"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0f10071da1c9cee8184b6356fd8b54bdd0088a2078e396a0b2c86d4e0fdf0088"),
    (("cycle", "--chain", DEMO),
     "5e8b5822bf10830da38066aa8685a622431d3a8b3cce267560a858a6c4ba97a4",
     "ca22c3788b4605d2abae706976ed34c87f052afea0cee5799be1a34a867603f3"),
    (("cycle", "--chain", DEMO, "--h0=3/7,-1/3,-2/21"),
     "9f77045c739fb6f5287a96c78104cb26601a8ca17470165a289cf2edd8b9644b",
     "cbbd1443960d280bbaeaa807b2670ce960fad400f78c774be9c75c655be09edb"),
    (("cycle", "--chain", REFLECT, "--h0=1,-1,0"),
     "973a99ff6b844cc3bdcb88dbd2462b098a8c1c505833bf71a27d81d275fe5b3e",
     "d4c0a248d54785c02c098ed3867c32221703f61510ded3aee590354d7d8e0afc"),
    (("cycle", "--chain", DEMO, "--h0=1/1099511627791,1/2199023255543,"
      "-3298534883334/2417851639252348093595513"),
     "5e8b5822bf10830da38066aa8685a622431d3a8b3cce267560a858a6c4ba97a4",
     "a53052164a37357d9f881761afb948b19517bcbb462811b1c1a43c4509e801a8"),
    (("basin", "--chain", DEMO, "--output", "basin.csv"),
     "0c310d398052bdb7747dfc3735d8f8ddeefae45a523f69792f20fc3efe5992f3",
     "2239a504c9dba8e2a078b6e2a44eace2cc58b5e4278da3f01fe61032ceb614f1"),
    (("basin", "--chain", REFLECT, "--step", "1/4"),
     "79d98f8a380723f54e5ec1c3fbd8c84518c9683a117f129a9ae38e75b0e2a067",
     "cb476ca5ac0c0b4c20f4124c00a1f15da2dfa2a7183519748b568af1d40e1483"),
    (("cover", "--chain", REFLECT, "--h0=1,-1,0"),
     "1a1b76b3289e528e4ebb1b5376d91a09aca401df3deacc36901a94810a0e4c36",
     "de144e1f143b4357ce6d72030f52ec8008a173dbe03180c44466f46ed7b8d11b"),
    (("cover", "--chain", DEMO, "--h0=1/3,1/5,-8/15"),
     "f462c98665d38cdb11a0b2ec872a40434fb793ea6aaa149b9c659b4e50ea1be7",
     "6ed22c384630cdce6ac8398e5d3c5edd156ec35ce44b78ce3ee6a8fbad3a5678"),
    (("conjectures", "--chain", REFLECT, "--samples", "20"),
     "cc17076104dc7c12627cd8a66c92e711a41f987da245d4ce709f8837dc88d0fa",
     "0bf59682b2b208fedc018effff9318da317ac04db761e8e9630c7d558ea61636"),
    (("conjectures", "--chain", DEMO, "--samples", "20"),
     "98552a54f30bb50907df9e2c276230b777cb6b62a563d1fdbe7e12aff3cf1992",
     "61d091c6adee2923e40a70e6c1b9a5e3349f70105bd3dd95f9b6031c3abd9ca6"),
    (("engel", "--chain", REFLECT, "--chips", "1,2,1"),
     "0aa20f9ccecc0a2c2c083e325e1e4f094605fadc8fb1798f730d7a823a37fa83",
     "c57d9ccb0d59a45df4b80a1876d8bf604de1d577310307e0581f9bdffcdd784a"),
    (("engel", "--chain", DEMO, "--chips", "5,3,7"),
     "fee87a9bc7b632fcc83c39196c95e26647f4d40a7df45c89c60e9cde2f1b046d",
     "b383134b53f327b27807601226dd93988a29e7f59047d5acaf99ae633b8f3f0b"),
    (("engel", "--chain", REFLECT, "--chips", "4,4,4", "--thresholds", "2,4,2"),
     "16b3233cfc2066ca2603fd96580f4a5da0b05d5badb1c8ebe111fa1176d44243",
     "49ba9f4b3a8a0f650e05599d5dd6752c15049e6191aa362b3987bf743147da9e"),
    (("engel", "--chain", WALK5, "--chips", "0,5,5,5,0"),
     "b1842c6daef65dafeacf31db1dc97c5250829e2dc75cb580c5680f0fc0db7987",
     "be2e0f9dc74fe40bd00ffb30ccc5c8b1e9c3084b6b47218c8de01c90c3553c7e"),
    (("engel", "--chain", SINKS, "--chips", "1,2,2,0,2"),
     "b1842c6daef65dafeacf31db1dc97c5250829e2dc75cb580c5680f0fc0db7987",
     "ee58ffc3498e4385c713070393599ea9c880457165648a522048da63e2666efa"),
    (("compare2",),
     "eae07ebea125029aaca088d9a312f3f15c7b0bc750e82d6072100583c33f1c85",
     "7ace6f9702f252620b002651f683043d46d1d413038c1757ca643b076327d6da"),
    (("compare2", "--q", "1/3", "--N", "500"),
     "66eb3953037d28f0613e15fd48c6caee755f0f5e23414fda12f70d1ebc57fe75",
     "4c8edf1bd69870cea17951989b8854e8ad6c9b3b4425a302ffbe5416fe9d466d"),
    # the 1/20 grid of the benchmark's basin run, and the default scans
    (("basin", "--chain", DEMO, "--bounds", "-1.5", "1.5", "--step", "1/20"),
     "09a6cfabe71f920ad476460e6c2e23661737360e0f939c3574c078cf0c98aec8",
     "b57b4a2014233594ae6d748275ca604960c583b418b6325d45a69424fdd3e397"),
    (("conjectures", "--chain", DEMO),
     "11d9bc489afb8b99bac2da926d8fdf029c61695af19c089ca807ce6edc6dd588",
     "98c407cc0d4d34e8992237c39590c408f7e5defc94a3aea9eab5272ef7942379"),
    (("cycle", "--chain", "LONG_PERIOD", "--h0=7/3,-7/3"),
     "239d4d9465b7ed0f97a2af469fe53268036202008b018152c341bc52d7a09872",
     "4931c2266a3ce38b61e66ac7c02e008039404dbbc9c682f809629c461b2095b9"),
    (("cycle", "--chain", "C40", H40),
     "9fb914aa5e77ee6ebc54ee3aca6951612954c8156c2b2e1139863d2459442b6a",
     "e1b37760544f9840a9e8b9688be4c005d6689f482b1b0df88534d4f253368e36"),
    # an orbit entering its 18-step cycle after 6243 fires, run far past
    # it: the compiled walk copies most of the 200000 fires
    (("simulate", "--chain", DEMO, "--steps", "200000", "--h0=500,250,-750"),
     "5522246d95cb07c4d5af5419640d531c142f42b586cd4b5b1340a2ea58addf2d",
     "d72fc4e07112dbed72863612e27cb8ce8b11caf013b716ab501d62e7004821d8"),
    (("cycle", "--chain", "UNFIRED"),
     "1ba74561c631c329080d4439878ac674424f76d8a9222034af69f1f2db471738",
     "87c8bc3ce0ef64a6d4832ffada4ce7db54e6af375bfc0e32ba0096224714cc57"),
]


@pytest.mark.parametrize("argv, out_sha, err_sha", GOLDEN_COMMANDS)
def test_command_output_unchanged(tmp_path, capsys, monkeypatch, argv, out_sha, err_sha):
    monkeypatch.chdir(tmp_path)  # a relative --output keeps stderr fixed
    code, out, err = run_cli(capsys, *(chain_file(tmp_path, a) for a in argv))
    assert code == 0
    if "--output" in argv:
        path = tmp_path / argv[argv.index("--output") + 1]
        out += path.read_text() + Path(f"{path}.classes").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha


def test_main_builds_its_parser_once():
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["validate", "--chain", REFLECT]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_trace_blocks_hold_fewer_rows_on_large_chains(tmp_path, capsys, monkeypatch):
    # a 100-state ring: blocks of PROFILE_CHUNK * 64 // 100 rows, and the
    # bytes one block of PROFILE_CHUNK rows gives
    n = 100
    P = [["0"] * n for _ in range(n)]
    for i in range(n):
        P[i][(i + 1) % n], P[i][(i - 1) % n] = "1/3", "2/3"
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"mode": "rational", "P": P}))
    argv = ("simulate", "--chain", str(path), "--steps", "12000")
    blocks = cli._hunger_blocks
    chunks = []

    def recorded(chain, h, fired, chunk):
        chunks.append(chunk)
        return blocks(chain, h, fired, chunk)

    monkeypatch.setattr(cli, "_hunger_blocks", recorded)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.count("\n") == 12002
    assert chunks == [cli.PROFILE_CHUNK * 64 // n] and chunks[0] < 12001
    monkeypatch.setattr(
        cli, "_hunger_blocks",
        lambda chain, h, fired, chunk: blocks(chain, h, fired, cli.PROFILE_CHUNK),
    )
    assert run_cli(capsys, *argv)[1] == out


@pytest.mark.parametrize("argv", [
    ("simulate", "--chain", REFLECT, "--steps", "100000"),
    ("stationary", "--chain", REFLECT, "--N", "100000"),
])
def test_closed_pipe_exits_141_quietly(argv):
    # the reader takes one line and closes the pipe, as `| head -1` does
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hungerlab.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"step,fired," if argv[0] == "simulate" else b"N,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_big_trace_start_runs_on_int64_keys():
    # S*h passes int64, so the trace rows are written from Python ints, but
    # the run itself fires on int64 keys
    chain = parse_chain(Path(REFLECT).read_text())
    x = Fraction(BIG_X)
    g, _, keys = hunger_engine._scaled(chain, (x, -x, Fraction(0)))
    assert g.dtype == np.int64
    assert keys.S * x >= 2**62
