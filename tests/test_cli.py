import csv
import io
import json
from pathlib import Path

import pytest

from hungerlab.cli import main

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


def test_compare2_subcommand(capsys):
    code, out, err = run_cli(capsys, "compare2", "--q", "1/10", "--N", "50")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["N", "hunger_dev", "rotor_dev"]
    assert len(rows) == 51
    assert rows[1] == ["1", "1/2", "1/2"]
    assert rows[2] == ["2", "0", "1/2"]
    assert "hunger 1/6, rotor 1/2" in err


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
