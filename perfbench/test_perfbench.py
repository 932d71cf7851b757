"""Tests of the benchmark itself, on its smoke mode.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import worker  # puts the package source on sys.path
import hungerlab
import reference
import run
import workloads
from tracer import Tracer, brent_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if name.endswith(".calls"):
            assert m["value"] > 0, f"{workload} never calls {name}"


def smoke(name, tmp_path):
    return workloads.build(name, 5, tmp_path, "smoke")


def op_named(workload, label):
    return next(op for op in workload.ops if op.label == label)


def failed(op):
    notes = []
    record = worker.run_pass([op], notes)
    assert len(record["ops"]) == 1
    return not record["ops"][0][2], notes


def corrupted(op, corrupt):
    def call():
        result = op.call()
        corrupt(result)
        return result

    return replace(op, call=call)


def test_correct_outputs_pass(tmp_path):
    for name in ("firing", "sweeps", "orbits"):
        wl = smoke(name, tmp_path / name)
        notes = []
        record = worker.run_pass(wl.ops, notes)
        assert all(ok for _k, _dt, ok in record["ops"]), notes


def test_corrupted_run_fails(tmp_path):
    op = op_named(smoke("firing", tmp_path), "run n=3 rational zero")

    def shift(trace):
        trace.final_h = (trace.final_h[0] + Fraction(1, 7),) + trace.final_h[1:]

    assert failed(op) == (False, [])
    is_failed, notes = failed(corrupted(op, shift))
    assert is_failed and "final_h" in notes[0]


def test_corrupted_sweep_csv_fails(tmp_path):
    wl = smoke("sweeps", tmp_path)
    op = next(op for op in wl.ops if op.label.startswith("cli stationary mix30"))
    out = tmp_path / "sweep2.csv"

    def rewrite_last_row(rc):
        lines = out.read_text().splitlines()
        N, est, exact, dev, nd = lines[-1].split(",")
        parts = est.split(";")
        parts[0] = "2"  # no frequency exceeds 1
        lines[-1] = ",".join([N, ";".join(parts), exact, dev, nd])
        out.write_text("\n".join(lines) + "\n")

    assert failed(op) == (False, [])
    is_failed, notes = failed(corrupted(op, rewrite_last_row))
    assert is_failed and "point estimate" in notes[0]


def test_corrupted_orbit_fails(tmp_path):
    wl = smoke("orbits", tmp_path)
    op = next(op for op in wl.ops if op.label == "find_cycle circ30 start")

    def move(info):
        rep = info.representative
        info.representative = (rep[0] + 1, rep[1] - 1) + tuple(rep[2:])

    is_failed, notes = failed(corrupted(op, move))
    assert is_failed and "representative" in notes[0]


def test_exception_counts_as_one_failure():
    op = workloads.Op("boom", "boom", lambda: 1 // 0, lambda r: None, 1)
    ok_op = workloads.Op("fine", "fine", lambda: 1, lambda r: None, 1)
    notes = []
    record = worker.run_pass([op, ok_op], notes)
    assert [ok for _k, _dt, ok in record["ops"]] == [False, True]
    assert record["steps"] == 1 and "ZeroDivisionError" in notes[0]


def test_cli_usage_error_is_a_failure(tmp_path):
    op = workloads.Op("bad argv", "cli", workloads.cli_call(["cycle", "--nope"]),
                      lambda rc: workloads.require(rc == 0, f"exit code {rc}"), 0)
    assert failed(op)[0]


def test_normalised_cancels_a_slow_spell():
    ref = reference.REFERENCE_S
    calm = {"ops": [[0, 0.1, True], [1, 0.2, True], [2, 0.3, True]],
            "refs": [[0, ref], [1, ref], [2, ref], [3, ref]]}
    # Twice as slow from the second operation on, the samples around it too.
    spell = {"ops": [[0, 0.1, True], [1, 0.4, True], [2, 0.6, True]],
             "refs": [[0, ref], [1, ref], [2, 2 * ref], [3, 2 * ref]]}
    (calm_n, spell_n) = run.normalised([calm, spell])
    assert [dt for _k, dt, _ok in calm_n["ops"]] == pytest.approx([0.1, 0.2, 0.3])
    assert calm_n["wall_s"] == pytest.approx(0.6)
    # op 1 sits between samples (ref, ref) and (2 ref, 2 ref): median 1.5 ref
    assert [dt for _k, dt, _ok in spell_n["ops"]] == pytest.approx([0.1, 0.4 / 1.5, 0.3])


def test_pass_samples_the_reference():
    ops = [workloads.Op(f"op{k}", "x", lambda: 1, lambda r: None, 1) for k in range(3)]
    record = worker.run_pass(ops, [])
    at = [k for k, _s in record["refs"]]
    assert at[0] == 0 and at[-1] == 3 and at == sorted(at)
    assert all(s > 0 for _k, s in record["refs"])


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "firing", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class CountingNumpy:
    """Stands in for numpy inside the kernels and counts argmax calls."""

    def __init__(self, np):
        self._np = np
        self.argmax_calls = 0

    def argmax(self, a):
        self.argmax_calls += 1
        return self._np.argmax(a)

    def __getattr__(self, name):
        return getattr(self._np, name)


def test_brent_steps_matches_the_kernel(monkeypatch):
    if hungerlab.active_backend() != "numpy":
        pytest.skip("counts argmax calls of the interpreted kernel")
    import numpy as np
    from hungerlab import _kernels

    chain = hungerlab.parse_chain((ROOT / "chains" / "basin_demo3.json").read_text())
    counter = CountingNumpy(np)
    monkeypatch.setattr(_kernels, "np", counter)
    for h in [(0, 0, 0), (Fraction(3, 2), Fraction(-1, 20), Fraction(-29, 20)),
              (Fraction(-7, 5), Fraction(1, 2), Fraction(9, 10))]:
        h0 = np.array([int(x * 100) for x in h], dtype=np.int64)
        rows = np.array([[int((p - (i == j)) * 100) for j, p in enumerate(row)]
                         for i, row in enumerate(chain.P)], dtype=np.int64)
        counter.argmax_calls = 0
        mu, lam = _kernels.brent_cycle(h0, rows, 10**6)
        assert counter.argmax_calls == brent_steps(int(mu), int(lam))


def test_tracer_splits_time_and_restores(tmp_path):
    chain = hungerlab.parse_chain((ROOT / "chains" / "reflecting3.json").read_text())
    original = hungerlab.run
    tracer = Tracer()
    tracer.install()
    try:
        assert hungerlab.run is not original
        tracer.active = True
        hungerlab.discrepancy_profile(chain, None, 1000)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert hungerlab.run is original
    metrics = tracer.layer_metrics(1)
    assert metrics["kernels.steps"][0] == 1000
    assert metrics["hunger_engine.steps"][0] == 1000
    assert metrics["estimators.points"][0] == 1000
    assert metrics["chain_model.stationary_calls"][0] >= 1
    total = tracer.funcs["estimators.discrepancy_profile"][1]
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in
                   ("chain_model", "linalg", "hunger_engine", "kernels", "estimators"))
    assert self_sum == pytest.approx(total, rel=1e-6)
