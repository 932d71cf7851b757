import sys
from pathlib import Path

import pytest

from hungerlab import (
    chip_add, find_cycle, parse_chain, rotor_run, run, run_with_reinsertion,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

CHAINS = Path(__file__).resolve().parent.parent / "chains"


def load_chain(name):
    return parse_chain((CHAINS / name).read_text())


@pytest.fixture(scope="session")
def reflecting3():
    return load_chain("reflecting3.json")


@pytest.fixture(scope="session")
def absorbing_walk5():
    return load_chain("absorbing_walk5.json")


@pytest.fixture(scope="session")
def two_sinks5():
    return load_chain("two_sinks5.json")


@pytest.fixture(scope="session")
def basin_demo3():
    return load_chain("basin_demo3.json")


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Call every kernel once, on both dtypes, before any test runs.

    The C kernels are built when hungerlab is imported, not here; this
    pays each kernel's first-call costs up front, so tests with runtime
    budgets measure the algorithms, and a kernel broken on the live
    backend fails before the long tests start."""
    rational = load_chain("reflecting3.json")
    absorbing = load_chain("two_sinks5.json")
    run(rational, None, 4)
    find_cycle(rational)
    rotor_run(rational, 0, None, 4)
    chip_add(absorbing, None, 1)
    run_with_reinsertion(absorbing, None, [1], 4)
    as_float = parse_chain(
        '{"mode": "float", "P": [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]}'
    )
    run(as_float, None, 4)
    absorbing_float = parse_chain(
        '{"mode": "float", "P": [[0.5, 0.5], [0.0, 1.0]]}'
    )
    chip_add(absorbing_float, None, 0)
    run_with_reinsertion(absorbing_float, None, [0], 4)


# ---------------------------------------------------------------------------
# acceptance criteria summary (one line per criterion at the end of the run)

_TITLES = {
    1: "doubly-reflecting chain: exact trace and minimal constant",
    2: "five-state chip addition: exact panel values",
    3: "two-sink chain: reroute, hitting and absorption estimators",
    4: "three-state basin scan: four order classes",
    5: "theorem suite over random chains",
    6: "boundedness lemmas under reinsertion",
    7: "infinite-chain phenomena (goldbug, harmonic)",
    8: "chip-firing and rotor baselines",
    9: "oracle cross-validation at scale",
}

_acceptance = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_c"):
        return
    worst = _acceptance.get(name)
    if report.when == "call" or report.outcome != "passed":
        if worst != "failed":
            _acceptance[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    rows = []
    for name, outcome in _acceptance.items():
        num = int(name.split("_")[1].lstrip("c"))
        rows.append((num, outcome))
    for num, outcome in sorted(rows):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE [{num}] {_TITLES[num]}: {status}")
