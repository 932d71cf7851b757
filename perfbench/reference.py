"""Fixed references that measure how fast the host runs right now.

On a shared host the speed of one core swings by a factor of two for tens
of seconds at a time, and the whole of a 30-second run can fall into a slow
spell. The worker therefore times a reference loop between operations, and
run.py reports every operation time in host-normalised seconds: the
measured time scaled by REFERENCE_S over the loop's time measured around
it. On a host where the loop takes REFERENCE_S, a normalised second is a
second.

The loop uses no hungerlab code, so it does not speed up or slow down with
the package: it mixes what the workloads spend their time on, small numpy
array steps, Fraction arithmetic, number formatting and dict updates.

Set-up (spawning an interpreter and importing) slows down less in a slow
spell than the loop does (about 1.5 times where the loop takes 1.9 times
as long), as does a bare interpreter that imports numpy. So set-up times
are normalised by that interpreter's spawn-to-ready time instead:
SETUP_CODE, expected to take SETUP_REFERENCE_S.
"""

import time
from fractions import Fraction

import numpy as np

# Median time of one loop on an unloaded 2-vCPU Xeon VM, Python 3.11, numpy 2.
REFERENCE_S = 0.005
# Run by a bare interpreter, `python3 -c SETUP_CODE`; on the same VM it
# printed "ready" 0.1 s after its spawn.
SETUP_CODE = "import argparse, csv, fractions, json, numpy; print('ready', flush=True)"
SETUP_REFERENCE_S = 0.1

_ROWS = np.random.default_rng(12345).integers(-5, 6, size=(30, 30)).astype(np.int64)
np.fill_diagonal(_ROWS, -60)
_FRACTIONS = [Fraction(k, 7 + k % 13) for k in range(1, 200)]


def _loop():
    h = np.zeros(30, dtype=np.int64)
    for _ in range(1500):
        h += _ROWS[np.argmax(h)]
    s = Fraction(0)
    for f in _FRACTIONS:
        s += f * f
    lines = [f"{k},{k / 7.0!r},{k % 97}/{k + 1}" for k in range(1500)]
    counts = {}
    for k in range(3000):
        counts[k % 101] = counts.get(k % 101, 0) + k
    return len(",".join(lines)) + len(counts) + s.denominator % 2


def sample():
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
