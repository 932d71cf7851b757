"""The engine's firing calls on sparse rows against the dense oracle.

Each example runs run, chip_add, run_with_reinsertion, find_cycle and
_hunger_blocks as they are, and again with hunger_engine._scaled swapped for
oracles.dense_scaled, which hands the same calls dense n x n rows, and the
three firing kernels on _kernels swapped for oracles.DENSE_KERNELS
(np.argmax and whole-row adds). Results must agree bit for
bit: firing sequences, counts, hunger vectors (Fractions, or floats down to
the sign of zero), extrema, cycles and every trace row. Chains are random
and sparse, up to 1000 states, in both modes; starts include ties, -0.0
entries and magnitudes past 2^70, which take the Python-int path.
"""

import functools
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import _kernels, hunger_engine, recurrence
from hungerlab.chain_model import FLOAT, RATIONAL, MarkovChain, absorbing_states
from hungerlab.errors import CapExceeded
from hungerlab.hunger_engine import chip_add, run, run_with_reinsertion
from hungerlab.recurrence import find_cycle
from oracles import DENSE_KERNELS, dense_hunger_blocks, dense_scaled

CAP = 3000


@functools.lru_cache(maxsize=None)
def sparse_chain(n: int, seed: int, mode: str, sinks: int) -> MarkovChain:
    """Random chain whose rows hold 1-4 entries k/den (den <= 6), with the
    first `sinks` states of a shuffled order absorbing."""
    rng = random.Random(seed)
    absorbing = set(rng.sample(range(n), min(sinks, n - 1)))
    zero = Fraction(0)
    P = []
    for i in range(n):
        row = [zero] * n
        if i in absorbing:
            row[i] = Fraction(1)
        else:
            den = rng.randint(1, 6)
            support = rng.sample(range(n), min(n, rng.randint(1, 4)))
            for _ in range(den):
                j = rng.choice(support)
                row[j] += Fraction(1, den)
        P.append(row)
    if mode == FLOAT:
        P = [[float(x) for x in row] for row in P]
    return MarkovChain(P, mode=mode)


@st.composite
def examples(draw):
    """(chain, start, steps, schedule, chip state or None)."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 9, 17, 40, 300, 1000]))
    mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    # few seeds for the large chains, whose construction dominates
    seed = draw(st.integers(0, 2 if n >= 300 else 10**6))
    sinks = draw(st.sampled_from([0, 0, 1, 3]))
    chain = sparse_chain(n, seed, mode, sinks)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "ties", "fractions", "huge"]))
    if kind == "zero":
        h = [0] * n
    elif kind == "ties":
        h = [rng.randint(-2, 2) for _ in range(n)]
    elif kind == "fractions":
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
    else:
        h = [2**70 + Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
    if mode == FLOAT:
        h = [float(x) for x in h]
        h = [-0.0 if x == 0 and rng.random() < 0.5 else x for x in h]
    steps = draw(st.integers(0, 400))
    live = [s for s in range(n) if s not in absorbing_states(chain)]
    schedule = [rng.choice(live) for _ in range(rng.randint(1, 5))] if live else None
    chip = rng.choice(live) if live and len(live) < n else None
    return chain, tuple(h), steps, schedule, chip


def canon(x):
    """A value that compares equal exactly when x is the same bit for bit."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return ("object", x.shape, tuple(map(canon, x.tolist())))
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return ("float", float(x).hex())
    if isinstance(x, (tuple, list)):
        return tuple(map(canon, x))
    if is_dataclass(x):
        return tuple((f.name, canon(getattr(x, f.name))) for f in fields(x))
    return (type(x).__name__, x)


def outcome(call):
    try:
        return canon(call())
    except CapExceeded as exc:
        return ("CapExceeded", exc.cap)


def calls(chain, h, steps, schedule, chip):
    """Every firing call on this example, as name -> thunk."""
    out = {"run": lambda: run(chain, h, steps)}
    if schedule is not None:
        out["run_with_reinsertion"] = lambda: run_with_reinsertion(
            chain, h, schedule, steps, cap=CAP
        )
    if chip is not None:
        out["chip_add"] = lambda: chip_add(chain, h, chip, cap=CAP)
    if chain.mode == RATIONAL and not absorbing_states(chain):
        out["find_cycle"] = lambda: find_cycle(chain, h, cap=CAP)
    return out


@settings(max_examples=40, deadline=None, database=None)
@given(examples())
def test_sparse_firing_matches_dense_oracle(example):
    chain, h, steps, schedule, chip = example
    sparse = {name: outcome(call) for name, call in calls(*example).items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hunger_engine, "_scaled", dense_scaled)
        mp.setattr(recurrence, "_scaled", dense_scaled)
        for name in ("greedy_run", "brent_cycle"):
            mp.setattr(_kernels, name, getattr(DENSE_KERNELS, name))
        dense = {name: outcome(call) for name, call in calls(*example).items()}
    assert sparse == dense

    fired = run(chain, h, steps).fired
    for chunk in (7, 1 << 14):
        mine = list(hunger_engine._hunger_blocks(chain, h, fired, chunk))
        theirs = list(dense_hunger_blocks(chain, h, fired, chunk))
        assert canon(mine) == canon(theirs)
