"""Chip-firing baselines to compare the greedy hunger game against: the
Engel probabilistic-abacus machine and the rotor-router walk.

Both need integer chip moves, so they run on rational chains only; each
state i carries a threshold d_i that clears its row's denominators.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .chain_model import (
    RATIONAL,
    MarkovChain,
    _as_index,
    _check_state,
    _chip_moves,
    _count,
    absorbing_states,
)
from .errors import CapExceeded, FloatModeUnsupported, Stabilized
from .estimators import DiscrepancyProfile, _largest, _scalar
from .hunger_engine import DEFAULT_CAP, run


@dataclass
class ChipConfig:
    """Chip counts c with per-state firing thresholds d.

    Every d_i * P_ij must be a whole number of chips; by default d_i is
    the least common denominator of row i.
    """

    c: Tuple[int, ...]
    d: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        chain: MarkovChain,
        c: Sequence[int],
        d: Optional[Sequence[int]] = None,
    ) -> "ChipConfig":
        if chain.mode != RATIONAL:
            raise FloatModeUnsupported("chip configurations need exact rows")
        c = tuple(_as_index(x, "chip count") for x in c)
        if len(c) != chain.n:
            raise ValueError(f"expected {chain.n} chip counts")
        if any(x < 0 for x in c):
            raise ValueError("chip counts must be nonnegative")
        if d is None:  # each row's lcd, kept on the chain, clears its row
            return cls(c, chain._chip_firing[0])
        d = tuple(_as_index(x, "threshold") for x in d)
        if len(d) != chain.n:
            raise ValueError(f"expected {chain.n} thresholds")
        for i, row in enumerate(chain.rows()):
            if d[i] < 1:
                raise ValueError("thresholds must be positive")
            for _, p in row:
                if (d[i] * p).denominator != 1:
                    raise ValueError(
                        f"threshold d_{i + 1}={d[i]} does not clear row {i + 1}"
                    )
        return cls(c, d)


@dataclass
class EngelRecord:
    """Outcome of an Engel run that entered a cycle.

    cycle_counts is the per-state firing tally over one full cycle;
    counts is the tally over the whole walk and final the chip
    configuration at detection time. Each firing at i moves d_i chips,
    so the stationary vector the cycle certifies is cycle_counts scaled
    entrywise by the thresholds (equal to plain cycle_counts whenever
    the thresholds are uniform).
    """

    entry_steps: int
    period: int
    cycle_counts: Tuple[int, ...]
    counts: Tuple[int, ...]
    final: Tuple[int, ...]
    repeated: bool


def engel_run(
    chain: MarkovChain,
    c0: Sequence[int],
    d: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_CAP,
) -> EngelRecord:
    """Run the Engel machine until its configuration repeats.

    The lowest-indexed state holding at least its threshold fires,
    shipping d_i * P_ij chips to each j. Absorbing states never fire;
    they only collect. Raises Stabilized(steps) when no state can fire,
    CapExceeded when the configuration keeps changing past cap firings.
    c0 and cap are checked on every call. The default thresholds and
    their integer moves are built once per chain (MarkovChain._chip_firing);
    a given d is checked and its moves built per call.
    """
    cfg = ChipConfig.build(chain, c0, d)
    cap = _count(cap, "cap")
    moves = chain._chip_firing[1] if d is None else _chip_moves(chain, cfg.d)
    absorbing = absorbing_states(chain)
    c = list(cfg.c)
    counts = [0] * chain.n
    seen = {tuple(c): (0, tuple(counts))}
    for step in range(1, cap + 1):
        fired = -1
        for i in range(chain.n):
            if i not in absorbing and c[i] >= cfg.d[i]:
                fired = i
                break
        if fired < 0:
            raise Stabilized(step - 1)
        for j, chips in moves[fired]:
            c[j] += chips
        counts[fired] += 1
        key = tuple(c)
        if key in seen:
            entry, then = seen[key]
            cycle = tuple(a - b for a, b in zip(counts, then))
            return EngelRecord(
                entry, step - entry, cycle, tuple(counts), key, True
            )
        seen[key] = (step, tuple(counts))
    raise CapExceeded(cap)


@dataclass
class RotorTrace:
    """Deterministic rotor walk record: the itinerary (start plus N
    arrivals), per-state visit counts, final rotor positions, and the
    per-state out-degree d."""

    itinerary: np.ndarray
    visits: np.ndarray
    rotors: Tuple[int, ...]
    d: Tuple[int, ...]


def rotor_run(
    chain: MarkovChain,
    start: int,
    rotor_init: Optional[Sequence[int]] = None,
    N: int = 0,
) -> RotorTrace:
    """Walk N steps of the rotor-router derandomization of the chain.

    State i owns d_i outgoing edge slots: d_i * P_ij consecutive slots
    point at j, targets in ascending order. Each departure uses the
    current rotor slot and advances it cyclically. The slots are runs read
    off the Engel machine's cached moves, and _kernels.rotor_walk walks
    them. Each run's count, and the slots left in the rotor's run, are cut
    at N + 1: the walk leaves a state at most N times, so it never reaches
    the end of a cut run. The walk holds O(nnz + N) int64 entries whatever
    the d_i, past 2^63 too.
    """
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("rotor walks need exact rows")
    _check_state(chain, start)
    N = _count(N, "N")
    d, moves = chain._chip_firing
    rotors = [0] * chain.n if rotor_init is None else list(rotor_init)
    rotors = [_as_index(r, "rotor position") for r in rotors]
    if len(rotors) != chain.n or any(not 0 <= r < di for r, di in zip(rotors, d)):
        raise ValueError("rotor_init must give a slot in [0, d_i) per state")
    run_ptr, targets, counts, at, left = [0], [], [], [], []
    for i, (di, row, r) in enumerate(zip(d, moves, rotors)):
        # a fire at i moves d_i * H_ij = d_i * P_ij - d_i [j == i] chips to j
        for j, c in row:
            c += di * (j == i)
            if c == 0:
                continue
            if 0 <= r < c:  # the rotor's run; r < 0 past it
                at.append(len(targets))
                left.append(min(c - r, N + 1))
            r -= c
            targets.append(j)
            counts.append(min(c, N + 1))
        run_ptr.append(len(targets))
    itinerary = np.empty(N + 1, dtype=np.int64)
    itinerary[0] = start
    runs = (np.array(a, dtype=np.int64) for a in (run_ptr, targets, counts, at, left))
    _kernels.rotor_walk(itinerary, *runs)
    visits = np.bincount(itinerary, minlength=chain.n)
    departures = np.bincount(itinerary[:-1], minlength=chain.n).tolist()
    rotors = tuple((r + k) % di for r, k, di in zip(rotors, departures, d))
    return RotorTrace(itinerary, visits, rotors, d)


@dataclass
class TwoStateComparison:
    """Greedy game vs rotor walk on the symmetric two-state chain.

    hunger and rotor are each walk's DiscrepancyProfile of state 1's visit
    frequency against 1/2 at every N in 1..N; the maxima are taken over
    N >= 2 (both are trivially off by 1/2 at N = 1).
    """

    q: Fraction
    hunger_max: Fraction
    rotor_max: Fraction
    hunger: DiscrepancyProfile
    rotor: DiscrepancyProfile


def compare_two_state(q, N: int) -> TwoStateComparison:
    """Compare frequency convergence of the two methods on the chain that
    crosses between two states with probability q.

    The greedy game runs from zero hunger; the rotor walk starts at the
    first state with rotors (0, 1), which lets it dwell for a full block
    of 1/q visits before first crossing.
    """
    q = Fraction(q)
    N = _as_index(N, "N")
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if N < 2:
        raise ValueError("need N >= 2 for a meaningful comparison")
    chain = MarkovChain([[1 - q, q], [q, 1 - q]])
    # 0 < q < 1 forces d >= 2 per state, so slot 1 always exists
    walks = (run(chain, None, N).fired, rotor_run(chain, 0, (0, 1), N).itinerary[1:])
    Ns = np.arange(1, N + 1, dtype=np.int64)
    hunger, rotor = (
        _scalar(Ns, np.cumsum(walk == 0), Ns, Fraction(1, 2), True) for walk in walks
    )
    hmax, rmax = (_largest(p.dev.take(slice(1, None))) for p in (hunger, rotor))
    return TwoStateComparison(q, hmax, rmax, hunger, rotor)
