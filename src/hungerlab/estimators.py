"""Estimators built on firing traces: stationary distributions, hitting
probabilities, escape probabilities, absorption and return times.

Everything here is deterministic. The headline property (checked by the
test suite, not assumed) is that N times the deviation from the exact
oracle stays bounded as N grows, so a run of length N buys an O(1/N)
approximation. Oracles come from exact linear solves in rational mode.

Estimator runs always start from the zero hunger vector; the underlying
theory holds for any start, and zero is the reproducible choice.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._kernels import Deviations, Ratios
from ._linalg import _reduce
from .chain_model import (
    RATIONAL,
    MarkovChain,
    ReroutedChain,
    Scalar,
    _FLOAT_PIVOT_TOL,
    _check_state,
    _count,
    _dense,
    _reaching,
    _stationary_record,
    absorbing_states,
    is_irreducible,
    make_absorbing,
    reroute,
    split_vertex,
    stationary_distribution,
)
from .errors import UEqualsV, ZeroSteps
from .hunger_engine import FiringTrace, run


def _value(col, k):
    """Item k of a column: a Fraction, a float (float cells) or a tuple of them."""
    if isinstance(col, Deviations):
        col, k = col.take([k]).ratios(), 0
    x, den = col.num[k], col.den
    if den is None:
        return tuple(map(float, x)) if np.ndim(x) else float(x)
    d = int(den if np.ndim(den) == 0 else den[k])
    return tuple(Fraction(int(c), d) for c in x) if np.ndim(x) else Fraction(int(x), d)


class _Lazy(Sequence):
    """Read-only sequence whose item k is row(k), built on access."""

    def __init__(self, n, row):
        self._n, self._row = n, row

    def __len__(self):
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._row(i) for i in range(self._n)[k]]
        return self._row(range(self._n)[k])


def _largest(col):
    """Exact max of a column (Ratios ones hold num / den >= 0). A column over
    one denominator is settled by its largest numerator; otherwise float
    values within err of their items shortlist the rows Python ints decide
    between."""
    if col.den is None:
        return float(col.num.max())
    if np.ndim(col.den) == 0:
        return Fraction(int(col.num.max()), int(col.den))
    est = np.asarray(col.num / col.den, dtype=np.float64)
    x, s = (col.p / col.q, col.scale) if isinstance(col, Deviations) else (0.0, None)
    s = 1 if s is None else s  # s |est - x| is off by a few ulps of s (|est| + |x|)
    err = (np.abs(est).max() + abs(x)) * np.max(s) * 2.0**-47
    approx = np.multiply(np.abs(est - x, out=est), s, out=est)
    near = np.flatnonzero(approx >= approx.max() - err)
    a, b = (col.take(near).ratios() if isinstance(col, Deviations) else col.take(near))[:2]
    a, b = a.astype(object), b.astype(object)
    k = int(np.argmax(approx[near]))
    above = np.flatnonzero(a * b[k] > a[k] * b)  # rows exactly above the float pick
    k = max(above, key=lambda i: Fraction(a[i], b[i]), default=k)
    return Fraction(int(a[k]), int(b[k]))


class DiscrepancyProfile:
    """Per-N deviation record for one estimator sweep.

    entries[k] is (N, deviation, N * deviation) for the k-th N, sorted by N:
    an L1 distance (vector estimators) or absolute error (scalar ones).
    estimates[k] is the estimate at that N, sup_Nd the largest N * deviation
    and exact the oracle value. Ns holds the Ns, est, dev and nd the columns
    as _kernels.Ratios (num / den, int64 or Python ints, or float num; vector
    estimates add an axis of n to est's num; a rational stationary sweep's nd
    is D over one lcd, a plain int) or, for rational scalar ones, as
    Deviations of num / den - k from r / q, where exact = k + r / q. entries
    and estimates build Fractions (floats) only for the rows read; len() is O(1).
    sup_Nd is found on its first read, then kept.
    """

    def __init__(self, Ns, est, dev, nd, exact):
        self.Ns, self.est, self.dev, self.nd, self.exact = Ns, est, dev, nd, exact
        self.entries = _Lazy(
            len(Ns), lambda k: (int(Ns[k]), _value(dev, k), _value(nd, k))
        )
        self.estimates = _Lazy(len(Ns), lambda k: _value(est, k))

    @cached_property
    def sup_Nd(self):
        return _largest(self.nd)


@dataclass
class HittingEstimate:
    """a_N estimate of the probability of absorbing at `target`."""

    target: int
    a_N: Scalar
    N: int
    exact: Scalar
    deviation: Scalar


@dataclass
class AbsorptionEstimate:
    """b_N estimate of the expected time to absorption (or return)."""

    b_N: Scalar
    N: int
    exact: Scalar
    deviation: Scalar


def normalized_firing_vector(trace: FiringTrace) -> Tuple[Fraction, ...]:
    """v / N as exact fractions; entries sum to 1.

    Raises:
        ZeroSteps: for an empty trace.
    """
    if trace.steps == 0:
        raise ZeroSteps("cannot normalize a zero-step trace")
    return tuple(Fraction(int(c), trace.steps) for c in trace.v)


def _scalar(Ns, num, den, exact, rational) -> DiscrepancyProfile:
    """Body of the scalar estimators: num / den (0 where den is 0) against
    the exact value p / q, as |num q - p den| / (den q) in rational mode."""
    num = np.where(den > 0, num, 0)
    den = np.where(den > 0, den, 1)
    if not rational:
        est = num / den
        dev = np.abs(est - exact)
        return DiscrepancyProfile(Ns, *(Ratios(x, None) for x in (est, dev, dev * Ns)), exact)
    p, q = exact.numerator, exact.denominator  # as k + r / q: |num - k den| <= N fits int64
    k, r = divmod(p, q) if abs(p // q) * (int(Ns[-1]) + 1) < 2**62 else (0, p)
    dev = Deviations(num - k * den, den, r, q)
    return DiscrepancyProfile(Ns, Ratios(num, den), dev, dev._replace(scale=Ns), exact)


def discrepancy_profile(
    chain: MarkovChain, h0: Optional[Sequence], N_max: int
) -> DiscrepancyProfile:
    """L1 distance between v^(N)/N and the stationary distribution for
    every N in 1..N_max.

    Requires a unique stationary distribution (irreducible chain, or one
    absorbing state reachable from everywhere); the stationary solve
    raises NonUniqueStationary otherwise. Exact in rational mode.
    """
    N_max = _count(N_max, "N_max", 1)
    pi, lcd, a = _stationary_record(chain)
    fired = run(chain, h0, N_max).fired
    Ns = np.arange(1, N_max + 1, dtype=np.int64)
    counts = np.empty((chain.n, N_max), dtype=np.int64)
    for i in range(chain.n):
        np.cumsum(fired == i, out=counts[i])
    if chain.mode != RATIONAL:
        est = counts / Ns
        dist = np.abs(est - np.array(pi, dtype=np.float64)[:, None]).sum(axis=0)
        return DiscrepancyProfile(Ns, *(Ratios(x, None) for x in (est.T, dist, dist * Ns)), pi)
    # every |lcd * count - N * a_i| is at most lcd * N
    if chain.n * lcd * N_max >= 2**62:
        Ns, counts = Ns.astype(object), counts.astype(object)
    # N * dist * lcd as exact integers, vectorized over N
    D = np.abs(lcd * counts - Ns * np.array(a, dtype=counts.dtype)[:, None]).sum(axis=0)
    return DiscrepancyProfile(
        Ns, Ratios(counts.T, Ns), Ratios(D, Ns * lcd), Ratios(D, lcd), pi
    )


def hitting_oracle(chain: MarkovChain, v: int) -> Dict[int, Scalar]:
    """Exact hitting probabilities h_u(v) for every absorbing u.

    Solves the first-step equations z_x = sum_y P_xy z_y with boundary 1
    at u and 0 at the other absorbing states, all targets in one
    elimination, over the live states that reach an absorbing one (z is 0
    at the others); exact in rational mode.

    Raises:
        ValueError: v is not a state index.
    """
    _check_state(chain, v)
    U = sorted(absorbing_states(chain))
    live = sorted(_reaching(chain, *U) - set(U))
    idx = {x: k for k, x in enumerate(live)}
    one = Fraction(1) if chain.mode == RATIONAL else 1.0
    zero = one - one
    if v not in idx:  # v absorbs at u, or elsewhere, or never absorbs
        return {u: one if v == u else zero for u in U}
    P = _dense(chain, zero)  # the dense system Bareiss eliminates
    A = [[(x == y) - P[x][y] for y in live] for x in live]
    tol = None if chain.mode == RATIONAL else _FLOAT_PIVOT_TOL
    zs = _reduce(A, [[P[x][u] for x in live] for u in U], tol)[1]
    if None in zs:
        raise ValueError("hitting system is singular")
    return {u: z[idx[v]] for u, z in zip(U, zs)}


def _rerouted_tally(chain: MarkovChain, v: int, N: int, sweep: bool):
    """Run N steps from zero on chain with its absorbing states rerouted
    into v: (the ReroutedChain, Ns, count), count(states)[k] the fires of
    those states in the first Ns[k] steps, every prefix for a sweep, else
    the whole run only. A sweep counts only the states asked for."""
    rer = reroute(chain, v)
    t = run(rer.chain, None, N)
    Ns = np.arange(1 if sweep else t.steps, t.steps + 1, dtype=np.int64)
    if sweep:
        return rer, Ns, lambda states: np.cumsum(np.isin(t.fired, states))
    return rer, Ns, lambda states: t.v[states].sum(keepdims=True)


def _hitting(chain: MarkovChain, v: int, N: int, sweep: bool):
    """a_N for every absorbing target, from one run and one hitting_oracle call."""
    rer, Ns, count = _rerouted_tally(chain, v, N, sweep)
    exact = hitting_oracle(chain, v)
    rows = {u: count([rer.kept.index(u)]) for u in exact if u in rer.kept}
    zero = np.zeros_like(Ns)
    denom = sum(rows.values(), zero)
    return {
        u: _scalar(Ns, rows.get(u, zero), denom, x, chain.mode == RATIONAL)
        for u, x in exact.items()
    }


def _absorption(
    chain: MarkovChain, v: int, N: int, sweep: bool, exact: Optional[Scalar]
) -> DiscrepancyProfile:
    """b_N from one run; the exact value defaults to _absorption_oracle."""
    rer, Ns, count = _rerouted_tally(chain, v, N, sweep)
    if exact is None:
        exact = _absorption_oracle(rer)
    denom = count(sorted(rer.absorbing_images))
    return _scalar(Ns, Ns - denom, denom, exact, chain.mode == RATIONAL)


def hitting_distribution(
    chain: MarkovChain, v: int, N: int
) -> List[HittingEstimate]:
    """Estimate the absorption distribution from v with one N-step run.

    a_N(u) = v_u^(N) / sum over absorbing visits, defined as 0 when the
    denominator is 0. States the reroute dropped are unreachable from v,
    so their estimate and oracle are both exactly 0.
    """
    return [
        HittingEstimate(u, p.estimates[0], N, p.exact, p.entries[0][1])
        for u, p in _hitting(chain, v, N, sweep=False).items()
    ]


def absorption_time(chain: MarkovChain, v: int, N: int) -> AbsorptionEstimate:
    """Estimate the expected number of steps to absorption from v.

    b_N = N / (number of absorbing visits) - 1, defined as 0 when no
    absorbing visit happened. Exact oracle: on the rerouted chain,
    E = 1 / (stationary mass of the absorbing images) - 1.
    """
    p = _absorption(chain, v, N, sweep=False, exact=None)
    return AbsorptionEstimate(p.estimates[0], N, p.exact, p.entries[0][1])


def _absorption_oracle(rer: ReroutedChain) -> Scalar:
    pi = stationary_distribution(rer.chain)
    return 1 / sum(pi[u] for u in rer.absorbing_images) - 1


def _escape_chain(chain: MarkovChain, v: int, u: int):
    """(chain with v split and u absorbing, departure copy v0)."""
    _check_state(chain, u)
    if u == v:
        raise UEqualsV("escape probability needs u != v")
    if not is_irreducible(chain):
        raise ValueError("escape probability is defined for irreducible chains")
    split, v0, _v1 = split_vertex(chain, v)
    return make_absorbing(split, u), v0


def escape_probability(
    chain: MarkovChain, v: int, u: int, N: int
) -> HittingEstimate:
    """Probability of reaching u before returning to v, estimated and exact.

    Built by splitting v into a departure copy v0 and an absorbing arrival
    copy v1, making u absorbing, and asking for the hitting probability of
    u from v0 (the absorbing set is {u, v1}).

    Raises:
        UEqualsV: the two states must differ.
        ValueError: the chain must be irreducible.
    """
    target_chain, v0 = _escape_chain(chain, v, u)
    return next(e for e in hitting_distribution(target_chain, v0, N) if e.target == u)


def _return_chain(chain: MarkovChain, v: int):
    """(chain with v split, departure copy v0, exact return time 1 / pi_v)."""
    if not is_irreducible(chain):
        raise ValueError("return time is defined for irreducible chains")
    split, v0, _v1 = split_vertex(chain, v)
    return split, v0, 1 / stationary_distribution(chain)[v]


def expected_return_time(chain: MarkovChain, v: int, N: int) -> AbsorptionEstimate:
    """Expected number of steps to come back to v, estimated and exact.

    Splits v so the arrival copy v1 is the unique absorbing state and runs
    the absorption estimator from the departure copy. The exact value
    reported is 1 / pi_v from the original chain's stationary distribution
    (the rerouted-chain formula inside absorption_time agrees; the tests
    cross-check the two).

    Raises:
        ValueError: the chain must be irreducible.
    """
    split, v0, exact = _return_chain(chain, v)
    p = _absorption(split, v0, N, sweep=False, exact=exact)
    return AbsorptionEstimate(p.estimates[0], N, p.exact, p.entries[0][1])


# ---------------------------------------------------------------------------
# per-N sweeps (one run, every prefix)


def hitting_profiles(
    chain: MarkovChain, v: int, N_max: int
) -> Dict[int, DiscrepancyProfile]:
    """a_N at every N in 1..N_max for each absorbing target, keyed by the
    target, from a single run and a single hitting_oracle call."""
    return _hitting(chain, v, _count(N_max, "N_max", 1), sweep=True)


def hitting_profile(
    chain: MarkovChain, v: int, u: int, N_max: int
) -> DiscrepancyProfile:
    """a_N for absorbing target u at every N in 1..N_max, from a single run.

    Raises:
        ValueError: u is not absorbing (checked before the run).
    """
    if u not in absorbing_states(chain):
        raise ValueError(f"target {chain.labels[u]} is not absorbing")
    return hitting_profiles(chain, v, N_max)[u]


def absorption_profile(
    chain: MarkovChain, v: int, N_max: int, exact: Optional[Scalar] = None
) -> DiscrepancyProfile:
    """b_N at every N in 1..N_max, from a single run."""
    return _absorption(chain, v, _count(N_max, "N_max", 1), sweep=True, exact=exact)


def escape_profile(
    chain: MarkovChain, v: int, u: int, N_max: int
) -> DiscrepancyProfile:
    """Escape probability sweep (see escape_probability)."""
    target_chain, v0 = _escape_chain(chain, v, u)
    return hitting_profile(target_chain, v0, u, N_max)


def return_time_profile(chain: MarkovChain, v: int, N_max: int) -> DiscrepancyProfile:
    """Return time sweep (see expected_return_time)."""
    split, v0, exact = _return_chain(chain, v)
    return absorption_profile(split, v0, N_max, exact=exact)
