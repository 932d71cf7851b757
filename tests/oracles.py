"""Independent oracles and random chain generators for the test suite.

The Monte Carlo walkers and the float solves here deliberately avoid the
library's exact linear algebra, so agreement between the two is evidence
rather than tautology. The dense firing bodies are the kernels as they were
before sparse rows and the tournament tree: np.argmax and whole-row adds.
The slot-table rotor walk is the rotor walk as it was before it read the
Engel machine's cached moves: one list entry per rotor slot; the slot-list
walk is the same walk on the runs _kernels.rotor_walk takes. The doubling
chip addition fires into a buffer that doubles toward the cap, as
chip_add does, but fires on after a greedy_run call that ends short of
its buffer (at a repeat of h) instead of trusting it.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Tuple

import numpy as np

from hungerlab import _kernels, hunger_engine
from hungerlab.chain_model import (
    FLOAT,
    MarkovChain,
    absorbing_states,
    float_matrix,
    is_irreducible,
)


def random_irreducible_chain(rng: random.Random, n: int, max_den: int = 6) -> MarkovChain:
    """Random rational chain with every entry's denominator <= max_den,
    resampled until irreducible."""
    while True:
        P = []
        for _ in range(n):
            den = rng.randint(1, max_den)
            counts = [0] * n
            for _ in range(den):
                counts[rng.randrange(n)] += 1
            P.append([Fraction(c, den) for c in counts])
        chain = MarkovChain(P)
        if is_irreducible(chain):
            return chain


def random_absorbing_chain(rng: random.Random, n: int, max_den: int = 6) -> MarkovChain:
    """Random rational chain with 1..n//2 absorbing states; every other
    state puts at least a third of its mass directly on the absorbing set,
    so absorption is certain and fast."""
    k = rng.randint(1, max(1, n // 2))
    sinks = sorted(rng.sample(range(n), k))
    P = []
    for i in range(n):
        if i in sinks:
            P.append([Fraction(int(i == j)) for j in range(n)])
            continue
        den = rng.randint(3, max_den)
        counts = [0] * n
        for _ in range(-(-den // 3)):
            counts[rng.choice(sinks)] += 1
        for _ in range(den - sum(counts)):
            counts[rng.randrange(n)] += 1
        P.append([Fraction(c, den) for c in counts])
    return MarkovChain(P)


def chain40_document() -> dict:
    """A 40-state doubly stochastic rational chain, as a chain document:
    state i moves to i + 1 with probability 1/2, to 7i + 3 with 1/3 and
    stays with 1/6 (mod 40). Its 5 blocks of 8 states take the compiled
    kernels' tournament tree past one block, and pi is uniform, so its
    orbits cycle soon."""
    n = 40
    P = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        P[i][(i + 1) % n] += Fraction(1, 2)
        P[i][(7 * i + 3) % n] += Fraction(1, 3)
        P[i][i] += Fraction(1, 6)
    return {"mode": "rational", "P": [[str(x) for x in row] for row in P]}


# integers in -5 .. 5 summing to 0: the 40-state chain's start, scaled
START40 = [5 * j % 11 - 5 for j in range(39)]
START40.append(-sum(START40))


def first_transient(chain: MarkovChain) -> int:
    sinks = absorbing_states(chain)
    return next(i for i in range(chain.n) if i not in sinks)


def _cumulative_rows(chain: MarkovChain) -> np.ndarray:
    C = np.cumsum(float_matrix(chain), axis=1)
    return C / C[:, -1:]


def mc_absorption(
    chain: MarkovChain, v: int, walks: int = 10**5, seed: int = 0
) -> Tuple[Dict[int, Tuple[float, float]], Tuple[float, float]]:
    """Simulate `walks` random walks from v until absorption.

    Returns ({u: (hitting fraction, standard error)}, (mean absorption
    time, standard error)). Walks are vectorized over numpy; a walk that
    fails to absorb within 10^5 steps is a hard error.
    """
    sinks = sorted(absorbing_states(chain))
    if not sinks:
        raise ValueError("chain has no absorbing states")
    C = _cumulative_rows(chain)
    is_sink = np.zeros(chain.n, dtype=bool)
    is_sink[sinks] = True
    rng = np.random.default_rng(seed)
    state = np.full(walks, v, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    for _ in range(10**5):
        live = np.flatnonzero(~is_sink[state])
        if live.size == 0:
            break
        u = rng.random(live.size)
        state[live] = (C[state[live]] < u[:, None]).sum(axis=1)
        steps[live] += 1
    else:
        raise RuntimeError("walks failed to absorb")
    hit = {}
    for u_state in sinks:
        p = float((state == u_state).mean())
        hit[u_state] = (p, float(np.sqrt(p * (1 - p) / walks)))
    t_mean = float(steps.mean())
    t_se = float(steps.std(ddof=1) / np.sqrt(walks))
    return hit, (t_mean, t_se)


def hitting_solve_float(chain: MarkovChain, v: int) -> Dict[int, float]:
    """Hitting probabilities by numpy float solve of the first-step
    equations; independent of the library's rational elimination."""
    sinks = sorted(absorbing_states(chain))
    live = [x for x in range(chain.n) if x not in set(sinks)]
    P = float_matrix(chain)
    A = np.eye(len(live)) - P[np.ix_(live, live)]
    out = {}
    for u in sinks:
        z = np.linalg.solve(A, P[live, u])
        out[u] = float(z[live.index(v)]) if v in live else float(v == u)
    return out


def absorption_solve_float(chain: MarkovChain, v: int) -> float:
    """E_v[steps to absorption] by numpy float solve of (I - Q) t = 1."""
    sinks = set(absorbing_states(chain))
    live = [x for x in range(chain.n) if x not in sinks]
    P = float_matrix(chain)
    A = np.eye(len(live)) - P[np.ix_(live, live)]
    t = np.linalg.solve(A, np.ones(len(live)))
    return float(t[live.index(v)]) if v in live else 0.0


def stationary_solve_float(chain: MarkovChain) -> np.ndarray:
    """Stationary distribution by numpy: left eigenvector via lstsq on
    (P^T - I) padded with the normalization row."""
    P = float_matrix(chain)
    n = chain.n
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def rref_fraction(M, ncols):
    """Reduce a matrix of Fractions in place to reduced row echelon form by
    plain Gauss-Jordan elimination, pivoting on the first nonzero entry in
    the first ncols columns; returns the pivot columns.

    This is the library's former exact elimination, kept as the reference
    that its fraction-free elimination must match entry for entry."""
    nrows = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        M[r] = [x / piv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def nullspace_fraction(A):
    """Nullspace basis of A, one vector per free column, from rref_fraction."""
    if not A:
        return []
    M = [[Fraction(x) for x in row] for row in A]
    ncols = len(M[0])
    pivots = rref_fraction(M, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -M[r][f]
        basis.append(tuple(x))
    return basis


def solve_fraction(A, bs):
    """For each b in bs, the solution of A x = b with free variables zero,
    or None when inconsistent, from rref_fraction."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    M = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs]
         for i, row in enumerate(A)]
    pivots = rref_fraction(M, ncols)
    out = []
    for k in range(ncols, ncols + len(bs)):
        if any(M[i][k] != 0 for i in range(len(pivots), nrows)):
            out.append(None)
            continue
        x = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            x[c] = M[r][k]
        out.append(tuple(x))
    return out


# ---------------------------------------------------------------------------
# the rotor walk on a table of every slot


def slot_table_rotor_run(chain: MarkovChain, start: int, rotor_init, N: int):
    """(itinerary, visits, rotors, d) of rotor_run, walked on a list of
    sum(d_i) slots: d_i the lcm of row i's denominators, d_i * P_ij
    consecutive slots pointing at j, targets ascending."""
    rows = list(chain.rows())
    d = tuple(math.lcm(*(p.denominator for _, p in row)) for row in rows)
    edges = [
        [j for j, p in row for _ in range(int(di * p))] for di, row in zip(d, rows)
    ]
    rotors = [0] * chain.n if rotor_init is None else list(rotor_init)
    x = start
    itinerary = [x]
    for _ in range(N):
        j = edges[x][rotors[x]]
        rotors[x] = (rotors[x] + 1) % d[x]
        x = j
        itinerary.append(x)
    visits = np.bincount(itinerary, minlength=chain.n)
    return np.array(itinerary, dtype=np.int64), visits, tuple(rotors), d


def slot_list_rotor_walk(itinerary, run_ptr, targets, counts, at, left):
    """_kernels.rotor_walk on a list of every slot of each state's runs,
    with the rotor an index into it: at and left become a slot index, and
    back after the walk."""
    ptr = run_ptr.tolist()
    slots = [np.repeat(targets[a:b], counts[a:b]).tolist() for a, b in zip(ptr, ptr[1:])]
    rotors = [
        int(counts[a:k].sum() + counts[k] - r) for a, k, r in zip(ptr, at.tolist(), left)
    ]
    x = int(itinerary[0])
    for t in range(1, itinerary.shape[0]):
        j = slots[x][rotors[x]]
        rotors[x] = (rotors[x] + 1) % len(slots[x])
        x = itinerary[t] = j
    for x, r in enumerate(rotors):
        k = ptr[x]
        while r >= counts[k]:
            r -= counts[k]
            k += 1
        at[x], left[x] = k, counts[k] - r
    return itinerary.shape[0] - 1


# ---------------------------------------------------------------------------
# chip addition that fires until absorption or the cap


def doubling_chip_add(chain: MarkovChain, h, i: int, cap: int):
    """(result, trace) of chip_add, fired into a buffer that doubles (from
    1024 entries) up to cap until an absorbing arrival, calling greedy_run
    again whenever a call ends short of it; CapExceeded when none comes
    within cap fires."""
    h = hunger_engine.coerce_hunger(chain, h)
    mask = np.array([dict(chain.row(j)).get(j) == 1 for j in range(chain.n)])
    if not mask.any():
        raise hunger_engine.CapExceeded(cap)
    inserted = [x + 0.0 for x in h] if chain.mode == FLOAT else list(h)
    for j, p in chain.row(i):
        inserted[j] += p
    inserted = tuple(inserted)
    g, rows, keys = hunger_engine._scaled(chain, inserted)
    fired = np.empty(0, dtype=np.int64)
    v = np.zeros(chain.n, dtype=np.int64)
    k = 0
    while k == 0 or not mask[fired[k - 1]]:
        if k >= cap:
            raise hunger_engine.CapExceeded(cap)
        fired = np.resize(fired, min(max(2 * k, 1024), cap))
        k += _kernels.greedy_run(g, rows, fired.shape[0] - k, fired[k:], v, mask)
    pre_removal = keys.hunger(g)
    g[fired[k - 1]] -= keys.unit
    result = keys.hunger(g)
    return result, hunger_engine.FiringTrace(fired[:k], v, inserted, pre_removal, k)


# ---------------------------------------------------------------------------
# dense firing: the kernels and row preparation before sparse rows


def dense_greedy_run(h, rows, steps, fired, v, stop, one=0, schedule=(), extrema=None):
    """greedy_run on dense rows: np.argmax, then the whole row added, with
    insertion steps when a schedule is given and extrema over every entry
    after every step. Without a schedule, and with some stop state, h is
    copied after the first power of two >= n fires and then at every power
    of two, and the run ends when h equals the copy again."""
    n = h.shape[0]
    lo = h[0]
    hi = h[0]
    ends = not len(schedule) and stop.any()
    copy = None
    next_copy = 1
    while next_copy < n:
        next_copy *= 2

    def scan():
        nonlocal lo, hi
        for j in range(n):
            if h[j] < lo:
                lo = h[j]
            if h[j] > hi:
                hi = h[j]

    scan()
    t = 0
    si = 0
    while t < steps:
        if len(schedule):
            if t > 0:
                h[fired[t - 1]] -= one
            s = schedule[si % len(schedule)]
            si += 1
            h += rows[s]
            h[s] += one
            fired[t] = -1
            t += 1
            scan()
        while t < steps:
            i = np.argmax(h)
            h += rows[i]
            fired[t] = i
            v[i] += 1
            t += 1
            scan()
            if stop[i]:
                break
            if ends and copy is not None and not (h != copy).any():
                break
            if ends and t == next_copy:
                copy = h.copy()
                next_copy *= 2
        if not len(schedule):
            break
    if extrema is not None:
        extrema[0] = lo
        extrema[1] = hi
    return t


def dense_brent_cycle(h0, rows, cap, order=None):
    """brent_cycle on dense rows, writing one period's fires into order
    when it has room for them."""
    n = h0.shape[0]
    power = 1
    lam = 1
    tortoise = h0.copy()
    hare = h0.copy()
    i = np.argmax(hare)
    hare += rows[i]
    while True:
        same = True
        for j in range(n):
            if tortoise[j] != hare[j]:
                same = False
                break
        if same:
            break
        if power == lam:
            tortoise[:] = hare
            power *= 2
            lam = 0
        i = np.argmax(hare)
        hare += rows[i]
        lam += 1
        if lam > cap:
            return -1, -1
    tortoise[:] = h0
    hare[:] = h0
    for _ in range(lam):
        i = np.argmax(hare)
        hare += rows[i]
    mu = 0
    while True:
        same = True
        for j in range(n):
            if tortoise[j] != hare[j]:
                same = False
                break
        if same:
            break
        i = np.argmax(tortoise)
        tortoise += rows[i]
        i = np.argmax(hare)
        hare += rows[i]
        mu += 1
        if mu > cap:
            return -1, -1
    if order is not None and lam <= len(order):
        for t in range(lam):
            order[t] = i = np.argmax(tortoise)
            tortoise += rows[i]
    if mu:
        h0[:] = tortoise
    return mu, lam


DENSE_KERNELS = SimpleNamespace(
    greedy_run=dense_greedy_run,
    brent_cycle=dense_brent_cycle,
    rotor_walk=slot_list_rotor_walk,
)


def sparse_rows(dense) -> _kernels.SparseRows:
    """The nonzero entries and diagonal of an n x n array of rows, as the
    SparseRows the kernels take."""
    dense = np.asarray(dense)
    kept = dense != 0
    kept[np.diag_indices(dense.shape[0])] = True
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))]).astype(np.int64)
    indices = (np.flatnonzero(kept) % dense.shape[0]).astype(np.int64)
    return _kernels.SparseRows(indptr, indices, dense[kept])


def dense_rows(rows: _kernels.SparseRows) -> np.ndarray:
    """The n x n array of SparseRows, zeros filled in, for DENSE_KERNELS."""
    n = rows.indptr.shape[0] - 1
    out = np.zeros((n, n), dtype=rows.values.dtype)
    out[np.repeat(np.arange(n), np.diff(rows.indptr)), rows.indices] = rows.values
    return out


# bound once: tests swap hunger_engine._scaled for dense_scaled
_engine_scaled = hunger_engine._scaled


def dense_scaled(chain: MarkovChain, h):
    """hunger_engine._scaled with dense n x n rows, for DENSE_KERNELS.

    The keys, their dtype and scale are _scaled's own; the rows are built
    here from chain.P: unit*(P - I) on the keys, or P - I for float chains.
    """
    g, _, keys = _engine_scaled(chain, h)
    if chain.mode == FLOAT:
        return g, float_matrix(chain) - np.eye(chain.n), keys
    rows = np.array(
        [[x.numerator * (keys.unit // x.denominator) for x in row] for row in chain.P],
        dtype=g.dtype,
    )
    rows[np.diag_indices(chain.n)] -= keys.unit
    return g, rows, keys


def dense_hunger_blocks(chain: MarkovChain, h, fired, chunk: int):
    """hunger_engine._hunger_blocks on dense_scaled's rows."""
    g, rows, keys = dense_scaled(chain, h)
    last = g[None, :]
    for lo in range(0, len(fired) + 1, chunk):
        steps = rows[fired[max(lo - 1, 0) : lo + chunk - 1]]
        block = np.add.accumulate(np.concatenate([last, steps]), axis=0)
        if lo:
            block = block[1:]
        last = block[-1:]
        yield keys.numerators(block), keys.S
