"""The greedy firing engine.

A hunger vector assigns each state a real "hunger"; one step fires the
hungriest state i (smallest index on ties) and adds row H_i = P_i - I_i to
the vector, so total hunger never changes. The fired index depends on the
hunger vector alone, never on where the chip happens to sit.

Rational chains run exactly: hunger is mapped once to integer keys that
order and equate states as h does (D*h for D the common denominator of P,
refined by the rank of each fractional part, see _Keys), and every
operation runs one kernel loop body on them. The boundedness lemmas keep
the keys far inside the int64 range whatever the start's denominators; a
check picks int64 state when they fit and Python ints (which _kernels runs
on its reference bodies) when they do not: only when the magnitude of h
times the key unit R*D nears 2^62, or the chain's own denominators do.
Float chains run on float64 with exact-equality tie-breaking. A
step-by-step trace of a run (the hunger vector after every fire) is rebuilt
on the same keys, block by block, from the start vector and the firing
sequence.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .chain_model import (
    FLOAT,
    RATIONAL,
    MarkovChain,
    Scalar,
    _as_index,
    _check_state,
    _count,
)
from .errors import CapExceeded, IIsAbsorbing

DEFAULT_CAP = 10**7

HungerVector = Tuple[Scalar, ...]


@dataclass
class FiringTrace:
    """Record of a plain run: who fired, how often, and the end state.

    Invariant (exact in rational mode): final_h = initial_h + v H.
    """

    fired: np.ndarray
    v: np.ndarray
    initial_h: HungerVector
    final_h: HungerVector
    steps: int


@dataclass
class ReinsertionTrace:
    """Record of a run with remove-and-reinsert steps.

    fired uses -1 for insertion (and combined remove+reinsert) steps, which
    fire nothing. min_h/max_h are the extreme hunger values observed across
    the initial vector and every step, for the boundedness lemmas.
    """

    fired: np.ndarray
    v: np.ndarray
    initial_h: HungerVector
    final_h: HungerVector
    steps: int
    insertions: int
    min_h: Scalar
    max_h: Scalar


def zero_hunger(chain: MarkovChain) -> HungerVector:
    """The all-zero hunger vector in the chain's mode."""
    zero = Fraction(0) if chain.mode == RATIONAL else 0.0
    return (zero,) * chain.n


def coerce_hunger(chain: MarkovChain, h: Optional[Sequence]) -> HungerVector:
    """Normalize h to a tuple of scalars in the chain's mode.

    None means the zero vector. Rational mode accepts Fractions and ints
    only; silently converting a float would manufacture precision. Float
    mode rejects NaN and infinities, which have no hungriest state.
    """
    if h is None:
        return zero_hunger(chain)
    vals = list(h)
    if len(vals) != chain.n:
        raise ValueError(f"hunger vector needs {chain.n} entries, got {len(vals)}")
    if chain.mode == RATIONAL:
        out = []
        for x in vals:
            if isinstance(x, float):
                raise ValueError(
                    "rational mode hunger must be Fraction or int, not float"
                )
            out.append(Fraction(x))
        return tuple(out)
    out = tuple(float(x) for x in vals)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"hunger values must be finite, got {out}")
    return out


def hungriest_index(h: Sequence) -> int:
    """Smallest index attaining the maximum hunger."""
    return max(range(len(h)), key=h.__getitem__)


def fire_step(chain: MarkovChain, h: Sequence) -> Tuple[HungerVector, int]:
    """One firing step: returns (h + H_i, i) for i the hungriest index."""
    h = coerce_hunger(chain, h)
    i = hungriest_index(h)
    row = chain.P[i]
    new = [hj + pj for hj, pj in zip(h, row)]
    new[i] -= 1
    return tuple(new), i


# ---------------------------------------------------------------------------
# integer keys for the kernels


def _int64_safe(keys: Sequence[int], unit: int, n: int) -> bool:
    # Boundedness bound on the hunger vector keys / unit, which fires as h
    # does: values stay in [a, b], a = min - 1, b = (total + 1) - (n-1)a
    # (the +1 covers one in-flight insertion); in key units here.
    a = min(keys) - unit
    b = sum(keys) + unit - (n - 1) * a
    return max(abs(a), abs(b)) + 4 * unit < 2**62


@dataclass(frozen=True)
class _Keys:
    """How the kernels' integers stand for a rational hunger vector.

    With D the common denominator of P, firing, removal and insertion only
    add integers to D*h, so the fractional part f_j of each D*h_j is fixed
    for a run. key_j = R*floor(D*h_j) + rank(f_j), with R the number of
    distinct f_j, orders and equates states exactly as h does, and hunger 1
    is `unit` = R*D keys. c[r] is M*f for the f of rank r, where M = S/D
    and S is the common denominator of P and h, so
    S*h_j = M*(key_j // R) + c[key_j % R].
    """

    unit: int
    R: int
    M: int
    c: Tuple[int, ...]

    @property
    def S(self) -> int:
        return self.M * (self.unit // self.R)

    def hunger(self, keys) -> HungerVector:
        """Keys back as Fractions."""
        R, M, c, S = self.R, self.M, self.c, self.S
        return tuple(
            Fraction(M * q + c[r], S) for q, r in (divmod(int(k), R) for k in keys)
        )

    def numerators(self, keys: np.ndarray) -> np.ndarray:
        """S*h for an array of keys: int64 when every value fits, else
        Python ints."""
        if self.M == 1:  # S = D: the keys are D*h
            return keys
        bound = int(np.abs(keys).max(initial=0)) // self.R + 1
        if self.M * (bound + 1) >= 2**62:
            keys = keys.astype(object)
        c = np.array(self.c, dtype=keys.dtype)
        return self.M * (keys // self.R) + c[(keys % self.R).astype(np.intp)]


class _FloatKeys:
    """Float chains run on h itself."""

    unit = S = 1.0

    @staticmethod
    def hunger(values) -> HungerVector:
        return tuple(float(x) for x in values)

    @staticmethod
    def numerators(values: np.ndarray) -> np.ndarray:
        return values


def _scaled(chain: MarkovChain, h: HungerVector):
    """Prepare h and H = P - I for the kernels: returns (g, rows, keys).

    rows are _kernels.SparseRows of H at P's nonzero entries and the
    diagonal, laid out and checked once per chain (MarkovChain._kernel_rows).
    Float chains give those float64 rows as they are, and _FloatKeys.
    Rational chains give the integer keys of h (see _Keys) and the rows
    R*D*H, the chain's D*H scaled here: int64 arrays when _int64_safe
    holds, which it does whatever the start's denominators, otherwise
    dtype=object arrays of Python ints, which _kernels fires on its
    reference bodies, identically and without overflow. Only magnitudes or
    chain denominators past int64 take that path.
    """
    rows = chain._kernel_rows[0]
    if chain.mode == FLOAT:
        return np.array(h, dtype=np.float64), rows, _FloatKeys
    D = chain.D
    S = math.lcm(D, *(x.denominator for x in h))
    M = S // D
    floors, fracs = [], []
    for x in h:
        q, rem = divmod(D * x.numerator, x.denominator)
        floors.append(q)
        fracs.append(M * rem // x.denominator)
    c = sorted(set(fracs))
    R = len(c)
    rank = {f: k for k, f in enumerate(c)}
    keys = [R * q + rank[f] for q, f in zip(floors, fracs)]
    unit = R * D
    dtype = np.int64 if _int64_safe(keys, unit, chain.n) else object
    rows = rows.times(R, dtype)  # D*H_ij, so unit*H_ij
    return np.array(keys, dtype=dtype), rows, _Keys(unit, R, M, tuple(c))


def _hunger_blocks(chain: MarkovChain, h: HungerVector, fired, chunk: int):
    """Yield (block, S): the hunger vector h before the first step and after
    each step of the firing sequence `fired`, times S (the common
    denominator of P and h; 1.0 for float chains), in blocks of at most
    `chunk` rows (row k of block b is step b*chunk + k).

    Rows are running sums of the fired steps' rows on _scaled's keys and
    dtype: int64 (the boundedness bound behind _int64_safe covers every
    row), Python ints or float64, mapped to S*h block by block. Each block's
    fired rows are laid out from the CSR arrays into a zero (chunk, n)
    block, so no n x n array is made. np.add.accumulate adds in order, so
    float rows equal the run's own step-by-step additions bit for bit.
    """
    g, rows, keys = _scaled(chain, h)
    sizes = np.diff(rows.indptr)
    last = g[None, :]
    for lo in range(0, len(fired) + 1, chunk):
        # row lo is the carry (row lo - 1) plus the step fired at lo - 1
        sel = fired[max(lo - 1, 0) : lo + chunk - 1]
        starts, counts = rows.indptr[sel], sizes[sel]
        at = np.repeat(starts - np.cumsum(counts) + counts, counts)
        at += np.arange(len(at))  # the fired rows' entries, row after row
        steps = np.zeros((len(sel), len(g)), dtype=rows.values.dtype)
        steps[np.repeat(np.arange(len(sel)), counts), rows.indices[at]] = rows.values[at]
        block = np.add.accumulate(np.concatenate([last, steps]), axis=0)
        if lo:
            block = block[1:]
        last = block[-1:]
        yield keys.numerators(block), keys.S


# ---------------------------------------------------------------------------
# plain runs


def run(chain: MarkovChain, h0: Optional[Sequence] = None, steps: int = 0) -> FiringTrace:
    """Apply fire_step `steps` times and record the trace.

    Deterministic; bit-exact across runs in rational mode.
    """
    steps = _count(steps, "steps")
    h = coerce_hunger(chain, h0)
    fired = np.empty(steps, dtype=np.int64)
    v = np.zeros(chain.n, dtype=np.int64)
    g, rows, keys = _scaled(chain, h)
    _kernels.greedy_run(g, rows, steps, fired, v, np.zeros(chain.n, dtype=np.bool_))
    return FiringTrace(fired, v, h, keys.hunger(g), steps)


# ---------------------------------------------------------------------------
# chip addition


def chip_add(
    chain: MarkovChain,
    h: Optional[Sequence],
    i: int,
    cap: int = DEFAULT_CAP,
) -> Tuple[HungerVector, FiringTrace]:
    """Chip addition operator: insert a chip at i, fire until absorbed.

    Inserting adds row P_i to the hunger vector. Firing then proceeds
    greedily; the fire that lands on an absorbing state k is recorded like
    any other arrival, and the same step removes the chip by subtracting
    the unit vector at k. Total hunger of the result equals the input's.

    Returns (result, trace) where result is the final hunger vector after
    the chip removal. trace.initial_h is the post-insertion vector and
    trace.final_h the pre-removal one, so the trace keeps the exact
    final_h = initial_h + vH identity.

    The fires go into a buffer that doubles from 1024 entries up to
    `cap`, with the absorbing states as greedy_run's stop states, so the
    kernel also ends a run once the orbit repeats without an absorbing
    fire: the orbit is then periodic and never absorbs the chip.

    Raises:
        ValueError: i is not a state index (an integer in 0..n-1).
        IIsAbsorbing: insertion at an absorbing state.
        CapExceeded: no absorbing arrival within `cap` fires. Raised as soon
            as the orbit repeats without one, and before any fire when the
            chain has no absorbing state.
    """
    h = coerce_hunger(chain, h)
    _check_state(chain, i)
    cap = _count(cap, "cap")
    mask, absorbing = chain._absorbing
    if mask[i]:
        raise IIsAbsorbing(f"cannot insert at absorbing state {chain.labels[i]}")
    if not absorbing:
        raise CapExceeded(cap)  # no fire can ever absorb the chip
    # + 0.0 turns -0.0 into +0.0, as adding the dense row P_i did
    inserted = [x + 0.0 for x in h] if chain.mode == FLOAT else list(h)
    for j, p in chain.row(i):
        inserted[j] += p
    inserted = tuple(inserted)
    g, rows, keys = _scaled(chain, inserted)
    fired, v, k = np.empty(0, dtype=np.int64), np.zeros(chain.n, dtype=np.int64), 0
    while k == 0 or not mask[fired[k - 1]]:
        if k == cap or k < len(fired):  # the cap, or a repeat: never absorbed
            raise CapExceeded(cap)
        fired = np.resize(fired, k + min(max(k, 1024), cap - k))
        k += _kernels.greedy_run(g, rows, len(fired) - k, fired[k:], v, mask)
    pre_removal = keys.hunger(g)
    g[fired[k - 1]] -= keys.unit
    result = keys.hunger(g)
    return result, FiringTrace(fired[:k], v, inserted, pre_removal, k)


# ---------------------------------------------------------------------------
# remove-and-reinsert runs


def run_with_reinsertion(
    chain: MarkovChain,
    h0: Optional[Sequence],
    schedule: Sequence[int],
    steps: int,
    cap: int = DEFAULT_CAP,
) -> ReinsertionTrace:
    """Run `steps` steps where an absorbed chip is removed and reinserted.

    Each step is one of: the initial insertion (at schedule[0]), a plain
    fire, or, when the previous fire landed on an absorbing state k, a
    combined removal (h -= e_k) and reinsertion at the next schedule state
    (h += P_s) counted as a single step. The schedule's entries go to the
    kernel as given, and it cycles them: insertion k is at
    schedule[k % len(schedule)].

    Returns a trace carrying running min/max hunger over the whole run
    (initial vector included), for the boundedness lemma checks.
    """
    steps, cap = _count(steps, "steps"), _count(cap, "cap")
    if steps > cap:
        raise CapExceeded(cap)
    h = coerce_hunger(chain, h0)
    mask = chain._absorbing[0]
    sched = [_as_index(s) for s in schedule]
    if steps > 0 and not sched:
        raise ValueError("schedule must not be empty")
    for s in sched:
        if s < 0 or s >= chain.n:
            raise ValueError(f"schedule state {s} out of range")
        if mask[s]:
            raise ValueError(
                f"schedule must reinsert at non-absorbing states, got "
                f"{chain.labels[s]}"
            )
    fired = np.empty(steps, dtype=np.int64)
    v = np.zeros(chain.n, dtype=np.int64)
    g, rows, keys = _scaled(chain, h)
    sched = np.array(sched, dtype=np.int64)
    extrema = np.empty(2, dtype=g.dtype)
    _kernels.greedy_run(g, rows, steps, fired, v, mask, keys.unit, sched, extrema)
    lo, hi = keys.hunger(extrema)
    insertions = int(np.count_nonzero(fired == -1))
    return ReinsertionTrace(fired, v, h, keys.hunger(g), steps, insertions, lo, hi)


# ---------------------------------------------------------------------------
# lazily defined countable chains


class LazyChain:
    """A countably infinite chain exposed through a fixed enumeration.

    Subclasses define row(i) (finitely many targets, probabilities summing
    to 1), is_absorbing(i), and label(i). The enumeration order doubles as
    the tie-breaking order.
    """

    def row(self, i: int) -> List[Tuple[int, Fraction]]:
        raise NotImplementedError

    def is_absorbing(self, i: int) -> bool:
        raise NotImplementedError

    def label(self, i: int) -> str:
        return f"s{i}"


class GoldbugChain(LazyChain):
    """Integer line walk: states -1 and 0 absorb; from i >= 1 the chip goes
    to i-2 or i+1 with probability 1/2 each.

    Enumeration: index 0 is state -1, index 1 is state 0, index m >= 2 is
    state m-1.
    """

    def row(self, i):
        if i <= 1:
            return [(i, Fraction(1))]
        return [(i - 2, Fraction(1, 2)), (i + 1, Fraction(1, 2))]

    def is_absorbing(self, i):
        return i <= 1

    def label(self, i):
        return str(i - 1)


class HarmonicChain(LazyChain):
    """Triangular family v(i,j), 0 <= j <= i, where v(i,j) jumps uniformly
    to one of v(i,j+1)..v(i,i) and v(i,i) drops to the absorbing v(0,0).

    Enumeration: index(i,j) = i(i+1)/2 + j, so (0,0) comes first and rows
    are laid out in row-major order.
    """

    @staticmethod
    def index_of(i, j):
        return i * (i + 1) // 2 + j

    @staticmethod
    def pair_of(m):
        i = (math.isqrt(8 * m + 1) - 1) // 2
        return i, m - i * (i + 1) // 2

    def row(self, m):
        if m == 0:
            return [(0, Fraction(1))]
        i, j = self.pair_of(m)
        if j == i:
            return [(0, Fraction(1))]
        p = Fraction(1, i - j)
        return [(self.index_of(i, k), p) for k in range(j + 1, i + 1)]

    def is_absorbing(self, m):
        return m == 0

    def label(self, m):
        i, j = self.pair_of(m)
        return f"v({i},{j})"


def goldbug_chain() -> GoldbugChain:
    return GoldbugChain()


def harmonic_chain() -> HarmonicChain:
    return HarmonicChain()


@dataclass
class SparseHunger:
    """Finitely many tracked hunger values; untracked states are exactly 0."""

    tracked: Dict[int, Fraction] = field(default_factory=dict)


@dataclass
class SparseTrace:
    """Trace of a lazy-chain run.

    rows holds one (fired_index_or_None, hunger_snapshot) pair per step,
    starting with the insertion step (fired None).
    """

    fired: List[int]
    v: Dict[int, int]
    rows: List[Tuple[Optional[int], Dict[int, Fraction]]]
    final: Dict[int, Fraction]
    steps: int
    absorbed: bool


def lazy_run(
    chain: LazyChain,
    h0,
    insert_at: int,
    steps: int,
) -> SparseTrace:
    """Insert a chip at insert_at and fire greedily up to `steps` times.

    h0 is a SparseHunger (or plain dict). The candidate set for each fire
    is every tracked state plus the smallest untracked one; untracked
    states all sit at hunger 0, so a single representative settles the tie
    correctly. An absorbing arrival removes the chip and stops early.

    Raises:
        ValueError: insert_at or a tracked key is not a state index 0, 1, 2, ...,
            or steps is not an integer >= 0.
        IIsAbsorbing: insertion at an absorbing index.
    """
    tracked = h0.tracked if isinstance(h0, SparseHunger) else dict(h0 or {})
    h: Dict[int, Fraction] = {_as_index(k): Fraction(x) for k, x in tracked.items()}
    insert_at = _as_index(insert_at)
    low = min([insert_at, *h])
    if low < 0:
        raise ValueError(f"state index {low} out of range 0, 1, 2, ...")
    if chain.is_absorbing(insert_at):
        raise IIsAbsorbing(f"cannot insert at absorbing state {chain.label(insert_at)}")

    def add_row(s):
        for j, p in chain.row(s):
            h[j] = h.get(j, Fraction(0)) + p

    add_row(insert_at)
    rows: List[Tuple[Optional[int], Dict[int, Fraction]]] = [(None, dict(h))]
    fired: List[int] = []
    absorbed = False
    for _ in range(_count(steps, "steps")):
        k = 0
        while k in h:
            k += 1
        # k stands for every untracked state (hunger exactly 0)
        i = min([k, *h], key=lambda j: (-h.get(j, 0), j))
        add_row(i)
        h[i] = h.get(i, Fraction(0)) - 1
        fired.append(i)
        absorbed = chain.is_absorbing(i)
        if absorbed:
            h[i] -= 1
        rows.append((i, dict(h)))
        if absorbed:
            break
    v: Dict[int, int] = {}
    for i in fired:
        v[i] = v.get(i, 0) + 1
    return SparseTrace(fired, v, rows, dict(h), len(fired), absorbed)
