"""Orbit structure of the greedy firing map: cycle detection, recurrence
classification, basin scans over a grid of starts, and the displacement
lattice tests behind the covering theorem.

Rational mode only. Orbits of a rational-entry chain live on a shifted
integer lattice, so cycle detection is exact at any scale. A float orbit
is that of a rounded map, not of the exact chain, so float chains are
rejected up front.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .chain_model import (
    RATIONAL,
    MarkovChain,
    _count,
    _stationary,
    _stationary_record,
    hunger_matrix,
    lcd_of_stationary,
)
from .errors import CapExceeded, FloatModeUnsupported, HasAbsorbing, YNotOnZ
from .hunger_engine import (
    DEFAULT_CAP,
    _int64_safe,
    _scaled,
    coerce_hunger,
    run,
    zero_hunger,
)


@dataclass
class CycleInfo:
    """What one orbit does: how long until it repeats, and how.

    entry_steps is the number of firings before the first revisited
    vector, period the cycle length, representative the hunger vector at
    cycle entry, order the fired-index sequence around one full cycle and
    order_class its rotation-invariant canonical form.
    """

    entry_steps: int
    period: int
    representative: Tuple[Fraction, ...]
    order: Tuple[int, ...]
    order_class: str

    def firing_counts(self) -> Tuple[int, ...]:
        """Times each state fires in one full cycle."""
        counts = [0] * len(self.representative)
        for i in self.order:
            counts[i] += 1
        return tuple(counts)


def _check_cycle_chain(chain: MarkovChain) -> None:
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("cycle detection needs exact arithmetic")
    if chain._absorbing[1]:
        raise HasAbsorbing("cycle analysis needs a chain without absorbing states")


def find_cycle(chain: MarkovChain, h0=None, cap: int = DEFAULT_CAP) -> CycleInfo:
    """Run the greedy game until the hunger vector repeats.

    Brent's constant-memory cycle detection runs on the integer keys of the
    state (see hunger_engine._Keys), which repeat exactly when h does: int64,
    or Python ints when the keys could overflow int64 (_kernels.brent_cycle
    runs those on its reference body). It leaves the cycle-entry vector in
    place; the same call fires the `period` steps of the order again.

    Raises:
        CapExceeded: the orbit did not close within cap steps.
    """
    _check_cycle_chain(chain)
    cap = _count(cap, "cap")
    h = coerce_hunger(chain, h0)
    g, rows, keys = _scaled(chain, h)
    mu, lam, order = _orbit(g, rows, cap)
    return CycleInfo(mu, lam, keys.hunger(g), order, _order_name(order, chain.n))


_ORDER_BUFFER = 1 << 12  # periods up to this long come out of brent_cycle


def _orbit(g, rows, cap: int) -> Tuple[int, int, Tuple[int, ...]]:
    """(entry_steps, period, order) of the orbit of the keys g under rows,
    leaving g at cycle entry; CapExceeded past cap steps. greedy_run fires
    a period longer than _ORDER_BUFFER again, back to the cycle entry."""
    fired = np.empty(_ORDER_BUFFER, dtype=np.int64)
    mu, lam = _kernels.brent_cycle(g, rows, cap, fired)
    if mu < 0 or mu + lam > cap:
        raise CapExceeded(cap)
    if lam > _ORDER_BUFFER:
        n, fired = g.shape[0], np.empty(lam, dtype=np.int64)
        _kernels.greedy_run(g, rows, lam, fired, np.zeros(n, np.int64), np.zeros(n, bool))
    return mu, lam, tuple(fired[:lam].tolist())


def is_recurrent(chain: MarkovChain, h0=None, cap: int = DEFAULT_CAP) -> bool:
    """True when the start vector already sits on its orbit's cycle."""
    return find_cycle(chain, h0, cap).entry_steps == 0


def zero_period(chain: MarkovChain, cap: int = DEFAULT_CAP) -> int:
    """Period of the orbit started at zero hunger.

    The zero orbit is recurrent and its period equals the least common
    denominator of the stationary distribution; both facts are theorems,
    so a mismatch here means a bug and raises RuntimeError.
    """
    info = find_cycle(chain, zero_hunger(chain), cap)
    if info.entry_steps != 0:
        raise RuntimeError("zero orbit reported as non-recurrent")
    lcd = lcd_of_stationary(chain)
    if info.period != lcd:
        raise RuntimeError(
            f"zero orbit period {info.period} != stationary lcd {lcd}"
        )
    return info.period


def _least_rotation(s: Sequence[int]) -> int:
    """Index of the lexicographically least rotation: the start of the last
    Lyndon factor that begins in the first copy of s + s (Duval)."""
    ss, n = tuple(s) * 2, len(s)
    i = k = 0
    while i < n:
        k, j, m = i, i + 1, i
        while j < 2 * n and ss[m] <= ss[j]:
            m = i if ss[m] < ss[j] else m + 1
            j += 1
        while i <= m:
            i += j - m
    return k


def canonical_order(order: Sequence[int], n: Optional[int] = None) -> str:
    """Rotation-invariant name for a cyclic firing order.

    Two orders get the same string exactly when one is a rotation of the
    other. States print 1-based; chains with at most 9 states pack into a
    digit string, larger ones separate tokens with dashes.
    """
    if not order:
        raise ValueError("empty firing order")
    k = _least_rotation(order)
    rot = tuple(order[k:]) + tuple(order[:k])
    width = max(rot) + 1 if n is None else n
    return ("" if width <= 9 else "-").join(map(str, [i + 1 for i in rot]))


def _order_name(order: Tuple[int, ...], n: int) -> str:
    """canonical_order(order, n), memoised for orders of up to 256 fires
    (about 3 kB an entry): scans and repeated find_cycle calls meet a few
    orders many times."""
    return (_short_order_name if len(order) <= 256 else canonical_order)(order, n)


@lru_cache(maxsize=1024)
def _short_order_name(order: Tuple[int, ...], n: int) -> str:
    return canonical_order(order, n)


# ---------------------------------------------------------------------------
# basin scans


@dataclass
class BasinCell:
    """One grid cell of a basin scan. Fields are None when the orbit
    exceeded the cap."""

    h1: Fraction
    h2: Fraction
    recurrent: Optional[bool]
    period: Optional[int]
    class_id: Optional[int]
    entry_steps: Optional[int]


@dataclass
class BasinScan:
    cells: List[BasinCell]
    classes: List[str]


def _grid(bounds: Tuple[Fraction, Fraction], step: Fraction) -> List[Fraction]:
    """lo, lo + step, ... up to hi: the coordinates of a scan's grid.

    Raises:
        ValueError: step <= 0 or lo > hi.
    """
    lo, hi = Fraction(bounds[0]), Fraction(bounds[1])
    step = Fraction(step)
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and bounds (lo, hi) with lo <= hi")
    values = []
    x = lo
    while x <= hi:
        values.append(x)
        x += step
    return values


def _grid_orbits(chain: MarkovChain, values: List[Fraction], cap: int):
    """Prepare a grid scan once: returns (cells, S, orbit). cells yields
    (h1, h2, keys) per start (h1, h2, -h1-h2), h1 in the outer loop.

    Grid cells, and cells less a lattice vector (denominators dividing D),
    lie on (1/S)Z^n, S = lcm(D, grid denominators). Their keys are the ints
    S*h, _Keys with R = M = S/D and c = (0, ..., M-1), fired by one set of
    rows S*H = M*(D*H). orbit(keys) is _orbit's result, on _scaled's own
    keys and rows (find_cycle's) when the keys fail _int64_safe."""
    S = math.lcm(chain.D, *(x.denominator for x in values))
    num = [x.numerator * (S // x.denominator) for x in values]
    grid = list(zip(values, num))
    cells = ((h1, h2, (a, b, -a - b)) for h1, a in grid for h2, b in grid)
    if S < 2**62:  # else no keys pass _int64_safe
        rows = chain._kernel_rows[0].times(S // chain.D, np.int64)

    def orbit(keys):
        if _int64_safe(keys, S, chain.n):
            return _orbit(np.array(keys, dtype=np.int64), rows, cap)
        return _orbit(*_scaled(chain, [Fraction(k, S) for k in keys])[:2], cap)

    return cells, S, orbit


def basin_scan(
    chain: MarkovChain,
    bounds: Tuple[Fraction, Fraction],
    step: Fraction,
    cap: int = DEFAULT_CAP,
) -> BasinScan:
    """Classify every grid start (h1, h2, -h1-h2) for a 3-state chain.

    Walks h1 and h2 over the closed interval bounds with the given step
    (all exact fractions), finds each orbit's cycle and buckets it by
    canonical firing order. Class ids are 1-based in first-seen order,
    scanning h1 in the outer loop. The cells' keys and rows are prepared
    once for the grid (_grid_orbits) and orders are named through
    _order_name; every cell's result equals find_cycle's.
    """
    if chain.n != 3:
        raise ValueError("basin scans are drawn over 3-state chains")
    values = _grid(bounds, step)
    _check_cycle_chain(chain)
    cells, _, orbit = _grid_orbits(chain, values, _count(cap, "cap"))
    class_ids = {}  # canonical order -> class id, in first-seen order
    out = []
    for h1, h2, keys in cells:
        try:
            mu, lam, order = orbit(keys)
        except CapExceeded:
            out.append(BasinCell(h1, h2, None, None, None, None))
            continue
        class_id = class_ids.setdefault(_order_name(order, 3), len(class_ids) + 1)
        out.append(BasinCell(h1, h2, mu == 0, lam, class_id, mu))
    return BasinScan(out, list(class_ids))


# ---------------------------------------------------------------------------
# displacement lattice


@dataclass
class HungerLattice:
    """Integer lattice of displacements reachable in zero-sum firing.

    basis rows are consecutive differences of firing-step rows; p_vec is
    the per-cycle firing count vector (stationary distribution scaled to
    integers by its least common denominator).
    """

    basis: Tuple[Tuple[Fraction, ...], ...]
    p_vec: Tuple[int, ...]
    lcd: int


def lattice_basis(chain: MarkovChain) -> HungerLattice:
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("the displacement lattice needs exact entries")
    _, lcd, p_vec = _stationary_record(chain)
    return HungerLattice(_lattice_rows(chain), p_vec, lcd)


def _lattice_rows(chain: MarkovChain):
    """The lattice basis H_i - H_{i+1}, which needs no stationary solve."""
    H = hunger_matrix(chain).H
    return tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(H, H[1:]))


def lattice_member(chain: MarkovChain, y: Sequence) -> bool:
    """Whether y lies in the displacement lattice.

    y must sit on the zero-sum hyperplane (YNotOnZ otherwise). Membership
    means y = w . H for some integer vector w with sum(w) = 0; the rational
    solution space is a line in direction pi, and the zero-sum condition
    pins the only candidate, which is then checked for integrality.
    """
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("lattice membership needs exact entries")
    y = tuple(Fraction(c) for c in y)
    if len(y) != chain.n:
        raise ValueError(f"expected a vector of length {chain.n}")
    if sum(y) != 0:
        raise YNotOnZ("lattice vectors have zero total")
    if chain.n == 1:
        return True  # y is (0,) and the lattice is the origin
    # w . H = y, i.e. H^T w = y, in the elimination that gives pi
    # (w0 exists: H has rank n - 1, or _stationary raises, so y is solvable)
    pi, (w0,) = _stationary(chain, [y])
    total = sum(w0)  # sum(pi) = 1, so w0 - total * pi sums to zero
    return all((w - total * p).denominator == 1 for w, p in zip(w0, pi))


@dataclass
class CoveringCheck:
    """Result of pushing one start forward onto the recurrent set."""

    steps: int
    reached: Tuple[Fraction, ...]
    member: bool


def covering_detail(
    chain: MarkovChain, h0=None, cap: int = DEFAULT_CAP
) -> CoveringCheck:
    """Advance h0 by whole cycles until past the transient, then test that
    the displacement is a lattice member.

    The number of steps is the smallest multiple of the orbit's period
    that is at least the transient length (zero for recurrent starts), so
    the endpoint is a recurrent vector and, by the covering theorem, the
    displacement always lands in the lattice.
    """
    _check_cycle_chain(chain)
    h = coerce_hunger(chain, h0)
    info = find_cycle(chain, h, cap)
    t = info.period * math.ceil(info.entry_steps / info.period)
    x = run(chain, info.representative, t - info.entry_steps).final_h
    diff = tuple(a - b for a, b in zip(x, h))
    return CoveringCheck(t, x, lattice_member(chain, diff))


def covering_check(chain: MarkovChain, h0=None, cap: int = DEFAULT_CAP) -> bool:
    """True when some lattice shift of h0 is recurrent (see covering_detail)."""
    return covering_detail(chain, h0, cap).member


# ---------------------------------------------------------------------------
# conjecture scans (reported, never asserted)


@dataclass
class ConjectureReport:
    """Empirical scan summary for one open conjecture."""

    name: str
    checked: int
    violations: int
    skipped: int
    notes: List[str]

    @property
    def consistent(self) -> bool:
        return self.violations == 0


def _random_hunger(
    rng: random.Random, n: int, lo: Fraction, hi: Fraction, dens: List[int]
) -> Tuple[Fraction, ...]:
    """Random zero-sum rational vector with n-1 free coordinates in
    [lo, hi], each over a denominator drawn from dens."""
    coords = []
    for _ in range(n - 1):
        den = rng.choice(dens)
        coords.append(
            Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)
        )
    return tuple(coords) + (-sum(coords),)


def conjecture_reports(
    chain: MarkovChain,
    samples: int = 500,
    bounds: Tuple[Fraction, Fraction] = (Fraction(-3, 2), Fraction(3, 2)),
    step: Fraction = Fraction(1, 20),
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> List[ConjectureReport]:
    """Scan the two open conjectures and report the tallies.

    Period uniformity: the period of every sampled orbit should match the
    zero orbit's (= the stationary lcd); sampled at `samples` random
    zero-sum rational starts within bounds. Tiling: no recurrent grid
    point should stay recurrent after a shift by a nonzero lattice
    element u = a(H_1-H_2) + b(H_2-H_3), a, b in -2..2; scanned over the
    same grid a basin scan would use, 3-state chains only, with the grid's
    keys and rows prepared once (_grid_orbits) and each start's recurrence
    found once. Violations are counted and quoted, never raised; these are
    conjectures, not invariants. A step <= 0 or bounds with lo > hi raise
    ValueError, for every chain, as do a negative samples or cap and
    samples > 0 with bounds that hold no multiple of 1/den for any den in
    1..20.
    """
    _check_cycle_chain(chain)
    cap, samples = _count(cap, "cap"), _count(samples, "samples")
    values = _grid(bounds, step)
    lo, hi = Fraction(bounds[0]), Fraction(bounds[1])
    # with all 20 present, choice(dens) draws as randint(1, 20) did
    dens = [d for d in range(1, 21) if math.ceil(lo * d) <= math.floor(hi * d)]
    if samples > 0 and not dens:
        raise ValueError(f"bounds [{lo}, {hi}] hold no k/den with den <= 20")
    rng = random.Random(seed)
    base = zero_period(chain, cap)

    checked = violations = skipped = 0
    notes: List[str] = []
    for _ in range(samples):
        h = _random_hunger(rng, chain.n, lo, hi, dens)
        try:
            info = find_cycle(chain, h, cap)
        except CapExceeded:
            skipped += 1
            continue
        checked += 1
        if info.period != base:
            violations += 1
            if len(notes) < 5:
                notes.append(f"period {info.period} != {base} from h={h}")
    period_report = ConjectureReport(
        "period-uniformity", checked, violations, skipped, notes
    )

    checked = violations = skipped = 0
    notes = []
    if chain.n != 3:
        notes.append("skipped: the tiling scan is defined for 3-state chains")
    else:
        cells, S, orbit = _grid_orbits(chain, values, cap)
        basis = _lattice_rows(chain)
        shifts = [  # (a, b) and the keys S*u of u
            ((a, b), tuple(int(S * (a * p + b * q)) for p, q in zip(*basis)))
            for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)
        ]
        recurrent_cache = {}

        def recurrent(keys):
            if keys not in recurrent_cache:
                recurrent_cache[keys] = orbit(keys)[0] == 0
            return recurrent_cache[keys]

        for h1, h2, x in cells:
            try:
                if not recurrent(x):
                    continue
                for combo, u in shifts:
                    checked += 1
                    if recurrent(tuple(p - q for p, q in zip(x, u))):
                        violations += 1
                        if len(notes) < 5:
                            x0 = (h1, h2, -h1 - h2)
                            notes.append(
                                f"recurrent overlap at shift {combo} from x={x0}"
                            )
            except CapExceeded:
                skipped += 1
    tiling_report = ConjectureReport(
        "recurrent-tiling", checked, violations, skipped, notes
    )
    return [period_report, tiling_report]
