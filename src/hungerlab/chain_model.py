"""Finite Markov chains: parsing, validation, structure checks, the exact
stationary solve, and the rerouting / vertex-splitting transforms that the
estimators are built on.

A chain holds each row's nonzero entries once (compressed sparse rows),
and every function here reads only those, in O(n + nnz). A dense n x n
matrix is built only where one is asked for: the exact solves, float_matrix,
the chain document and the chain's `P` view.

A chain lives in one of two arithmetic modes. Rational mode stores every
probability as a fractions.Fraction and all derived quantities stay exact.
Float mode stores float64 and is good enough for simulation and estimation,
but the recurrence machinery refuses it.

State indices are 0-based everywhere in this API; the command line surface
translates labels and 1-based positions.
"""

import json
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple, Union

import numpy as np

from . import _kernels
from ._linalg import _reduce
from .errors import (
    ChainFormatError,
    FloatModeUnsupported,
    NoAbsorbingStates,
    NonUniqueStationary,
    VIsAbsorbing,
)

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

_ONE = {RATIONAL: Fraction(1), FLOAT: 1.0}
_ROW_SUM_TOL = 1e-12
_FLOAT_PIVOT_TOL = 1e-9  # float elimination: the pivot floor of every solve

_RATIONAL_TOKEN = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_rational(token: str) -> Fraction:
    """Parse a nonnegative rational written as "a/b" or "a".

    Decimal strings and signs are rejected; the chain document format is
    deliberately narrow so that typos fail loudly.
    """
    m = _RATIONAL_TOKEN.match(token.strip())
    if not m:
        if token.strip().startswith("-"):
            raise ChainFormatError(f"negative entry {token!r}")
        raise ChainFormatError(f"malformed rational token {token!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ChainFormatError(f"zero denominator in {token!r}")
    return Fraction(num, den)


def fmt_scalar(x: Scalar) -> str:
    """Serialize a probability or hunger value: reduced "a/b", "a", or a
    round-trippable float."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


class MarkovChain:
    """Row-stochastic transition structure over an ordered scalar mode.

    Attributes:
        n: number of states.
        labels: state names, a tuple of n unique strings.
        mode: "rational" or "float".
        indptr, indices, entries: P, held once in compressed sparse row
            form: row i's nonzero entries (Fractions or floats) are
            entries[indptr[i]:indptr[i + 1]], at the ascending columns
            indices[indptr[i]:indptr[i + 1]]. All three are tuples.
        D: lcm of the entries' denominators in rational mode, else None.
        P: the dense matrix as a tuple of n row tuples: a view built the
            first time it is read, then kept.
    """

    def __init__(self, P, labels=None, mode=RATIONAL):
        """P holds n rows, each a sequence of n entries or a mapping
        {column: entry} of 0-based columns that may leave zeros out. Only
        the nonzero entries are checked and kept."""
        if mode not in (RATIONAL, FLOAT):
            raise ChainFormatError(f"unknown mode {mode!r}")
        rows = [row if isinstance(row, (dict, Mapping)) else tuple(row) for row in P]
        n = len(rows)
        if n < 1:
            raise ChainFormatError("a chain needs at least one state")
        if any(type(row) is tuple and len(row) != n for row in rows):
            raise ChainFormatError("P must be square")
        check = _rational_row if mode == RATIONAL else _float_row
        zeros = (int, Fraction) if mode == RATIONAL else (int, float, Fraction)
        indptr, indices, entries = [0], [], []
        for i, row in enumerate(rows):
            if type(row) is tuple:
                cols = range(n)
            elif all(isinstance(j, int) and 0 <= j < n for j in row):
                cols = sorted(row)
            else:
                raise ChainFormatError(
                    f"row {i + 1}: columns must be state indices 0..{n - 1}"
                )
            # skip exact zeros; other falsy entries are checked (and rejected)
            cols = [j for j in cols if row[j] or not isinstance(row[j], zeros)]
            cols, vals = check(row, cols, i)
            indices += cols
            entries += vals
            indptr.append(len(indices))
        if labels is None:
            labels = tuple(f"v{i + 1}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ChainFormatError("label count does not match state count")
            if len(set(labels)) != n:
                raise ChainFormatError("state labels must be unique")
        self.n = n
        self.labels = labels
        self.mode = mode
        self.indptr, self.indices = tuple(indptr), tuple(indices)
        self.entries = tuple(entries)
        self.D = None if mode == FLOAT else math.lcm(*(x.denominator for x in entries))

    def row(self, i):
        """Row i's nonzero entries as (column, entry) pairs, columns
        ascending, as LazyChain.row gives them."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return list(zip(self.indices[a:b], self.entries[a:b]))

    def rows(self):
        """An iterator over row(i) for every state i, in order."""
        pairs = list(zip(self.indices, self.entries))
        ptr = self.indptr
        return (pairs[a:b] for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def P(self):
        """The dense view: n row tuples of n entries, built on first read."""
        return tuple(map(tuple, _dense(self, _ONE[self.mode] - _ONE[self.mode])))

    @cached_property
    def _kernel_rows(self):
        """(rows, diagonal) for the firing engine, the chip moves and the
        absorbing record, built once: the rows of H = P - I as
        _kernels.SparseRows with an entry (i, i) at diagonal[i] in every
        row, and values float64, or D * H_ij in rational mode: int64 below
        2**62, else Python ints."""
        n = self.n
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        cols = np.array(self.indices, dtype=np.int64)
        missing = np.setdiff1d(np.arange(n), cols[cols == rows])
        if self.mode == FLOAT:
            values, dtype = list(self.entries), np.float64
        else:
            values = [x.numerator * (self.D // x.denominator) for x in self.entries]
            dtype = np.int64 if self.D < 2**62 else object
        rows, cols = np.concatenate([rows, missing]), np.concatenate([cols, missing])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        values = np.array(values + [0] * len(missing), dtype=dtype)[order]
        indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int64)
        diagonal = np.flatnonzero(cols == rows)
        values[diagonal] -= 1.0 if self.mode == FLOAT else self.D
        return _kernels.SparseRows(indptr, cols, values), diagonal

    @cached_property
    def _absorbing(self):
        """(mask, states), built once: the read-only bool array of P_ii = 1
        (H_ii = 0 on _kernel_rows' diagonal) and its indices as a frozenset."""
        rows, diagonal = self._kernel_rows
        mask = rows.values[diagonal] == 0
        mask.flags.writeable = False
        return mask, frozenset(np.flatnonzero(mask).tolist())

    @cached_property
    def _chip_firing(self):
        """(d, moves) for the Engel machine's default thresholds and the
        rotor walk, built once in rational mode: d_i the lcm of row i's
        denominators, and _chip_moves(self, d)."""
        d = tuple(math.lcm(*(p.denominator for _, p in row)) for row in self.rows())
        return d, _chip_moves(self, d)

    def __eq__(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.mode == other.mode
            and self.labels == other.labels
            and self.indptr == other.indptr
            and self.indices == other.indices
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.mode, self.labels, self.indptr, self.indices, self.entries))

    def __repr__(self):
        return f"MarkovChain(n={self.n}, mode={self.mode!r})"


def _rational_row(row, cols, i):
    """(columns, Fractions) of row's (nonzero) entries at cols."""
    out = []
    d, total = 1, 0  # the lcm of the denominators so far, and the sum times d
    for j in cols:
        x = row[j]
        if not isinstance(x, Fraction):
            if not isinstance(x, int):
                raise ChainFormatError(f"row {i + 1}: {x!r} is not an exact rational")
            x = Fraction(x)
        num, den = x.numerator, x.denominator
        if num < 0:
            raise ChainFormatError(f"row {i + 1}: negative entry {x}")
        if num > den:
            raise ChainFormatError(f"row {i + 1}: entry {x} exceeds 1")
        out.append(x)
        lcm = math.lcm(d, den)
        d, total = lcm, total * (lcm // d) + num * (lcm // den)
    if total != d:
        raise ChainFormatError(f"row {i + 1} sums to {sum(out)}, expected exactly 1")
    return cols, out


def _float_row(row, cols, i):
    """(columns, floats) of row's entries at cols, less any that are 0.0 as
    floats. A diagonal entry of exactly 1.0 must stand alone in its row:
    beside entries too small to move the sum, it would make a state
    absorbing whose fire still moves hunger."""
    out = []
    for j in cols:
        x = float(row[j])
        if not math.isfinite(x):
            raise ChainFormatError(f"row {i + 1}: non-finite entry {x}")
        if x < 0:
            raise ChainFormatError(f"row {i + 1}: negative entry {x}")
        if x > 1 + _ROW_SUM_TOL:
            raise ChainFormatError(f"row {i + 1}: entry {x} exceeds 1")
        out.append(x)
    s = sum(out, 0.0)
    if abs(s - 1.0) > _ROW_SUM_TOL:
        raise ChainFormatError(f"row {i + 1} sums to {s}, expected 1")
    if s != 1.0:
        out = [x / s for x in out]  # renormalize away the last few ulps
    if (i, 1.0) in zip(cols, out) and sum(x > 0 for x in out) > 1:
        raise ChainFormatError(
            f"row {i + 1}: a diagonal entry of 1 beside other positive ones"
        )
    return [j for j, x in zip(cols, out) if x], [x for x in out if x]


def _dense(chain: MarkovChain, zero, cell=None):
    """P as n lists of n cells: zero, and P_ij (or cell(P_ij)) at the
    nonzero entries."""
    out = [[zero] * chain.n for _ in range(chain.n)]
    for i, row in enumerate(chain.rows()):
        for j, x in row:
            out[i][j] = x if cell is None else cell(x)
    return out


def _as_index(i, what: str = "state index") -> int:
    """i as an int (numpy integers too); ValueError if i is not an integer."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{what} {i!r} is not an integer") from None


def _count(x, what: str, least: int = 0) -> int:
    """x as an int (numpy integers too): ValueError naming `what` if x is
    not an integer or is below least. Every step count, N, cap and
    sample count is checked here."""
    x = _as_index(x, what)
    if x < least:
        raise ValueError(f"{what} must be >= {least}")
    return x


def _check_state(chain: MarkovChain, i) -> None:
    """Raises ValueError unless i is an integer state index of chain, 0..n-1."""
    if not 0 <= _as_index(i) < chain.n:
        raise ValueError(f"state index {i} out of range 0..{chain.n - 1}")


@dataclass(frozen=True)
class HungerMatrix:
    """H = P - I; every row sums to 0."""

    H: Tuple[Tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class ReroutedChain:
    """Result of redirecting all absorbing states into a start state v.

    Attributes:
        chain: the rerouted (always irreducible) chain.
        origin: index of v in the new chain.
        kept: tuple mapping new indices to original indices.
        absorbing_images: new indices of the retained original absorbing states.
    """

    chain: MarkovChain
    origin: int
    kept: Tuple[int, ...]
    absorbing_images: frozenset


def _json_object(pairs) -> dict:
    """A JSON object as a dict; a key given twice, whose first value the
    dict would drop unread, raises ChainFormatError."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        twice = sorted({k for k in keys if keys.count(k) > 1})
        raise ChainFormatError(f"duplicate keys {twice}")
    return dict(pairs)


def parse_chain(text: str) -> MarkovChain:
    """Parse a chain definition document (JSON).

    The document is one object with fields `mode` ("rational" or "float"),
    optional `states` (array of names), and `P` (n rows of n entries), and
    no others. Rational entries are strings "a/b" or "a"; float entries are
    numbers.

    Raises:
        ChainFormatError: on malformed documents of any kind, including
            unknown and duplicate keys, which would otherwise be dropped
            unread.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as e:
        raise ChainFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ChainFormatError("chain document must be a JSON object")
    unknown = sorted(set(doc) - {"mode", "states", "P"})
    if unknown:
        raise ChainFormatError(
            f"unknown keys {unknown}; a chain has only mode, states and P"
        )
    mode = doc.get("mode")
    if mode not in (RATIONAL, FLOAT):
        raise ChainFormatError(f"mode must be 'rational' or 'float', got {mode!r}")
    P = doc.get("P")
    if not isinstance(P, list) or not P or not all(isinstance(r, list) for r in P):
        raise ChainFormatError("P must be a non-empty array of rows")
    rows = []
    memo = {}  # token -> Fraction: each distinct token is parsed once
    for i, row in enumerate(P):
        parsed = []
        for x in row:
            if mode == RATIONAL:
                if isinstance(x, (int, float)) or not isinstance(x, str):
                    raise ChainFormatError(
                        f"row {i + 1}: rational mode entries must be strings, "
                        f"got {x!r}"
                    )
                q = memo.get(x)
                if q is None:
                    q = memo[x] = parse_rational(x)
                parsed.append(q)
            else:
                if not isinstance(x, (int, float)) or isinstance(x, bool):
                    raise ChainFormatError(
                        f"row {i + 1}: float mode entries must be numbers, got {x!r}"
                    )
                parsed.append(float(x))
        rows.append(parsed)
    labels = doc.get("states")
    if "states" in doc and not isinstance(labels, list):
        raise ChainFormatError(f"states must be an array of names, got {labels!r}")
    return MarkovChain(rows, labels=labels, mode=mode)


def chain_to_document(chain: MarkovChain) -> str:
    """Serialize back to the document format (round-trips parse_chain)."""
    if chain.mode == RATIONAL:
        P = _dense(chain, "0", fmt_scalar)
    else:
        P = _dense(chain, 0.0)
    return json.dumps(
        {"mode": chain.mode, "states": list(chain.labels), "P": P}, indent=2
    )


def _chip_moves(chain: MarkovChain, d):
    """The chips a fire at each state i moves under thresholds d: pairs
    (j, d_i * H_ij) over row i's entries and diagonal, from the rows D * H
    (exact when d_i clears row i)."""
    csr = chain._kernel_rows[0]
    pairs, ptr = list(zip(csr.indices.tolist(), csr.values.tolist())), csr.indptr.tolist()
    rows = zip(d, ptr, ptr[1:])
    return [[(j, di * x // chain.D) for j, x in pairs[a:b]] for di, a, b in rows]


def absorbing_states(chain: MarkovChain) -> frozenset:
    """Indices i with P_ii = 1 (exact equality in both modes), kept on the
    chain with its mask (MarkovChain._absorbing)."""
    return chain._absorbing[1]


def _reachable_from(adj, *starts):
    seen = set(starts)
    stack = list(starts)
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def is_irreducible(chain: MarkovChain) -> bool:
    """True iff the positive-probability digraph is strongly connected.

    One forward and one backward reachability sweep from state 0 suffice:
    the graph is one strongly connected component exactly when state 0
    reaches everything and everything reaches state 0.
    """
    ptr = chain.indptr
    adj = [chain.indices[a:b] for a, b in zip(ptr, ptr[1:])]
    return len(_reachable_from(adj, 0)) == chain.n == len(_reaching(chain, 0))


def _reaching(chain: MarkovChain, *targets) -> set:
    """The states with a path of positive probability to one of targets,
    the targets included."""
    into = [[] for _ in range(chain.n)]
    rows = np.repeat(np.arange(chain.n), np.diff(chain.indptr)).tolist()
    for i, j in zip(rows, chain.indices):
        into[j].append(i)
    return _reachable_from(into, *targets)


def hunger_matrix(chain: MarkovChain) -> HungerMatrix:
    """H = P - I, dense, as the exact solves take it. Firing at i adds row
    H_i to the hunger vector."""
    one = _ONE[chain.mode]
    H = _dense(chain, one - one)
    for i in range(chain.n):
        H[i][i] -= one
    return HungerMatrix(tuple(map(tuple, H)))


def stationary_distribution(chain: MarkovChain) -> Tuple[Scalar, ...]:
    """The unique probability vector with pi P = pi.

    Exact in rational mode (fraction-free Gauss-Jordan elimination on
    integers, see _linalg). The solve looks for the left nullspace of
    H = P - I; a dimension above one means the chain has several recurrent
    classes.

    Raises:
        NonUniqueStationary: when the stationary space is not one-dimensional.
    """
    return _stationary(chain, ())[0]


def _stationary(chain: MarkovChain, bs):
    """(pi, xs): the stationary distribution, and for each b in bs one
    solution x of H^T x = b (None if there is none), from one elimination."""
    # transpose: left null vectors of H are null vectors of H^T
    A = list(zip(*hunger_matrix(chain).H))
    tol = None if chain.mode == RATIONAL else _FLOAT_PIVOT_TOL
    basis, xs = _reduce(A, bs, tol)
    if len(basis) != 1:
        raise NonUniqueStationary(
            f"stationary space has dimension {len(basis)}, expected 1"
        )
    v = basis[0]
    total = sum(v)
    if total == 0:
        raise NonUniqueStationary("degenerate stationary solve")
    pi = [x / total for x in v]
    if chain.mode == FLOAT:
        pi = [0.0 if abs(x) < _FLOAT_PIVOT_TOL else x for x in pi]
        s = sum(pi)
        pi = [x / s for x in pi]
    return tuple(pi), xs


def _stationary_record(chain: MarkovChain):
    """(pi, lcd, a) from one stationary_distribution solve: pi, and in
    rational mode its lcd and the integers a = lcd * pi (else None). Every
    reader of the lcd takes it from here; no solve is kept between calls."""
    pi = stationary_distribution(chain)
    if chain.mode == FLOAT:
        return pi, None, None
    lcd = math.lcm(*(p.denominator for p in pi))
    return pi, lcd, tuple(p.numerator * (lcd // p.denominator) for p in pi)


def lcd_of_stationary(chain: MarkovChain) -> int:
    """Least common denominator of the stationary probabilities
    (_stationary_record).

    Raises:
        FloatModeUnsupported: float chains have no exact denominators.
        NonUniqueStationary: propagated from the solve.
    """
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("lcd is defined for rational chains only")
    return _stationary_record(chain)[1]


def common_denominator(chain: MarkovChain) -> int:
    """lcm of all transition probability denominators (rational mode)."""
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("common denominator needs rational mode")
    return chain.D


def float_matrix(chain: MarkovChain) -> np.ndarray:
    """P as a float64 array (lossy in rational mode; for simulation only)."""
    out = np.zeros((chain.n, chain.n))
    rows = np.repeat(np.arange(chain.n), np.diff(chain.indptr))
    out[rows, np.array(chain.indices)] = [float(x) for x in chain.entries]
    return out


def make_absorbing(chain: MarkovChain, u: int) -> MarkovChain:
    """Replace row u by the unit self-loop; everything else unchanged.

    Raises:
        ValueError: u is not a state index.
    """
    _check_state(chain, u)
    rows = [
        {u: _ONE[chain.mode]} if i == u else dict(row)
        for i, row in enumerate(chain.rows())
    ]
    return MarkovChain(rows, labels=chain.labels, mode=chain.mode)


def reroute(chain: MarkovChain, v: int) -> ReroutedChain:
    """Send every absorbing state to v with probability 1 and drop states
    that the modified chain cannot reach from v.

    The result is irreducible whenever every retained state can reach an
    absorbing state in the original chain (the usual precondition for the
    hitting and absorption estimators).

    Raises:
        NoAbsorbingStates: the chain has no absorbing state.
        VIsAbsorbing: v itself is absorbing.
        ValueError: v is not a state index, or the rerouted chain came out
            reducible, which means some state reachable from v never
            reaches an absorbing state.
    """
    _check_state(chain, v)
    absorbing = absorbing_states(chain)
    if not absorbing:
        raise NoAbsorbingStates("reroute needs at least one absorbing state")
    if v in absorbing:
        raise VIsAbsorbing(f"cannot reroute into absorbing state {chain.labels[v]}")
    one = _ONE[chain.mode]
    rows = [
        {v: one} if i in absorbing else dict(row) for i, row in enumerate(chain.rows())
    ]
    kept = tuple(sorted(_reachable_from(rows, v)))  # a row's keys are its targets
    new = {i: k for k, i in enumerate(kept)}
    rerouted = MarkovChain(
        [{new[j]: x for j, x in rows[i].items()} for i in kept],
        labels=[chain.labels[i] for i in kept],
        mode=chain.mode,
    )
    if not is_irreducible(rerouted):
        raise ValueError(
            "rerouted chain is reducible; some retained state cannot reach "
            "an absorbing state"
        )
    images = frozenset(new[u] for u in absorbing if u in new)
    return ReroutedChain(rerouted, new[v], kept, images)


def split_vertex(chain: MarkovChain, v: int):
    """Split v into a departure copy v0 and an arrival copy v1.

    All out-edges of v leave from v0 (a self-loop at v becomes v0 -> v1);
    every edge into v now ends at v1; v1 is made absorbing so the result is
    a valid chain. Returns (new_chain, v0, v1) where v0 keeps v's index and
    v1 = n.

    Used for escape probabilities and return times, where v1 plays the role
    of "came back to v".

    Raises:
        ValueError: v is not a state index.
    """
    _check_state(chain, v)
    n = chain.n
    # an edge into v lands on the arrival copy
    rows = [{n if j == v else j: x for j, x in row} for row in chain.rows()]
    rows.append({n: _ONE[chain.mode]})
    new_label = chain.labels[v] + "_in"
    labels = list(chain.labels)
    while new_label in labels:
        new_label += "_"
    labels.append(new_label)
    return MarkovChain(rows, labels=labels, mode=chain.mode), v, n
