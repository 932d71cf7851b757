"""Finite Markov chains: parsing, validation, structure checks, the exact
stationary solve, and the rerouting / vertex-splitting transforms that the
estimators are built on.

A chain lives in one of two arithmetic modes. Rational mode stores every
probability as a fractions.Fraction and all derived quantities stay exact.
Float mode stores float64 and is good enough for simulation and estimation,
but the recurrence machinery refuses it.

State indices are 0-based everywhere in this API; the command line surface
translates labels and 1-based positions.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

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

_ROW_SUM_TOL = 1e-12
_FLOAT_PIVOT_TOL = 1e-9

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
        P: transition matrix as a tuple of row tuples.
        mode: "rational" or "float".
    """

    def __init__(self, P, labels=None, mode=RATIONAL):
        if mode not in (RATIONAL, FLOAT):
            raise ChainFormatError(f"unknown mode {mode!r}")
        rows = [tuple(row) for row in P]
        n = len(rows)
        if n < 1:
            raise ChainFormatError("a chain needs at least one state")
        if any(len(row) != n for row in rows):
            raise ChainFormatError("P must be square")
        if mode == RATIONAL:
            rows = [self._check_rational_row(row, i) for i, row in enumerate(rows)]
        else:
            rows = [self._check_float_row(row, i) for i, row in enumerate(rows)]
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
        self.P = tuple(rows)
        self.mode = mode

    @staticmethod
    def _check_rational_row(row, i):
        out = []
        for x in row:
            if not isinstance(x, Fraction):
                if isinstance(x, int):
                    x = Fraction(x)
                else:
                    raise ChainFormatError(
                        f"row {i + 1}: {x!r} is not an exact rational"
                    )
            if x.numerator < 0:
                raise ChainFormatError(f"row {i + 1}: negative entry {x}")
            if x.numerator > x.denominator:
                raise ChainFormatError(f"row {i + 1}: entry {x} exceeds 1")
            out.append(x)
        # the row sums to 1 exactly when its entries over their lcm d sum to d
        d = math.lcm(*(x.denominator for x in out))
        if sum(x.numerator * (d // x.denominator) for x in out) != d:
            raise ChainFormatError(
                f"row {i + 1} sums to {sum(out)}, expected exactly 1"
            )
        return tuple(out)

    @staticmethod
    def _check_float_row(row, i):
        out = []
        for x in row:
            # -0.0 is stored as 0.0: a fire then adds +0.0 wherever the row
            # is zero, and the kernels, which skip those columns, match it
            x = float(x) or 0.0
            if not math.isfinite(x):
                raise ChainFormatError(f"row {i + 1}: non-finite entry {x}")
            if x < 0:
                raise ChainFormatError(f"row {i + 1}: negative entry {x}")
            if x > 1 + _ROW_SUM_TOL:
                raise ChainFormatError(f"row {i + 1}: entry {x} exceeds 1")
            out.append(x)
        s = sum(out)
        if abs(s - 1.0) > _ROW_SUM_TOL:
            raise ChainFormatError(f"row {i + 1} sums to {s}, expected 1")
        if s != 1.0:
            out = [x / s for x in out]  # renormalize away the last few ulps
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.mode == other.mode
            and self.labels == other.labels
            and self.P == other.P
        )

    def __hash__(self):
        return hash((self.mode, self.labels, self.P))

    def __repr__(self):
        return f"MarkovChain(n={self.n}, mode={self.mode!r})"


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


def parse_chain(text: str) -> MarkovChain:
    """Parse a chain definition document (JSON).

    The document is one object with fields `mode` ("rational" or "float"),
    optional `states` (array of names), and `P` (n rows of n entries), and
    no others. Rational entries are strings "a/b" or "a"; float entries are
    numbers.

    Raises:
        ChainFormatError: on malformed documents of any kind, including
            unknown keys, which would otherwise be dropped unread.
    """
    try:
        doc = json.loads(text)
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
    for i, row in enumerate(P):
        parsed = []
        for x in row:
            if mode == RATIONAL:
                if isinstance(x, (int, float)) or not isinstance(x, str):
                    raise ChainFormatError(
                        f"row {i + 1}: rational mode entries must be strings, "
                        f"got {x!r}"
                    )
                parsed.append(parse_rational(x))
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
        P = [[fmt_scalar(x) for x in row] for row in chain.P]
    else:
        P = [list(row) for row in chain.P]
    return json.dumps(
        {"mode": chain.mode, "states": list(chain.labels), "P": P}, indent=2
    )


def absorbing_states(chain: MarkovChain) -> frozenset:
    """Indices i with P_ii = 1 (exact equality in both modes)."""
    one = Fraction(1) if chain.mode == RATIONAL else 1.0
    return frozenset(i for i in range(chain.n) if chain.P[i][i] == one)


def _adjacency(chain: MarkovChain):
    return [
        [j for j in range(chain.n) if chain.P[i][j] > 0] for i in range(chain.n)
    ]


def _reachable_from(adj, start):
    seen = {start}
    stack = [start]
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
    adj = _adjacency(chain)
    if len(_reachable_from(adj, 0)) != chain.n:
        return False
    radj = [[] for _ in range(chain.n)]
    for i, targets in enumerate(adj):
        for j in targets:
            radj[j].append(i)
    return len(_reachable_from(radj, 0)) == chain.n


def hunger_matrix(chain: MarkovChain) -> HungerMatrix:
    """H = P - I. Firing at i adds row H_i to the hunger vector."""
    one = Fraction(1) if chain.mode == RATIONAL else 1.0
    zero = one - one
    rows = tuple(
        tuple(chain.P[i][j] - (one if i == j else zero) for j in range(chain.n))
        for i in range(chain.n)
    )
    return HungerMatrix(rows)


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
    n = chain.n
    H = hunger_matrix(chain).H
    # transpose: left null vectors of H are null vectors of H^T
    A = [[H[j][i] for j in range(n)] for i in range(n)]
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


def lcd_of_stationary(chain: MarkovChain) -> int:
    """Least common denominator of the stationary probabilities.

    Raises:
        FloatModeUnsupported: float chains have no exact denominators.
        NonUniqueStationary: propagated from the solve.
    """
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("lcd is defined for rational chains only")
    pi = stationary_distribution(chain)
    return math.lcm(*(p.denominator for p in pi))


def common_denominator(chain: MarkovChain) -> int:
    """lcm of all transition probability denominators (rational mode)."""
    if chain.mode != RATIONAL:
        raise FloatModeUnsupported("common denominator needs rational mode")
    return math.lcm(*(x.denominator for row in chain.P for x in row))


def float_matrix(chain: MarkovChain) -> np.ndarray:
    """P as a float64 array (lossy in rational mode; for simulation only)."""
    return np.array([[float(x) for x in row] for row in chain.P], dtype=np.float64)


def _unit_row(n: int, i: int, mode: str):
    one = Fraction(1) if mode == RATIONAL else 1.0
    zero = Fraction(0) if mode == RATIONAL else 0.0
    return tuple(one if j == i else zero for j in range(n))


def make_absorbing(chain: MarkovChain, u: int) -> MarkovChain:
    """Replace row u by the unit self-loop; everything else unchanged."""
    rows = [
        _unit_row(chain.n, u, chain.mode) if i == u else chain.P[i]
        for i in range(chain.n)
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
        ValueError: the rerouted chain came out reducible, which means some
            state reachable from v never reaches an absorbing state.
    """
    absorbing = absorbing_states(chain)
    if not absorbing:
        raise NoAbsorbingStates("reroute needs at least one absorbing state")
    if v in absorbing:
        raise VIsAbsorbing(f"cannot reroute into absorbing state {chain.labels[v]}")
    rows = [
        _unit_row(chain.n, v, chain.mode) if i in absorbing else chain.P[i]
        for i in range(chain.n)
    ]
    adj = [[j for j in range(chain.n) if rows[i][j] > 0] for i in range(chain.n)]
    reachable = _reachable_from(adj, v)
    kept = tuple(sorted(reachable))
    new_rows = [[rows[i][j] for j in kept] for i in kept]
    new_labels = [chain.labels[i] for i in kept]
    rerouted = MarkovChain(new_rows, labels=new_labels, mode=chain.mode)
    if not is_irreducible(rerouted):
        raise ValueError(
            "rerouted chain is reducible; some retained state cannot reach "
            "an absorbing state"
        )
    origin = kept.index(v)
    images = frozenset(kept.index(u) for u in absorbing if u in reachable)
    return ReroutedChain(rerouted, origin, kept, images)


def split_vertex(chain: MarkovChain, v: int):
    """Split v into a departure copy v0 and an arrival copy v1.

    All out-edges of v leave from v0 (a self-loop at v becomes v0 -> v1);
    every edge into v now ends at v1; v1 is made absorbing so the result is
    a valid chain. Returns (new_chain, v0, v1) where v0 keeps v's index and
    v1 = n.

    Used for escape probabilities and return times, where v1 plays the role
    of "came back to v".
    """
    n = chain.n
    zero = Fraction(0) if chain.mode == RATIONAL else 0.0
    rows = []
    for i in range(n):
        row = list(chain.P[i]) + [zero]
        row[n] = row[v]  # edge into v lands on the arrival copy
        row[v] = zero
        rows.append(row)
    rows.append([zero] * (n + 1))
    one = Fraction(1) if chain.mode == RATIONAL else 1.0
    rows[n][n] = one
    new_label = chain.labels[v] + "_in"
    labels = list(chain.labels)
    while new_label in labels:
        new_label += "_"
    labels.append(new_label)
    return MarkovChain(rows, labels=labels, mode=chain.mode), v, n
