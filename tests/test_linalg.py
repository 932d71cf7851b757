"""The exact elimination in hungerlab._linalg against the plain Fraction
Gauss-Jordan reference in oracles.py, a pinned dump of the exact oracles
built on it, and a count of eliminations per CLI command."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hungerlab import (
    MarkovChain,
    absorption_time,
    escape_probability,
    expected_return_time,
    hitting_oracle,
    lattice_basis,
    lattice_member,
    lcd_of_stationary,
    stationary_distribution,
)
from hungerlab import _linalg, cli
from hungerlab.chain_model import absorbing_states, is_irreducible
from oracles import (
    nullspace_fraction,
    random_absorbing_chain,
    random_irreducible_chain,
    solve_fraction,
)

CHAINS = Path(__file__).resolve().parent.parent / "chains"

# ---------------------------------------------------------------------------
# nullspace and solutions against the reference elimination


@st.composite
def entries(draw):
    """A rational entry: mostly zero or small, sometimes with a 2^64
    denominator or a huge numerator."""
    kind = draw(st.sampled_from(("zero", "zero", "small", "small", "wide", "huge")))
    if kind == "zero":
        return Fraction(0)
    if kind == "small":
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
    if kind == "wide":
        return Fraction(draw(st.integers(-(2**70), 2**70)), 2**64)
    return Fraction(draw(st.integers(-(2**64), 2**64)), draw(st.integers(1, 2**64 + 13)))


@st.composite
def systems(draw):
    """(A, bs): square, wide or tall A, sometimes rank-deficient or all
    zero, and up to three right-hand sides, some consistent by
    construction."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("random", "random", "deficient", "zero")))
    if shape == "zero":
        A = [[Fraction(0)] * ncols for _ in range(nrows)]
    else:
        A = [[draw(entries()) for _ in range(ncols)] for _ in range(nrows)]
        if shape == "deficient" and nrows > 1:
            # the last row repeats a combination of the others
            a, b = draw(entries()), draw(entries())
            A[-1] = [a * x + b * y for x, y in zip(A[0], A[-2])]
    bs = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = [draw(entries()) for _ in range(ncols)]
            bs.append([sum(r * y for r, y in zip(row, x)) for row in A])
        else:
            bs.append([draw(entries()) for _ in range(nrows)])
    return A, bs


@settings(max_examples=300, deadline=None, database=None)
@given(systems())
def test_nullspace_and_solve_match_the_reference_elimination(system):
    A, bs = system
    assert _linalg._reduce(A, bs, None) == (nullspace_fraction(A), solve_fraction(A, bs))


def test_one_by_one_and_inconsistent_systems():
    assert _linalg._reduce([[Fraction(0)]], (), None)[0] == [(Fraction(1),)]
    assert _linalg._reduce([[Fraction(-3, 7)]], (), None)[0] == []
    assert _linalg._reduce([[Fraction(-3, 7)]], [[Fraction(1, 2)]], None)[1] == [(Fraction(-7, 6),)]
    # x + y = 1 and 2x + 2y = 3 have no common solution; 2x + 2y = 2 does
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    b_bad = [Fraction(1), Fraction(3)]
    b_ok = [Fraction(1), Fraction(2)]
    assert _linalg._reduce(A, [b_bad, b_ok], None)[1] == [None, (Fraction(1), Fraction(0))]
    assert _linalg._reduce([[Fraction(0)]], [[Fraction(1)]], None)[1] == [None]


# ---------------------------------------------------------------------------
# pinned oracle values on seeded random chains


def _big_chain(rng, n):
    """Random sparse irreducible chain whose rows have denominators near
    2^40."""
    while True:
        P = []
        for _ in range(n):
            w = [0] * n
            for j in rng.sample(range(n), min(n, 3)):
                w[j] = rng.randint(1, 2**40)
            P.append([Fraction(x, sum(w)) for x in w])
        chain = MarkovChain(P)
        if is_irreducible(chain):
            return chain


def _as_float(chain):
    return MarkovChain([[float(x) for x in row] for row in chain.P], mode="float")


def _oracle_dump():
    rng = random.Random(20260)
    out = []
    chains = [random_irreducible_chain(rng, rng.randint(2, 9), rng.choice((6, 12)))
              for _ in range(40)]
    chains += [_big_chain(rng, rng.randint(2, 8)) for _ in range(10)]
    for c in chains:
        lat = lattice_basis(c)
        out.append(repr((stationary_distribution(c), lcd_of_stationary(c), lat)))
        coords = [rng.randint(-3, 3) for _ in range(c.n - 1)]
        ys = (lat.basis[0], tuple(x / 2 for x in lat.basis[0]),
              tuple(coords) + (-sum(coords),))
        out.append(repr([lattice_member(c, y) for y in ys]))
        out.append(repr(expected_return_time(c, 0, 1).exact))
        out.append(repr(escape_probability(c, 0, c.n - 1, 1).exact))
        out.append(repr(stationary_distribution(_as_float(c))))
    for _ in range(20):
        a = random_absorbing_chain(rng, rng.randint(3, 8), rng.choice((6, 12)))
        sinks = absorbing_states(a)
        for v in range(a.n):
            out.append(repr(hitting_oracle(a, v)))
            if v not in sinks:
                out.append(repr(absorption_time(a, v, 1).exact))
        out.append(repr(hitting_oracle(_as_float(a), 0)))
    return "\n".join(out)


def test_oracle_values_unchanged():
    digest = hashlib.sha256(_oracle_dump().encode()).hexdigest()
    assert digest == "ac5843bf8d9c699207821ba21e7d303316b27ea57592c82c7cb8cd8b841d32c8"


# ---------------------------------------------------------------------------
# one exact elimination per CLI command


def test_cli_oracles_eliminate_once(monkeypatch):
    calls = []
    rref = _linalg._rref
    monkeypatch.setattr(_linalg, "_rref", lambda *a: calls.append(a) or rref(*a))
    walk = str(CHAINS / "absorbing_walk5.json")
    refl = str(CHAINS / "reflecting3.json")
    demo = str(CHAINS / "basin_demo3.json")
    commands = {
        "stationary": ["--chain", refl, "--N", "50"],
        "hitting": ["--chain", walk, "--from", "v3", "--N", "50"],
        "absorb": ["--chain", walk, "--from", "v3", "--N", "50"],
        "escape": ["--chain", refl, "--from", "v1", "--target", "v3", "--N", "50"],
        "return-time": ["--chain", refl, "--from", "v2", "--N", "50"],
        "cover": ["--chain", demo, "--h0=1/2,-1/2,0"],
    }
    counts = {}
    for name, args in commands.items():
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([name, *args]) == 0
        counts[name] = len(calls)
    assert counts == {name: 1 for name in commands}
