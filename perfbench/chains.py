"""Seeded chain generators and the float oracles the checks compare against.

Generated chains are mixtures of three permutation matrices, so every row
has three nonzero entries and every column sums to one: the
stationary distribution is uniform, whatever the seed. That gives the
checks an oracle that needs no linear algebra from the library, and keeps
the cost of a workload the same from seed to seed.

The bounds on N times the deviation follow from the boundedness lemma:
from zero hunger every entry stays in [-1, n-1], so the firing counts v of
an N-step run satisfy |v - N pi|_1 <= (n-1) * sum|Z| with Z the
fundamental matrix (I - P + 1 pi)^-1.
"""

import random
from fractions import Fraction

import numpy as np

import hungerlab
from hungerlab.chain_model import float_matrix


def mixture_chain(rng: random.Random, n: int, circulant: bool = False):
    """Sparse, doubly stochastic rational chain on n >= 3 states.

    The first permutation is one n-cycle (a shift by one when circulant),
    so the chain is irreducible. The three permutations never send a state
    to the same place, so every row holds the three weights and no entry
    merges into a near-deterministic one; orbit and sweep costs then vary
    little from seed to seed.
    """
    d = rng.choice([4, 5, 6])
    a = rng.randint(1, d - 2)
    b = rng.randint(1, d - a - 1)
    if 3 * a == 3 * b == d:  # three equal weights make every row uniform
        a, b = 1, 2
    weights = [Fraction(a, d), Fraction(b, d), Fraction(d - a - b, d)]
    if circulant:
        shifts = [1] + rng.sample(range(2, n), 2)
        perms = [[(i + k) % n for i in range(n)] for k in shifts]
    else:
        cycle = list(range(n))
        rng.shuffle(cycle)
        first = [0] * n
        for k in range(n):
            first[cycle[k]] = cycle[(k + 1) % n]
        while True:
            perms = [first] + [rng.sample(range(n), n) for _ in range(2)]
            if all(len({p[i] for p in perms}) == 3 for i in range(n)):
                break
    P = [[Fraction(0)] * n for _ in range(n)]
    for w, perm in zip(weights, perms):
        for i in range(n):
            P[i][perm[i]] += w
    return hungerlab.MarkovChain(P)


def as_float(chain):
    """The same chain in float mode."""
    P = [[float(x) for x in row] for row in chain.P]
    return hungerlab.MarkovChain(P, chain.labels, hungerlab.FLOAT)


def zero_sum_start(rng: random.Random, n: int, lo=-1.5, hi=1.5, max_den=20):
    """Zero-sum rational hunger vector with small denominators."""
    coords = []
    for _ in range(n - 1):
        den = rng.randint(1, max_den)
        coords.append(Fraction(rng.randint(int(lo * den), int(hi * den)), den))
    return tuple(coords) + (-sum(coords),)


def huge_scale_start(rng: random.Random, n: int):
    """Zero-sum start whose denominators push the scale S past 2^80, so a
    rational run cannot use the int64 kernel."""
    p = rng.randrange(2**40, 2**41)
    q = rng.randrange(2**40, 2**41)
    return (Fraction(1, p), Fraction(1, q), -Fraction(1, p) - Fraction(1, q)) + (
        Fraction(0),
    ) * (n - 3)


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible chain, by numpy."""
    n = P.shape[0]
    A = np.vstack([(P - np.eye(n)).T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def firing_bound(P: np.ndarray):
    """(pi, eps) with |v - N pi|_1 <= eps for every zero-start run."""
    n = P.shape[0]
    pi = stationary(P)
    Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), pi))
    return pi, (n - 1) * float(np.abs(Z).sum())


def rerouted_bound(rerouted):
    """(Pi, eps) for a rerouted chain: the stationary mass of the absorbing
    images and the firing bound of the rerouted run."""
    pi, eps = firing_bound(float_matrix(rerouted.chain))
    return float(sum(pi[u] for u in rerouted.absorbing_images)), eps
