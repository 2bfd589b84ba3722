"""Exact survival probabilities of small systems.

The Monte Carlo k-sweeps and the cone scan are checked replica by replica
against scalar oracles that read the same stream and share the kernel's probability
tables and geometry, so a fault the two share passes both.  The values
here come from the law the sweep samples instead, computed by a transfer
matrix over the fronts, and are compared with the sweep's counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lrperc.sequences import TruncatedSequence


def oriented_survival_d1(pseq: TruncatedSequence, window: int, horizon: int) -> float:
    """P(the d = 1 oriented cluster of the origin has a vertex at generation
    `horizon`), every vertex kept in |x| <= window.

    The state is the front S, a subset of {-W..W}.  Every bond is its own,
    so given S each target y is reached independently, with probability
    1 - prod_{x in S} (1 - p_|y-x|), where p_0 = 0 and p_i = 0 for i > k.
    """
    sites = range(-window, window + 1)
    dist = {frozenset([0]): 1.0}
    for _ in range(horizon):
        nxt = {}
        for front, weight in dist.items():
            reach = [1.0 - math.prod(1.0 - pseq.term(abs(y - x)) for x in front) for y in sites]
            for hits in itertools.product((False, True), repeat=len(sites)):
                if not any(hits):
                    continue  # the empty front stays empty
                w = weight * math.prod(q if h else 1.0 - q for q, h in zip(reach, hits))
                key = frozenset(y for y, h in zip(sites, hits) if h)
                nxt[key] = nxt.get(key, 0.0) + w
        dist = nxt
    return sum(dist.values())


def cone_survival(gamma: float, horizon: int) -> float:
    """P(the site cluster of the origin on the cone {0 <= m <= n} reaches
    generation `horizon`), every site but the origin occupied w.p. gamma.

    The state is the front, a subset of {0..n} held as a bit mask.  A site
    (m, n+1) is a candidate when m or m - 1 is in the front, and each
    candidate is occupied independently.
    """
    dist = {1: 1.0}
    for _ in range(horizon):
        nxt = {}
        for front, weight in dist.items():
            cand = front | (front << 1)
            n = bin(cand).count("1")
            sub = cand
            while sub:  # every nonempty subset of the candidates
                j = bin(sub).count("1")
                nxt[sub] = nxt.get(sub, 0.0) + weight * gamma**j * (1.0 - gamma) ** (n - j)
                sub = (sub - 1) & cand
        dist = nxt
    return sum(dist.values())


def contact_survival_d1(rates: TruncatedSequence, window: int, horizon: float) -> float:
    """P(the d = 1 contact process from {0}, kept in |x| <= window, has an
    infected site at time `horizon`).

    The state is the infected set, a bit mask over {-W..W}.  Each infected
    site recovers at rate 1, and each infected u infects a healthy v at rate
    lambda_|u-v| (0 beyond k).  exp(Q t) is summed by uniformization
    (Jensen 1953): with L the largest exit rate and P = I + Q / L,
    exp(Q t) = sum_n e^(-L t) (L t)^n / n! P^n.
    """
    n = 2 * window + 1
    q = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        for a in range(n):
            if s >> a & 1:
                q[s, s & ~(1 << a)] += 1.0
                for b in range(n):
                    if not s >> b & 1:
                        q[s, s | 1 << b] += rates.term(abs(a - b))
        q[s, s] = -q[s].sum()
    rate = -q.diagonal().min()
    step = np.eye(1 << n) + q / rate
    lt = rate * horizon
    vec = np.zeros(1 << n)
    vec[1 << window] = 1.0
    weight = math.exp(-lt)
    out = weight * vec
    for j in range(1, int(lt + 12 * math.sqrt(lt) + 40)):
        vec = vec @ step
        weight *= lt / j
        out += weight * vec
    return float(out[1:].sum())


def h_probability(pseq: TruncatedSequence, window: int) -> float:
    """P(the H-event): sites 0 and 1 of a line joined by open bonds of range
    <= k, both ends of each in {-W..W}, summed over every configuration of
    those bonds."""
    bonds = [(t, t + i) for i in range(1, pseq.k + 1) for t in range(-window, window + 1 - i)]
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(bonds)):
        reached, grew = {0}, True
        while grew:
            grew = False
            for (u, v), is_open in zip(bonds, bits):
                if is_open and (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        if 1 in reached:
            total += math.prod(pseq.term(v - u) if o else 1.0 - pseq.term(v - u)
                               for (u, v), o in zip(bonds, bits))
    return total


def star_survival(eps: float, N: int, pseq: TruncatedSequence, window: int,
                  horizon: int) -> float:
    """P(the star lattice's block path reaches level `horizon`).

    Blocks at one level use disjoint lines, lines carry disjoint bonds and
    levels use disjoint bonds, so the zeta-blocks are independent, each
    holding with probability theta = (1 - (1 - eps)^N)^2 h^(2N), h the
    H-event probability.  The block path is then the cone's site
    percolation at theta: the origin's block must hold, and a path of
    held blocks must cross the next horizon - 1 levels.
    """
    theta = (1.0 - (1.0 - eps) ** N) ** 2 * h_probability(pseq, window) ** (2 * N)
    return theta * cone_survival(theta, horizon - 1)


def block_dispersion_z(hits, p: float, block: int = 100) -> float:
    """Dispersion of a sweep's 0/1 records across blocks of `block`
    consecutive replicas, as a z-score.

    With x_b the hits of block b of B, X^2 = sum_b (x_b - block p)^2 /
    (block p (1 - p)) has mean B and variance about 2B when the replicas
    are independent with success probability p, so z = (X^2 - B) /
    sqrt(2B) is about standard normal.  Replicas that share their draws,
    such as pairs reading one stream, inflate it; a mean check cannot see
    them.
    """
    return block_counts_z(np.asarray(hits).reshape(-1, block).sum(axis=1), p, block)


def block_counts_z(counts, p: float, block: int) -> float:
    """`block_dispersion_z` from the hits x_b of each block of `block`
    replicas, for a kernel that returns counts rather than records."""
    x = np.asarray(counts, dtype=np.float64)
    chi2 = float(((x - block * p) ** 2).sum()) / (block * p * (1.0 - p))
    return (chi2 - x.size) / math.sqrt(2 * x.size)
