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
