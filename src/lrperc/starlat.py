"""Mixed-orientation lattice: oriented nearest-neighbour vertical bonds of
probability eps plus unoriented long-range horizontal bonds of probability
p_i, with the staircase/block renormalization.

The staircase walks the spatial plane alternating +e_1 (even index) and
-e_2 (odd index) steps.  An H-event connects two consecutive staircase
points by open horizontal bonds confined to their common axis line; it is
approximated inside a window of half-width W around the first point, which
can only underestimate its probability.  A zeta-block at (a, n) on the
parity sublattice requires all 2N consecutive H-events at level n plus one
open vertical bond in each half-block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bondfield import BondField, BondId
from .sequences import TruncatedSequence


@dataclass(frozen=True)
class StarParams:
    eps: float
    pseq: TruncatedSequence

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("vertical bond probability must lie in (0, 1]")

    @property
    def k(self) -> int:
        return self.pseq.k


def staircase(m: int) -> tuple:
    """gamma(m): +e_1 increments at even indices, -e_2 at odd ones, extended
    to negative m by the same relation."""
    return (-((-m) // 2), -(m // 2))


def _line(m: int):
    """(axis, target offset) of the line segment joining gamma(m), gamma(m+1)."""
    return (1, 1) if m % 2 == 0 else (2, -1)


def h_connected(fld: BondField, m: int, n: int, params: StarParams, window: int) -> bool:
    """H-event, window-W approximation: gamma(m) and gamma(m+1) joined by open
    horizontal bonds on their common line, both endpoints of every bond within
    distance `window` of gamma(m)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    base = staircase(m)
    axis, target = _line(m)
    k = params.k

    def point(t):
        x = list(base)
        x[axis - 1] += t
        return tuple(x)

    seen = {0}
    frontier = [0]
    while frontier:
        t = frontier.pop()
        for i in range(1, k + 1):
            for s in (i, -i):
                t2 = t + s
                if t2 in seen or abs(t2) > window:
                    continue
                if fld.is_open(BondId.star_horizontal(point(t), n, axis, s),
                               params.pseq.term(i)):
                    if t2 == target:
                        return True
                    seen.add(t2)
                    frontier.append(t2)
    return target in seen


@dataclass(frozen=True)
class BlockParams:
    N: int
    delta: float

    def __post_init__(self):
        if self.N < 1 or not 0.0 < self.delta <= 1.0:
            raise ValueError("need N >= 1 and failure budget in (0, 1]")


def choose_N(eps: float, delta: float) -> int:
    """Smallest block width N with (1 - (1-eps)^N)^2 > 1 - delta/2."""
    if not 0.0 < eps <= 1.0 or not 0.0 < delta <= 1.0:
        raise ValueError("need eps in (0, 1] and delta in (0, 1]")
    target = 1.0 - delta / 2.0
    n = 1
    while (1.0 - (1.0 - eps) ** n) ** 2 <= target:
        n += 1
        if n > 10_000_000:
            raise RuntimeError("no feasible block width")
    return n


def vertical_open(fld: BondField, x, n: int, params: StarParams) -> bool:
    return fld.is_open(BondId.star_vertical(x, n), params.eps)


def check_zeta(fld: BondField, a: int, n: int, block: BlockParams,
               params: StarParams, window: int) -> bool:
    """Block indicator at (a, n) on the parity sublattice (a + n even):
    all 2N consecutive H-events at level n, and at least one open vertical
    bond at the staircase points of each half-block."""
    if (a + n) % 2 != 0:
        raise ValueError(f"({a}, {n}) is off the parity sublattice")
    N = block.N
    lo = a * N
    if not all(h_connected(fld, m, n, params, window) for m in range(lo, lo + 2 * N)):
        return False
    half1 = any(vertical_open(fld, staircase(m), n, params) for m in range(lo, lo + N))
    half2 = any(vertical_open(fld, staircase(m), n, params)
                for m in range(lo + N, lo + 2 * N))
    return half1 and half2


def zeta_bond_ids(a: int, n: int, block: BlockParams, params: StarParams,
                  window: int) -> set:
    """All bond ids a zeta-block may consult: every in-window horizontal bond
    on its 2N lines plus its 2N vertical bonds.  Used to assert exact bond
    disjointness between distinct blocks."""
    ids = set()
    N, k = block.N, params.k
    for m in range(a * N, a * N + 2 * N):
        base = staircase(m)
        axis, _ = _line(m)
        for t in range(-window, window + 1):
            x = list(base)
            x[axis - 1] += t
            for i in range(1, k + 1):
                if t + i <= window:
                    ids.add(BondId.star_horizontal(tuple(x), n, axis, i))
        ids.add(BondId.star_vertical(base, n))
    return ids


def block_path_survival(fld: BondField, block: BlockParams, params: StarParams,
                        horizon: int, window: int) -> bool:
    """Existence of a_0 = 0, |a_{i+1} - a_i| = 1 with zeta(a_i, i) = 1 for all
    i < horizon (breadth-first over the parity sublattice)."""
    alive = {0}
    cache = {}
    for i in range(horizon):
        nxt = set()
        for a in alive:
            key = (a, i)
            if key not in cache:
                cache[key] = check_zeta(fld, a, i, block, params, window)
            if cache[key]:
                nxt.add(a - 1)
                nxt.add(a + 1)
        alive = nxt
        if not alive:
            return False
    return True
