"""Cluster growth and survival estimation on the oriented graph.

Vertices are (x, n) with x in Z^d and generation n >= 0; every bond points
one generation upward and displaces along a single coordinate axis by a
nonzero integer i with |i| <= k.  Axis-1 bonds draw their probability from
one sequence and all remaining axes from a second one, matching the
anisotropic two-sequence setting.

Survival is decided on a finite horizon inside a finite absorbing spatial
window; both truncations bias survival downward, so positive estimates are
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bondfield import TAG_G, BondField, BondId
from .sequences import TruncatedSequence


@dataclass(frozen=True)
class ExplorationParams:
    d: int
    k: int
    horizon: int
    window: int
    pseq: TruncatedSequence  # axis 1
    qseq: TruncatedSequence  # axes 2..d

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.horizon < 0 or self.window < 0:
            raise ValueError("horizon and window must be nonnegative")

    def axis_prob(self, axis: int, disp: int) -> float:
        seq = self.pseq if axis == 1 else self.qseq
        return seq.term(abs(disp))

    def displacement_table(self):
        """(vectors, axes, disps, probs) arrays over all 2*d*k candidate moves."""
        vecs, axes, disps, probs = [], [], [], []
        for m in range(1, self.d + 1):
            for i in range(1, self.k + 1):
                for s in (i, -i):
                    v = np.zeros(self.d, dtype=np.int64)
                    v[m - 1] = s
                    vecs.append(v)
                    axes.append(m)
                    disps.append(s)
                    probs.append(self.axis_prob(m, s))
        if not vecs:
            return (np.zeros((0, self.d), dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64), np.zeros(0))
        return (np.array(vecs), np.array(axes, dtype=np.int64),
                np.array(disps, dtype=np.int64), np.array(probs))


@dataclass
class ExplorationResult:
    survived: bool
    front_sizes: list[int]
    total_visited: int
    fronts: list[set] | None = field(default=None, repr=False)


def out_neighbors(fld: BondField, v, params: ExplorationParams) -> set:
    """Open out-neighbors of v = (x, n): all (x + i*e_m, n+1) with the bond open
    and the target inside the window."""
    x, n = v
    L = params.window
    out = set()
    for m in range(1, params.d + 1):
        for i in range(1, params.k + 1):
            for s in (i, -i):
                prob = params.axis_prob(m, s)
                y = list(x)
                y[m - 1] += s
                if abs(y[m - 1]) > L:
                    continue
                if fld.is_open(BondId.oriented(x, n, m, s), prob):
                    out.add((tuple(y), n + 1))
    return out


def _advance_front(fld: BondField, front: np.ndarray, n: int, table, window: int) -> np.ndarray:
    """One breadth-first generation step; returns the deduplicated next front."""
    vecs, axes, disps, probs = table
    if len(front) == 0 or len(vecs) == 0:
        return front[:0]
    targets = front[:, None, :] + vecs[None, :, :]  # (F, D, d)
    F, D = targets.shape[:2]
    cols = [np.full((1, 1), TAG_G), np.full((1, 1), n)]
    cols += [front[:, None, j] for j in range(front.shape[1])]
    cols += [axes[None, :], disps[None, :]]
    mask = fld.open_mask(cols, probs[None, :])
    mask &= (np.abs(targets) <= window).all(axis=2)
    nxt = targets[mask]
    if len(nxt) == 0:
        return nxt
    return np.unique(nxt, axis=0)


def explore(fld: BondField, params: ExplorationParams, collect: bool = False) -> ExplorationResult:
    """Generation-by-generation sweep from the origin (0, ..., 0; 0).

    Only two fronts are alive at a time unless `collect` asks for the full
    per-generation history (used by subset-relation tests).
    """
    table = params.displacement_table()
    front = np.zeros((1, params.d), dtype=np.int64)
    sizes = [1]
    fronts = [ {(tuple(front[0]), 0)} ] if collect else None
    total = 1
    for n in range(params.horizon):
        front = _advance_front(fld, front, n, table, params.window)
        sizes.append(len(front))
        total += len(front)
        if collect:
            fronts.append({(tuple(row), n + 1) for row in front})
        if len(front) == 0:
            sizes.extend([0] * (params.horizon - n - 1))
            if collect:
                fronts.extend([set()] * (params.horizon - n - 1))
            break
    return ExplorationResult(sizes[params.horizon] > 0, sizes, total, fronts)
