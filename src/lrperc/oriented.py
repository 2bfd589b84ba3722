"""Cluster growth and survival estimation on the oriented graph.

Vertices are (x, n) with x in Z^d and generation n >= 0; every bond points
one generation upward and displaces along a single coordinate axis by a
nonzero integer i with |i| <= k.  Axis-1 bonds draw their probability from
one sequence and all remaining axes from a second one, matching the
anisotropic two-sequence setting.

Survival is decided on a finite horizon inside a finite absorbing spatial
window; both truncations bias survival downward, so positive estimates are
conservative.

A bond's uniform and its probability p_|i| do not depend on k, so the bond
is open at truncation k exactly when |i| <= k and it is open at any larger
range.  The sweep therefore carries each reached vertex's bottleneck label,
the least k at which it is reached:

    label(origin) = 0,
    label(child)  = min over open in-bonds of max(label(parent), |i|),

the minimax labelling of invasion percolation (Wilkinson & Willemsen 1983).
A vertex is reached at truncation k exactly when its label is <= k, so the
front at `params.k` is every labelled vertex, and `critical_k`, the
least label on the generation-`horizon` front, decides survival at every
k <= params.k: the cluster survives at k iff critical_k <= k.  One sweep at
the largest k of a k-sweep answers every k of it.
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
        if self.k < 0:
            raise ValueError("truncation range must be nonnegative")
        if self.horizon < 0 or self.window < 0:
            raise ValueError("horizon and window must be nonnegative")

    def axis_prob(self, axis: int, disp: int) -> float:
        seq = self.pseq if axis == 1 else self.qseq
        return seq.term(abs(disp))

    def displacement_table(self):
        """(vectors, axes, disps, probs) arrays over the 2*d*min(k, 2*window)
        candidate moves: a move longer than 2*window leaves the window from
        every vertex inside it."""
        vecs, axes, disps, probs = [], [], [], []
        for m in range(1, self.d + 1):
            for i in range(1, min(self.k, 2 * self.window) + 1):
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
    critical_k: int | None = None  # least label at generation horizon; None if it died
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


def _advance_front(fld: BondField, front: np.ndarray, labels: np.ndarray, n: int,
                   table, window: int):
    """One breadth-first generation step from a labelled front.

    `front` has shape (d, F): row j holds coordinate x_{j+1} of each of
    the F vertices, and `labels` their bottleneck labels.  Returns the
    deduplicated next front, its vertices in lexicographic order, and each
    vertex's least candidate label max(label[parent], |disp|).
    """
    vecs, axes, disps, probs = table
    if front.shape[1] == 0 or len(vecs) == 0:
        return front[:, :0], labels[:0]
    cols = [np.full((1, 1), TAG_G), np.full((1, 1), n)]
    cols += [x[:, None] for x in front]
    cols += [axes[None, :], disps[None, :]]
    parent, move = np.divmod(np.flatnonzero(fld.open_mask(cols, probs[None, :])), len(vecs))
    nxt = [x[parent] + v[move] for x, v in zip(front, vecs.T)]
    lab = np.maximum(labels[parent], np.abs(disps[move]))
    inside = np.logical_and.reduce([np.abs(x) <= window for x in nxt])
    nxt, lab = [x[inside] for x in nxt], lab[inside]
    # by (x_1, ..., x_d), then label: the first of each vertex's run is its least
    order = np.lexsort((lab, *nxt[::-1]))
    nxt = [x[order] for x in nxt]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in nxt])
    return np.array([x[first] for x in nxt]), lab[order][first]


def explore(fld: BondField, params: ExplorationParams, collect: bool = False) -> ExplorationResult:
    """Generation-by-generation sweep from the origin (0, ..., 0; 0).

    `survived`, `front_sizes`, `total_visited` and `fronts` describe the
    cluster at truncation params.k; `critical_k` is the least k <= params.k
    at which it survives (see the module docstring).  Only two fronts are
    alive at a time unless `collect` asks for the full per-generation
    history (used by subset-relation tests).
    """
    table = params.displacement_table()
    front = np.zeros((params.d, 1), dtype=np.int64)
    labels = np.zeros(1, dtype=np.int64)
    sizes = [1]
    fronts = [{(tuple(front[:, 0]), 0)}] if collect else None
    total = 1
    for n in range(params.horizon):
        front, labels = _advance_front(fld, front, labels, n, table, params.window)
        sizes.append(len(labels))
        total += len(labels)
        if collect:
            fronts.append({(v, n + 1) for v in zip(*front)})
        if len(labels) == 0:
            sizes.extend([0] * (params.horizon - n - 1))
            if collect:
                fronts.extend([set()] * (params.horizon - n - 1))
            break
    critical = int(labels.min()) if len(labels) else None
    return ExplorationResult(sizes[params.horizon] > 0, sizes, total, critical, fronts)
