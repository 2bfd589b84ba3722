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

Each generation hashes its bonds on a (vertex, axis, range) grid, so only
the displacement word is folded once per bond; the vertex and axis words
are folded once per vertex and per (vertex, axis).  The candidates are
then deduplicated by one `np.sort` of an int64 key, each candidate's cell
in the candidates' bounding box times (max label + 1) plus its label,
keeping the first key of each cell.  A box too large for that key takes a
three-key lexsort over (label, x_d, ..., x_1) instead; both give the
vertices in lexicographic order, each with its least label.
"""

from __future__ import annotations

import math
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

    The move table is axis-major, with 2k' moves per axis for
    k' = min(k, 2 * window), so the bonds are hashed on a (vertex, axis,
    range) grid: each coordinate column is folded at (F, 1, 1), the axis
    word at (F, d, 1), and only the displacement at the full (F, d, 2k').
    The grid flattens in C order to the table's move index.
    """
    vecs, axes, disps, probs = table
    if front.shape[1] == 0 or len(vecs) == 0:
        return front[:, :0], labels[:0]
    d = len(front)
    grid = (d, len(vecs) // d)
    cols = [np.full((1, 1, 1), TAG_G), np.full((1, 1, 1), n)]
    cols += [x[:, None, None] for x in front]
    cols += [axes.reshape(grid)[None, :, :1], disps.reshape(grid)[None, :1, :]]
    is_open = fld.open_mask(cols, probs.reshape(1, *grid))
    parent, move = np.divmod(np.flatnonzero(is_open), len(vecs))
    nxt = [x[parent] + v[move] for x, v in zip(front, vecs.T)]
    lab = np.maximum(labels[parent], np.abs(disps[move]))
    inside = np.logical_and.reduce([np.abs(x) <= window for x in nxt])
    return _dedupe([x[inside] for x in nxt], lab[inside])


_KEY_LIMIT = 2**63  # cells x labels the int64 key holds; a wider box takes the lexsort


def _dedupe(nxt: list, lab: np.ndarray):
    """The distinct vertices of the candidates `nxt` (one coordinate array
    per axis) in lexicographic order, each with its least label in `lab`."""
    if len(lab) == 0:
        return np.array(nxt), lab
    lo = [int(x.min()) for x in nxt]
    ext = [int(x.max()) - m + 1 for x, m in zip(nxt, lo)]
    span = int(lab.max()) + 1
    if math.prod(ext) * span > _KEY_LIMIT:
        return _dedupe_lexsort(nxt, lab)
    cell = nxt[0] - lo[0]
    for x, m, e in zip(nxt[1:], lo[1:], ext[1:]):
        cell = cell * e + (x - m)
    # ascending keys run by cell, least label first within a cell
    cell, lab = np.divmod(np.sort(cell * span + lab), span)
    first = np.ones(len(cell), dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    cell, lab = cell[first], lab[first]
    out = np.empty((len(nxt), len(cell)), dtype=np.int64)
    for j in range(len(nxt) - 1, 0, -1):
        cell, out[j] = np.divmod(cell, ext[j])
        out[j] += lo[j]
    out[0] = cell + lo[0]
    return out, lab


def _dedupe_lexsort(nxt: list, lab: np.ndarray):
    """`_dedupe` by a three-key lexsort over (label, x_d, ..., x_1)."""
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
