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
front at `params.k`, the larger of the two sequences' own truncations, is
every labelled vertex, and `critical_k`, the least label on the
generation-`horizon` front, decides survival at every k <= params.k: the
cluster survives at k iff critical_k <= k.

`critical_k` finds that label by iterative deepening (Korf 1985): it runs
`explore` at truncation r = 1, 2, 4, ..., up to min(params.k, 2 * window),
and gives each replica the least label of the first sweep whose horizon
front it reaches.  This is exact: a bond's id, uniform and probability do
not depend on r, so the sweep at r labels exactly the vertices whose label
is <= r, each with its label.  Its front is empty iff critical_k > r, and
otherwise its least label is critical_k; the last sweep sees every move
that can land in the window.  A sweep at r hashes at most 2r moves per
vertex and axis, so a replica that stops at a small r never hashes the
longer bonds.  `explore` stays the engine of each sweep and, at params.k,
the oracle of `critical_k`.

Both take a batch field (`root.derive_replica(replicas)`), whose replicas
are swept together, and give each replica its critical k, params.k + 1
where it survives at no k <= params.k.  A sweep's front holds the vertices
of all its replicas, keyed by (replica, x), so a generation costs a fixed
number of numpy calls however many replicas it steps; each later
truncation re-sweeps only the replicas that the one before lost.  Each
vertex hashes its bonds on its own replica's stream, gathered by
`BondField.take`, with the same ids [TAG_G, n, x_1..x_d, axis, disp], so
batching changes no draw.

Each generation hashes its bonds on a (vertex, axis, range) grid, so only
the displacement word is folded once per bond; the vertex and axis words
are folded once per vertex and per (vertex, axis), and the tag and
generation once per replica, in `uniforms` calls of a bounded number of
ids.  The candidates are then deduplicated by one `np.sort` of an int64
key, each candidate's cell in the candidates' bounding box of (replica, x)
shifted left past the label bits, plus its label, keeping the first key of
each cell.  A box too large for that key takes a lexsort over (label, x_d,
..., x_1, replica) instead; both give the vertices in lexicographic order,
each with its least label.

A batch's fronts are held, and their candidates deduplicated, together,
so a sweep's memory grows with the batch.  The survival runner therefore
cuts its replicas into chunks of `chunk_cap` replicas, whose windows hold
at most _BATCH_CELLS cells in all, or one where a window holds more: a
chunk's fronts then never outgrow the larger of _BATCH_CELLS cells and
one replica's window, whatever the number of replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bondfield import TAG_G, BondField
from .sequences import TruncatedSequence, truncate


@dataclass(frozen=True)
class ExplorationParams:
    d: int
    horizon: int
    window: int
    pseq: TruncatedSequence  # axis 1
    qseq: TruncatedSequence  # axes 2..d

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.horizon < 0 or self.window < 0:
            raise ValueError("horizon and window must be nonnegative")

    @property
    def k(self) -> int:  # an axis draws probability 0 beyond its own sequence's k
        return max(self.pseq.k, self.qseq.k)

    def displacement_table(self):
        """(vectors, axes, disps, probs) arrays over the 2*d*min(k, 2*window)
        candidate moves, axis-major and 1, -1, 2, -2, ... within an axis: a
        move longer than 2*window leaves the window from every vertex inside
        it."""
        d, K = self.d, min(self.k, 2 * self.window)
        disps = np.tile(np.repeat(np.arange(1, K + 1), 2) * np.tile([1, -1], K), d)
        axes = np.repeat(np.arange(1, d + 1), 2 * K)
        vecs = np.zeros((len(disps), d), dtype=np.int64)
        vecs[np.arange(len(disps)), axes - 1] = disps
        p, q = (np.repeat(seq.terms(K), 2) for seq in (self.pseq, self.qseq))
        probs = np.concatenate([p] + [q] * (d - 1)) if K else np.zeros(0)
        return vecs, axes, disps, probs


@dataclass
class ExplorationResult:
    """A sweep's outcome: `survived` and `critical_k` have one entry per
    replica of the batch, and the sizes are summed over them."""

    survived: list[bool]
    front_sizes: list[int]
    total_visited: int
    critical_k: np.ndarray  # least label at generation horizon; params.k + 1 if it died
    fronts: list[set] | None = field(default=None, repr=False)


_STEP_IDS = 1 << 16  # most bond ids one `uniforms` call of a front step hashes
_BATCH_CELLS = 1 << 17  # most window cells of the replicas a survival chunk sweeps together


def chunk_cap(params: ExplorationParams) -> int:
    """Most replicas that `critical_k` should sweep together: _BATCH_CELLS
    over the (2 window + 1)^d cells of one replica's window, or 1."""
    return max(1, _BATCH_CELLS // (2 * params.window + 1) ** params.d)


def _advance_front(fld: BondField, front: np.ndarray, labels: np.ndarray, n: int,
                   table, window: int):
    """One breadth-first generation step from a labelled front of a batch.

    `front` has shape (1 + d, F): row 0 holds each of the F vertices'
    replica, its index in the batch field `fld`, and row j its coordinate
    x_j; `labels` holds their bottleneck labels.  Returns the deduplicated
    next front, its vertices in lexicographic order of (replica, x), and
    each vertex's least candidate label max(label[parent], |disp|).

    The move table is axis-major, with 2k' moves per axis for
    k' = min(k, 2 * window), so the bonds are hashed on a (vertex, axis,
    range) grid: the tag and generation words fold once per replica, each
    vertex's replica base is gathered by `take`, each coordinate column is
    folded at (F, 1, 1), the axis word at (F, d, 1), and only the
    displacement at the full (F, d, 2k').  The grid flattens in C order to
    the table's move index.  Once the front comes within k' of the
    window's edge, the open bonds are checked against it by the one
    coordinate each moves.  The front is hashed in `uniforms` calls of at
    most _STEP_IDS ids, or one vertex's moves where they are more, and its
    open bonds are deduplicated together.
    """
    vecs, axes, disps, probs = table
    F, M = front.shape[1], len(vecs)
    if F == 0 or M == 0:
        return front[:, :0], labels[:0]
    grid = (len(front) - 1, M // (len(front) - 1))
    moves = [axes.reshape(grid)[None, :, :1], disps.reshape(grid)[None, :1, :]]
    probs = probs.reshape(1, *grid)
    fld = fld.prefix([TAG_G, n])
    step = max(1, _STEP_IDS // M)  # vertices per `uniforms` call
    hits = []
    for s in range(0, F, step):
        v = front[:, s:s + step]
        is_open = fld.take(v[0, :, None, None]).open_mask([*v[1:, :, None, None], *moves], probs)
        hits.append(np.flatnonzero(is_open) + s * M)
    parent, move = np.divmod(np.concatenate(hits), M)
    if int(np.abs(front[1:]).max()) + grid[1] // 2 > window:
        # keep the bonds whose target's moved coordinate is in the window
        inside = np.abs(front[axes[move], parent] + disps[move]) <= window
        parent, move = parent[inside], move[inside]
    rows = [front[0][parent]] + [x[parent] + u[move] for x, u in zip(front[1:], vecs.T)]
    return _dedupe(rows, np.maximum(labels[parent], np.abs(disps)[move]))


_KEY_LIMIT = 2**63  # cells x 2^(label bits) the int64 key holds; a wider box takes the lexsort


def _dedupe(nxt: list, lab: np.ndarray):
    """The distinct vertices of the candidates `nxt` (one integer array per
    key component, leading first) in lexicographic order, each with its
    least label in `lab`."""
    if len(lab) == 0:
        return np.array(nxt), lab
    lo = [int(x.min()) for x in nxt]
    ext = [int(x.max()) - m + 1 for x, m in zip(nxt, lo)]
    bits = int(lab.max()).bit_length()  # a label takes the key's low bits
    if math.prod(ext) << bits > _KEY_LIMIT:
        return _dedupe_lexsort(nxt, lab)
    cell = nxt[0] - lo[0]
    for x, m, e in zip(nxt[1:], lo[1:], ext[1:]):
        cell = cell * e + (x - m)
    # ascending keys run by cell, least label first within a cell
    key = np.sort((cell << bits) | lab)
    cell = key >> bits
    first = np.ones(len(cell), dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    cell, lab = cell[first], key[first] & ((1 << bits) - 1)
    out = np.empty((len(nxt), len(cell)), dtype=np.int64)
    for j in range(len(nxt) - 1, 0, -1):
        cell, out[j] = np.divmod(cell, ext[j])
        out[j] += lo[j]
    out[0] = cell + lo[0]
    return out, lab


def _dedupe_lexsort(nxt: list, lab: np.ndarray):
    """`_dedupe` by a lexsort over (label, the last component, ..., the first)."""
    order = np.lexsort((lab, *nxt[::-1]))
    nxt = [x[order] for x in nxt]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in nxt])
    return np.array([x[first] for x in nxt]), lab[order][first]


def explore(fld: BondField, params: ExplorationParams, collect: bool = False) -> ExplorationResult:
    """Generation-by-generation sweep from the origin (0, ..., 0; 0) of every
    replica of the batch field, one front for all of them.

    `front_sizes`, `total_visited` and `fronts` describe the cluster at
    truncation params.k, summed over the replicas; `survived` and
    `critical_k`, the least k <= params.k at which the cluster survives
    (see the module docstring), have one entry per replica, `survived` in
    a list and `critical_k` in an int64 array.  A
    generation's front set holds (replica, vertex, n) triples.  Only two
    fronts are alive at a time unless `collect` asks for the full
    per-generation history (used by subset-relation tests).
    """
    R = fld.shape[0]
    table = params.displacement_table()
    front = np.zeros((1 + params.d, R), dtype=np.int64)
    front[0] = np.arange(R)
    labels = np.zeros(R, dtype=np.int64)
    sizes = [R]
    history = [front] if collect else None
    total = R
    for n in range(params.horizon):
        front, labels = _advance_front(fld, front, labels, n, table, params.window)
        sizes.append(len(labels))
        total += len(labels)
        if collect:
            history.append(front)
        if len(labels) == 0:
            sizes.extend([0] * (params.horizon - n - 1))
            if collect:
                history.extend([front] * (params.horizon - n - 1))
            break
    crit = np.full(R, params.k + 1, dtype=np.int64)
    firsts = np.flatnonzero(np.diff(front[0], prepend=-1))
    crit[front[0, firsts]] = np.minimum.reduceat(labels, firsts)
    fronts = history and [{(j, tuple(v), n) for j, *v in zip(*f.tolist())}
                          for n, f in enumerate(history)]
    return ExplorationResult((crit <= params.k).tolist(), sizes, total, crit, fronts)


def critical_k(fld: BondField, params: ExplorationParams) -> np.ndarray:
    """`explore(fld, params).critical_k`, by sweeps at truncation r = 1, 2,
    4, ..., min(params.k, 2 * window), each axis cut to min(r, its own k),
    stopping for each replica at the first sweep whose horizon front
    survives (see the module docstring).  Each sweep is one `explore` of
    the batch's replicas that every earlier sweep lost."""
    crit = np.full(fld.shape[0], params.k + 1, dtype=np.int64)
    todo = np.arange(crit.size)
    top, r = min(params.k, 2 * params.window), 1
    while True:
        r = min(r, top)
        cut = replace(params, pseq=truncate(params.pseq.base, min(r, params.pseq.k)),
                      qseq=truncate(params.qseq.base, min(r, params.qseq.k)))
        got = explore(fld.take(todo), cut).critical_k
        kept = got <= cut.k
        crit[todo[kept]] = got[kept]
        todo = todo[~kept]
        if not todo.size or r == top:
            return crit
        r *= 2
