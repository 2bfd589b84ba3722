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

The zeta-blocks are independent: blocks at one level use disjoint lines,
lines carry disjoint bonds, and levels use disjoint bonds.  Each holds with
probability theta_k = (1 - (1-eps)^N)^2 h_k^(2N), h_k the H-event
probability, so the block path reaches level H with probability exactly
theta_k * S(theta_k, H - 1), S the survival of `renorm`'s cone site
percolation.

A bond's uniform and its probability p_i do not depend on k, so a
horizontal bond of range i is open at truncation k exactly when i <= k and
it is open at any larger range.  Each event therefore has a label, the
least k at which it holds (k_max + 1 when it fails at k_max):

    H-label    = 1 if the range-1 bond from gamma(m) to gamma(m+1) is open,
                 else the minimax range of an in-window path between them
                 (the maximum-capacity route of Hu 1961);
    zeta-label = the max of the block's 2N H-labels if both half-blocks
                 have an open vertical bond (which does not depend on k),
                 else k_max + 1;
    label(0, 0) = 0,
    label(a, n+1) = min over a' = a +- 1 of max(label(a', n), zeta(a', n)).

The H-event, the zeta-block and the block path hold at truncation k
exactly when their label is <= k.  `block_path_critical_k` sweeps the
levels once at k_max, for a column of replicas together, and each
replica's critical k decides its survival at every k <= k_max.  At level
n every replica has the same n + 1 blocks, so the labels are one
(replicas, n + 1) matrix, and its entries below k_max + 1 are the alive
(replica, block) pairs.  Each level draws the vertical bonds of those
pairs, in `uniforms` calls of at most _BATCH_IDS ids unless one block's 2N
alone exceed it, then asks `h_label_max` for the largest H-label of the
lines of the pairs that kept them.  Every batched draw reads
`root.derive_replica(replicas)` at the replica of each row it draws, so
replica r reads the stream of `root.derive_replica(r)` however the
replicas are grouped.  `h_label_max` is the one place that chooses how
H-labels are drawn, for the star levels and for `hprob`, whose chunk is
one line per replica.  In `uniforms` calls of at most _BATCH_IDS ids,
lines of any replicas together, it draws every line's range-1 bond
first, an open one giving the label 1, then the bonds of the lines left
apart, which a union-find adds in increasing range, in sub-windows around
gamma(m) that double up to the window until each line's label is
settled, so a line reads only the sites near gamma(m) that its label
depends on.  A sub-window's bonds are drawn in blocks of consecutive
ranges, at most _BATCH_IDS ids or one range of one line: a block holds
whole grids where they fit, and the union-find resumes from block to
block, so a line draws no range above its label's block.
The scalar `h_connected`, `check_zeta` and `block_path_survival` answer one
k at a time and are the oracles of the labelled kernels.  The H-event
searches take the horizontal sequence alone, whose k is the truncation;
the block functions take `StarParams`, which adds eps and the width N.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bondfield import TAG_GSTAR_H, TAG_GSTAR_V, BondField, BondId
from .sequences import TruncatedSequence


@dataclass(frozen=True)
class StarParams:
    eps: float  # vertical bonds
    pseq: TruncatedSequence  # horizontal bonds
    N: int  # block width: a zeta-block spans 2N lines

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("vertical bond probability must lie in (0, 1]")
        if self.N < 1:
            raise ValueError("block width N must be >= 1")

    @property
    def k(self) -> int:
        return self.pseq.k


def staircase(m) -> tuple:
    """gamma(m): +e_1 increments at even indices, -e_2 at odd ones, extended
    to negative m by the same relation.  An integer array m gives the two
    coordinate arrays."""
    return (-((-m) // 2), -(m // 2))


def _line(m: int):
    """(axis, target offset) of the line segment joining gamma(m), gamma(m+1)."""
    return (1, 1) if m % 2 == 0 else (2, -1)


def _on_line(base, axis: int, t: int) -> tuple:
    """The site t steps along `axis` from `base`."""
    x = list(base)
    x[axis - 1] += t
    return tuple(x)


def h_connected(fld: BondField, m: int, n: int, pseq: TruncatedSequence, window: int) -> bool:
    """H-event, window-W approximation: gamma(m) and gamma(m+1) joined by open
    horizontal bonds on their common line, both endpoints of every bond within
    distance `window` of gamma(m).  The search grows the source's component
    nearest-first, in |t|, so on a dense law it meets the target, one step
    away, long before it walks a wide window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    base = staircase(m)
    axis, target = _line(m)
    k = pseq.k
    seen = {0}
    frontier = [(0, 0)]
    while frontier:
        _, t = heapq.heappop(frontier)
        for i in range(1, k + 1):
            for s in (i, -i):
                t2 = t + s
                if t2 in seen or abs(t2) > window:
                    continue
                if fld.is_open(BondId.star_horizontal(_on_line(base, axis, t), n, axis, s),
                               pseq.term(i)):
                    if t2 == target:
                        return True
                    seen.add(t2)
                    heapq.heappush(frontier, (abs(t2), t2))
    return False


_MAX_N = 10_000_000  # widest block `choose_N` returns


def choose_N(eps: float, delta: float) -> int:
    """Smallest block width N with (1 - (1-eps)^N)^2 > 1 - delta/2, the test
    evaluated in floats as written.  N is first estimated from
    log(1 - sqrt(1 - delta/2)) / log1p(-eps), then stepped to the least n
    that passes the test (a width that passes has every wider one pass);
    RuntimeError when that n exceeds _MAX_N."""
    if not 0.0 < eps <= 1.0 or not 0.0 < delta <= 1.0:
        raise ValueError("need eps in (0, 1] and delta in (0, 1]")
    target = 1.0 - delta / 2.0

    def holds(n):
        return (1.0 - (1.0 - eps) ** n) ** 2 > target

    gap = 1.0 - math.sqrt(target)
    rate = math.log1p(-eps) if eps < 1.0 else -math.inf
    if gap <= 0.0 or rate == 0.0:
        raise RuntimeError("no feasible block width")
    n = int(min(max(math.log(gap) / rate, 1.0), _MAX_N + 1.0))
    while n > 1 and holds(n - 1):
        n -= 1
    while n <= _MAX_N and not holds(n):
        n += 1
    if n > _MAX_N:
        raise RuntimeError("no feasible block width")
    return n


def check_zeta(fld: BondField, a: int, n: int, params: StarParams, window: int) -> bool:
    """Block indicator at (a, n) on the parity sublattice (a + n even):
    all 2N consecutive H-events at level n, and at least one open vertical
    bond at the staircase points of each half-block."""
    if (a + n) % 2 != 0:
        raise ValueError(f"({a}, {n}) is off the parity sublattice")
    N = params.N
    lo = a * N
    if not all(h_connected(fld, m, n, params.pseq, window) for m in range(lo, lo + 2 * N)):
        return False
    return all(any(fld.is_open(BondId.star_vertical(staircase(m), n), params.eps)
                   for m in range(half, half + N)) for half in (lo, lo + N))


def block_path_survival(fld: BondField, params: StarParams, horizon: int, window: int) -> bool:
    """Existence of a_0 = 0, |a_{i+1} - a_i| = 1 with zeta(a_i, i) = 1 for all
    i < horizon (breadth-first over the parity sublattice)."""
    alive = {0}
    for i in range(horizon):
        nxt = set()
        for a in alive:
            if check_zeta(fld, a, i, params, window):
                nxt.add(a - 1)
                nxt.add(a + 1)
        alive = nxt
        if not alive:
            return False
    return True


# -- labelled kernels: one sweep at k_max decides every k ---------------------

# most bond ids one `uniforms` call of a star level or `hprob` hashes, unless
# one range of one line's sub-window alone holds more (half-width > 32767)
_BATCH_IDS = 1 << 16


def chunk_cap(params: StarParams | None = None, horizon: int = 0) -> int:
    """Most replicas that a chunk kernel should label together: _BATCH_IDS
    over the lines that one `h_label_max` call holds per replica, or 1.  A
    level of `block_path_critical_k` on `params` holds at most 2N (horizon
    + 1) lines per replica; `hprob`, given no params, holds one."""
    lines = 2 * params.N * (horizon + 1) if params else 1
    return max(1, _BATCH_IDS // lines)


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _joining_range(parent: list, starts, ranges, source: int, target: int, never: int,
                   keep: bool):
    """Least r such that the bonds (t, t + i) with i <= r join `source` to
    `target`, for bonds given in increasing range: a union-find adds them in
    that order and tests the two ends after each range (the maximum-capacity
    route of Hu 1961).  `never` if they stay apart.  `parent` is the
    union-find, which keeps the bonds added, so a block of larger ranges
    resumes it; the ends are apart whenever it is resumed.  Returns r and,
    with `keep`, the union-find of the bonds shorter than r (else, and
    where the ends stay apart, `parent` itself)."""
    r = 0  # the range of the bonds added last
    before = parent
    for t, i in zip(starts, ranges):
        if i > r:
            if _find(parent, source) == _find(parent, target):
                return r, before
            r = i
            if keep:
                before = parent.copy()
        parent[_find(parent, t)] = _find(parent, t + i)
    if _find(parent, source) == _find(parent, target):
        return r, before
    return never, parent


def _h_labels_batch(root: BondField, replicas: np.ndarray, m: np.ndarray, n: int,
                    pseq: TruncatedSequence, W: int, w: int) -> np.ndarray:
    """H-labels of the lines m (1-d), line j on root.derive_replica(replicas[j]),
    from the bonds of their sub-windows of half-width w <= W, or 0 where the
    sub-window cannot settle it.  A line's (2w+1, R) grid of bonds
    (lo, lo + i), -w <= lo <= w, 1 <= i <= R = min(k, 2w), is drawn in
    blocks of consecutive ranges, one `uniforms` call each.  A block holds
    at most _BATCH_IDS ids over the lines still apart, and at least one
    range; each line's union-find carries over to its next block, and a
    line leaves at the first range that joins its ends, so it draws no block
    above its label's.  The grid also holds the bonds that leave the
    sub-window, which are masked off; in this shape every id word but the
    range is folded once per (line, lo), not once per bond.

    A label L of the sub-window is the line's label in the whole window
    unless a bond of range < L leaves the sub-window from the source's
    component under the sub-window's bonds of range < L: a path of such
    bonds that left the sub-window would leave it by one of them.  So the
    label is settled where that component holds no site within L - 1 of
    the sub-window's edges (L = k + 1 where the ends stay apart), and
    always at w = W."""
    K = pseq.k
    R = min(K, 2 * w)
    size = 2 * w + 1
    labels = np.full(m.size, K + 1, dtype=np.int64)
    parents = [list(range(size)) for _ in range(m.size)]
    # gamma(m+1) is gamma(m) + e_1 for even m and gamma(m) - e_2 for odd m
    targets = np.where(m % 2 == 1, w - 1, w + 1).tolist()
    lo = np.arange(-w, w + 1)[:, None]
    left = np.arange(m.size)  # the lines still apart
    r = 0  # the ranges drawn so far
    while left.size and r < R:
        top = min(R, r + max(1, _BATCH_IDS // (size * left.size)))
        rng = np.arange(r + 1, top + 1)
        x1, x2 = staircase(m[left, None, None])
        o = m[left, None, None] % 2 == 1  # these lines run along axis 2
        fld = root.derive_replica(replicas[left, None, None])
        opened = fld.open_mask([TAG_GSTAR_H, n, x1 + ~o * lo, x2 + o * lo, 1 + o, rng],
                               pseq.terms(top)[r:])
        opened &= lo + rng <= w
        rows, ranges, starts = np.nonzero(opened.transpose(0, 2, 1))  # by range, then lo
        starts, ranges = starts.tolist(), (ranges + r + 1).tolist()
        cuts = np.searchsorted(rows, np.arange(left.size + 1)).tolist()
        for j, a, b in zip(left.tolist(), cuts, cuts[1:]):
            labels[j], parents[j] = _joining_range(parents[j], starts[a:b], ranges[a:b], w,
                                                   targets[j], K + 1, w < W)
        left = left[labels[left] > K]
        r = top
    if w < W:
        for j, (parent, label) in enumerate(zip(parents, labels.tolist())):
            reach = label - 1  # the longest bond that could lower the label
            source = _find(parent, w)
            if any(_find(parent, x) == source
                   for x in chain(range(reach), range(size - reach, size))):
                labels[j] = 0
    return labels


def _grid_ids(K: int, W: int) -> int:
    """Ids one line's grid of half-width W in `_h_labels_batch` hashes."""
    return (2 * W + 1) * min(K, 2 * W)


def h_label_max(root: BondField, replicas, rows, n: int, pseq: TruncatedSequence,
                window: int) -> np.ndarray:
    """Largest H-label along each row of the lines `rows` (a 2-d integer
    array) at level n, row j on root.derive_replica(replicas[j]): the least
    k <= pseq.k at which `h_connected` holds on every line of the row,
    pseq.k + 1 where one fails at pseq.k.

    Every line's range-1 bond from gamma(m) to gamma(m+1) is drawn first,
    _BATCH_IDS lines per `uniforms` call; an open one gives the label 1.
    The lines left apart, of any replicas, go to `_h_labels_batch` in
    sub-windows around gamma(m): the whole window where one line's grid
    fits in _BATCH_IDS ids, else half-width 2 first (in a narrower one
    every path that joins the two points passes a site at its edge),
    doubled up to the window for the lines left unsettled.  A call holds as
    many lines as their whole grids fit in _BATCH_IDS ids, or one.  It
    leaves out the lines of rows that an earlier call found failing at
    pseq.k, whose label is then pseq.k + 1 whatever they hold, as
    `check_zeta` stops at a row's first failing line.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rows = np.asarray(rows, dtype=np.int64)
    never = pseq.k + 1
    if pseq.k == 0:  # there is no bond to draw
        return np.full(len(rows), never, dtype=np.int64)
    replicas = np.asarray(replicas, dtype=np.int64)
    width = rows.shape[1]
    lines = rows.ravel()
    owners = np.repeat(replicas, width)
    odd = lines % 2
    x1, x2 = staircase(lines)
    # the range-1 bond is the grid's bond at lo = -odd (see `_h_labels_batch`)
    direct = np.empty(lines.size, dtype=bool)
    for c in range(0, lines.size, _BATCH_IDS):
        s = slice(c, c + _BATCH_IDS)
        direct[s] = root.derive_replica(owners[s]).open_mask(
            [TAG_GSTAR_H, n, x1[s], x2[s] - odd[s], 1 + odd[s], 1], pseq.term(1))
    labels = np.where(direct, 1, never)
    failed = np.zeros(len(rows), dtype=bool)
    apart = np.flatnonzero(~direct)
    w = window if _grid_ids(pseq.k, window) <= _BATCH_IDS else min(window, 2)
    while apart.size:
        step = max(1, _BATCH_IDS // _grid_ids(pseq.k, w))
        for c in range(0, apart.size, step):
            j = apart[c:c + step]
            j = j[~failed[j // width]]
            labels[j] = _h_labels_batch(root, owners[j], lines[j], n, pseq, window, w)
            failed[j[labels[j] == never] // width] = True
        apart = apart[(labels[apart] == 0) & ~failed[apart // width]]
        w = min(window, 2 * w)
    return labels.reshape(rows.shape).max(axis=1)


def zeta_labels(root: BondField, replicas, a, n: int, params: StarParams,
                window: int) -> np.ndarray:
    """Zeta-labels of the blocks (replicas[j], a[j]) (integer arrays) at level
    n, block j on root.derive_replica(replicas[j]): `check_zeta` holds at
    truncation k exactly when the label is <= k.  The vertical bonds are
    drawn first, as many blocks per `uniforms` call as fit in _BATCH_IDS
    ids (at least one); a block lacking them fails at every k, and its
    lines are not searched."""
    a = np.asarray(a, dtype=np.int64)
    replicas = np.asarray(replicas, dtype=np.int64)
    if ((a + n) % 2).any():
        raise ValueError(f"a block at level {n} is off the parity sublattice")
    N = params.N
    m = a[:, None] * N + np.arange(2 * N)
    x1, x2 = staircase(m)
    vert = np.empty(m.shape, dtype=bool)
    step = max(1, _BATCH_IDS // (2 * N))
    for c in range(0, a.size, step):
        s = slice(c, c + step)
        fld = root.derive_replica(replicas[s, None])
        vert[s] = fld.open_mask([TAG_GSTAR_V, n, x1[s], x2[s]], params.eps)
    held = np.flatnonzero(vert[:, :N].any(axis=1) & vert[:, N:].any(axis=1))
    labels = np.full(a.size, params.k + 1, dtype=np.int64)
    labels[held] = h_label_max(root, replicas[held], m[held], n, params.pseq, window)
    return labels


def block_path_critical_k(root: BondField, replicas, params: StarParams, horizon: int,
                          window: int) -> np.ndarray:
    """For each replica r of `replicas`, the least k <= params.k at which
    `block_path_survival` holds on root.derive_replica(r), or params.k + 1.

    The replicas are swept together, level by level.  Row i of `labels`
    holds replica i's labels of a = -n, -n + 2, ..., n at level n, so each
    level is one (replicas, n + 1) matrix; zeta-labels are drawn only for
    the (replica, block) pairs whose label is <= params.k.
    """
    replicas = np.asarray(replicas, dtype=np.int64)
    never = params.k + 1
    labels = np.zeros((replicas.size, 1), dtype=np.int64)
    for n in range(horizon):
        i, j = np.nonzero(labels < never)
        if not i.size:
            break
        through = np.full(labels.shape, never, dtype=np.int64)
        through[i, j] = np.maximum(
            labels[i, j], zeta_labels(root, replicas[i], 2 * j - n, n, params, window))
        # a block at level n + 1 is reached through either of its two parents
        labels = np.full((replicas.size, n + 2), never, dtype=np.int64)
        labels[:, :-1] = through
        np.minimum(labels[:, 1:], through, out=labels[:, 1:])
    return labels.min(axis=1)
