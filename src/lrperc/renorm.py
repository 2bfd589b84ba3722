"""Bifurcation-event renormalization on Z^2_+ and site percolation on its cone.

A point (m, n) of the renormalized lattice is "red" when some lattice point
on the line {((a, m*beta), 2n)} is both reachable from the origin and the
root of a successful bifurcation: one open axis-1 bond out of it, then from
the intermediate vertex both an open vertical bond (axis 2, displacement
beta) and a second open axis-1 bond.  The red cluster is grown by the
(A_i, B_i) recursion over the exterior boundary, examining at each step the
minimal unexplored boundary point.  Every scanned range is an axis-1
bond's, so the truncation range k is that of the axis-1 sequence.  Each
certified offset of a point is certified by one link, the two bonds that
lead to it from a certified offset of its parent point, so the certificates
take memory in the number of offsets, not in their depth.  The tests
re-verify them bond by bond (`reverify_red_cluster` in `tests/oracles.py`).

The abstract red definition quantifies over every integer offset a; here
the scan is restricted to the offsets already certified reachable by the
recursion itself.  That restriction only lowers the red frequency, so the
domination consequence being tested (conditional red frequency >= gamma_k)
keeps its direction.

Site percolation on the cone is counted by a scan that keeps one label per
(site, replica), the least gamma above which the site is reached, so one
pass answers every gamma; its scalar oracle, `site_perc_cone`, lives in
`tests/oracles.py`.  A label is kept as the raw uint64 hash state whose
uniform it stands for, since min and max commute with the nondecreasing
map from states to uniforms; the origin's is 0, the least state, and
horizon 0 counts every replica.  Only each replica's least label at a
counted horizon is turned into a float, and a chunk returns those floats,
one row per replica, which the caller counts at each gamma.  The arrays are
laid out (sites, replicas), so every per-generation operation runs on one
contiguous block.  A label that counts at no gamma of the grid (one >=
max(gamma), tested as a state against ceil(max(gamma) * 2**53) << 11) has
children that count at none either, so the scan hashes only the sites that
can still count: it drops the replicas with no other label and trims the
rest to the columns between the first and the last label that may count.
A grid holding gamma = 1 prunes nothing.  The site id is [TAG_SITE, m, n],
so the scan folds a column's prefix [TAG_SITE, m] once per replica into a
cache that grows with the window's right end, and a generation folds only
its word n on top of it: one id word per site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bondfield import TAG_SITE, BondField, BondId, chunk_cap, run_replicas
from .sequences import TruncatedSequence, signed_ranges


# -- bifurcation events ------------------------------------------------------

@dataclass(frozen=True)
class BifurcationParams:
    beta: int
    pseq: TruncatedSequence  # axis 1
    qseq: TruncatedSequence  # axis 2

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        # the untruncated law: at k < beta the vertical bond is truncated away
        # and gamma_k = 0, a row, not an error
        if self.qseq.base.eval(self.beta) <= 0.0:
            raise ValueError("vertical displacement beta needs positive probability")

    @property
    def k(self) -> int:
        return self.pseq.k


@dataclass(frozen=True)
class BifurcationRecord:
    success: bool
    a: int | None = None
    a_prime: int | None = None


def gamma_k(params: BifurcationParams) -> float:
    """Exact probability of a bifurcation event under the truncated measure."""
    p = params.pseq
    qb = params.qseq.term(params.beta)
    inner = 1.0
    for i in range(1, params.k + 1):
        inner *= (1.0 - p.term(i)) ** 2  # both signs of a'
    inner = 1.0 - inner
    out = 1.0
    for i in range(1, params.k + 1):
        out *= (1.0 - p.term(i) * qb * inner) ** 2  # both signs of a
    return 1.0 - out


def gamma_curve(params: BifurcationParams) -> list[float]:
    """gamma_k at every truncation 1..params.k, each bit-identical to
    `gamma_k` at that k, in one pass.  Each term is evaluated once and the
    inner product is carried from k to k + 1 in gamma_k's order; the outer
    product depends on the inner one, so it is rebuilt at each k over the
    cached terms, and the pass takes O(params.k^2) float operations."""
    p = params.pseq.terms(params.k)
    qb = params.qseq.term(params.beta)
    pq = [pi * qb for pi in p]
    rows, inner_prod = [], 1.0
    for k in range(1, params.k + 1):
        inner_prod *= (1.0 - p[k - 1]) ** 2
        if k < params.beta:
            rows.append(0.0)  # gamma_k's qb is 0: the vertical bond is truncated away
            continue
        inner = 1.0 - inner_prod
        rows.append(1.0 - math.prod([(1.0 - a * inner) ** 2 for a in pq[:k]]))
    return rows


def check_bifurcation(fld: BondField, origin, params: BifurcationParams) -> BifurcationRecord:
    """Deterministic scan for the bifurcation event rooted at origin = (x, n),
    x in Z^2.  Witnesses are the first (|a| ascending, positive sign first)
    complete open triple."""
    x, n = origin
    if len(x) != 2:
        raise ValueError("bifurcation events live on spatial dimension 2")
    p, q, beta = params.pseq, params.qseq, params.beta
    for a in signed_ranges(params.k):
        if not fld.is_open(BondId.oriented(x, n, 1, a), p.term(abs(a))):
            continue
        mid = (x[0] + a, x[1])
        if not fld.is_open(BondId.oriented(mid, n + 1, 2, beta), q.term(beta)):
            continue
        for ap in signed_ranges(params.k):
            if fld.is_open(BondId.oriented(mid, n + 1, 1, ap), p.term(abs(ap))):
                return BifurcationRecord(True, a, ap)
    return BifurcationRecord(False)


# -- red-cluster recursion ---------------------------------------------------

@dataclass
class RedState:
    A: set
    B: set
    current: tuple | None
    step: int
    truncated: bool
    examined: list  # (point, red, offsets_scanned) in examination order
    certificates: dict = field(repr=False, default_factory=dict)
    # certificates[(m, n)] maps an e_1 offset a to its link ((m0, n - 1), a0, a1):
    # the bifurcation rooted at offset a0 of the parent point (m0, n - 1) steps
    # a1 along axis 1, then to ((a, m*beta), 2n); the origin's offset 0 maps to None


def explore_red_cluster(fld: BondField, params: BifurcationParams,
                        max_steps: int) -> RedState:
    """The (A_i, B_i) recursion; returns the terminated or truncated state.

    A point's children lie one generation later, so the least unexamined
    boundary point in (n, m) order is the next m of the current generation,
    or else the least m of the next one.  Every certified offset carries a
    link to a certified offset of its parent point, so red membership can be
    re-verified against the raw bond configuration.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    beta = params.beta
    A, B = set(), set()
    cert = {(0, 0): {0: None}}
    examined = []
    step = 0
    level, n = [0], 0  # the m values of generation n still to examine, sorted
    while level:
        children = set()
        for m in level:
            if step >= max_steps:
                return RedState(A, B, (m, n), step, True, examined, cert)
            origins = sorted(cert[(m, n)], key=lambda a: (abs(a), a < 0))
            red = False
            for a in origins:
                rec = check_bifurcation(fld, ((a, m * beta), 2 * n), params)
                if not rec.success:
                    continue
                red = True
                link = ((m, n), a, rec.a)
                cert.setdefault((m, n + 1), {}).setdefault(a + rec.a + rec.a_prime, link)
                cert.setdefault((m + 1, n + 1), {}).setdefault(a + rec.a, link)
            (A if red else B).add((m, n))
            examined.append(((m, n), red, len(origins)))
            step += 1
            if red:
                children.update((m, m + 1))
        level, n = sorted(children), n + 1
    return RedState(A, B, None, step, False, examined, cert)


# -- oriented site percolation on the cone ------------------------------------

def _cone_chunk(args, root, lo, hi):
    """(replicas, horizons) float64 over replicas lo..hi-1: each replica's
    least label, as a uniform, at each counted horizon.  It is -inf at
    horizon 0, where the origin counts at every gamma, 0 included, and 1.0
    where the label counts at no gamma of the grid: a replica dropped, or
    every horizon after the chunk dies.

    Every array is laid out (sites, replicas), so each generation's fold,
    parent min/max, live test and window trims run on one contiguous block.
    label[j, i] is the label of site (off + j, n) on the chunk's i-th replica
    kept, as a raw uint64 hash state, the origin's being 0, and `kept`
    holds the chunk indices of the replicas kept; the sites left out of that
    rectangle, and the replicas dropped, have labels that count at no gamma
    (see cone_survival_scan).  cols[j, i] is that replica's stream folded
    with [TAG_SITE, c0 + j], so a generation folds only n on top of it.
    When the window's right end reaches c1, the cache drops the columns
    left of off, which the window never returns to, and extends to column
    off + 2w - 1, w + 1 being the window's width.  It so grows with
    the window, not with the horizon, and a replica folds no more columns at
    a generation than the sites it draws there.
    """
    gammas, horizons = args
    top = gammas.max(initial=0.0)
    # a label counts at some gamma only below this state; None: every label may
    bound = None if top >= 1.0 else np.uint64(math.ceil(top * 2**53) << 11)
    end = horizons[-1] + 1  # the cone's columns up to the last horizon
    tagged = root.derive_replica(np.arange(lo, hi)[None, :]).prefix([TAG_SITE])
    # cols: the replicas' states after [TAG_SITE, m], for the columns m in c0..c1-1
    cols, c0, c1 = tagged.take(np.s_[:0]), 0, 0
    label = np.zeros((1, hi - lo), dtype=np.uint64)
    off, kept = 0, np.arange(hi - lo)
    least = np.ones((hi - lo, len(horizons)))
    hidx = 0
    for n in range(end):
        if n > 0:
            w = len(label)
            if off + w >= c1:  # reach twice the window, and drop the columns left of it
                reach = min(end, off + 2 * w)
                cols = BondField.concat([cols.take(np.s_[off - c0:]),
                                         tagged.prefix([np.arange(c1, reach)[:, None]])], axis=0)
                c0, c1 = off, reach
            h = cols.take(np.s_[off - c0:off - c0 + w + 1]).states([n])  # (w+1, replicas)
            # the lesser of both parents; a site off the window counts at no gamma
            np.maximum(h[1:-1], np.minimum(label[:-1], label[1:]), out=h[1:-1])
            np.maximum(h[0], label[0], out=h[0])
            np.maximum(h[-1], label[-1], out=h[-1])
            label = h
            if bound is not None:
                live = label < bound
                keep = live.any(axis=0)
                if not keep.all():
                    if not keep.any():
                        break  # every later least label of the chunk is 1.0
                    label, live, kept = label[:, keep], live[:, keep], kept[keep]
                    tagged, cols = tagged.take(np.s_[:, keep]), cols.take(np.s_[:, keep])
                sites = np.flatnonzero(live.any(axis=1))
                label = label[sites[0]:sites[-1] + 1]
                off += int(sites[0])
        while hidx < len(horizons) and horizons[hidx] == n:
            u = (label.min(axis=0) >> 11).astype(np.float64) * 2.0**-53
            least[kept, hidx] = u if n else -np.inf  # the origin counts at every gamma, 0 too
            hidx += 1
    return least


def cone_survival_scan(gammas, horizons, reps: int, seed: int, threads: int = 1) -> np.ndarray:
    """Vectorized survival counts S[g, t] over shared site variables.

    Replica r reads site (m, n) at the id [TAG_SITE, m, n] on
    `BondField(seed).derive_replica(r)`, as the scalar oracle `site_perc_cone`
    of `tests/oracles.py` does, so S[g, t] is exactly the number of replicas
    that oracle lets survive to horizons[t] (sorted) at gammas[g].
    All gammas share the site uniforms u, so the labels label(0, 0) = -inf,
    label(m, n) = max(u(m, n), min(label(m, n-1), label(m-1, n-1))), with
    +inf off the cone, give survival to horizon t at every gamma: exactly
    when min_m label(m, t) < gamma, which is nondecreasing in gamma.  The
    scan runs this recursion on the sites' uint64 hash states h, whose
    uniforms are u = (h >> 11) * 2**-53: that map is nondecreasing, so it
    commutes with min and max, and the origin's label 0 stands for -inf
    (every replica survives to horizon 0, also at gamma = 0).  Only the
    least label of each replica at a counted horizon is turned into its
    uniform: the chunk kernel `_cone_chunk` returns these, one row per
    replica (-inf at horizon 0, 1.0 where the replica counts at no gamma),
    and S[g, t] counts the rows whose entry t is below gammas[g], by the
    same float comparison at every gamma, one horizon at a time on the
    column's sorted entries.  A replica's working set is 8 bytes per label
    at the last horizon, 8 (H + 1), and the replicas are scanned in chunks
    of `bondfield.chunk_cap` of it (the weight keeps the cap of 2^17 labels
    per chunk, few enough for a chunk's label and state arrays and its cache
    of column prefixes to stay in cache; it is not a measured byte count),
    on up to `threads` workers, so a chunk's working memory does not grow
    with `reps`.  The rows kept, 8 bytes per replica and horizon, do grow
    with it, outside any chunk cap.  `run_replicas` evens the chunks out,
    so 1200 replicas at horizon 256 (510 per chunk) run as 3 chunks of 400
    on one worker.  A chunk lays its labels, column cache and draws out as
    (sites, replicas), so each generation's operations run on one
    contiguous block.

    Only labels below g = max(gammas) are computed.  The test is strict, so a
    label >= g counts at no gamma of the grid, and every child of such a site
    has a label >= g too (a child's label is at least its lesser parent's).
    A label's uniform is below g exactly when its state is below
    ceil(g * 2**53) << 11, since g * 2**53 is exact and its ceiling fits in
    53 bits.  After each generation a chunk drops the replicas with no label
    below g, which count 0 at every later horizon, and keeps only the
    columns between the first and the last label below g over the replicas
    kept; the next generation hashes the sites below that window only.  A site outside the window counts at no gamma,
    like a site off the cone, so a label kept is exact whenever it is below
    g and is >= g otherwise, and every count is the unpruned scan's.  Since
    u < 1, a grid holding gamma = 1 prunes nothing, and since u >= 0, at
    g = 0 nothing stays live past horizon 0.

    A chunk folds each replica's site-id prefix [TAG_SITE, m] once per
    column m and keeps it, from the window's left end to about twice its
    width, so a generation's draw folds only n, one id word per site, with
    the bits of the full id [TAG_SITE, m, n].
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    horizons = sorted(horizons)
    if not ((0.0 <= gammas) & (gammas <= 1.0)).all():
        raise ValueError("gamma must be a probability")
    if horizons[0] < 0:
        raise ValueError("horizons must be nonnegative")
    cap = chunk_cap(8 * (horizons[-1] + 1))
    least = run_replicas(_cone_chunk, (gammas, horizons), seed, reps, threads, cap)
    # per horizon, the entries strictly below each gamma (searchsorted's side="left")
    return np.stack([np.searchsorted(np.sort(col), gammas) for col in least.T], axis=1)

