"""Bifurcation-event renormalization on Z^2_+ and its site-percolation oracle.

A point (m, n) of the renormalized lattice is "red" when some lattice point
on the line {((a, m*beta), 2n)} is both reachable from the origin and the
root of a successful bifurcation: one open axis-1 bond out of it, then from
the intermediate vertex both an open vertical bond (axis 2, displacement
beta) and a second open axis-1 bond.  The red cluster is grown by the
(A_i, B_i) recursion over the exterior boundary, examining at each step the
minimal unexplored boundary point.  Every scanned range is an axis-1
bond's, so the truncation range k is that of the axis-1 sequence.

The abstract red definition quantifies over every integer offset a; here
the scan is restricted to the offsets already certified reachable by the
recursion itself.  That restriction only lowers the red frequency, so the
domination consequence being tested (conditional red frequency >= gamma_k)
keeps its direction.

Site percolation on the cone has a scalar oracle, `site_perc_cone`, and a
scan that keeps one label per (replica, site), the least gamma above which
the site is reached, so one pass answers every gamma.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .bondfield import TAG_SITE, BondField, BondId, run_replicas
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
    # certificates[(m, n)] maps an e_1 offset a to an explicit open path of
    # lattice vertices from ((0,0),0) to ((a, m*beta), 2n)


def explore_red_cluster(fld: BondField, params: BifurcationParams,
                        max_steps: int) -> RedState:
    """The (A_i, B_i) recursion; returns the terminated or truncated state.

    Every certified offset carries an explicit bond path so red membership
    can be re-verified against the raw bond configuration.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    beta = params.beta
    A, B = set(), set()
    frontier = []  # heap of (n, m) over the children of A; stale entries skipped
    cert = {(0, 0): {0: (((0, 0), 0),)}}
    examined = []
    current = (0, 0)
    step = 0
    truncated = False
    while True:
        if step >= max_steps:
            truncated = True
            break
        m, n = current
        origins = sorted(cert.get(current, {}), key=lambda a: (abs(a), a < 0))
        red = False
        for a in origins:
            root = ((a, m * beta), 2 * n)
            rec = check_bifurcation(fld, root, params)
            if not rec.success:
                continue
            red = True
            path = cert[current][a]
            mid = ((a + rec.a, m * beta), 2 * n + 1)
            c1 = ((a + rec.a + rec.a_prime, m * beta), 2 * n + 2)
            c2 = ((a + rec.a, (m + 1) * beta), 2 * n + 2)
            cert.setdefault((m, n + 1), {}).setdefault(a + rec.a + rec.a_prime,
                                                       path + (mid, c1))
            cert.setdefault((m + 1, n + 1), {}).setdefault(a + rec.a,
                                                           path + (mid, c2))
        (A if red else B).add(current)
        examined.append((current, red, len(origins)))
        step += 1
        if red:
            heapq.heappush(frontier, (n + 1, m))
            heapq.heappush(frontier, (n + 1, m + 1))
        current = None
        while frontier:
            n, m = heapq.heappop(frontier)
            if (m, n) not in A and (m, n) not in B:
                current = (m, n)
                break
        if current is None:
            break
    return RedState(A, B, current, step, truncated, examined, cert)


def verify_path(fld: BondField, params: BifurcationParams, path) -> bool:
    """Re-check bond-by-bond that a certificate path is open."""
    p, q = params.pseq, params.qseq
    for (x, n), (y, n2) in zip(path, path[1:]):
        if n2 != n + 1:
            return False
        dx = (y[0] - x[0], y[1] - x[1])
        if dx[0] != 0 and dx[1] != 0:
            return False
        axis = 1 if dx[0] != 0 else 2
        disp = dx[axis - 1]
        prob = p.term(abs(disp)) if axis == 1 else q.term(abs(disp))
        if not fld.is_open(BondId.oriented(x, n, axis, disp), prob):
            return False
    return True


def reverify_red_cluster(fld: BondField, params: BifurcationParams, state: RedState) -> bool:
    """True iff every red vertex owns at least one fully open certificate path
    ending at a bifurcation root that still checks out, and every certified
    path is open bond-by-bond."""
    for point, offsets in state.certificates.items():
        for a, path in offsets.items():
            if not verify_path(fld, params, path):
                return False
            end_x, end_n = path[-1]
            if end_x != (a, point[0] * params.beta) or end_n != 2 * point[1]:
                return False
    for point in state.A:
        m, n = point
        if not any(check_bifurcation(fld, ((a, m * params.beta), 2 * n), params).success
                   for a in state.certificates.get(point, {})):
            return False
    return True


# -- oriented site percolation on the cone ------------------------------------

@dataclass
class ConeCluster:
    reached: list  # list of sets of m-coordinates, index = generation
    survived: bool


def site_perc_cone(gamma: float, horizon: int, fld: BondField) -> ConeCluster:
    """Independent site percolation on {(m, n): 0 <= m <= n} with children
    (m, n+1) and (m+1, n+1).  The origin counts as occupied regardless of its
    own site variable (cluster-of-the-origin rule)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be a probability")
    reached = [{0}]
    for n in range(1, horizon + 1):
        prev = reached[-1]
        cur = {m for m in range(0, n + 1)
               if (m in prev or m - 1 in prev)
               and fld.is_open(BondId.site(m, n), gamma)}
        reached.append(cur)
        if not cur:
            reached.extend([set()] * (horizon - n))
            break
    return ConeCluster(reached, bool(reached[horizon]))


_SCAN_CELLS = 1 << 20  # most (replica, site) labels one chunk of the cone scan holds


def _cone_chunk(args, root, lo, hi):
    """[S] over replicas lo..hi-1: the survival counts of the chunk."""
    gammas, horizons = args
    replicas = np.arange(lo, hi)[:, None]
    fld = root.derive_replica(replicas)
    label = np.full((replicas.size, 1), -np.inf)
    counts = np.zeros((len(gammas), len(horizons)), dtype=np.int64)
    hidx = 0
    for n in range(horizons[-1] + 1):
        if n > 0:
            m_col = np.arange(n + 1, dtype=np.int64)[None, :]
            u = fld.uniforms([np.full((1, 1), TAG_SITE), m_col,
                              np.full((1, 1), n)])  # (replicas, n+1)
            parent = np.full((replicas.size, n + 1), np.inf)
            parent[:, :n] = label
            np.minimum(parent[:, 1:], label, out=parent[:, 1:])  # the lesser of both parents
            label = np.maximum(u, parent, out=u)
        while hidx < len(horizons) and horizons[hidx] == n:
            counts[:, hidx] = (label.min(axis=1) < gammas[:, None]).sum(axis=1)
            hidx += 1
    return [counts]


def cone_survival_scan(gammas, horizons, reps: int, seed: int, threads: int = 1) -> np.ndarray:
    """Vectorized survival counts S[g, t] over shared site variables.

    Replica r reads the stream of `site_perc_cone` on
    `BondField(seed).derive_replica(r)`, so S[g, t] is exactly the number of
    replicas that oracle lets survive to horizons[t] (sorted) at gammas[g].
    All gammas share the site uniforms u, so the labels label(0, 0) = -inf,
    label(m, n) = max(u(m, n), min(label(m, n-1), label(m-1, n-1))), with
    +inf off the cone, give survival to horizon t at every gamma: exactly
    when min_m label(m, t) < gamma, which is nondecreasing in gamma.  The
    replicas are scanned in chunks of at most _SCAN_CELLS labels at the last
    horizon, on up to `threads` workers, so memory does not grow with `reps`.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    horizons = sorted(horizons)
    if not ((0.0 <= gammas) & (gammas <= 1.0)).all():
        raise ValueError("gamma must be a probability")
    if horizons[0] < 0:
        raise ValueError("horizons must be nonnegative")
    cap = max(1, _SCAN_CELLS // (horizons[-1] + 1))
    return sum(run_replicas(_cone_chunk, (gammas, horizons), seed, reps, threads, cap))


def crossing_from_scan(gammas, counts) -> float | None:
    """Locate the critical parameter from a three-horizon scan.

    For successive-horizon conditional survivals r1 = S2/S1 and r2 = S3/S2,
    the difference r2 - r1 is negative in the subcritical phase (survival
    decays ever faster) and positive in the supercritical one (conditional
    survival stabilizes), so its zero crossing estimates the threshold.
    Returns the interpolated crossing, or None when there is no sign change.
    """
    counts = np.asarray(counts, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(counts[:, 0] > 0, counts[:, 1] / counts[:, 0], 0.0)
        r2 = np.where(counts[:, 1] > 0, counts[:, 2] / counts[:, 1], 0.0)
    d = r2 - r1
    idx = [i for i in range(len(d) - 1) if d[i] < 0 <= d[i + 1]]
    if not idx:
        return None
    i = idx[-1]
    t = d[i] / (d[i] - d[i + 1])
    return float(gammas[i] + t * (gammas[i + 1] - gammas[i]))
