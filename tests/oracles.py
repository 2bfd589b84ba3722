"""Scalar oracles and helpers that only the tests run.

Each fast path of the package is held to a scalar answer here, read from
the same stream: the skeleton event `f_events` to `check_f_event` on the
sampled timeline, the oriented sweep to `out_neighbors`, the cone scan to
`site_perc_cone`, and `gamma_k` to the `bifurcations` kernel.  They ship
with the tests, not with the package, since no run of the program calls
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lrperc.bondfield import TAG_SITE, BondField, BondId
from lrperc.contact import (
    _TAG_ARROW, _TAG_DEATH, Timeline, _box_sites, _mark_counts, _mark_times, _MeanRuns,
    _Table, infection_labels,
)
from lrperc.oriented import ExplorationParams, explore
from lrperc.renorm import BifurcationParams, RedState, check_bifurcation
from lrperc.sequences import TruncatedSequence, signed_ranges


# -- contact --------------------------------------------------------------------

def hand_timeline(horizon=10.0, deaths=None, arrows=None, box=5, d=1) -> Timeline:
    """The timeline of hand-made marks, {site: times} and {(src, dst): times},
    in the sampler's flat form: its table lists every site of the box of
    half-width `box` in dimension d and the marked pairs, and its marks run
    by time, deaths before arrows at equal times."""
    deaths, arrows = deaths or {}, arrows or {}
    index = {s: i for i, s in enumerate(_box_sites(box, d))}
    heads = [(index[u], index[v], max(abs(a - b) for a, b in zip(u, v))) for u, v in arrows]
    table = _Table(box, d, heads)
    marks = [np.asarray(deaths.get(s, ()), dtype=np.float64) for s in table.sites]
    marks += [np.asarray(ts, dtype=np.float64) for ts in arrows.values()]
    owner = np.repeat(np.arange(len(marks)), [m.size for m in marks])
    times = np.concatenate([np.empty(0), *marks])
    order = np.lexsort((owner >= len(table.sites), times))
    return Timeline(horizon, table, owner[order], times[order])


def k_connected(tl: Timeline, frm, to, k: int) -> bool:
    """Existence of an infection path from (site, time) to (site, time).

    Deaths at the endpoints' own instants count against the path; a jump
    strictly after the start and up to the end time is allowed.
    """
    (src, s), (dst, t) = frm, to
    return infection_labels(tl, src, s, t).get(dst, k + 1) <= k


@dataclass(frozen=True)
class SkeletonParams:
    delta: float
    b: int
    k: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("step width must be positive")
        if self.b < 1:
            raise ValueError("vertical displacement must be >= 1")


def f_probability(params: SkeletonParams, rates: TruncatedSequence) -> float:
    """Closed-form probability of the two-arrow skeleton event in one step.

    The product formally ranges over |a| <= k; the a = 0 factor is neutral
    because the rate at range 0 is pinned to 0.
    """
    d, k, b = params.delta, params.k, params.b
    lb = rates.term(b)
    prod = 1.0
    for a in range(1, k + 1):
        term = math.exp(-2 * d) * (1 - math.exp(-rates.term(a) * d / 2)) \
            * (1 - math.exp(-lb * d / 2))
        prod *= (1.0 - term) ** 2  # both signs of a
    return math.exp(-d) * (1.0 - prod)


@dataclass(frozen=True)
class FRecord:
    success: bool
    a: int | None = None


def _count_in(times, lo: float, hi: float) -> int:
    if times is None or len(times) == 0:
        return 0
    return int(np.searchsorted(times, hi, side="right")
               - np.searchsorted(times, lo, side="left"))


def check_f_event(tl: Timeline, x, n: int, params: SkeletonParams) -> FRecord:
    """Occurrence of the skeleton event at site x over [n*delta, (n+1)*delta].

    Requires: no death on x in the step; some a with 1 <= |a| <= k such that
    x + a*e_1 and x + a*e_1 + b*e_2 are death-free over the step, an arrow
    x -> x + a*e_1 lands in the first half-step, and an arrow onward to
    x + a*e_1 + b*e_2 lands in the second.  Witness is deterministic
    (|a| ascending, positive first).  Off-box intermediate sites are skipped.
    """
    d, b = params.delta, params.b
    t0, t1 = n * d, (n + 1) * d
    if t1 > tl.horizon * (1 + 1e-12):
        raise ValueError("skeleton step exceeds the timeline horizon")
    if _count_in(tl.deaths.get(x), t0, t1):
        return FRecord(False)
    for a in signed_ranges(params.k):
        y = (x[0] + a, x[1])
        z = (x[0] + a, x[1] + b)
        if not (y in tl.table.index and z in tl.table.index):
            continue
        if _count_in(tl.deaths.get(y), t0, t1) or _count_in(tl.deaths.get(z), t0, t1):
            continue
        if not _count_in(tl.arrows.get((x, y)), t0, t0 + d / 2):
            continue
        if _count_in(tl.arrows.get((y, z)), t0 + d / 2, t1):
            return FRecord(True, a)
    return FRecord(False)


def f_events(rates: TruncatedSequence, params: SkeletonParams, trials: int,
             seed: int) -> np.ndarray:
    """Indicator, per trial, of the skeleton event at the origin over [0, delta].

    Trial r reads, of the marks of `sample_timeline(seed, rates,
    box=max(k, b), horizon=delta, d=2, replica=r)`, the death
    counts of the 4k + 1 involved sites and the arrow times of the 4k
    involved pairs, each process's id prefix folded once per trial as the
    sampler folds it: `check_f_event` on that timeline is its oracle.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, b, d = params.k, params.b, params.delta
    a = np.fromiter(signed_ranges(k), dtype=np.int64)
    fld = BondField(seed).derive_replica(np.arange(trials)[:, None])

    def dead(x1, x2):
        return _mark_counts(fld.prefix([_TAG_DEATH, x1, x2]), _MeanRuns([d])) > 0

    def arrow_in(cols, mus, first_half):
        proc = fld.prefix(cols)
        counts = _mark_counts(proc, _MeanRuns(np.ravel(mus)))
        owner, times = _mark_times(proc, counts, d)
        hit = times <= d / 2 if first_half else times >= d / 2
        return np.bincount(owner[hit], minlength=counts.size).reshape(counts.shape) > 0

    first = arrow_in([_TAG_ARROW, 0, 0, 1, a],                      # x -> x + a e1
                     d * np.array([rates.term(abs(i)) for i in a.tolist()]), True)
    onward = arrow_in([_TAG_ARROW, a, 0, 2, b], d * rates.term(b), False)  # up b
    per_a = ~dead(a, 0) & ~dead(a, b) & first & onward
    return ~dead(0, 0)[:, 0] & per_a.any(axis=1)


# -- oriented -------------------------------------------------------------------

def axis_prob(params: ExplorationParams, axis: int, disp: int) -> float:
    seq = params.pseq if axis == 1 else params.qseq
    return seq.term(abs(disp))


def out_neighbors(fld: BondField, v, params: ExplorationParams) -> set:
    """Open out-neighbors of v = (x, n): all (x + i*e_m, n+1) with the bond open
    and the target inside the window."""
    x, n = v
    L = params.window
    out = set()
    for m in range(1, params.d + 1):
        for i in range(1, params.k + 1):
            for s in (i, -i):
                prob = axis_prob(params, m, s)
                y = list(x)
                y[m - 1] += s
                if abs(y[m - 1]) > L:
                    continue
                if fld.is_open(BondId.oriented(x, n, m, s), prob):
                    out.add((tuple(y), n + 1))
    return out


def generation_fronts(fld: BondField, params: ExplorationParams) -> list:
    """The front of each generation n = 0..horizon of `explore(fld,
    params)`, as a set of (replica, x, n) triples.  Generation n's front is
    that of the sweep at horizon n, since no bond's id depends on the
    horizon."""
    fronts = []
    for n in range(params.horizon + 1):
        front = explore(fld, replace(params, horizon=n)).front
        fronts.append({(j, tuple(x), n) for j, *x in zip(*front.tolist())})
    return fronts


# -- renorm ---------------------------------------------------------------------

def bifurcations(args, root, lo, hi):
    """Chunk kernel of `run_replicas`: 1 where the bifurcation event at the
    origin holds on replica r's field, else 0, for r in lo..hi-1."""
    (params,) = args
    return np.array([check_bifurcation(root.derive_replica(r), ((0, 0), 0), params).success
                     for r in range(lo, hi)], dtype=np.int64)


def reverify_red_cluster(fld: BondField, params: BifurcationParams, state: RedState) -> bool:
    """True iff every link is open bond by bond and leaves a certified offset
    of the generation before, so by induction on n every certified offset
    ends an open path from the origin, and every red point has a certified
    offset that roots a bifurcation."""
    p, q, beta = params.pseq, params.qseq, params.beta
    cert = state.certificates
    for (m, n), offsets in cert.items():
        for a, link in offsets.items():
            if link is None:
                if (m, n, a) != (0, 0, 0):
                    return False
                continue
            (m0, n0), a0, a1 = link
            if n0 != n - 1 or a0 not in cert.get((m0, n0), {}):
                return False
            if not fld.is_open(BondId.oriented((a0, m0 * beta), 2 * n0, 1, a1),
                               p.term(abs(a1))):
                return False
            mid = (a0 + a1, m0 * beta)
            if m == m0:
                axis, disp, prob = 1, a - a0 - a1, p.term(abs(a - a0 - a1))
            elif m == m0 + 1 and a == a0 + a1:
                axis, disp, prob = 2, beta, q.term(beta)
            else:
                return False
            if not fld.is_open(BondId.oriented(mid, 2 * n - 1, axis, disp), prob):
                return False
    for point in state.A:
        m, n = point
        if not any(check_bifurcation(fld, ((a, m * beta), 2 * n), params).success
                   for a in cert.get(point, {})):
            return False
    return True


@dataclass
class ConeCluster:
    reached: list  # list of sets of m-coordinates, index = generation
    survived: bool


def site_perc_cone(gamma: float, horizon: int, fld: BondField) -> ConeCluster:
    """Independent site percolation on {(m, n): 0 <= m <= n} with children
    (m, n+1) and (m+1, n+1), site (m, n) reading the id [TAG_SITE, m, n].
    The origin counts as occupied regardless of its own site variable
    (cluster-of-the-origin rule)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be a probability")
    if horizon < 0:
        raise ValueError("horizons must be nonnegative")
    reached = [{0}]
    for n in range(1, horizon + 1):
        prev = reached[-1]
        cur = {m for m in range(0, n + 1)
               if (m in prev or m - 1 in prev)
               and fld.is_open(BondId((TAG_SITE, m, n)), gamma)}
        reached.append(cur)
        if not cur:
            reached.extend([set()] * (horizon - n))
            break
    return ConeCluster(reached, bool(reached[horizon]))


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
