"""Truncated long-range contact process via the graphical construction.

A Timeline is an exact realization of the Poisson marks on a finite
space-time box: death times (rate 1) per site, arrow times (rate
lambda_{|i|}) per ordered pair of sites differing by i*e_m with
0 < |i| <= k.  Infection spreads event-by-event: a right-continuous path
must avoid every death mark on its current site and may jump only at an
arrow time of the occupied pair, with jump length at most k.

Every Poisson process is keyed by its canonical identity (site, or ordered
pair), not by enumeration order, so timelines sampled at different
truncation ranges agree on every shared pair: restricting the jump length
on one shared sample realizes the usual monotone coupling in k, and the
harness's k-sweep samples one timeline per replica, at the largest k.

An arrow's jump length j is a property of its pair, so the arrow is usable
at truncation k exactly when j <= k.  The sweep from (src, s) to time t
(Harris 1978) reads the marks once in time order, deaths before arrows at
equal times, and carries each infected site's label, the least k at which
it is infected:

    label(src) = 0 at time s,
    a death at v in [s, t] drops v's label (v is healthy at every k),
    an arrow u -> v of jump j in (s, t] sets
        label(v) = min(label(v), max(label(u), j)),

the minimax labelling of invasion percolation (Wilkinson & Willemsen 1983).
A site is k-connected from (src, s) at time t exactly when its label is
<= k, so the least label at the horizon decides survival at every k of a
k-sweep from one sweep per replica.

One sampler (`_mark_counts`, `_mark_times`) turns keyed uniforms into
marks, for one replica or a batch.  Trial r of the batched skeleton event
`f_events` reads the marks of replica r's timeline, so `check_f_event` on
that timeline is its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bondfield import BondField
from .sequences import TruncatedSequence, signed_ranges

_TAG_DEATH = 7
_TAG_ARROW = 8
_KIND_COUNT = 0
_KIND_TIME = 1


def _box_sites(box, d: int):
    """Expand a box spec (half-width int, or per-axis (lo, hi) pairs) into the
    list of sites and the per-axis bounds."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    bounds = [(-box, box)] * d if isinstance(box, int) else [tuple(b) for b in box]
    if len(bounds) != d or any(lo > hi for lo, hi in bounds):
        raise ValueError(f"box must be a half-width >= 0 or {d} (lo, hi) pairs "
                         f"with lo <= hi, got {box}")
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))), bounds


def poisson_from_uniform(u, mu) -> np.ndarray:
    """Invert the Poisson CDF at quantile u, elementwise.

    The smallest k with u < F(k).  The walk up from k = 0 starts at
    exp(-mu); where that is no longer a normal float (mu > ~708; it is 0
    beyond ~745) the inversion runs from the mode (`_poisson_from_mode`).
    The walk also ends where the CDF stops growing, which happens when u
    is within rounding of 1.
    """
    u = np.asarray(u, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), u.shape)
    k = np.zeros(u.shape, dtype=np.int64)
    pmf = np.exp(-mu)
    cdf = pmf.copy()
    underflow = pmf < np.finfo(np.float64).tiny
    active = (u >= cdf) & ~underflow
    while active.any():
        k[active] += 1
        pmf = np.where(active, pmf * mu / np.maximum(k, 1), pmf)
        grown = cdf + np.where(active, pmf, 0.0)
        active = (u >= grown) & (grown > cdf)
        cdf = grown
    for m in set(mu[underflow].tolist()):
        at = underflow & (mu == m)
        k[at] = _poisson_from_mode(u[at], m)
    return k


def _poisson_from_mode(u, mu: float) -> np.ndarray:
    """Poisson inverse CDF for a mean too large for the walk from 0.

    The pmf at the mode comes from `math.lgamma` in log space, and the
    pmf on the window mode -/+ (10 sqrt(mu) + 40), which holds all but
    about 1e-22 of the mass, by the ratio recursion in log space
    (Devroye 1986, ch. X).  The CDF is the running sum over the window.
    """
    mode = math.floor(mu)
    half = int(10 * math.sqrt(mu)) + 40
    lo, hi = max(0, mode - half), mode + half
    log_mode = -mu + mode * math.log(mu) - math.lgamma(mode + 1)
    up = np.log(mu / np.arange(mode + 1, hi + 1))
    down = np.log(np.arange(lo + 1, mode + 1) / mu)[::-1]
    logpmf = np.concatenate([(log_mode + np.cumsum(down))[::-1], [log_mode],
                             log_mode + np.cumsum(up)])
    cdf = np.cumsum(np.exp(logpmf))
    return lo + np.minimum(np.searchsorted(cdf, u, side="right"), hi - lo)


@dataclass
class Timeline:
    horizon: float
    bounds: list
    deaths: dict  # site -> sorted ndarray of times (sites with no death omitted)
    arrows: dict  # (src, dst) -> sorted ndarray of times (empty pairs omitted)
    resamples: int = 0

    def in_box(self, site) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(site, self.bounds))


def _mark_counts(root: BondField, replica, cols, mus) -> np.ndarray:
    """Mark count of each Poisson process with id columns `cols` and mean
    `mus`, on replica index or index array `replica` (all four broadcast)."""
    u = root.derive_replica(replica).uniforms([*cols, _KIND_COUNT, 0])
    return poisson_from_uniform(u, mus)


def _mark_times(root: BondField, replica, cols, counts, horizon: float):
    """(owner, times) of every mark, owner being the flat index into `counts`
    of the mark's process; marks come in owner order, unsorted in time."""
    flat = counts.ravel()
    owner = np.repeat(np.arange(flat.size), flat)
    j = np.arange(owner.size) - np.repeat(np.cumsum(flat) - flat, flat) + 1

    def per_mark(c):
        c = np.asarray(c)
        return c if c.ndim == 0 else np.broadcast_to(c, counts.shape).ravel()[owner]

    fld = root.derive_replica(replica if np.ndim(replica) == 0 else per_mark(replica))
    return owner, fld.uniforms([*map(per_mark, cols), _KIND_TIME, j]) * horizon


def _by_process(keys, counts, owner, times) -> dict:
    """{key: sorted times} of every process with a mark: one sort by
    (process, time), then a slice per process."""
    times = times[np.lexsort((times, owner))]
    ends = np.cumsum(counts).tolist()
    return {keys[p]: times[e - c:e] for p, (c, e) in enumerate(zip(counts.tolist(), ends)) if c}


def sample_timeline(seed: int, rates: TruncatedSequence, box, horizon: float,
                    d: int, replica: int = 0) -> Timeline:
    """Exact Poisson samples for every site and every in-box ordered pair.

    Deterministic in (seed, replica).  Each process draws its count from its
    own keyed uniform (Poisson inverse CDF) and its event times as iid
    uniforms on [0, T], which together realize a homogeneous Poisson process.
    In the measure-zero case of a global time collision the whole timeline is
    resampled from a bumped stream and the retry count is recorded.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    sites, bounds = _box_sites(box, d)
    site_set = set(sites)
    moves = [(m, disp, rates.term(abs(disp)))
             for m in range(1, d + 1) for disp in signed_ranges(rates.k)]
    pairs, pair_words, pair_mus = [], [], []
    for s in sites:
        for m, disp, rate in moves:
            t = s[:m - 1] + (s[m - 1] + disp,) + s[m:]
            if rate > 0.0 and t in site_set:
                pairs.append((s, t))
                pair_words.append((_TAG_ARROW, *s, m, disp))
                pair_mus.append(rate * horizon)
    dcols = list(np.array([(_TAG_DEATH, *s) for s in sites]).T)
    acols = list(np.array(pair_words, dtype=np.int64).reshape(-1, d + 3).T)
    root = BondField(seed)
    for attempt in range(64):
        rep = replica + (attempt << 40)
        dcounts = _mark_counts(root, rep, dcols, horizon)
        downer, dtimes = _mark_times(root, rep, dcols, dcounts, horizon)
        acounts = _mark_counts(root, rep, acols, pair_mus)
        aowner, atimes = _mark_times(root, rep, acols, acounts, horizon)
        pool = np.concatenate([dtimes, atimes])
        if len(np.unique(pool)) == pool.size:
            return Timeline(horizon, bounds, _by_process(sites, dcounts, downer, dtimes),
                            _by_process(pairs, acounts, aowner, atimes), resamples=attempt)
    raise RuntimeError("could not sample a collision-free timeline")


def k_connected(tl: Timeline, frm, to, k: int) -> bool:
    """Existence of an infection path from (site, time) to (site, time).

    Deaths at the endpoints' own instants count against the path; a jump
    strictly after the start and up to the end time is allowed.
    """
    (src, s), (dst, t) = frm, to
    if not (0.0 <= s <= t <= tl.horizon):
        raise ValueError("times must satisfy 0 <= s <= t <= horizon")
    return infection_labels(tl, src, s, t).get(dst, k + 1) <= k


def infection_labels(tl: Timeline, src, s: float, t: float) -> dict:
    """{site: label} of every site infected at time t from (src, s) at some
    k, the label being the least such k (see the module docstring).

    The marks come in time order from one lexsort, deaths first at equal
    times; each pair's jump length is computed once.
    """
    sites, pairs = list(tl.deaths), list(tl.arrows)
    marks = [*tl.deaths.values(), *tl.arrows.values()]
    times = np.concatenate([np.empty(0), *marks])
    owner = np.repeat(np.arange(len(marks)), [len(ts) for ts in marks])
    arrow = owner >= len(sites)
    order = np.lexsort((arrow, times))
    live = (times <= t) & np.where(arrow, times > s, times >= s)
    ends = np.fromiter(itertools.chain.from_iterable(u + v for u, v in pairs), np.int64,
                       count=2 * len(src) * len(pairs)).reshape(len(pairs), 2, len(src))
    jumps = np.abs(ends[:, 0] - ends[:, 1]).max(axis=1, initial=0).tolist()
    heads = sites + [(u, v, j) for (u, v), j in zip(pairs, jumps)]
    label, n = {src: 0}, len(sites)
    for o in owner[order[live[order]]].tolist():
        if o < n:
            label.pop(heads[o], None)
            if not label:
                break
        else:
            u, v, j = heads[o]
            if u in label:
                j = max(label[u], j)
                if j < label.get(v, j + 1):
                    label[v] = j
    return label


# -- skeleton events ----------------------------------------------------------

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
        if not (tl.in_box(y) and tl.in_box(z)):
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
    box=[(-k, k), (0, b)], horizon=delta, d=2, replica=r)`, the death
    counts of the 4k + 1 involved sites and the arrow times of the 4k
    involved pairs: `check_f_event` on that timeline is its oracle.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, b, d = params.k, params.b, params.delta
    a = np.fromiter(signed_ranges(k), dtype=np.int64)
    reps = np.arange(trials)[:, None]
    root = BondField(seed)

    def dead(x1, x2):
        return _mark_counts(root, reps, [_TAG_DEATH, x1, x2], d) > 0

    def arrow_in(cols, mus, first_half):
        counts = _mark_counts(root, reps, cols, mus)
        owner, times = _mark_times(root, reps, cols, counts, d)
        hit = times <= d / 2 if first_half else times >= d / 2
        return np.bincount(owner[hit], minlength=counts.size).reshape(counts.shape) > 0

    first = arrow_in([_TAG_ARROW, 0, 0, 1, a],                      # x -> x + a e1
                     d * np.array([rates.term(abs(i)) for i in a.tolist()]), True)
    onward = arrow_in([_TAG_ARROW, a, 0, 2, b], d * rates.term(b), False)  # up b
    per_a = ~dead(a, 0) & ~dead(a, b) & first & onward
    return ~dead(0, 0)[:, 0] & per_a.any(axis=1)


# -- survival -------------------------------------------------------------------

def infected_at_horizon(tl: Timeline, k: int, origin=None) -> set:
    """The set of sites k-connected from (origin, 0) at the timeline horizon."""
    if origin is None:
        origin = tuple(0 for _ in tl.bounds)
    return {v for v, lab in infection_labels(tl, origin, 0.0, tl.horizon).items() if lab <= k}
