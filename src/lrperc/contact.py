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
harness's k-sweep samples one timeline per replica, at the largest k.  No
two sites of the box are farther apart than its widest extent, so the
sampler enumerates ranges only up to min(k, that extent), and a k above it
samples the same timeline.

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
k-sweep from one sweep per replica.  The sweep checks that
0 <= s <= t <= horizon and that src is a site of the box.

A box's fixed structure, its sites, its in-box pairs, their death and
arrow id columns, the pairs' means grouped by mean and each pair's
(source index, destination index, jump), is a table built once per
(rates, box, horizon, d) and process (`_box_table`, behind an lru_cache
that keeps the last table), so sampling a replica only draws its marks.
A Timeline keeps its marks flat: one owner array (a process of its table)
and one time array, in sweep order.  Its `deaths` and `arrows` dicts
({key: sorted times}) are views, built on first read and cached.  A hand-made `Timeline(horizon, bounds, deaths,
arrows)` is flattened into the same form, so sampled and hand-made
timelines share one sweep, which keeps one int label per site index.

One sampler (`_mark_counts`, `_mark_times`) turns keyed uniforms into
marks, for one replica or a batch.  Trial r of the batched skeleton event
`f_events` reads the marks of replica r's timeline, so `check_f_event` on
that timeline is its oracle.
"""

from __future__ import annotations

import functools
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


class _MeanRuns:
    """A flat array of Poisson means grouped by distinct mean, once: `order`
    lists the array's elements mean by mean, ends[i] ending the run of
    means[i]."""

    def __init__(self, values):
        means, inv = np.unique(values, return_inverse=True)
        self.values, self.means = values, means.tolist()
        self.order = np.argsort(inv, kind="stable")
        self.ends = np.cumsum(np.bincount(inv, minlength=len(means))).tolist()


def poisson_from_uniform(u, mu) -> np.ndarray:
    """Invert the Poisson CDF at quantile u, elementwise.

    The smallest k with u < F(k), found for each distinct mean by
    `_poisson_from_zero`, or where exp(-mu) is no longer a normal float
    (mu > ~708; it is 0 beyond ~745) by `_poisson_from_mode`.  `mu` is a
    mean, an array of means broadcasting against u, or the `_MeanRuns` of
    means of u's size that a caller with fixed means keeps (`_box_table`).
    """
    u = np.asarray(u, dtype=np.float64)
    if not isinstance(mu, _MeanRuns):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim == 0:
            return _poisson_from_zero(u, float(mu))
        mu = _MeanRuns(np.broadcast_to(mu, u.shape).ravel())
    flat, k, start = u.ravel(), np.empty(u.size, dtype=np.int64), 0
    for m, end in zip(mu.means, mu.ends):
        at = mu.order[start:end]
        k[at] = _poisson_from_zero(flat[at], m)
        start = end
    return k.reshape(u.shape)


def _poisson_from_zero(u, mu: float) -> np.ndarray:
    """Poisson inverse CDF for one mean, by bisection in its CDF table.

    The table sums pmf(k) = pmf(k - 1) * mu / k up from exp(-mu), as far
    as the largest u needs; it also ends where the sum stops growing, which
    happens when u is within rounding of 1.
    """
    pmf = float(np.exp(-np.float64(mu)))
    if pmf < np.finfo(np.float64).tiny:
        return _poisson_from_mode(u, mu)
    cdf, top = [pmf], u.max(initial=0.0)
    while cdf[-1] <= top:
        pmf = pmf * mu / len(cdf)
        if cdf[-1] + pmf == cdf[-1]:
            break
        cdf.append(cdf[-1] + pmf)
    return np.searchsorted(cdf, u, side="right")


def _poisson_from_mode(u, mu: float) -> np.ndarray:
    """Poisson inverse CDF for a mean too large for the table from 0.

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


class _Table:
    """The fixed structure of a timeline: its sites, its ordered pairs and,
    per process, what its marks touch.

    Process o < len(sites) is the death process of site o; process
    len(sites) + p is the arrow process of pair p, and heads[o] is then
    (source index, destination index, jump length).  A box's table also
    carries the box bounds, the death and arrow id columns and the pairs'
    means, grouped by mean (`_MeanRuns`).
    """

    def __init__(self, sites, pairs, heads=None, bounds=None, dcols=None, acols=None,
                 mus=None):
        self.sites, self.pairs, self.bounds = sites, pairs, bounds
        self.index = {s: i for i, s in enumerate(sites)}
        if heads is None:
            heads = [(self.index[u], self.index[v], max(abs(a - b) for a, b in zip(u, v)))
                     for u, v in pairs]
        self.heads = [*range(len(sites)), *heads]
        self.dcols, self.acols, self.mus = dcols, acols, mus


@functools.lru_cache(maxsize=1)
def _box_table(rates, box, horizon: float, d: int) -> _Table:
    """The table of every site and every in-box ordered pair with a positive
    rate, pairs in site order and, per site, in (axis, signed range) order.
    `box` is an int or a tuple of (lo, hi) pairs; `rates` is a key by value."""
    sites, bounds = _box_sites(box, d)
    lo, hi = np.array(bounds, dtype=np.int64).reshape(d, 2).T
    coords = np.array(sites, dtype=np.int64).reshape(-1, d)
    # no pair of in-box sites is farther apart than the widest box extent
    reach = min(rates.k, int((hi - lo).max()))
    moves = [(m, disp, rates.term(abs(disp)))
             for m in range(1, d + 1) for disp in signed_ranges(reach)]
    moves = [mv for mv in moves if mv[2] > 0.0]
    axis, disp = (np.array([mv[c] for mv in moves], dtype=np.int64) for c in (0, 1))
    rate = np.array([mv[2] for mv in moves], dtype=np.float64)
    step = disp[:, None] * (np.arange(1, d + 1) == axis[:, None])       # (moves, d)
    dst = coords[:, None, :] + step[None]                               # (sites, moves, d)
    src_i, move_i = np.nonzero(((dst >= lo) & (dst <= hi)).all(axis=2))
    dst_i = np.ravel_multi_index(tuple((dst[src_i, move_i] - lo).T), tuple(hi - lo + 1))
    heads = list(zip(src_i.tolist(), dst_i.tolist(), np.abs(disp[move_i]).tolist()))
    return _Table(sites, [(sites[u], sites[v]) for u, v, _ in heads], heads, tuple(bounds),
                  dcols=[_TAG_DEATH, *coords.T],
                  acols=[_TAG_ARROW, *coords[src_i].T, axis[move_i], disp[move_i]],
                  mus=_MeanRuns(rate[move_i] * horizon))


def _sweep_order(table: _Table, owner, times):
    """(owner, times) sorted by time, deaths before arrows at equal times."""
    order = np.argsort(times)
    if (times[order[1:]] == times[order[:-1]]).any():  # ties: the order needs its key
        order = np.lexsort((owner >= len(table.sites), times))
    return owner[order], times[order]


class Timeline:
    """The marks of one timeline, flat: `owner` and `times` in sweep order,
    `owner` being a process of `table` (see `_Table`).

    `Timeline(horizon, bounds, deaths, arrows)` flattens hand-made marks,
    {site: times} and {(src, dst): times}, into the same form.  The
    `deaths` and `arrows` views give the marks back as such dicts of sorted
    times, processes without marks omitted; each is built on first read.
    """

    def __init__(self, horizon: float, bounds, deaths: dict, arrows: dict, resamples: int = 0):
        sites = list(dict.fromkeys([*deaths, *itertools.chain.from_iterable(arrows)]))
        table = _Table(sites, list(arrows))
        marks = [np.asarray(deaths.get(s, ()), dtype=np.float64) for s in sites]
        marks += [np.asarray(ts, dtype=np.float64) for ts in arrows.values()]
        owner = np.repeat(np.arange(len(marks)), [m.size for m in marks])
        self._set(horizon, bounds, table,
                  *_sweep_order(table, owner, np.concatenate([np.empty(0), *marks])), resamples)

    @classmethod
    def _flat(cls, horizon, bounds, table, owner, times, resamples) -> "Timeline":
        tl = cls.__new__(cls)
        tl._set(horizon, bounds, table, owner, times, resamples)
        return tl

    def _set(self, horizon, bounds, table, owner, times, resamples):
        self.horizon, self.bounds, self.table = horizon, bounds, table
        self.owner, self.times, self.resamples = owner, times, resamples

    def in_box(self, site) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(site, self.bounds))

    def _by_process(self, keys, first: int) -> dict:
        """{keys[p]: sorted times} of processes first + p with a mark."""
        mine = (self.owner >= first) & (self.owner < first + len(keys))
        owner = self.owner[mine] - first
        times = self.times[mine][np.argsort(owner, kind="stable")]
        out, end = {}, 0
        for key, c in zip(keys, np.bincount(owner, minlength=len(keys)).tolist()):
            if c:
                out[key] = times[end:end + c]
                end += c
        return out

    @functools.cached_property
    def deaths(self) -> dict:
        return self._by_process(self.table.sites, 0)

    @functools.cached_property
    def arrows(self) -> dict:
        return self._by_process(self.table.pairs, len(self.table.sites))


def _mark_counts(root: BondField, replica, cols, mus) -> np.ndarray:
    """Mark count of each Poisson process with id columns `cols` and mean
    `mus` (see `poisson_from_uniform`), on replica index or index array
    `replica` (all broadcast)."""
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


def sample_timeline(seed: int, rates: TruncatedSequence, box, horizon: float,
                    d: int, replica: int = 0) -> Timeline:
    """Exact Poisson samples for every site and every in-box ordered pair.

    Deterministic in (seed, replica).  Each process draws its count from its
    own keyed uniform (Poisson inverse CDF) and its event times as iid
    uniforms on [0, T], which together realize a homogeneous Poisson process.
    In the measure-zero case of a global time collision the whole timeline is
    resampled from a bumped stream and the retry count is recorded.  The
    box's table is built once per (rates, box, horizon, d) and process.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    table = _box_table(rates, box if isinstance(box, int) else tuple(map(tuple, box)),
                       horizon, d)
    root, n = BondField(seed), len(table.sites)
    for attempt in range(64):
        rep = replica + (attempt << 40)
        dcounts = _mark_counts(root, rep, table.dcols, horizon)
        downer, dtimes = _mark_times(root, rep, table.dcols, dcounts, horizon)
        acounts = _mark_counts(root, rep, table.acols, table.mus)
        aowner, atimes = _mark_times(root, rep, table.acols, acounts, horizon)
        owner, times = _sweep_order(table, np.concatenate([downer, aowner + n]),
                                    np.concatenate([dtimes, atimes]))
        if not (times[1:] == times[:-1]).any():
            return Timeline._flat(horizon, table.bounds, table, owner, times, attempt)
    raise RuntimeError("could not sample a collision-free timeline")


def k_connected(tl: Timeline, frm, to, k: int) -> bool:
    """Existence of an infection path from (site, time) to (site, time).

    Deaths at the endpoints' own instants count against the path; a jump
    strictly after the start and up to the end time is allowed.
    """
    (src, s), (dst, t) = frm, to
    return infection_labels(tl, src, s, t).get(dst, k + 1) <= k


_HEALTHY = 1 << 62  # the label of a site not infected at any k


def infection_labels(tl: Timeline, src, s: float, t: float) -> dict:
    """{site: label} of every site infected at time t from (src, s) at some
    k, the label being the least such k (see the module docstring).

    The sweep reads the timeline's flat marks between s and t and keeps one
    int label per site index of its table.  The source must be a site of
    the box: an off-box site has no marks and would stay infected.
    """
    if not (0.0 <= s <= t <= tl.horizon):
        raise ValueError("times must satisfy 0 <= s <= t <= horizon")
    if len(src) != len(tl.bounds) or not tl.in_box(src):
        raise ValueError(f"source {src} is not a site of the box {tl.bounds}")
    table, n = tl.table, len(tl.table.sites)
    if src not in table.index:  # no mark touches it: nothing reaches or clears it
        return {src: 0}
    lo, at, hi = (int(np.searchsorted(tl.times, x, side=side))
                  for x, side in ((s, "left"), (s, "right"), (t, "right")))
    head = tl.owner[lo:at]  # marks at s itself: its deaths count, its arrows do not
    owner = np.concatenate([head[head < n], tl.owner[at:hi]]) if at > lo else tl.owner[lo:hi]
    heads, label = table.heads, [_HEALTHY] * n
    label[table.index[src]], infected = 0, 1
    for o in owner.tolist():
        if o < n:
            if label[o] != _HEALTHY:
                label[o] = _HEALTHY
                infected -= 1
                if not infected:
                    break
        else:
            u, v, j = heads[o]
            lu = label[u]
            if lu != _HEALTHY:
                if lu > j:
                    j = lu
                lv = label[v]
                if j < lv:
                    infected += lv == _HEALTHY
                    label[v] = j
    return {site: lab for site, lab in zip(table.sites, label) if lab != _HEALTHY}


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

def infected_at_horizon(tl: Timeline, k: int) -> set:
    """The set of sites k-connected from (0, 0) at the timeline horizon."""
    origin = (0,) * len(tl.bounds)
    return {v for v, lab in infection_labels(tl, origin, 0.0, tl.horizon).items() if lab <= k}
