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
on one shared sample realizes the usual monotone coupling in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bondfield import BondField
from .sequences import TruncatedSequence
from .stats import EstimateWithCI

_TAG_DEATH = 7
_TAG_ARROW = 8
_KIND_COUNT = 0
_KIND_TIME = 1


def _box_sites(box, d: int):
    """Expand a box spec (half-width int, or per-axis (lo, hi) pairs) into the
    list of sites and the per-axis bounds."""
    if isinstance(box, int):
        bounds = [(-box, box)] * d
    else:
        bounds = [tuple(b) for b in box]
        if len(bounds) != d:
            raise ValueError("box must give one (lo, hi) pair per axis")
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    sites = [()]
    for r in ranges:
        sites = [s + (c,) for s in sites for c in r]
    return sites, bounds


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


def _signed(k: int):
    for i in range(1, k + 1):
        yield i
        yield -i


@dataclass
class Timeline:
    horizon: float
    bounds: list
    k: int
    deaths: dict  # site -> sorted ndarray of times (sites with no death omitted)
    arrows: dict  # (src, dst) -> sorted ndarray of times (empty pairs omitted)
    resamples: int = 0
    _events: list | None = field(default=None, repr=False)

    def in_box(self, site) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(site, self.bounds))

    def events(self) -> list:
        """All marks merged in time order: ('death', t, site) and
        ('arrow', t, src, dst).  Deaths sort before arrows at equal times
        (a measure-zero tie, broken conservatively)."""
        if self._events is None:
            ev = []
            for s, ts in self.deaths.items():
                ev.extend(("death", float(t), s) for t in ts)
            for (u, v), ts in self.arrows.items():
                ev.extend(("arrow", float(t), u, v) for t in ts)
            ev.sort(key=lambda e: (e[1], e[0] != "death"))
            self._events = ev
        return self._events


def _sample_processes(fld: BondField, id_word_columns, mus, horizon: float):
    """Counts and per-process sorted time arrays for a batch of processes
    sharing one id encoding.  id_word_columns: list of (nproc,) int arrays."""
    nproc = len(mus)
    if nproc == 0:
        return np.zeros(0, dtype=np.int64), []
    cols = [np.asarray(c) for c in id_word_columns]
    u0 = fld.uniforms(cols + [np.full(nproc, _KIND_COUNT), np.zeros(nproc, dtype=np.int64)])
    counts = poisson_from_uniform(u0, mus)
    total = int(counts.sum())
    times = [np.empty(0)] * nproc
    if total:
        owner = np.repeat(np.arange(nproc), counts)
        offs = np.cumsum(counts) - counts
        j = np.arange(total) - np.repeat(offs, counts)
        u = fld.uniforms([c[owner] for c in cols]
                         + [np.full(total, _KIND_TIME), j + 1]) * horizon
        split = np.split(u, np.cumsum(counts)[:-1])
        times = [np.sort(t) for t in split]
    return counts, times


def sample_timeline(seed: int, rates: TruncatedSequence, box, horizon: float,
                    d: int, replica: int = 0) -> Timeline:
    """Exact Poisson samples for every site and every in-box ordered pair.

    Deterministic in (seed, replica).  Each process draws its count from its
    own keyed uniform (Poisson inverse CDF) and its event times as iid
    uniforms on [0, T], which together realize a homogeneous Poisson process.
    In the measure-zero case of a global time collision the whole timeline is
    resampled from a bumped stream and the retry count is recorded.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    sites, bounds = _box_sites(box, d)
    site_set = set(sites)
    k = rates.k
    pairs, pair_words, pair_mus = [], [], []
    for s in sites:
        for m in range(1, d + 1):
            for disp in _signed(k):
                rate = rates.term(abs(disp))
                if rate <= 0.0:
                    continue
                t = list(s)
                t[m - 1] += disp
                t = tuple(t)
                if t in site_set:
                    pairs.append((s, t))
                    pair_words.append((_TAG_ARROW, *s, m, disp))
                    pair_mus.append(rate * horizon)
    site_words = [(_TAG_DEATH, *s) for s in sites]
    root = BondField(seed)
    for attempt in range(64):
        fld = root.derive_replica(replica + (attempt << 40))
        dcols = [np.array([w[i] for w in site_words]) for i in range(d + 1)]
        dcounts, dtimes = _sample_processes(fld, dcols, np.full(len(sites), horizon), horizon)
        acols = [np.array([w[i] for w in pair_words]) for i in range(d + 3)] if pairs else []
        acounts, atimes = _sample_processes(fld, acols, np.asarray(pair_mus), horizon)
        deaths = {s: ts for s, ts in zip(sites, dtimes) if len(ts)}
        arrows = {p: ts for p, ts in zip(pairs, atimes) if len(ts)}
        nevents = int(dcounts.sum() + (acounts.sum() if pairs else 0))
        pool = np.concatenate([np.concatenate(dtimes)] +
                              ([np.concatenate(atimes)] if pairs else [])) if nevents else np.empty(0)
        if len(np.unique(pool)) == nevents:
            return Timeline(horizon, bounds, k, deaths, arrows, resamples=attempt)
    raise RuntimeError("could not sample a collision-free timeline")


def _jump_len(u, v) -> int:
    return max(abs(a - b) for a, b in zip(u, v))


def k_connected(tl: Timeline, frm, to, k: int) -> bool:
    """Existence of an infection path from (site, time) to (site, time).

    Deaths at the endpoints' own instants count against the path; a jump
    strictly after the start and up to the end time is allowed.
    """
    (src, s), (dst, t) = frm, to
    if not (0.0 <= s <= t <= tl.horizon):
        raise ValueError("times must satisfy 0 <= s <= t <= horizon")
    return dst in _sweep(tl, src, s, t, k)


def _sweep(tl: Timeline, src, s: float, t: float, k: int) -> set:
    """Sites k-connected from (src, s) at time t.

    Event-driven: a death at a time in [s, t] removes its site from the
    reachable set, an arrow in (s, t] out of a reachable site with
    |displacement| <= k adds its head.
    """
    reach = {src}
    for ev in tl.events():
        time = ev[1]
        if time > t:
            break
        if ev[0] == "death":
            if s <= time:
                reach.discard(ev[2])
        else:
            _, _, u, v = ev
            if s < time and u in reach and _jump_len(u, v) <= k:
                reach.add(v)
        if not reach:
            break
    return reach


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
    for a in _signed(params.k):
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


def estimate_f_frequency(rates: TruncatedSequence, params: SkeletonParams,
                         trials: int, seed: int, z: float = 3.0) -> EstimateWithCI:
    """Monte Carlo frequency of the skeleton event over independent trials.

    Samples, for every trial, exactly the Poisson processes the event is
    measurable against (deaths on the 4k+1 involved sites, the 4k involved
    arrow processes, all over one delta-step) and evaluates the event logic
    on the raw marks; vectorized across trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, b, d = params.k, params.b, params.delta
    offsets = list(_signed(k))
    # process ids shared across trials, keyed like sample_timeline on d=2
    death_sites = [(0, 0)] + [(a, 0) for a in offsets] + [(a, b) for a in offsets]
    death_words = [(_TAG_DEATH, *s) for s in death_sites]
    arrow_words = ([(_TAG_ARROW, 0, 0, 1, a) for a in offsets]           # x -> x+a*e1
                   + [(_TAG_ARROW, a, 0, 2, b) for a in offsets])        # onward, up b
    arrow_mus = np.array([rates.term(abs(a)) * d for a in offsets]
                         + [rates.term(b) * d] * len(offsets))
    root = BondField(seed)
    trial_col = np.arange(trials, dtype=np.int64)[:, None]

    def batch_counts(words, mus, lo, hi):
        """Counts in the subwindow [lo, hi) of [0, d) for each (trial, process)."""
        shape = (trials, len(words))
        cols = [trial_col] + [np.array([w[i] for w in words])[None, :]
                              for i in range(len(words[0]))]
        u0 = root.uniforms(cols + [np.full((1, 1), _KIND_COUNT),
                                   np.zeros((1, 1), dtype=np.int64)])
        counts = poisson_from_uniform(u0, mus[None, :])
        if lo == 0.0 and hi == d:
            return counts
        flat = counts.ravel()
        total = int(flat.sum())
        sub = np.zeros(flat.shape, dtype=np.int64)
        if total:
            owner = np.repeat(np.arange(flat.size), flat)
            offs = np.cumsum(flat) - flat
            j = np.arange(total) - np.repeat(offs, flat)
            flatcols = [np.broadcast_to(c, shape).ravel()[owner] for c in cols]
            u = root.uniforms(flatcols + [np.full(total, _KIND_TIME), j + 1]) * d
            np.add.at(sub, owner[(u >= lo) & (u < hi)], 1)
        return sub.reshape(shape)

    dcounts = batch_counts(death_words, np.full(len(death_words), d), 0.0, d)
    first = batch_counts(arrow_words[:len(offsets)], arrow_mus[:len(offsets)], 0.0, d / 2)
    second = batch_counts(arrow_words[len(offsets):], arrow_mus[len(offsets):], d / 2, d)
    ok_x = dcounts[:, 0] == 0
    na = len(offsets)
    per_a = ((dcounts[:, 1:1 + na] == 0) & (dcounts[:, 1 + na:1 + 2 * na] == 0)
             & (first >= 1) & (second >= 1))
    hits = int((ok_x & per_a.any(axis=1)).sum())
    return EstimateWithCI.from_counts(hits, trials, z)


# -- survival -------------------------------------------------------------------

def infected_at_horizon(tl: Timeline, k: int, origin=None) -> set:
    """The set of sites k-connected from (origin, 0) at the timeline horizon."""
    if origin is None:
        origin = tuple(0 for _ in tl.bounds)
    return _sweep(tl, origin, 0.0, tl.horizon, k)
