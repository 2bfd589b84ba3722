"""Truncated long-range contact process via the graphical construction.

A Timeline is an exact realization of the Poisson marks on a finite
space-time box, the sites with every coordinate in [-box, box] for a
half-width `box` (the CLI's --window) over the times [0, horizon]: death
times (rate 1) per site, arrow times (rate lambda_{|i|}) per ordered pair
of sites differing by i*e_m with 0 < |i| <= k.  Infection spreads
event-by-event: a right-continuous path must avoid every death mark on its
current site and may jump only at an arrow time of the occupied pair, with
jump length at most k.

Every Poisson process is keyed by its canonical identity (site, or ordered
pair), not by enumeration order, so timelines sampled at different
truncation ranges agree on every shared pair: restricting the jump length
on one shared sample realizes the usual monotone coupling in k, and the
harness's k-sweep samples one timeline per replica, at the largest k.  No
two sites of the box are farther apart than its width 2 box, so the
sampler enumerates ranges only up to min(k, 2 box), and a k above it
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
0 <= s <= t <= horizon and that src, any sequence of d coordinates, is a
site of the table.

A box's fixed structure is a table (`_Table`) built once per (rates,
box, horizon, d) and process (`_box_table`, behind an lru_cache that
keeps the last table), so sampling only draws marks.  The table holds
the box and every site of it, each in-box pair's (source index,
destination index, jump), the id prefixes of the death and arrow
processes and every process's mean grouped by mean.  A Timeline keeps
its marks flat: one owner array (a process of its table) and one time
array, in sweep order.  Its `deaths` and `arrows` dicts ({key: sorted
times}) are views, built on first read and cached, as are the table's
(site, site) pairs that the `arrows` view keys by.  The sweep keeps one
int label per site index.  Timelines of hand-made marks, and the
skeleton event `f_events` with its oracle `check_f_event`, are in
`tests/oracles.py`.

The sampler, `sample_timelines`, draws the timelines of a batch of
replicas together; `sample_timeline` is its batch of one.  It
folds each process's id prefix, [7, x...] or [8, x..., axis, disp], once
per replica (`BondField.prefix`), draws the process's count from that
state's [0, 0] and the time of its j-th mark from [1, j], so only the last
two words are hashed per mark.  The marks of each replica are then sorted
by time on their own, and a replica whose times tie is resampled alone.
`replica_bytes` states one replica's working set, 32 bytes per process
or expected mark, the larger, and the harness caps a chunk at
`bondfield.chunk_cap` of it, or at one replica; the times are hashed in
slices of _TIME_IDS marks, so a chunk's memory does not grow with reps.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .bondfield import BondField
from .sequences import TruncatedSequence, signed_ranges

_TAG_DEATH = 7
_TAG_ARROW = 8
_KIND_COUNT = 0
_KIND_TIME = 1


def _box_sites(box: int, d: int) -> list:
    """The sites of the box of half-width `box` in dimension d, in
    lexicographic order."""
    if d < 1 or box < 0:
        raise ValueError(f"need a box half-width >= 0 and a dimension >= 1, got {box}, {d}")
    return list(itertools.product(range(-box, box + 1), repeat=d))


class _MeanRuns:
    """Poisson means grouped by distinct mean, once: `order` lists the
    means' positions mean by mean, ends[i] ending the run of means[i]."""

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
    mean, an array of means broadcasting against u, or the `_MeanRuns` of P
    means that a caller with fixed means keeps (`_box_table`); u then holds
    rows of P quantiles, for example one row per replica, and the runs
    group each row's columns.
    """
    u = np.asarray(u, dtype=np.float64)
    if not isinstance(mu, _MeanRuns):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim == 0:
            return _poisson_from_zero(u, float(mu))
        runs = _MeanRuns(np.broadcast_to(mu, u.shape).ravel())
        return poisson_from_uniform(u.ravel(), runs).reshape(u.shape)
    k = np.empty(u.shape, dtype=np.int64)
    rows, krows, start = u.reshape(-1, len(mu.values)), k.reshape(-1, len(mu.values)), 0
    for m, end in zip(mu.means, mu.ends):
        at = mu.order[start:end]
        krows[:, at] = _poisson_from_zero(rows[:, at], m)
        start = end
    return k


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
    """The fixed structure of a timeline on the box of half-width `box` in
    dimension d: its sites, in `_box_sites` order, its ordered pairs and,
    per process, what its marks touch.

    Process o < len(sites) is the death process of site o; process
    len(sites) + p is the arrow process of pair p, and heads[o] is then
    (source index, destination index, jump length).  A sampled table also
    carries the id prefixes of its death and arrow processes as columns,
    and every process's mean in process order (the horizon for a death
    process, rate x horizon for an arrow process), grouped by mean
    (`_MeanRuns`).  The pairs, (source, destination) site tuples, are
    built on first read.
    """

    def __init__(self, box: int, d: int, heads, dcols=None, acols=None, mus=None):
        self.box, self.d, self.sites = box, d, _box_sites(box, d)
        self.index = {s: i for i, s in enumerate(self.sites)}
        self.heads = [*range(len(self.sites)), *heads]
        self.dcols, self.acols, self.mus = dcols, acols, mus

    @functools.cached_property
    def pairs(self) -> list:
        sites = self.sites
        return [(sites[u], sites[v]) for u, v, _ in self.heads[len(sites):]]


@functools.lru_cache(maxsize=1)
def _box_table(rates, box: int, horizon: float, d: int) -> _Table:
    """The table of every site of the box of half-width `box` and every
    in-box ordered pair with a positive rate, pairs in site order and, per
    site, in (axis, signed range) order.  `rates` is a key by value."""
    coords = np.array(_box_sites(box, d), dtype=np.int64).reshape(-1, d)
    # no pair of in-box sites is farther apart than the box's width
    reach = min(rates.k, 2 * box)
    moves = [(m, disp, rates.term(abs(disp)))
             for m in range(1, d + 1) for disp in signed_ranges(reach)]
    moves = [mv for mv in moves if mv[2] > 0.0]
    axis, disp = (np.array([mv[c] for mv in moves], dtype=np.int64) for c in (0, 1))
    rate = np.array([mv[2] for mv in moves], dtype=np.float64)
    step = disp[:, None] * (np.arange(1, d + 1) == axis[:, None])       # (moves, d)
    dst = coords[:, None, :] + step[None]                               # (sites, moves, d)
    src_i, move_i = np.nonzero((np.abs(dst) <= box).all(axis=2))
    dst_i = np.ravel_multi_index(tuple((dst[src_i, move_i] + box).T), (2 * box + 1,) * d)
    heads = zip(src_i.tolist(), dst_i.tolist(), np.abs(disp[move_i]).tolist())
    return _Table(box, d, heads,
                  dcols=[_TAG_DEATH, *coords.T],
                  acols=[_TAG_ARROW, *coords[src_i].T, axis[move_i], disp[move_i]],
                  mus=_MeanRuns(np.concatenate([np.full(len(coords), horizon),
                                                rate[move_i] * horizon])))


class Timeline:
    """The marks of one timeline, flat: `owner` and `times` in sweep order,
    `owner` being a process of `table` (see `_Table`), and the number of
    collision resamples that drew them.

    The `deaths` and `arrows` views give the marks back as dicts
    {site: sorted times} and {(src, dst): sorted times}, processes without
    marks omitted; each is built on first read.
    """

    def __init__(self, horizon: float, table: _Table, owner, times, resamples: int = 0):
        self.horizon, self.table = horizon, table
        self.owner, self.times, self.resamples = owner, times, resamples

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


_TIME_IDS = 1 << 13  # most mark times one `uniforms` call hashes


def _mark_counts(proc: BondField, mus) -> np.ndarray:
    """Mark count of each Poisson process of the batch field `proc`, whose
    elements have folded their process's id prefix (`BondField.prefix`),
    with means `mus` (see `poisson_from_uniform`)."""
    return poisson_from_uniform(proc.uniforms([_KIND_COUNT, 0]), mus)


def _mark_times(proc: BondField, counts, horizon: float):
    """(owner, times) of every mark of the processes of `proc` (see
    `_mark_counts`), owner being the flat index into `counts` of the mark's
    process; marks come in owner order, unsorted in time.  Each mark gathers
    its process's folded state and folds only [kind, j].  The processes are
    drawn in slices of at most _TIME_IDS marks, or one process where it has
    more, so no temporary outgrows the slice."""
    flat = counts.ravel()
    ends = np.cumsum(flat)
    starts = ends - flat
    owner, times = np.empty(flat.sum(), dtype=np.int64), np.empty(flat.sum())
    lo = 0
    while lo < flat.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _TIME_IDS, side="right")))
        at = slice(starts[lo], ends[hi - 1])
        owner[at] = np.repeat(np.arange(lo, hi), flat[lo:hi])
        j = np.arange(1 + starts[lo], 1 + ends[hi - 1]) - np.repeat(starts[lo:hi], flat[lo:hi])
        per_mark = proc.take(np.unravel_index(owner[at], counts.shape))
        times[at] = per_mark.uniforms([_KIND_TIME, j])
        lo = hi
    times *= horizon
    return owner, times


def _draw(root: BondField, table: _Table, replicas, horizon: float):
    """(owner, times, ends) of the marks of stream indices `replicas`: the
    marks of replicas[i] are the run ending at ends[i], sorted by time.
    Each process's id prefix is folded once per replica, [tag, x...] for a
    death process and [tag, x..., axis, disp] for an arrow process, and the
    two are joined in the table's process order."""
    fld = root.derive_replica(replicas[:, None])
    proc = BondField.concat([fld.prefix(table.dcols), fld.prefix(table.acols)])
    counts = _mark_counts(proc, table.mus)
    owner, times = _mark_times(proc, counts, horizon)
    owner %= counts.shape[1]
    ends = np.cumsum(counts.sum(axis=1))
    for s, e in zip([0, *ends[:-1].tolist()], ends.tolist()):
        order = np.argsort(times[s:e])
        owner[s:e], times[s:e] = owner[s:e][order], times[s:e][order]
    return owner, times, ends


def replica_bytes(rates: TruncatedSequence, box: int, horizon: float, d: int) -> float:
    """One replica's working set when `sample_timelines` samples a chunk on
    the box of half-width `box`, for `bondfield.chunk_cap`: 32 bytes per
    process or expected mark, horizon x (sites + sum of the pair rates),
    the larger.  The weight keeps the cap of 2^15 processes or marks per
    chunk; it is not a measured byte count.  The box's pairs are counted,
    not enumerated, so the caller builds no table: side - i sites of a line
    of the box have an in-box neighbour at signed range +-i along it."""
    side = 2 * box + 1
    ranges = [i for i in range(1, min(rates.k, side - 1) + 1) if rates.term(i) > 0.0]
    lines = 2 * d * side ** (d - 1)  # the lines of the box, times both signs of i
    pairs = lines * sum(side - i for i in ranges)
    rate = lines * sum((side - i) * rates.term(i) for i in ranges)
    sites = side ** d
    return 32 * max(sites + pairs, horizon * (sites + rate))


def sample_timelines(seed: int, rates: TruncatedSequence, box: int, horizon: float, d: int,
                     replicas) -> list:
    """The timelines of `replicas` on the box of half-width `box` in
    dimension d, sampled together: element i is
    `sample_timeline(seed, rates, box, horizon, d, replicas[i])`.

    Deterministic in (seed, replica).  Each process draws its count from its
    own keyed uniform (Poisson inverse CDF) and its event times as iid
    uniforms on [0, T], which together realize a homogeneous Poisson process.
    In the measure-zero case of a time collision within a timeline, that
    timeline alone is resampled from a bumped stream, replica + attempt *
    2**40, and the retry count is recorded.  The box's table is built once
    per (rates, box, horizon, d) and process.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    table = _box_table(rates, box, horizon, d)
    root, replicas = BondField(seed), np.asarray(replicas, dtype=np.int64)
    out, todo = [None] * replicas.size, np.arange(replicas.size)
    for attempt in range(64):
        owner, times, ends = _draw(root, table, replicas[todo] + (attempt << 40), horizon)
        pair = np.flatnonzero(times[1:] == times[:-1])  # marks pair, pair + 1 tie
        run = np.searchsorted(ends, pair, side="right")
        tied = np.zeros(todo.size, dtype=bool)
        tied[run[pair + 1 < ends[run]]] = True
        starts = [0, *ends[:-1].tolist()]
        for i, s, e, bad in zip(todo.tolist(), starts, ends.tolist(), tied.tolist()):
            if not bad:
                out[i] = Timeline(horizon, table, owner[s:e], times[s:e], attempt)
        todo = todo[tied]
        if not todo.size:
            return out
    raise RuntimeError("could not sample a collision-free timeline")


def sample_timeline(seed: int, rates: TruncatedSequence, box: int, horizon: float,
                    d: int, replica: int = 0) -> Timeline:
    """Exact Poisson samples for every site and every in-box ordered pair:
    `sample_timelines` of the one replica."""
    return sample_timelines(seed, rates, box, horizon, d, [replica])[0]


_HEALTHY = 1 << 62  # the label of a site not infected at any k


def infection_labels(tl: Timeline, src, s: float, t: float) -> dict:
    """{site: label} of every site infected at time t from (src, s) at some
    k, the label being the least such k (see the module docstring).

    The sweep reads the timeline's flat marks between s and t and keeps one
    int label per site index of its table.  The source, any sequence of d
    coordinates, must be a site of the table: an off-box site has no marks
    and would stay infected.
    """
    if not (0.0 <= s <= t <= tl.horizon):
        raise ValueError("times must satisfy 0 <= s <= t <= horizon")
    table, n = tl.table, len(tl.table.sites)
    src = tuple(src)
    if src not in table.index:
        raise ValueError(f"source {src} is not a site of the box of half-width "
                         f"{table.box} in dimension {table.d}")
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


# -- survival -------------------------------------------------------------------

def infected_at_horizon(tl: Timeline, k: int) -> set:
    """The set of sites k-connected from (0, 0) at the timeline horizon."""
    origin = (0,) * tl.table.d
    return {v for v, lab in infection_labels(tl, origin, 0.0, tl.horizon).items() if lab <= k}
