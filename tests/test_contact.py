import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from exact import block_dispersion_z, contact_survival_d1
from oracles import SkeletonParams, check_f_event, f_events, f_probability, k_connected
from oracles import hand_timeline as _tl
from lrperc import bondfield, contact
from lrperc.bondfield import BondField
from lrperc.cli import main
from lrperc.contact import (
    Timeline, _poisson_from_mode, infected_at_horizon, infection_labels, poisson_from_uniform,
    sample_timeline, sample_timelines,
)
from lrperc.harness import _surv_contact, run_replicas
from lrperc.sequences import constant, explicit, harmonic, powerlaw, truncate
from lrperc.stats import EstimateWithCI, wilson_interval


class _RawRates:
    """Unclamped rate stub: the packaged sequence grammar keeps values in
    [0, 1], so extreme-rate behavior is probed through the same interface."""

    def __init__(self, value, k=1):
        self.value, self.k = value, k

    def term(self, i):
        return self.value if 1 <= i <= self.k else 0.0


# -- sampling ---------------------------------------------------------------------

def test_poisson_inverse_cdf_basics():
    mu = 1.7
    assert poisson_from_uniform(np.array([math.exp(-mu) / 2]), mu)[0] == 0
    grid = (np.arange(200_000) + 0.5) / 200_000
    mean = poisson_from_uniform(grid, mu).mean()
    assert mean == pytest.approx(mu, abs=0.01)


_MUS = st.floats(1e-6, 1e4)


@given(_MUS, st.floats(0.0, 1.0 - 2**-53))
@example(50.0, 1.0 - 2**-53)  # the CDF sum stalls below u
@example(800.0, 0.5)          # exp(-mu) underflows to 0
def test_poisson_terminates_over_the_whole_unit_interval(mu, u):
    k = poisson_from_uniform(np.array([u]), mu)[0]
    assert 0 <= k <= mu + 12 * math.sqrt(mu) + 60


@settings(max_examples=30, deadline=None)
@given(_MUS)
def test_poisson_mean_and_variance_match_mu(mu):
    """Stratified quantiles: the sample mean and variance lie within z = 4
    standard errors of mu (variance of the sample variance ~ (2mu^2 + mu)/n)."""
    n = 20_000
    x = poisson_from_uniform((np.arange(n) + 0.5) / n, mu)
    assert abs(x.mean() - mu) <= 4 * math.sqrt(mu / n)
    assert abs(x.var() - mu) <= 4 * math.sqrt((2 * mu * mu + mu) / n)


def test_poisson_walk_and_mode_inversion_agree():
    """Below the switch (exp(-mu) still a normal float) both inversions
    give the same quantile on a fine grid."""
    grid = (np.arange(50_000) + 0.5) / 50_000
    for mu in (3.0, 50.0, 300.0, 708.0):
        assert np.array_equal(poisson_from_uniform(grid, mu), _poisson_from_mode(grid, mu))


def _poisson_walk(u, mu):
    """Oracle: the elementwise walk up the Poisson CDF from k = 0, each u
    stepping on while u >= F(k) and F still grows."""
    u = np.asarray(u, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), u.shape)
    k = np.zeros(u.shape, dtype=np.int64)
    pmf = np.exp(-mu)
    cdf = pmf.copy()
    active = u >= cdf
    while active.any():
        k[active] += 1
        pmf = np.where(active, pmf * mu / np.maximum(k, 1), pmf)
        grown = cdf + np.where(active, pmf, 0.0)
        active = (u >= grown) & (grown > cdf)
        cdf = grown
    return k


def _per_replica_timeline(seed, rates, box, horizon, d, replica, first_attempt=0):
    """Oracle: the timeline of one replica, each mark's full id through
    `uniforms`.  A process's count is the walk's quantile of its
    [tag, x..., (axis, disp,) 0, 0] uniform, and the time of its j-th mark
    is horizon times its [..., 1, j] uniform.  The marks are sorted by time,
    and on a tie the whole timeline is redrawn from replica + attempt *
    2**40."""
    table = contact._box_table(rates, box, horizon, d)
    n = len(table.sites)
    means = [(table.dcols, np.full(n, horizon)),
             (table.acols, np.array([rates.term(j) * horizon for _, _, j in table.heads[n:]]))]
    for attempt in range(first_attempt, 64):
        fld = BondField(seed).derive_replica(np.array([replica + (attempt << 40)]))
        owner, times, first = [], [], 0
        for cols, mus in means:
            counts = _poisson_walk(fld.uniforms([*cols, 0, 0]), mus)
            proc = np.repeat(np.arange(counts.size), counts)
            j = np.concatenate([np.arange(1, c + 1) for c in counts.tolist()] + [[]]).astype(int)
            per_mark = [c if np.ndim(c) == 0 else np.asarray(c)[proc] for c in cols]
            owner.append(proc + first)
            times.append(fld.uniforms([*per_mark, 1, j]) * horizon)
            first += counts.size
        owner, times = np.concatenate(owner), np.concatenate(times)
        order = np.argsort(times)
        owner, times = owner[order], times[order]
        if not (times[1:] == times[:-1]).any():
            return Timeline(horizon, table, owner, times, attempt)
    raise RuntimeError("could not sample a collision-free timeline")


def test_poisson_table_equals_the_walk():
    """The per-mean CDF table gives the walk's quantile bit for bit, at one
    mean and at mixed means (also grouped ahead), at F(0) itself and within
    rounding of 1."""
    means = [1e-6, 0.05, 0.75, 1.7, 3.0, 5.0, 50.0, 300.0, 707.0]
    grid = (np.arange(4000) + 0.5) / 4000
    for mu in means:
        u = np.concatenate([grid, [0.0, math.exp(-mu), 1 - 2**-40, 1 - 2**-53]])
        assert np.array_equal(poisson_from_uniform(u, mu), _poisson_walk(u, mu)), mu
    mixed = np.resize(means, (400, len(means) + 1))  # every mean in every column
    u = np.resize(np.concatenate([grid, [1 - 2**-53]]), mixed.shape)
    assert np.array_equal(poisson_from_uniform(u, mixed), _poisson_walk(u, mixed))
    runs = contact._MeanRuns(mixed.ravel())  # grouped once, as a box's table keeps them
    assert np.array_equal(poisson_from_uniform(u, runs), _poisson_walk(u, mixed))
    row, u = np.array(means[:4]), np.resize(grid, (1000, 4))  # one mean per column
    assert np.array_equal(poisson_from_uniform(u, row), _poisson_walk(u, row))


def test_cli_contact_long_horizon_returns(tmp_path):
    """A death process with mean 800 used to hang the Poisson walk."""
    out = tmp_path / "c.csv"
    assert main(["contact", "--rates", "const:0.1", "--k", "1", "--horizon", "800",
                 "--window", "0", "--dim", "1", "--reps", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 2


def _same_timeline(got, want):
    return (np.array_equal(got.owner, want.owner) and np.array_equal(got.times, want.times)
            and got.resamples == want.resamples)


_LAWS = st.one_of(
    st.builds(powerlaw, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.3, 0.6, 0.95])),
    st.builds(constant, st.sampled_from([0.0, 0.35, 0.7, 1.0])),
    st.builds(explicit, st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9]), min_size=1, max_size=5)),
)
_SAMPLE_TIMELINES = contact.sample_timelines


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=_LAWS, kmax=st.integers(0, 4), window=st.integers(0, 3),
       horizon=st.sampled_from([0.2, 1.0, 2.5]), d=st.integers(1, 3),
       seed=st.integers(0, 2**20), reps=st.integers(1, 6),
       cap=st.one_of(st.none(), st.integers(1, 3)), workers=st.integers(1, 3),
       time_ids=st.sampled_from([7, 64, contact._TIME_IDS]))
def test_surv_contact_equals_per_replica_oracle(monkeypatch, inline_pool, p, kmax, window,
                                                horizon, d, seed, reps, cap, workers, time_ids):
    """Replica for replica, over laws (no arrows at const 0), truncations,
    boxes, horizons, dimensions, chunk plans and time slices, each timeline
    that the kernel samples in its chunk equals the per-replica oracle's,
    owner, times and resamples, and the kernel's record is the least
    infection label at the horizon on the oracle's timeline."""
    monkeypatch.setattr(contact, "_TIME_IDS", time_ids)
    sampled = {}

    def spy(seed, rates, box, horizon, d, replicas):
        tls = _SAMPLE_TIMELINES(seed, rates, box, horizon, d, replicas)
        sampled.update(zip(replicas, tls))
        return tls
    monkeypatch.setattr(contact, "sample_timelines", spy)
    inline_pool(workers)
    rates = truncate(p, kmax)
    got = run_replicas(_surv_contact, (rates, window, horizon, d), seed, reps, workers, cap)
    assert sorted(sampled) == list(range(reps))
    for r, crit in enumerate(got):
        want = _per_replica_timeline(seed, rates, window, horizon, d, r)
        assert _same_timeline(sampled[r], want), r
        labels = infection_labels(want, (0,) * d, 0.0, horizon)
        assert crit == min(labels.values(), default=kmax + 1), r


def test_tied_replica_is_resampled_alone(monkeypatch):
    """A tie forced into replica 3's marks at attempt 0 resamples that
    replica alone: its timeline and resample count are those of
    `sample_timeline` under the same tie, and the oracle's from attempt 1
    on; the chunk's other replicas keep their attempt-0 timelines.  A tie
    at every attempt is an error."""
    args, victim = (truncate(harmonic(), 2), 2, 3.0, 1), 3
    clean = sample_timelines(5, *args, range(6))
    draw = contact._draw

    def tie(root, table, replicas, horizon, every=False):
        owner, times, ends = draw(root, table, replicas, horizon)
        for i in np.flatnonzero((replicas == victim) | every).tolist():  # attempt 0 only
            s = int(ends[i - 1]) if i else 0
            times[s + 1] = times[s]
        return owner, times, ends
    monkeypatch.setattr(contact, "_draw", tie)
    tied = sample_timelines(5, *args, range(6))
    alone = sample_timeline(5, *args, replica=victim)
    assert tied[victim].resamples == 1 and _same_timeline(tied[victim], alone)
    assert _same_timeline(alone, _per_replica_timeline(5, *args, victim, first_attempt=1))
    assert not np.array_equal(alone.times, clean[victim].times)
    assert all(_same_timeline(tied[r], clean[r]) for r in range(6) if r != victim)
    assert all(tl.resamples == 0 for tl in clean)
    monkeypatch.setattr(contact, "_draw", lambda *a: tie(*a, every=True))
    with pytest.raises(RuntimeError, match="collision-free"):
        sample_timeline(5, *args, replica=0)


def test_zero_rates_give_no_arrows():
    tl = sample_timeline(1, truncate(constant(0.0), 3), box=2, horizon=5.0, d=1)
    assert tl.arrows == {}


def test_sample_timeline_deterministic():
    rates = truncate(harmonic(), 2)
    a = sample_timeline(7, rates, box=2, horizon=3.0, d=1, replica=4)
    b = sample_timeline(7, rates, box=2, horizon=3.0, d=1, replica=4)
    assert set(a.deaths) == set(b.deaths) and set(a.arrows) == set(b.arrows)
    assert all(np.array_equal(a.deaths[s], b.deaths[s]) for s in a.deaths)
    assert all(np.array_equal(a.arrows[p], b.arrows[p]) for p in a.arrows)


def test_death_and_arrow_counts_match_poisson_means():
    horizon = 2.0
    rates = truncate(explicit([0.5]), 1)
    tl = sample_timeline(3, rates, box=2500, horizon=horizon, d=1)
    sites = 5001
    ndeaths = sum(len(ts) for ts in tl.deaths.values())
    # mean T per site, variance T per site
    assert abs(ndeaths / sites - horizon) < 3 * math.sqrt(horizon / sites)
    narrows = sum(len(ts) for ts in tl.arrows.values())
    npairs = 2 * (sites - 1)  # both directions, range-1 only, box edges clipped
    mu = 0.5 * horizon
    assert abs(narrows / npairs - mu) < 3 * math.sqrt(mu / npairs)


def test_event_times_within_horizon_and_sorted():
    tl = sample_timeline(11, truncate(harmonic(), 2), box=2, horizon=4.0, d=1)
    for ts in list(tl.deaths.values()) + list(tl.arrows.values()):
        assert (ts >= 0).all() and (ts <= 4.0).all()
        assert (np.diff(ts) > 0).all()


# -- connectivity ------------------------------------------------------------------

def test_single_arrow_connects():
    tl = _tl(arrows={((0,), (1,)): [2.0]})
    assert k_connected(tl, ((0,), 0.0), ((1,), 3.0), k=1)
    assert not k_connected(tl, ((0,), 0.0), ((1,), 1.0), k=1)  # before the arrow
    assert not k_connected(tl, ((0,), 2.0), ((1,), 3.0), k=1)  # at the start instant


def test_death_blocks_connection():
    tl = _tl(deaths={(0,): [1.0]}, arrows={((0,), (1,)): [2.0]})
    assert not k_connected(tl, ((0,), 0.0), ((0,), 1.5), k=1)
    assert not k_connected(tl, ((0,), 0.0), ((1,), 3.0), k=1)
    tie = _tl(deaths={(0,): [2.0]}, arrows={((0,), (1,)): [2.0]})  # deaths first
    assert not k_connected(tie, ((0,), 0.0), ((1,), 3.0), k=1)


def test_jump_length_restriction():
    tl = _tl(arrows={((0,), (2,)): [1.0]})
    assert not k_connected(tl, ((0,), 0.0), ((2,), 2.0), k=1)
    assert k_connected(tl, ((0,), 0.0), ((2,), 2.0), k=2)


def test_k_connected_reflexive_and_transitive():
    rates = truncate(harmonic(), 2)
    for r in range(25):
        tl = sample_timeline(19, rates, box=2, horizon=2.0, d=1, replica=r)
        # reflexivity at an event-free instant (ties have probability zero)
        assert k_connected(tl, ((0,), 0.5), ((0,), 0.5), k=2)
        # transitivity: 0 -> mid at t1, mid -> end at t2 implies 0 -> end
        for mid in ((-1,), (1,)):
            if k_connected(tl, ((0,), 0.0), (mid, 1.0), 2) and \
               k_connected(tl, (mid, 1.0), ((2,), 2.0), 2):
                assert k_connected(tl, ((0,), 0.0), ((2,), 2.0), 2)


def _brute_force_connected(tl, frm, to, k):
    """Independent oracle: depth-first search over time-increasing arrow
    sequences, checking death-freeness interval by interval."""
    (src, s), (dst, t) = frm, to

    def clear(site, lo, hi, closed_lo):
        ts = tl.deaths.get(site, ())
        return not any((lo <= d if closed_lo else lo < d) and d <= hi for d in ts)

    arrows = sorted(((float(tt), u, v) for (u, v), ts in tl.arrows.items()
                     for tt in ts if max(abs(a - b) for a, b in zip(u, v)) <= k),
                    key=lambda e: e[0])

    def search(site, time):
        if site == dst and clear(site, time, t, closed_lo=True):
            return True
        for (tt, u, v) in arrows:
            if time < tt <= t and u == site and clear(site, time, tt, closed_lo=True):
                if search(v, tt):
                    return True
        return False

    # the start instant itself must be death-free on the start site
    return search(src, s)


_BRUTE_FORCE_CASES = [  # seed, rates, box, horizon, d, replicas
    (31, truncate(constant(0.8), 2), 1, 1.5, 1, 60),
    (32, truncate(harmonic(), 3), 2, 1.0, 2, 30),
]


def test_k_connected_matches_brute_force():
    """The labelled sweep answers every k from 0 to kmax exactly as the
    depth-first oracle does, from the origin at 0 and from a later start."""
    for seed, rates, box, horizon, d, reps in _BRUTE_FORCE_CASES:
        origin, mid = (0,) * d, (1,) + (0,) * (d - 1)
        kmax, labels = rates.k, set()
        for r in range(reps):
            tl = sample_timeline(seed, rates, box=box, horizon=horizon, d=d, replica=r)
            sites = sorted(tl.deaths.keys() | {t for _, t in tl.arrows} | {origin})
            for k in range(kmax + 1):
                want = {dst for dst in sites
                        if _brute_force_connected(tl, (origin, 0.0), (dst, horizon), k)}
                assert infected_at_horizon(tl, k) == want, (seed, r, k)
                for frm in ((origin, 0.0), (mid, horizon / 3)):
                    for dst in sites:
                        got = k_connected(tl, frm, (dst, horizon), k)
                        assert got == _brute_force_connected(tl, frm, (dst, horizon), k)
                if want - (infected_at_horizon(tl, k - 1) if k else set()):
                    labels.add(k)
        assert labels == set(range(kmax + 1)), seed  # some site first reached at each k


def test_relay_lowers_label_and_death_clears_it():
    """(2,) is reached at t = 1 by a jump of 2 (k >= 2), at t = 3 through a
    relay of two unit jumps (k >= 1), which a second jump of 2 at t = 3.25
    leaves at k >= 1, and is healthy again after its death at t = 4, at
    every k."""
    marks = {"deaths": {(2,): [4.0]},
             "arrows": {((0,), (2,)): [1.0, 3.25], ((0,), (1,)): [2.0], ((1,), (2,)): [3.0]}}
    for t, at_k1, at_k2 in ((1.5, {(0,)}, {(0,), (2,)}),
                            (3.5, {(0,), (1,), (2,)}, {(0,), (1,), (2,)}),
                            (4.5, {(0,), (1,)}, {(0,), (1,)})):
        tl = _tl(horizon=t, **marks)
        assert infected_at_horizon(tl, k=1) == at_k1, t
        assert infected_at_horizon(tl, k=2) == at_k2, t
        for k, want in ((1, at_k1), (2, at_k2)):
            assert k_connected(tl, ((0,), 0.0), ((2,), t), k) == ((2,) in want), (t, k)


def test_monotone_in_k_on_shared_timeline():
    rates = truncate(harmonic(), 3)
    for r in range(40):
        tl = sample_timeline(41, rates, box=3, horizon=2.0, d=1, replica=r)
        for dst in tl.deaths:
            if k_connected(tl, ((0,), 0.0), (dst, 2.0), 1):
                assert k_connected(tl, ((0,), 0.0), (dst, 2.0), 3)


def test_time_bounds_validated():
    tl = _tl(horizon=2.0)
    with pytest.raises(ValueError):
        k_connected(tl, ((0,), 1.0), ((0,), 0.5), 1)
    with pytest.raises(ValueError):
        k_connected(tl, ((0,), 0.0), ((0,), 3.0), 1)


def test_infection_labels_checks_its_inputs():
    """The sweep itself rejects times outside 0 <= s <= t <= horizon and a
    source off the box, which has no marks and would stay infected."""
    tl = _tl(horizon=2.0, box=2)
    for s, t in ((2.0, 1.0), (-1.0, 1.0), (0.0, 3.0)):
        with pytest.raises(ValueError, match="0 <= s <= t <= horizon"):
            infection_labels(tl, (0,), s, t)
    for src in ((7,), (-3,), (0, 0)):
        with pytest.raises(ValueError, match="site of the box"):
            infection_labels(tl, src, 0.0, 1.0)
    assert infection_labels(tl, (2,), 0.0, 1.0) == {(2,): 0}


def test_infection_labels_take_a_source_of_any_sequence_form():
    """A tuple, a list and an integer array name the same source and give
    the same labels; an off-box or wrong-dimension source of each form is
    refused."""
    tl = sample_timeline(71, truncate(harmonic(), 3), 2, 2.0, 2, replica=0)
    want = infection_labels(tl, (1, 0), 0.0, 2.0)
    assert len(want) > 1
    for src in ([1, 0], np.array([1, 0]), np.array([1, 0], dtype=np.int32)):
        assert infection_labels(tl, src, 0.0, 2.0) == want
    for bad in ((3, 0), [0, -3], np.array([0, 0, 0]), [0], np.array([1])):
        with pytest.raises(ValueError, match="site of the box"):
            infection_labels(tl, bad, 0.0, 1.0)


def test_pairs_stop_at_the_widest_box_extent(monkeypatch):
    """No two sites of a box are farther apart than its width, twice its
    half-width, so no longer range is enumerated, and a k far above it
    samples the same timelines and records as k at that width."""
    contact._box_table.cache_clear()  # the tables are built under the spy
    asked = []
    ranges = contact.signed_ranges

    def spy(k):
        asked.append(k)
        return ranges(k)
    monkeypatch.setattr(contact, "signed_ranges", spy)
    for r in range(10):
        far, near = (sample_timeline(5, truncate(harmonic(), k), 1, 1.0, 2, replica=r)
                     for k in (1000, 2))
        assert far.deaths.keys() == near.deaths.keys()
        assert far.arrows.keys() == near.arrows.keys()
        assert all((far.arrows[p] == near.arrows[p]).all() for p in far.arrows)
    far, near = ((truncate(harmonic(), k), 2, 1.0, 2) for k in (1000, 4))
    crits = run_replicas(_surv_contact, far, 5, 30)
    assert np.array_equal(crits, run_replicas(_surv_contact, near, 5, 30))
    assert len(set(crits)) > 1
    assert asked and max(asked) <= 4


def test_box_table_is_built_once_per_process():
    """The chunks of a k-sweep share one pair table, and a k above the
    box's width reads the same table and timelines as k at it."""
    contact._box_table.cache_clear()
    crits = run_replicas(_surv_contact, (truncate(harmonic(), 4), 2, 1.25, 2),
                         seed=21, reps=20, threads=1, cap=5)
    info = contact._box_table.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert len(set(crits)) > 1
    far, near = (contact._box_table(truncate(harmonic(), k), 1, 2.0, 2)
                 for k in (1000, 2))
    assert far is not near
    assert (far.sites, far.pairs, far.heads) == (near.sites, near.pairs, near.heads)
    assert far.pairs and max(j for _, _, j in far.heads[len(far.sites):]) == 2
    for a, b in zip([*far.dcols, *far.acols, far.mus.values],
                    [*near.dcols, *near.acols, near.mus.values]):
        assert np.array_equal(a, b)
    for r in range(5):
        tf, tn = (sample_timeline(5, truncate(harmonic(), k), 1, 2.0, 2, replica=r)
                  for k in (1000, 2))
        assert np.array_equal(tf.owner, tn.owner) and np.array_equal(tf.times, tn.times)


@pytest.mark.parametrize("law, k, box, horizon, d", [
    (powerlaw(1.0, 0.6), 4, 5, 5.0, 2),  # trend_contact.cfg
    (harmonic(), 3, 2, 1.5, 2),
    (constant(0.0), 2, 3, 1.0, 1),  # no pairs
    (explicit([0.0, 0.5, 0.2]), 9, 2, 2.0, 3),  # a zero rate, k beyond the box
    (powerlaw(1.0, 0.6), 4, 0, 5.0, 2),  # one site
    (constant(1.0), 400, 200, 2.0, 1),  # more than 2^15 processes: chunks of one
])
def test_chunk_cap_counts_the_box_table(law, k, box, horizon, d):
    """`replica_bytes` counts the processes and expected marks that the
    box's table enumerates, 32 bytes each, so `chunk_cap` of it is 2^15
    over the larger count."""
    rates = truncate(law, k)
    table = contact._box_table(rates, box, horizon, d)
    per = max(len(table.heads), table.mus.values.sum())
    assert bondfield._CHUNK_BYTES // 32 == 2**15
    assert (bondfield.chunk_cap(contact.replica_bytes(rates, box, horizon, d))
            == max(1, int(bondfield._CHUNK_BYTES // 32 // per)))


@pytest.mark.parametrize("box,d", [(3, 1), (2, 2)])
def test_hand_made_and_sampled_timelines_read_one_form(box, d):
    """A timeline rebuilt by hand from a sampled one's dict views sweeps to
    the same labels and gives the same views back."""
    rates, horizon = truncate(harmonic(), 3), 2.0
    starts = [((0,) * d, 0.0), ((1,) + (0,) * (d - 1), horizon / 3)]
    spread = 0
    for r in range(20):
        tl = sample_timeline(71, rates, box, horizon, d, replica=r)
        hand = _tl(tl.horizon, tl.deaths, tl.arrows, box, d)
        assert np.array_equal(hand.times, tl.times)
        for src, s in starts:
            got = infection_labels(hand, src, s, horizon)
            assert got == infection_labels(tl, src, s, horizon), (r, src)
            spread += len(got) > 1
        for view in ("deaths", "arrows"):
            a, b = getattr(hand, view), getattr(tl, view)
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[key], b[key]) for key in a), (r, view)
    assert spread > 0  # some sweep infected more than its source


# -- skeleton events ----------------------------------------------------------------

def test_f_probability_zero_rates():
    params = SkeletonParams(delta=1.0, b=1, k=2)
    assert f_probability(params, truncate(constant(0.0), 2)) == 0.0


def test_f_probability_pinned_value():
    params = SkeletonParams(delta=1.0, b=1, k=1)
    got = f_probability(params, truncate(explicit([1.0]), 1))
    want = math.exp(-1) * (1 - (1 - math.exp(-2) * (1 - math.exp(-0.5)) ** 2) ** 2)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.015254381, abs=1e-8)


def test_f_probability_saturated_rates_limit():
    d = 0.7
    params = SkeletonParams(delta=d, b=1, k=1)

    got = f_probability(params, _RawRates(1e9))
    assert got == pytest.approx(math.exp(-d) * (1 - (1 - math.exp(-2 * d)) ** 2), rel=1e-6)


def test_check_f_event_empty_timeline():
    params = SkeletonParams(delta=1.0, b=1, k=1)
    assert not check_f_event(_tl(box=3, d=2), (0, 0), 0, params).success


def test_check_f_event_hand_built():
    params = SkeletonParams(delta=1.0, b=1, k=1)
    tl = _tl(box=3, d=2,
             arrows={(((0, 0)), ((1, 0))): [0.25], (((1, 0)), ((1, 1))): [0.75]})
    rec = check_f_event(tl, (0, 0), 0, params)
    assert rec.success and rec.a == 1


def test_check_f_event_death_on_root_blocks():
    params = SkeletonParams(delta=1.0, b=1, k=1)
    tl = _tl(box=3, d=2, deaths={(0, 0): [0.5]},
             arrows={(((0, 0)), ((1, 0))): [0.25], (((1, 0)), ((1, 1))): [0.75]})
    assert not check_f_event(tl, (0, 0), 0, params).success


def test_f_frequency_matches_closed_form():
    rates = truncate(harmonic(), 2)
    params = SkeletonParams(delta=0.5, b=1, k=2)
    est = EstimateWithCI.from_counts(int(f_events(rates, params, 30_000, seed=8).sum()),
                                     30_000, z=3.0)
    assert est.lo <= f_probability(params, rates) <= est.hi


@pytest.mark.parametrize("seed,rates,params", [
    (61, truncate(harmonic(), 1), SkeletonParams(delta=1.0, b=1, k=1)),
    (62, truncate(constant(0.9), 3), SkeletonParams(delta=0.25, b=2, k=3)),
    (63, truncate(harmonic(), 4), SkeletonParams(delta=1.0, b=2, k=4)),
    (64, truncate(constant(0.7), 2), SkeletonParams(delta=0.25, b=1, k=2)),
])
def test_f_events_equal_check_f_event_per_trial(seed, rates, params):
    """Trial r of the batch reads exactly the marks of replica r's timeline,
    and on every eighth trial the per-replica oracle's timeline agrees."""
    trials, k, b = 400, params.k, params.b
    got = f_events(rates, params, trials, seed)
    box = max(k, b)
    want = [check_f_event(sample_timeline(seed, rates, box=box, horizon=params.delta, d=2,
                                          replica=r), (0, 0), 0, params).success
            for r in range(trials)]
    assert got.tolist() == want
    oracle = [check_f_event(_per_replica_timeline(seed, rates, box, params.delta, 2, r),
                            (0, 0), 0, params).success
              for r in range(0, trials, 8)]
    assert oracle == want[::8]
    assert 0 < sum(want) < trials  # both outcomes exercised


def test_f_event_inclusion_in_infection():
    """Whenever the origin is infected at t_n and F occurs with witness a,
    both skeleton targets are infected at t_{n+1}."""
    rates = _RawRates(2.0)
    params = SkeletonParams(delta=1.0, b=1, k=1)
    seen = 0
    for r in range(400):
        tl = sample_timeline(88, rates, box=2, horizon=2.0, d=2, replica=r)
        for n in (0, 1):
            rec = check_f_event(tl, (0, 0), n, params)
            if not rec.success:
                continue
            t0, t1 = n * params.delta, (n + 1) * params.delta
            if not k_connected(tl, ((0, 0), 0.0), ((0, 0), t0), params.k):
                continue
            seen += 1
            y = (rec.a, 0)
            z = (rec.a, params.b)
            assert k_connected(tl, ((0, 0), 0.0), (y, t1), params.k)
            assert k_connected(tl, ((0, 0), 0.0), (z, t1), params.k)
    assert seen > 0  # the property was actually exercised


# -- survival ----------------------------------------------------------------------

def test_survival_zero_rates_is_death_clock():
    horizon = 1.0
    crits = run_replicas(_surv_contact, (truncate(constant(0.0), 1), 1, horizon, 1),
                         seed=14, reps=3000)
    est = EstimateWithCI.from_counts(sum(c <= 1 for c in crits), 3000, z=3.0)
    assert est.lo <= math.exp(-horizon) <= est.hi


def test_survival_huge_rate_near_one():
    crits = run_replicas(_surv_contact, (_RawRates(50.0), 2, 0.5, 1), seed=15, reps=200)
    assert sum(c <= 1 for c in crits) / 200 >= 0.9


def test_surv_contact_records_nondecreasing_in_k():
    """One timeline per replica, sampled at the largest k, answers every k:
    the kernel returns the replica's least infection label at the horizon,
    so its survival record nests in k, and survival at each k equals the
    answer on the timeline sampled at that k."""
    rates, ks = harmonic(), (1, 2, 4)
    crits = run_replicas(_surv_contact, (truncate(rates, max(ks)), 2, 1.5, 2),
                         seed=16, reps=60)
    assert all(0 <= c <= max(ks) + 1 for c in crits)
    assert len(set(crits)) > 1  # the k-sweep is not trivial here
    for r, crit in enumerate(crits):
        for k in ks:
            tl = sample_timeline(16, truncate(rates, k), box=2, horizon=1.5, d=2, replica=r)
            assert (crit <= k) == bool(infected_at_horizon(tl, k)), (r, k)



def test_surv_contact_sweep_matches_exact_d1_values():
    """A d = 1 `surv_contact` k-sweep agrees at every k, within a two-sided
    z = 4 Wilson interval, with the exact survival probability of the
    Markov chain on the box's infected sets, which shares neither the
    timeline nor the sweep.  Its records are not overdispersed either:
    across 40 blocks of 100 consecutive replicas they spread as independent
    draws do (one-sided, z <= 4)."""
    rates, window, horizon, reps = powerlaw(1.0, 1.2), 2, 2.0, 4000
    exact = [contact_survival_d1(truncate(rates, k), window, horizon) for k in (1, 2, 4)]
    assert exact == pytest.approx([0.43474, 0.56952, 0.60459], abs=5e-6)
    crits = run_replicas(_surv_contact, (truncate(rates, 4), window, horizon, 1),
                         seed=31, reps=reps, threads=2)
    for k, value in zip((1, 2, 4), exact):
        hits = [c <= k for c in crits]
        est = EstimateWithCI.from_counts(sum(hits), reps, 4.0)
        assert est.lo <= value <= est.hi, (k, est.estimate, value)
        assert block_dispersion_z(hits, value) <= 4.0, k

def test_infected_at_horizon_trivial():
    tl = _tl(arrows={((0,), (1,)): [1.0]})
    assert infected_at_horizon(tl, k=1) == {(0,), (1,)}
    tl2 = _tl(deaths={(0,): [0.5]})
    assert infected_at_horizon(tl2, k=1) == set()


def test_horizon_validation():
    with pytest.raises(ValueError):
        sample_timeline(1, truncate(harmonic(), 1), box=1, horizon=0.0, d=1)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            sample_timeline(1, truncate(harmonic(), 1), box=1, horizon=horizon, d=1)
    with pytest.raises(ValueError):
        SkeletonParams(delta=0.0, b=1, k=1)
    with pytest.raises(ValueError):
        SkeletonParams(delta=1.0, b=0, k=1)


def test_box_validation():
    rates = truncate(harmonic(), 1)
    with pytest.raises(ValueError, match="half-width >= 0"):
        sample_timeline(1, rates, box=-1, horizon=1.0, d=1)
    with pytest.raises(ValueError, match="dimension"):
        sample_timeline(1, rates, box=1, horizon=1.0, d=0)
