import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exact import block_dispersion_z, h_probability, star_survival
from lrperc import starlat
from lrperc.bondfield import BondField, BondId
from lrperc.sequences import constant, explicit, harmonic, powerlaw, truncate
from lrperc.starlat import (
    StarParams, block_path_critical_k, block_path_survival,
    check_zeta, choose_N, h_connected, h_label_max, staircase, zeta_labels,
)
from lrperc.harness import _hprob, _surv_star, run_replicas
from lrperc.stats import EstimateWithCI, wilson_interval


def _seq(p=None, k=2):
    return truncate(p if p is not None else constant(0.5), k)


def _sp(eps=0.5, p=None, k=2, *, N):
    return StarParams(eps, _seq(p, k), N)


# -- staircase ---------------------------------------------------------------------

def test_staircase_values():
    assert staircase(0) == (0, 0)
    assert staircase(1) == (1, 0)
    assert staircase(2) == (1, -1)
    assert staircase(3) == (2, -1)
    assert staircase(-1) == (0, 1)
    assert staircase(-2) == (-1, 1)


def test_staircase_steps_alternate():
    for m in range(-10, 10):
        a, b = staircase(m), staircase(m + 1)
        diff = (b[0] - a[0], b[1] - a[1])
        assert diff == ((1, 0) if m % 2 == 0 else (0, -1))


# -- H-events ----------------------------------------------------------------------

def test_h_direct_bond_always_open():
    pseq = _seq(p=constant(1.0), k=1)
    assert h_connected(BondField(1), 0, 0, pseq, window=3)
    assert h_connected(BondField(1), 1, 0, pseq, window=3)  # vertical-axis line


def test_h_all_zero_fails():
    assert not h_connected(BondField(1), 0, 0, _seq(p=constant(0.0)), window=3)


def test_h_window_validation():
    with pytest.raises(ValueError):
        h_connected(BondField(1), 0, 0, _seq(), window=0)


def test_h_exhaustive_oracle_pinned():
    # p_1 = p_2 = 0.5, window 2: seven in-window bonds, 128 configurations
    exact = h_probability(truncate(explicit([0.5, 0.5]), 2), 2)
    assert exact == pytest.approx(95.0 / 128.0, abs=1e-12)


def test_h_monte_carlo_matches_oracle():
    """The `hprob` kernel's H-event frequency agrees with the exhaustive
    value within a z = 3 Wilson interval, and its records are not
    overdispersed across 200 blocks of 100 consecutive replicas (one-sided,
    z <= 4)."""
    pseq = _seq(p=explicit([0.5, 0.5]), k=2)
    hits = [c <= 2 for c in run_replicas(_hprob, (pseq, 2), seed=21, reps=20_000)]
    est = EstimateWithCI.from_counts(sum(hits), 20_000, z=3.0)
    assert est.lo <= 95.0 / 128.0 <= est.hi
    assert block_dispersion_z(hits, 95.0 / 128.0) <= 4.0


def test_h_window_monotone_per_sample():
    pseq = _seq(p=harmonic(), k=3)
    for r in range(300):
        fld = BondField(37).derive_replica(r)
        if h_connected(fld, 0, 0, pseq, window=3):
            assert h_connected(fld, 0, 0, pseq, window=6)


def test_h_uses_unoriented_bonds():
    """The line bonds are unoriented: connection may run through either
    endpoint ordering (canonical ids make this automatic)."""
    pseq = _seq(p=explicit([0.0, 1.0]), k=2)
    # only range-2 bonds are open, so every reachable offset is even and the
    # odd target can never be hit, whatever the window
    assert not h_connected(BondField(5), 0, 0, pseq, window=2)
    assert not h_connected(BondField(5), 0, 0, pseq, window=5)


# -- block parameters ----------------------------------------------------------------

def test_choose_N_examples():
    assert choose_N(0.99, 0.5) == 1
    assert choose_N(0.5, 0.5) == 3
    assert choose_N(0.8, 1.0) == 1
    assert choose_N(1.0, 0.5) == 1  # sure vertical bonds: one column suffices


def test_choose_N_satisfies_inequality_minimally():
    for eps, delta in ((0.3, 0.1), (0.6, 0.25)):
        n = choose_N(eps, delta)
        assert (1 - (1 - eps) ** n) ** 2 > 1 - delta / 2
        if n > 1:
            assert (1 - (1 - eps) ** (n - 1)) ** 2 <= 1 - delta / 2


def _choose_N_loop(eps, delta):
    """The defining search, one width at a time."""
    n = 1
    while (1 - (1 - eps) ** n) ** 2 <= 1 - delta / 2:
        n += 1
        if n > 10_000_000:
            raise RuntimeError("no feasible block width")
    return n


class _CountedFloat(float):
    """A float that counts the evaluations of 1 - itself: `choose_N` makes
    one for each width it tests."""

    def __rsub__(self, other):
        self.calls += 1
        return float(other) - float(self)


@pytest.mark.parametrize("eps", [1e-5, 1e-4, 1e-3, 0.0123, 0.3, 0.8, 0.999999, 1.0])
def test_choose_N_equals_the_defining_loop_in_few_steps(eps):
    for delta in (1e-3, 0.1, 0.5, 1.0):
        counted = _CountedFloat(eps)
        counted.calls = 0
        assert choose_N(counted, delta) == _choose_N_loop(eps, delta), delta
        assert counted.calls <= 4, delta


@pytest.mark.parametrize("eps, delta", [(1e-300, 0.5), (1e-17, 0.5), (1e-8, 0.5), (0.5, 1e-300)])
def test_choose_N_fails_at_once_past_the_widest_block(eps, delta):
    """No width up to 10^7 passes: (1 - eps)^n stays 1, or N would pass 10^7,
    or 1 - delta/2 rounds to 1.  The loop would test 10^7 widths first."""
    counted = _CountedFloat(eps)
    counted.calls = 0
    with pytest.raises(RuntimeError, match="no feasible block width"):
        choose_N(counted, delta)
    assert counted.calls <= 1


def test_choose_N_validation():
    with pytest.raises(ValueError):
        choose_N(0.0, 0.5)
    with pytest.raises(ValueError):
        choose_N(0.5, 0.0)
    with pytest.raises(ValueError):
        choose_N(1.5, 0.5)


# -- zeta blocks -----------------------------------------------------------------------

def test_zeta_certain_block():
    params = StarParams(1.0, truncate(constant(1.0), 1), 2)
    assert check_zeta(BondField(1), 0, 0, params, window=3)


def test_zeta_fails_without_horizontal_bonds():
    params = _sp(p=constant(0.0), N=2)
    assert not check_zeta(BondField(1), 0, 0, params, window=3)


def test_zeta_parity_enforced():
    with pytest.raises(ValueError):
        check_zeta(BondField(1), 1, 0, _sp(N=2), window=3)


def test_zeta_matches_raw_recomputation():
    """The block indicator equals a direct recomputation from its
    constituents (H-events and vertical bonds)."""
    params = _sp(eps=0.6, p=constant(0.7), k=2, N=2)
    for r in range(60):
        fld = BondField(71).derive_replica(r)
        hs = all(h_connected(fld, m, 0, params.pseq, 3) for m in range(0, 4))
        v1 = any(fld.is_open(BondId.star_vertical(staircase(m), 0), params.eps) for m in (0, 1))
        v2 = any(fld.is_open(BondId.star_vertical(staircase(m), 0), params.eps) for m in (2, 3))
        assert check_zeta(fld, 0, 0, params, window=3) == (hs and v1 and v2)


def zeta_bond_ids(a: int, n: int, params: StarParams, window: int) -> set:
    """All bond ids a zeta-block may consult: every in-window horizontal bond
    on its 2N lines plus its 2N vertical bonds."""
    ids = set()
    N, k = params.N, params.k
    for m in range(a * N, a * N + 2 * N):
        base = staircase(m)
        axis = 1 if m % 2 == 0 else 2
        for t in range(-window, window + 1):
            x = list(base)
            x[axis - 1] += t
            for i in range(1, k + 1):
                if t + i <= window:
                    ids.add(BondId.star_horizontal(tuple(x), n, axis, i))
        ids.add(BondId.star_vertical(base, n))
    return ids


def test_zeta_blocks_bond_disjoint():
    """Distinct blocks at the same level consult disjoint bond sets."""
    params = _sp(k=2, N=3)
    ids0 = zeta_bond_ids(0, 0, params, window=2)
    ids2 = zeta_bond_ids(2, 0, params, window=2)
    ids_up = zeta_bond_ids(1, 1, params, window=2)
    assert ids0 and ids2
    assert not ids0 & ids2
    assert not ids0 & ids_up


def test_zeta_success_frequency_beats_failure_budget():
    """With N from choose_N and H-probabilities driven high, the block
    succeeds with frequency above 1 - delta (within 3 sigma)."""
    eps, delta = 0.5, 0.5
    N = choose_N(eps, delta)
    params = StarParams(eps, truncate(constant(0.97), 3), N)
    trials = 2_000
    hits = sum(check_zeta(BondField(83).derive_replica(r), 0, 0, params, 4)
               for r in range(trials))
    lo, hi = wilson_interval(hits, trials, z=3.0)
    assert hi > 1 - delta


def test_zeta_independence_across_disjoint_blocks():
    params = _sp(eps=0.6, p=constant(0.7), k=2, N=3)
    n = 2_000
    both = z0 = z2 = 0
    for r in range(n):
        fld = BondField(97).derive_replica(r)
        a = check_zeta(fld, 0, 0, params, window=2)
        b = check_zeta(fld, 2, 0, params, window=2)
        z0 += a
        z2 += b
        both += a and b
    lo, hi = wilson_interval(both, n, z=3.0)
    assert lo <= (z0 / n) * (z2 / n) <= hi


# -- block-path survival ---------------------------------------------------------------

def test_block_survival_extremes():
    sure = StarParams(1.0, truncate(constant(1.0), 1), 1)
    crits = run_replicas(_surv_star, (sure, 5, 3), seed=3, reps=20)
    assert sum(c <= 1 for c in crits) == 20
    dead = _sp(p=constant(0.0), N=2)
    crits = run_replicas(_surv_star, (dead, 3, 3), seed=3, reps=20)
    assert sum(c <= 2 for c in crits) == 0


def test_block_survival_single_replica_path():
    sure = StarParams(1.0, truncate(constant(1.0), 1), 1)
    assert block_path_survival(BondField(4), sure, 4, 3)


# -- labelled kernels against the per-k oracles ------------------------------------------

@pytest.fixture(params=["level_batch", "line_batches", "settled"])
def h_path(request, monkeypatch):
    """Route `h_label_max` through each of its paths for a given (kmax, window):
    one `uniforms` call per level, one call per line, or the lazy search."""
    def route(kmax, window):
        if request.param == "line_batches":
            monkeypatch.setattr(starlat, "_BATCH_IDS", starlat._grid_ids(kmax, window))
        elif request.param == "settled":
            monkeypatch.setattr(starlat, "_BATCH_IDS", 0)
    return route


_H_SETS = [
    {"p": powerlaw(1.0, 0.6), "kmax": 4, "window": 5},
    {"p": explicit([0.3, 0.5, 0.5, 0.4, 0.6]), "kmax": 5, "window": 2},  # window clips
    {"p": constant(0.35), "kmax": 3, "window": 3},
]


@pytest.mark.parametrize("case", range(len(_H_SETS)))
def test_h_labels_equal_h_connected(case, h_path):
    """For every replica, line and k: H-label <= k iff `h_connected` at k."""
    c = _H_SETS[case]
    h_path(c["kmax"], c["window"])
    top = _seq(p=c["p"], k=c["kmax"])
    lines = list(range(-3, 5))  # both axes, negative staircase indices too
    root, reps = BondField(51 + case), 40
    seen = set()
    for n in (0, 3):
        # every replica's lines in one call
        labels = h_label_max(root, np.repeat(np.arange(reps), len(lines)),
                             np.tile(lines, reps)[:, None], n, top, c["window"])
        seen.update(labels.tolist())
        for r, row in enumerate(labels.reshape(reps, len(lines))):
            fld = root.derive_replica(r)
            for k in range(c["kmax"] + 1):
                pseq = _seq(p=c["p"], k=k)
                for m, label in zip(lines, row):
                    assert (label <= k) == h_connected(fld, m, n, pseq, c["window"]), \
                        (r, n, m, k)
    assert len(seen) > 2


def test_zeta_labels_equal_check_zeta(h_path):
    p, kmax, window = powerlaw(1.0, 0.6), 3, 3
    h_path(kmax, window)
    top = _sp(eps=0.5, p=p, k=kmax, N=2)
    root, reps = BondField(59), 40
    seen = set()
    for n, blocks in ((0, [-2, 0, 2]), (1, [-1, 1])):
        # every replica's blocks in one call
        labels = zeta_labels(root, np.repeat(np.arange(reps), len(blocks)),
                             np.tile(blocks, reps), n, top, window)
        seen.update(labels.tolist())
        for r, row in enumerate(labels.reshape(reps, len(blocks))):
            fld = root.derive_replica(r)
            for k in range(kmax + 1):
                params = _sp(eps=0.5, p=p, k=k, N=2)
                for a, label in zip(blocks, row):
                    assert (label <= k) == check_zeta(fld, a, n, params, window), \
                        (r, n, a, k)
    assert len(seen) > 2
    with pytest.raises(ValueError):
        zeta_labels(BondField(1), [0], [1], 0, top, window)


_BLOCK_SETS = [
    # trend_star.cfg's lattice at a shorter horizon
    {"eps": 0.8, "p": powerlaw(1.0, 0.95), "kmax": 4, "horizon": 6, "window": 8},
    # sure vertical bonds, and a window that clips ranges 5 and 6
    {"eps": 1.0, "p": powerlaw(1.0, 0.8), "kmax": 6, "horizon": 4, "window": 2},
    {"eps": 0.6, "p": explicit([0.8, 0.6, 0.6]), "kmax": 3, "horizon": 4, "window": 3},
    # near the cone's threshold at kmax: paths die at every level, or survive
    {"eps": 0.6, "p": explicit([0.6, 0.5, 0.5]), "kmax": 3, "horizon": 5, "window": 3},
]


@pytest.mark.parametrize("case", range(len(_BLOCK_SETS)))
def test_critical_k_equals_per_k_block_path_survival(case, h_path):
    """One labelled sweep at kmax decides every k: for every replica and k,
    critical_k <= k iff `block_path_survival` at k."""
    c = _BLOCK_SETS[case]
    h_path(c["kmax"], c["window"])
    N = choose_N(c["eps"], 0.5)
    top = _sp(eps=c["eps"], p=c["p"], k=c["kmax"], N=N)
    root = BondField(61 + case)
    crits = block_path_critical_k(root, range(40), top, c["horizon"], c["window"])
    for r, crit in enumerate(crits):
        fld = root.derive_replica(r)
        for k in range(c["kmax"] + 1):
            params = _sp(eps=c["eps"], p=c["p"], k=k, N=N)
            survived = block_path_survival(fld, params, c["horizon"], c["window"])
            assert (crit <= k) == survived, (r, k)
    assert len(set(crits)) > 2


def test_surv_star_records_do_not_depend_on_chunking(h_path):
    """`_surv_star` sweeps a chunk's replicas together, level by level.  Its
    records do not depend on the chunking or the worker count: chunks of
    1, of 3 and uncapped, at 1 and 2 workers, give the same records, and
    each equals `block_path_survival` at every k.  The replicas of a chunk
    die at different levels (or not at all), so a chunk's alive blocks
    thin out unevenly across its rows."""
    c = _BLOCK_SETS[3]
    h_path(c["kmax"], c["window"])
    N = choose_N(c["eps"], 0.5)
    top = _sp(eps=c["eps"], p=c["p"], k=c["kmax"], N=N)
    seed, reps, horizon, window = 69, 24, c["horizon"], c["window"]
    runs = [run_replicas(_surv_star, (top, horizon, window), seed, reps, threads, cap)
            for cap in (1, 3, None) for threads in (1, 2)]
    assert all(run == runs[0] for run in runs)
    died = set()  # the first level each replica fails at kmax, None: it survives
    for r, crit in enumerate(runs[0]):
        fld = BondField(seed).derive_replica(r)
        for k in range(c["kmax"] + 1):
            params = _sp(eps=c["eps"], p=c["p"], k=k, N=N)
            survived = block_path_survival(fld, params, horizon, window)
            assert (crit <= k) == survived, (r, k)
        died.add(next((h for h in range(1, horizon + 1)
                       if not block_path_survival(fld, top, h, window)), None))
    assert len(died) > 2, died


def test_surv_star_sweep_matches_exact_values():
    """A `surv_star` k-sweep agrees at every k, within a two-sided z = 4
    Wilson interval, with theta_k * cone_survival(theta_k, H - 1): the
    zeta-blocks are independent, so the block path is the cone's site
    percolation at theta_k = (1 - (1 - eps)^N)^2 h_k^(2N), with h_k from
    every configuration of one line's window bonds.  Its records are not
    overdispersed either: across 40 blocks of 100 consecutive replicas
    they spread as independent draws do (one-sided, z <= 4)."""
    seq, window, horizon, reps = powerlaw(1.0, 0.95), 2, 6, 4000
    assert choose_N(0.8, 0.5) == 2
    exact = [star_survival(0.8, 2, truncate(seq, k), window, horizon) for k in (1, 2, 4)]
    assert exact == pytest.approx([0.64524, 0.84481, 0.88585], abs=5e-6)
    top = _sp(eps=0.8, p=seq, k=4, N=2)
    crits = run_replicas(_surv_star, (top, horizon, window),
                         seed=13, reps=reps, threads=2)
    for k, value in zip((1, 2, 4), exact):
        hits = [c <= k for c in crits]
        est = EstimateWithCI.from_counts(sum(hits), reps, 4.0)
        assert est.lo <= value <= est.hi, (k, est.estimate, value)
        assert block_dispersion_z(hits, value) <= 4.0, k

def test_surv_star_records_nondecreasing_in_k():
    """One sweep per replica, at the largest k, answers every k: the kernel
    returns the replica's critical k, so its survival record nests in k, and
    survival at each k equals the answer of `block_path_survival` at that k."""
    seq, ks = powerlaw(1.0, 0.95), (1, 2, 4)
    N = choose_N(0.8, 0.5)
    top = _sp(eps=0.8, p=seq, k=max(ks), N=N)
    crits = run_replicas(_surv_star, (top, 5, 4), seed=16, reps=60)
    assert all(0 <= c <= max(ks) + 1 for c in crits)
    assert len(set(crits)) > 1  # the k-sweep is not trivial here
    for r, crit in enumerate(crits):
        fld = BondField(16).derive_replica(r)
        for k in ks:
            params = _sp(eps=0.8, p=seq, k=k, N=N)
            survived = block_path_survival(fld, params, 5, 4)
            assert (crit <= k) == survived, (r, k)


def test_hprob_records_equal_h_connected(h_path):
    """The kernel's one label at the largest k, on each route of
    `h_label_max`, gives the least k at which the scalar `h_connected`
    holds, at every k down to 0."""
    seq, kmax = powerlaw(1.0, 0.5), 3
    h_path(kmax, 3)
    crits = run_replicas(_hprob, (_seq(p=seq, k=kmax), 3), seed=17, reps=60)
    assert all(0 <= c <= kmax + 1 for c in crits)
    assert len(set(crits)) > 2
    for r, crit in enumerate(crits):
        fld = BondField(17).derive_replica(r)
        for k in range(kmax + 1):
            held = h_connected(fld, 0, 0, _seq(p=seq, k=k), 3)
            assert (crit <= k) == held, (r, k)


@pytest.mark.parametrize("p, window, label, apart", [
    (constant(1.0), 2, 1, 0),              # every range-1 bond is open
    (explicit([0.0, 1.0, 1.0]), 2, 3, 7),  # none is: 0 -> -2 -> 1 or 0 -> 2 -> -1
])
def test_batch_route_grids_only_the_lines_left_apart(monkeypatch, p, window, label, apart):
    """The batch route draws each line's range-1 bond first, and only the
    lines it leaves apart reach `_h_labels_batch`; a call with none left
    apart, at `hprob` and at a star level, makes no grid draw."""
    gridded = []
    batch = starlat._h_labels_batch

    def spy(root, replicas, m, n, pseq, W):
        gridded.extend(m.tolist())
        return batch(root, replicas, m, n, pseq, W)
    monkeypatch.setattr(starlat, "_h_labels_batch", spy)
    pseq = _seq(p=p, k=3)
    assert run_replicas(_hprob, (pseq, window), seed=7, reps=3) == [label] * 3
    top = StarParams(1.0, pseq, 1)
    assert block_path_critical_k(BondField(7), [0, 1], top, 1, window) == [label] * 2
    assert len(gridded) == apart  # of 3 `hprob` lines and 2 x 2 lines of one block


def test_labels_at_kmax_zero():
    """No horizontal bond exists at k = 0: every H-event fails and only the
    empty block path survives."""
    top = _sp(eps=1.0, p=constant(1.0), k=0, N=1)
    assert h_label_max(BondField(3), [0, 1], np.array([[0], [1]]), 0, top.pseq, 2).tolist() \
        == [1, 1]
    assert block_path_critical_k(BondField(3), [0, 1], top, 2, 2) == [1, 1]
    assert not block_path_survival(BondField(3).derive_replica(0), top, 2, 2)
    assert block_path_critical_k(BondField(3), [0, 1], top, 0, 2) == [0, 0]


@pytest.mark.parametrize("p", [constant(0.0), constant(1.0), explicit([0.0, 1.0])])
def test_critical_k_horizon_zero_is_zero(p):
    top = _sp(p=p, k=3, N=2)
    assert block_path_critical_k(BondField(2), [0, 1, 2], top, 0, 2) == [0, 0, 0]


@pytest.mark.parametrize("p, window, h_expected, crit_expected", [
    ([1.0], 2, 1, 1),                # the range-1 bond is always open
    ([0.0, 0.0, 0.0], 3, 4, None),   # all-zero sequence
    ([0.0, 1.0], 3, 4, None),        # range 2 alone keeps to even offsets
    ([0.0, 1.0, 1.0], 2, 3, 3),      # 0 -> -2 -> 1 or 0 -> 2 -> -1
    ([0.0, 1.0, 1.0], 1, 4, None),   # the window leaves only the range-2 bond
    ([0.0, 0.0, 1.0, 1.0], 3, 4, 4),  # 0 -> -3 -> 1 or 0 -> 3 -> -1
])
def test_labels_deterministic_sequences(p, window, h_expected, crit_expected, h_path):
    top = _sp(eps=1.0, p=explicit(p), k=max(3, len(p)), N=1)
    h_path(top.k, window)
    lines = np.array([[0], [1], [2], [3]])
    assert h_label_max(BondField(7), [0, 0, 1, 1], lines, 1, top.pseq, window).tolist() \
        == [h_expected] * 4
    # crit_expected None: the path survives at no k <= top.k, so its label is top.k + 1
    crit = top.k + 1 if crit_expected is None else crit_expected
    assert block_path_critical_k(BondField(7), [0, 1], top, 3, window) == [crit] * 2


def test_lazy_route_stops_a_row_at_its_first_failed_line(monkeypatch):
    """Searched line by line, a row whose first line fails at params.k is
    decided by one search; a row whose lines all hold searches each."""
    monkeypatch.setattr(starlat, "_BATCH_IDS", 0)
    searched = []
    h_label = starlat.h_label

    def spy(fld, m, n, pseq, window):
        searched.append(m)
        return h_label(fld, m, n, pseq, window)
    monkeypatch.setattr(starlat, "h_label", spy)
    row = np.array([[0, 1, 2, 3]])
    dead = _seq(p=explicit([0.0, 1.0]), k=3)  # range 2 alone keeps to even offsets
    assert h_label_max(BondField(7), [0], row, 0, dead, 3).tolist() == [dead.k + 1]
    assert searched == [0]
    searched.clear()
    sure = _seq(p=constant(1.0), k=3)
    assert h_label_max(BondField(7), [0], row, 0, sure, 3).tolist() == [1]
    assert searched == [0, 1, 2, 3]


def test_h_labels_window_validation():
    with pytest.raises(ValueError):
        h_label_max(BondField(1), [0], np.array([[0]]), 0, _seq(), window=0)


def test_param_validation():
    with pytest.raises(ValueError):
        StarParams(0.0, truncate(harmonic(), 1), 1)
    with pytest.raises(ValueError):
        StarParams(0.5, truncate(harmonic(), 1), 0)


# -- property-based differential tests: the chunk kernels against the per-k oracles ----

_DEFAULT_IDS = starlat._BATCH_IDS
_LAWS = st.one_of(
    st.builds(powerlaw, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.3, 0.6, 0.95])),
    st.builds(constant, st.sampled_from([0.0, 0.35, 0.7, 1.0])),
    st.builds(explicit, st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9]), min_size=1, max_size=5)),
)
_PLANS = dict(seed=st.integers(0, 2**20), reps=st.integers(1, 8),
              cap=st.one_of(st.none(), st.integers(1, 3)), workers=st.integers(1, 3),
              route=st.sampled_from(["level_batch", "line_batches", "settled"]))
_DRAWN = settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def _route(monkeypatch, route, kmax, window):
    """Set `h_label_max`'s route for this example, as the `h_path` fixture does."""
    ids = {"level_batch": _DEFAULT_IDS, "line_batches": starlat._grid_ids(kmax, window),
           "settled": 0}[route]
    monkeypatch.setattr(starlat, "_BATCH_IDS", ids)


@_DRAWN
@given(p=_LAWS, kmax=st.integers(0, 4), eps=st.sampled_from([0.5, 0.8, 1.0]),
       N=st.integers(1, 3), window=st.integers(1, 4), horizon=st.integers(0, 6), **_PLANS)
def test_surv_star_equals_block_path_survival_at_every_k(
        monkeypatch, inline_pool, p, kmax, eps, N, window, horizon, seed, reps, cap, workers,
        route):
    """Record for record, over laws, truncations, windows, horizons, chunk
    plans and `h_label_max` routes, `_surv_star`'s critical k is <= k
    exactly when the scalar `block_path_survival` holds at k."""
    _route(monkeypatch, route, kmax, window)
    inline_pool(workers)
    top = StarParams(eps, truncate(p, kmax), N)
    got = run_replicas(_surv_star, (top, horizon, window), seed, reps, threads=workers, cap=cap)
    for r, crit in enumerate(got):
        fld = BondField(seed).derive_replica(r)
        for k in range(kmax + 1):
            held = block_path_survival(fld, StarParams(eps, truncate(p, k), N), horizon, window)
            assert (crit <= k) == held, (r, k)


@_DRAWN
@given(p=_LAWS, kmax=st.integers(0, 5), window=st.integers(1, 4), **_PLANS)
def test_hprob_equals_h_connected_at_every_k(monkeypatch, inline_pool, p, kmax, window, seed,
                                              reps, cap, workers, route):
    """Record for record, over laws, truncations, windows, chunk plans and
    `h_label_max` routes, `_hprob`'s critical k is <= k exactly when the
    scalar `h_connected` holds at k."""
    _route(monkeypatch, route, kmax, window)
    inline_pool(workers)
    got = run_replicas(_hprob, (truncate(p, kmax), window), seed, reps, threads=workers, cap=cap)
    for r, crit in enumerate(got):
        fld = BondField(seed).derive_replica(r)
        for k in range(kmax + 1):
            held = h_connected(fld, 0, 0, truncate(p, k), window)
            assert (crit <= k) == held, (r, k)
