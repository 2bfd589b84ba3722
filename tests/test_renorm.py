import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from exact import cone_survival
from lrperc import renorm
from lrperc.bondfield import BondField, BondId
from lrperc.harness import ExperimentConfig, _bifurcation, run_experiment, run_replicas
from lrperc.renorm import (
    BifurcationParams, check_bifurcation, cone_survival_scan, crossing_from_scan,
    explore_red_cluster, gamma_k, reverify_red_cluster, site_perc_cone, verify_path,
)
from lrperc.sequences import constant, explicit, harmonic, powerlaw, truncate
from lrperc.stats import EstimateWithCI, wilson_interval


def _bparams(k, p, q, beta=1):
    return BifurcationParams(beta, truncate(p, k), truncate(q, k))


# -- order and boundary ---------------------------------------------------------

def test_prec_examples():
    assert prec((0, 5), (3, 5))
    assert prec((7, 2), (0, 3))
    assert not prec((2, 2), (2, 2))


_points = st.tuples(st.integers(0, 50), st.integers(0, 50))


@given(_points, _points, _points)
def test_prec_strict_total_order(a, b, c):
    assert not prec(a, a)
    if prec(a, b) and prec(b, c):
        assert prec(a, c)
    assert (prec(a, b) + prec(b, a) + (a == b)) == 1


def test_exterior_boundary_examples():
    assert exterior_boundary({(0, 0)}) == {(0, 1), (1, 1)}
    assert exterior_boundary(set()) == set()
    assert exterior_boundary({(0, 0), (1, 1)}) == {(0, 1), (1, 2), (2, 2)}


# -- closed form ----------------------------------------------------------------

def test_gamma_zero_and_one():
    assert gamma_k(_bparams(2, explicit([0.0, 0.0]), constant(0.5))) == 0.0
    assert gamma_k(_bparams(1, constant(1.0), constant(1.0))) == 1.0


def test_gamma_pinned_value():
    # p_1 = 0.5 (others 0), q_1 = 0.5, k = 1: inner = 0.75, 1 - 0.8125^2
    g = gamma_k(_bparams(1, explicit([0.5]), constant(0.5)))
    assert g == pytest.approx(0.33984375, abs=1e-12)


def test_gamma_nondecreasing_in_k_and_reaches_any_level():
    p, q = powerlaw(1.0, 0.5), constant(0.5)
    vals = [gamma_k(_bparams(k, p, q)) for k in range(1, 60)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.85  # divergent sequence drives the level upward


def test_gamma_matches_independent_sampler():
    """Independent Monte Carlo oracle built on numpy's own generator: every
    bond of the three-legged event is an explicit Bernoulli variable."""
    trials = 1_000_000
    rng = np.random.default_rng(2718)
    first = rng.random((trials, 2)) < 0.5         # a in {+1, -1}
    vert = rng.random((trials, 2)) < 0.5          # vertical bond per mid
    second = rng.random((trials, 2, 2)) < 0.5     # a' in {+1, -1} per mid
    ok = (first & vert & second.any(axis=2)).any(axis=1)
    lo, hi = wilson_interval(int(ok.sum()), trials, z=3.0)
    assert lo <= 0.33984375 <= hi


def test_bifurcation_frequency_matches_gamma():
    params = _bparams(2, powerlaw(1.0, 0.6), constant(0.5))
    hits = sum(run_replicas(_bifurcation, (params,), seed=77, reps=30_000))
    est = EstimateWithCI.from_counts(hits, 30_000, z=3.0)
    assert est.lo <= gamma_k(params) <= est.hi


def test_check_bifurcation_tie_break():
    rec = check_bifurcation(BondField(1), ((0, 0), 0),
                            _bparams(3, constant(1.0), constant(1.0)))
    assert rec.success and rec.a == 1 and rec.a_prime == 1


def test_check_bifurcation_all_zero_p_fails():
    rec = check_bifurcation(BondField(1), ((0, 0), 0),
                            _bparams(2, constant(0.0), constant(0.5)))
    assert not rec.success


def test_params_require_open_vertical_probability():
    with pytest.raises(ValueError):
        _bparams(2, harmonic(), constant(0.0))
    with pytest.raises(ValueError):
        BifurcationParams(0, truncate(harmonic(), 2), truncate(harmonic(), 2))


def test_k_is_the_axis1_truncation():
    """Every scanned range is an axis-1 bond's, so k is pseq's own."""
    assert BifurcationParams(1, truncate(harmonic(), 2), truncate(harmonic(), 5)).k == 2


def test_bifurcation_independence_across_separated_origins():
    """E-event indicators at vertical separation >= 2 or on distinct e_2
    lines factorize (correlation 0 within 3 sigma)."""
    params = _bparams(3, powerlaw(1.0, 0.5), constant(0.5))
    g = gamma_k(params)
    n = 30_000
    root = BondField(404)
    pairs = {"vsep": 0, "line": 0}
    for r in range(n):
        fld = root.derive_replica(r)
        at_origin = check_bifurcation(fld, ((0, 0), 0), params).success
        pairs["vsep"] += at_origin and check_bifurcation(fld, ((0, 0), 4), params).success
        pairs["line"] += at_origin and check_bifurcation(fld, ((0, 7), 0), params).success
    for both in pairs.values():
        lo, hi = wilson_interval(both, n, z=3.0)
        assert lo <= g * g <= hi


# -- red-cluster recursion --------------------------------------------------------

def test_red_cluster_origin_not_red_stops_immediately():
    params = _bparams(2, constant(0.0), constant(0.5))
    state = explore_red_cluster(BondField(9), params, max_steps=100)
    assert state.A == set() and state.B == {(0, 0)}
    assert len(state.examined) == 1 and not state.truncated
    assert state.current is None


def test_red_cluster_full_growth_until_truncation():
    params = _bparams(1, constant(1.0), constant(1.0))
    state = explore_red_cluster(BondField(9), params, max_steps=12)
    assert state.truncated and len(state.A) == 12 and state.B == set()


def test_red_cluster_bookkeeping_invariants():
    params = _bparams(4, powerlaw(1.0, 0.7), constant(0.7))
    for r in range(40):
        state = explore_red_cluster(BondField(13).derive_replica(r), params, max_steps=40)
        assert state.A.isdisjoint(state.B)
        pts = [p for p, _, _ in state.examined]
        assert len(pts) == len(set(pts))  # examined exactly once
        assert state.A | state.B == set(pts)


def test_red_cluster_reverification_and_inclusion():
    """Every red point re-verifies bond-by-bond, and each successful
    bifurcation certifies both children of the renormalized point."""
    params = _bparams(8, harmonic(), harmonic())
    for r in range(50):
        fld = BondField(101).derive_replica(r)
        state = explore_red_cluster(fld, params, max_steps=15)
        assert reverify_red_cluster(fld, params, state)
        for (m, n) in state.A:
            assert state.certificates.get((m, n + 1)), (m, n)
            assert state.certificates.get((m + 1, n + 1)), (m, n)


def test_certificate_paths_have_correct_shape():
    params = _bparams(8, harmonic(), harmonic())
    state = explore_red_cluster(BondField(55), params, max_steps=10)
    for (m, n), offsets in state.certificates.items():
        for a, path in offsets.items():
            assert path[0] == ((0, 0), 0)
            assert path[-1] == ((a, m * params.beta), 2 * n)
            assert len(path) == 2 * n + 1


# -- the re-verifier refuses a corrupted state ----------------------------------------

_RED_PARAMS = _bparams(4, powerlaw(1.0, 0.7), constant(0.7))


@pytest.fixture(scope="module")
def red_state():
    """(field, state, (point, a, path)): a real state with red and examined
    non-red points, and its longest certificate."""
    fld = BondField(13).derive_replica(9)
    state = explore_red_cluster(fld, _RED_PARAMS, max_steps=40)
    assert state.A and state.B and reverify_red_cluster(fld, _RED_PARAMS, state)
    longest = max(((point, a, path) for point, offsets in state.certificates.items()
                   for a, path in offsets.items()), key=lambda c: (len(c[2]), c[0], c[1]))
    assert len(longest[2]) >= 5
    return fld, state, longest


def _with_certificate(state, point, a, path):
    """A copy of `state` whose only certificate of `point` is `path`, at offset `a`."""
    return dataclasses.replace(state, certificates={**state.certificates, point: {a: path}})


def _closed_last_step(fld, path):
    """`path` with its last step replaced by a closed axis-1 bond of the same generation."""
    x, n = path[-2]
    a = next(a for a in (1, -1, 2, -2, 3, -3, 4, -4)
             if not fld.is_open(BondId.oriented(x, n, 1, a), _RED_PARAMS.pseq.term(abs(a))))
    return path[:-1] + (((x[0] + a, x[1]), n + 1),)


@pytest.mark.parametrize("corrupt", [
    lambda fld, path: path[:1] + path[2:],  # skips a generation
    lambda fld, path: (path[0], ((1, 1), 1)) + path[2:],  # a diagonal step
    _closed_last_step,
], ids=["skipped-generation", "diagonal-step", "closed-bond"])
def test_reverify_rejects_a_broken_path(red_state, corrupt):
    fld, state, (point, a, path) = red_state
    assert verify_path(fld, _RED_PARAMS, path)
    bad = corrupt(fld, path)
    assert not verify_path(fld, _RED_PARAMS, bad)
    assert not reverify_red_cluster(fld, _RED_PARAMS, _with_certificate(state, point, a, bad))


def test_reverify_rejects_a_path_ending_off_its_point(red_state):
    """An open path filed under the wrong offset ends off ((a, m*beta), 2n)."""
    fld, state, (point, a, path) = red_state
    assert not reverify_red_cluster(fld, _RED_PARAMS, _with_certificate(state, point, a + 1, path))


def test_reverify_rejects_a_red_point_without_a_bifurcation(red_state):
    """A non-red point, its open certificates intact, listed in A."""
    fld, state, _ = red_state
    point = min(state.B)
    assert state.certificates[point]
    assert not reverify_red_cluster(fld, _RED_PARAMS,
                                    dataclasses.replace(state, A=state.A | {point}))


def prec(a, b) -> bool:
    """Strict total order on Z^2_+: earlier generation first, then smaller m."""
    (m1, n1), (m2, n2) = a, b
    return n1 < n2 or (n1 == n2 and m1 < m2)


def exterior_boundary(X) -> set:
    """Points outside X with a parent (m, n-1) or (m-1, n-1) inside X,
    intersected with Z^2_+."""
    out = set()
    for (m, n) in X:
        for child in ((m, n + 1), (m + 1, n + 1)):
            if child not in X and child[0] >= 0 and child[1] >= 0:
                out.add(child)
    return out


def _red_cluster_by_rebuild(fld, params, max_steps):
    """Reference recursion: the frontier is rebuilt as exterior_boundary(A) - B
    at every step and the least point under prec is examined next."""
    beta = params.beta
    A, B, examined = set(), set(), []
    cert = {(0, 0): {0: (((0, 0), 0),)}}
    current, step = (0, 0), 0
    while step < max_steps:
        m, n = current
        origins = sorted(cert.get(current, {}), key=lambda a: (abs(a), a < 0))
        red = False
        for a in origins:
            rec = check_bifurcation(fld, ((a, m * beta), 2 * n), params)
            if rec.success:
                red = True
                path = cert[current][a]
                mid = ((a + rec.a, m * beta), 2 * n + 1)
                c1 = ((a + rec.a + rec.a_prime, m * beta), 2 * n + 2)
                c2 = ((a + rec.a, (m + 1) * beta), 2 * n + 2)
                cert.setdefault((m, n + 1), {}).setdefault(a + rec.a + rec.a_prime,
                                                           path + (mid, c1))
                cert.setdefault((m + 1, n + 1), {}).setdefault(a + rec.a, path + (mid, c2))
        (A if red else B).add(current)
        examined.append((current, red, len(origins)))
        step += 1
        frontier = exterior_boundary(A) - B
        if not frontier:
            return A, B, None, step, False, examined, cert
        current = min(frontier, key=lambda p: (p[1], p[0]))
    return A, B, current, step, True, examined, cert


@pytest.mark.parametrize("k, p, q", [(3, powerlaw(1.0, 0.5), constant(0.6)),
                                     (4, powerlaw(1.0, 0.7), constant(0.7)),
                                     (20, harmonic(), harmonic())])
def test_red_cluster_heap_frontier_matches_rebuild(k, p, q):
    """The incremental frontier examines the same points in the same order,
    so red sets and certificates equal those of the rebuild rule."""
    params = _bparams(k, p, q)
    for seed in (3, 71):
        for r in range(12):
            fld = BondField(seed).derive_replica(r)
            state = explore_red_cluster(fld, params, max_steps=60)
            assert (state.A, state.B, state.current, state.step, state.truncated,
                    state.examined, state.certificates) == _red_cluster_by_rebuild(fld, params, 60)


# -- site percolation on the cone ---------------------------------------------------

def test_cone_gamma_one_survives():
    assert site_perc_cone(1.0, 30, BondField(1)).survived


def test_cone_gamma_zero_is_origin_only():
    c = site_perc_cone(0.0, 5, BondField(1))
    assert c.reached[0] == {0}
    assert all(not s for s in c.reached[1:])
    assert not c.survived


def test_cone_exact_values():
    """The transfer matrix over fronts gives the 512-pattern sum at horizon 3
    and the pinned values at horizon 8."""
    assert cone_survival(0.5, 3) == pytest.approx(0.480469, abs=5e-7)
    assert [cone_survival(g, 8) for g in (0.5, 0.6, 0.7, 0.8)] == \
        pytest.approx([0.18632, 0.44014, 0.72592, 0.91427], abs=5e-6)
    assert cone_survival(0.0, 3) == 0.0 and cone_survival(1.0, 5) == 1.0


def test_cone_exhaustive_oracle_small():
    """The scalar oracle and the scan, against the exact depth-3 value."""
    exact = cone_survival(0.5, 3)
    hits = sum(site_perc_cone(0.5, 3, BondField(33).derive_replica(r)).survived
               for r in range(20_000))
    lo, hi = wilson_interval(hits, 20_000, z=3.0)
    assert lo <= exact <= hi
    assert cone_survival_scan([0.5], [3], 20_000, seed=33)[0, 0] == hits


def test_scan_on_two_workers_matches_exact_values():
    """Every (gamma, horizon) count of a 4000-replica scan on two workers
    holds the exact survival probability in its z = 4 Wilson interval."""
    gammas, horizons, reps = (0.5, 0.6, 0.7, 0.8), (3, 8), 4000
    counts = cone_survival_scan(gammas, horizons, reps, seed=4242, threads=2)
    for gi, gamma in enumerate(gammas):
        for hi, horizon in enumerate(horizons):
            lo, up = wilson_interval(int(counts[gi, hi]), reps, z=4.0)
            assert lo <= cone_survival(gamma, horizon) <= up, (gamma, horizon)


@pytest.mark.parametrize("seed", [0, 41])
def test_scan_equals_oracle_per_replica(seed, monkeypatch):
    """The scan reads each replica's own stream, so its counts are exactly
    the oracle's survivals summed over replicas, horizon 0 included, in one
    chunk or in chunks of 7 replicas (10 labels each at horizon 9), of which
    the last holds 6, serially or on two workers."""
    gammas, horizons, reps = [0.0, 0.5, 0.7, 1.0], [9, 0, 1, 4], 300
    counts = cone_survival_scan(gammas, horizons, reps, seed)
    monkeypatch.setattr(renorm, "_SCAN_CELLS", 79)
    assert (cone_survival_scan(gammas, horizons, reps, seed) == counts).all()
    assert (cone_survival_scan(gammas, horizons, reps, seed, threads=2) == counts).all()
    root = BondField(seed)
    for gi, gamma in enumerate(gammas):
        reached = [site_perc_cone(gamma, 9, root.derive_replica(r)).reached
                   for r in range(reps)]
        for hi, horizon in enumerate(sorted(horizons)):
            assert counts[gi, hi] == sum(bool(c[horizon]) for c in reached)
    assert (counts[:, 0] == reps).all()  # the origin is always occupied, gamma = 0 too
    assert (counts[3] == reps).all()  # gamma = 1 survives surely


def test_scan_coupled_monotonicity():
    gammas = [0.3, 0.5, 0.7]
    counts = cone_survival_scan(gammas, [4, 8, 16], 2_000, seed=5)
    assert (np.diff(counts, axis=0) >= 0).all()   # nondecreasing in gamma
    assert (np.diff(counts, axis=1) <= 0).all()   # nonincreasing in horizon


def test_crossing_from_scan_synthetic():
    gammas = [0.1, 0.2, 0.3]
    # decaying ratios below, stabilizing ratios above: crossing between 0.2, 0.3
    counts = [[1000, 500, 100], [1000, 600, 200], [1000, 700, 600]]
    c = crossing_from_scan(gammas, counts)
    assert 0.2 < c < 0.3
    assert crossing_from_scan([0.1, 0.2], [[100, 10, 1], [100, 10, 1]]) is None


def test_invalid_gamma_rejected():
    with pytest.raises(ValueError):
        site_perc_cone(1.5, 3, BondField(1))
    with pytest.raises(ValueError):
        cone_survival_scan([0.5, 1.5], [3], 10, seed=1)
    with pytest.raises(ValueError):
        cone_survival_scan([0.5], [3, -1], 10, seed=1)


# -- domination -------------------------------------------------------------------

def _domination(pseq, qseq, k, samples, seed, max_steps):
    """The redcluster row at one k, with its extra parameters as a dict."""
    cfg = ExperimentConfig("redcluster", seed=seed, reps=samples, z=3.0,
                           params={"pseq": pseq, "qseq": qseq, "beta": "1",
                                   "k": str(k), "steps": str(max_steps)})
    (row,) = run_experiment(cfg)
    return row, dict(kv.split("=") for kv in row["extra_params"].split(";"))


def test_domination_trivial_cases():
    full, extra = _domination("const:1", "const:1", 1, samples=20, seed=2, max_steps=10)
    assert full["estimate"] == 1.0 and extra["gamma_k"] == "1"
    assert extra["violation"] == "0"
    empty, extra = _domination("const:0", "const:0.5", 2, samples=20, seed=2, max_steps=10)
    assert empty["estimate"] == 0.0 and extra["gamma_k"] == "0"
    assert extra["violation"] == "0"
    assert extra["pooled_trials"] == "20"  # one examination (the origin) per run


def test_domination_nontrivial_no_violation():
    params = _bparams(6, powerlaw(1.0, 0.6), constant(0.6))
    row, extra = _domination("powerlaw:1,0.6", "const:0.6", 6, samples=300, seed=6,
                             max_steps=30)
    assert extra["violation"] == "0"
    assert row["ci_hi"] >= gamma_k(params)
