import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exact import cone_survival
from oracles import bifurcations, crossing_from_scan, reverify_red_cluster, site_perc_cone
from lrperc import bondfield, renorm
from lrperc.bondfield import TAG_SITE, BondField, BondId
from lrperc.harness import ExperimentConfig, run_experiment, run_replicas
from lrperc.renorm import (
    BifurcationParams, check_bifurcation, cone_survival_scan, explore_red_cluster, gamma_k,
)
from lrperc.sequences import constant, explicit, harmonic, powerlaw, signed_ranges, truncate
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


@pytest.mark.parametrize("p, q, beta", [
    (harmonic(), harmonic(), 1),
    (powerlaw(1.0, 0.7), powerlaw(1.0, 0.5), 2),
    (explicit([0.5, 0.3]), harmonic(), 3),  # p vanishes beyond range 2
    (powerlaw(0.5, 0.9), constant(0.3), 5),
])
def test_gamma_curve_equals_gamma_k_bit_for_bit(p, q, beta):
    """The one-pass curve is gamma_k at every k, the rows at k < beta (0)
    included, with no tolerance."""
    kmax = 120
    curve = renorm.gamma_curve(_bparams(kmax, p, q, beta))
    assert curve == [gamma_k(_bparams(k, p, q, beta)) for k in range(1, kmax + 1)]
    assert curve[:beta - 1] == [0.0] * (beta - 1)


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
    hits = sum(run_replicas(bifurcations, (params,), seed=77, reps=30_000))
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


def _certified_path(certificates, point, a, beta):
    """The open vertex path from the origin to offset `a` of `point` that
    the links of `certificates` spell out, one link per generation."""
    path = []
    while True:
        m, n = point
        path.append(((a, m * beta), 2 * n))
        link = certificates[point][a]
        if link is None:
            return tuple(reversed(path))
        (m0, n0), a0, a1 = link
        path.append(((a0 + a1, m0 * beta), 2 * n - 1))
        point, a = (m0, n0), a0


def test_certificate_paths_have_correct_shape():
    params = _bparams(8, harmonic(), harmonic())
    state = explore_red_cluster(BondField(55), params, max_steps=10)
    for (m, n), offsets in state.certificates.items():
        for a in offsets:
            path = _certified_path(state.certificates, (m, n), a, params.beta)
            assert path[0] == ((0, 0), 0)
            assert path[-1] == ((a, m * params.beta), 2 * n)
            assert len(path) == 2 * n + 1


# -- the re-verifier refuses a corrupted state ----------------------------------------

_RED_PARAMS = _bparams(4, powerlaw(1.0, 0.7), constant(0.7))


@pytest.fixture(scope="module")
def red_state():
    """(field, state): a real state with red and examined non-red points,
    certified offsets at least four generations deep."""
    fld = BondField(13).derive_replica(9)
    state = explore_red_cluster(fld, _RED_PARAMS, max_steps=40)
    assert state.A and state.B and reverify_red_cluster(fld, _RED_PARAMS, state)
    assert max(n for _, n in state.certificates) >= 4
    return fld, state


def _with_link(state, point, a, link):
    """A copy of `state` in which offset `a` of `point` is certified by `link`."""
    offsets = {**state.certificates.get(point, {}), a: link}
    return dataclasses.replace(state, certificates={**state.certificates, point: offsets})


def _deepest_link(state, vertical):
    """(point, a, link) of the deepest certified offset whose link ends on
    a vertical bond (m = m0 + 1) or, if not `vertical`, an axis-1 bond."""
    return max((((m, n), a, link) for (m, n), offsets in state.certificates.items()
                for a, link in offsets.items()
                if link is not None and (m == link[0][0] + 1) == vertical),
               key=lambda c: (c[0][1], c[0][0], c[1]))


def _axis1_steps(fld, x, n, is_open):
    """The ranges, in scan order, of the open (or closed) axis-1 bonds out of (x, n)."""
    p = _RED_PARAMS.pseq
    return [a for a in signed_ranges(p.k)
            if fld.is_open(BondId.oriented(x, n, 1, a), p.term(abs(a))) == is_open]


def _two_steps(fld, x0, n0, first_open):
    """(a1, d): an axis-1 step a1 out of (x0, 2 n0) whose bond is open (or
    closed), then an open axis-1 step d out of its end, at 2 n0 + 1."""
    a0, m0 = x0
    return next((a1, d) for a1 in _axis1_steps(fld, x0, 2 * n0, first_open)
                for d in _axis1_steps(fld, (a0 + a1, m0), 2 * n0 + 1, True))


# Each corruption adds or replaces one link, (point, a, link), and breaks one
# rule of a link; every other rule holds, its bonds are open where the rule
# does not say otherwise, and its parent offset is certified unless it says so.

def _skipped_generation(fld, state):
    """A real link out of (m0, n0), filed two generations below it."""
    _, _, ((m0, n0), a0, a1) = _deepest_link(state, False)
    d = _axis1_steps(fld, (a0 + a1, m0), 2 * n0 + 3, True)[0]
    return (m0, n0 + 2), a0 + a1 + d, ((m0, n0), a0, a1)


def _diagonal_step(fld, state):
    """A real link out of (m0, n - 1), filed under (m0 + 2, n)."""
    (m, n), a, link = _deepest_link(state, False)
    return (m + 2, n), a, link


def _closed_first_bond(fld, state):
    (m, n), _, ((m0, n0), a0, _) = _deepest_link(state, False)
    a1, d = _two_steps(fld, (a0, m0), n0, False)
    return (m, n), a0 + a1 + d, ((m0, n0), a0, a1)


def _closed_second_bond(fld, state):
    (m, n), _, link = _deepest_link(state, False)
    (m0, n0), a0, a1 = link
    return (m, n), a0 + a1 + _axis1_steps(fld, (a0 + a1, m0), 2 * n0 + 1, False)[0], link


def _uncertified_parent(fld, state):
    (m, n), _, ((m0, n0), _, _) = _deepest_link(state, False)
    a0 = max(state.certificates[(m0, n0)]) + 1
    a1, d = _two_steps(fld, (a0, m0), n0, True)
    return (m, n), a0 + a1 + d, ((m0, n0), a0, a1)


def _none_off_the_origin(fld, state):
    point, a, _ = _deepest_link(state, False)
    return point, a, None


@pytest.mark.parametrize("corrupt", [
    _skipped_generation, _diagonal_step, _closed_first_bond, _closed_second_bond,
    _uncertified_parent, _none_off_the_origin,
], ids=["skipped-generation", "diagonal-step", "closed-first-bond", "closed-bond",
        "uncertified-parent", "none-off-the-origin"])
def test_reverify_rejects_a_broken_path(red_state, corrupt):
    """One broken link breaks the certified path of its offset."""
    fld, state = red_state
    assert _RED_PARAMS.beta == 1  # the corruptions place vertices at (a, m)
    assert not reverify_red_cluster(fld, _RED_PARAMS, _with_link(state, *corrupt(fld, state)))


def test_reverify_rejects_a_path_ending_off_its_point(red_state):
    """A real vertical link (m = m0 + 1), filed under an offset other than a0 + a1.
    An axis-1 link moved to another offset is not corrupt: it certifies that
    offset whenever the bond it then names is open."""
    fld, state = red_state
    point, a, link = _deepest_link(state, True)
    assert not reverify_red_cluster(fld, _RED_PARAMS, _with_link(state, point, a + 1, link))


def test_reverify_rejects_a_red_point_without_a_bifurcation(red_state):
    """A non-red point, its open certificates intact, listed in A."""
    fld, state = red_state
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
    cert = {(0, 0): {0: None}}
    current, step = (0, 0), 0
    while step < max_steps:
        m, n = current
        origins = sorted(cert.get(current, {}), key=lambda a: (abs(a), a < 0))
        red = False
        for a in origins:
            rec = check_bifurcation(fld, ((a, m * beta), 2 * n), params)
            if rec.success:
                red = True
                link = (current, a, rec.a)
                cert.setdefault((m, n + 1), {}).setdefault(a + rec.a + rec.a_prime, link)
                cert.setdefault((m + 1, n + 1), {}).setdefault(a + rec.a, link)
        (A if red else B).add(current)
        examined.append((current, red, len(origins)))
        step += 1
        frontier = exterior_boundary(A) - B
        if not frontier:
            return A, B, None, step, False, examined, cert
        current = min(frontier, key=lambda p: (p[1], p[0]))
    return A, B, current, step, True, examined, cert


def _as_tuple(state):
    return (state.A, state.B, state.current, state.step, state.truncated,
            state.examined, state.certificates)


_REBUILD_LAWS = [(3, powerlaw(1.0, 0.5), constant(0.6)),
                 (4, powerlaw(1.0, 0.7), constant(0.7)),
                 (20, harmonic(), harmonic())]


@pytest.mark.parametrize("max_steps", [0, 1, 7, 60])
@pytest.mark.parametrize("k, p, q", _REBUILD_LAWS)
def test_red_cluster_generation_loop_matches_rebuild(k, p, q, max_steps):
    """Generation by generation, the recursion examines the same points in
    the same order as the rebuild rule, so red sets and certificates are
    equal, at a budget of 0 (truncated at the origin), of 7 (which cuts a
    generation part-way on some replica) and of 60."""
    params = _bparams(k, p, q)
    cut_part_way = False
    for seed in (3, 71):
        for r in range(12):
            fld = BondField(seed).derive_replica(r)
            state = explore_red_cluster(fld, params, max_steps=max_steps)
            assert _as_tuple(state) == _red_cluster_by_rebuild(fld, params, max_steps)
            if max_steps == 0:
                assert state.truncated and state.current == (0, 0) and not state.examined
            cut_part_way |= (state.truncated and bool(state.examined)
                             and state.current[1] == state.examined[-1][0][1])
    if max_steps == 7:
        assert cut_part_way


@pytest.mark.parametrize("k, p, q", _REBUILD_LAWS[:2])
def test_red_cluster_dying_at_its_budget_is_not_truncated(k, p, q):
    """A cluster whose last point is examined by the last step of its budget
    terminates: truncated=False and current=None, as the rebuild rule says."""
    params = _bparams(k, p, q)
    died = 0
    for r in range(12):
        fld = BondField(3).derive_replica(r)
        steps = explore_red_cluster(fld, params, max_steps=60)
        if steps.truncated:
            continue
        state = explore_red_cluster(fld, params, max_steps=steps.step)
        assert not state.truncated and state.current is None
        assert _as_tuple(state) == _red_cluster_by_rebuild(fld, params, steps.step)
        died += 1
    assert died


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
    chunk or in chunks of at most 7 replicas (10 labels each at horizon 9),
    serially or on two workers.  Each replica's row of the chunk kernel, in
    chunks of 7 on two workers, has its least label below gamma exactly
    where the oracle lets that replica survive."""
    gammas, horizons, reps = [0.0, 0.5, 0.7, 1.0], [9, 0, 1, 4], 300
    counts = cone_survival_scan(gammas, horizons, reps, seed)
    monkeypatch.setattr(bondfield, "_CHUNK_BYTES", 8 * 79)
    assert (cone_survival_scan(gammas, horizons, reps, seed) == counts).all()
    assert (cone_survival_scan(gammas, horizons, reps, seed, threads=2) == counts).all()
    least = run_replicas(renorm._cone_chunk, (np.array(gammas), sorted(horizons)), seed, reps,
                         threads=2, cap=7)
    assert least.shape == (reps, len(horizons))
    root = BondField(seed)
    for gi, gamma in enumerate(gammas):
        reached = [site_perc_cone(gamma, 9, root.derive_replica(r)).reached
                   for r in range(reps)]
        for hi, horizon in enumerate(sorted(horizons)):
            assert counts[gi, hi] == sum(bool(c[horizon]) for c in reached)
            assert (least[:, hi] < gamma).tolist() == [bool(c[horizon]) for c in reached]
    assert (counts[:, 0] == reps).all()  # the origin is always occupied, gamma = 0 too
    assert (counts[3] == reps).all()  # gamma = 1 survives surely


@pytest.mark.parametrize("gammas, horizons", [
    ([0.55, 0.7], [0, 5, 30]),  # replicas die mid-chunk
    ([0.0], [0, 3]),  # every replica dies at n = 1
    ([0.3, 0.45], [40]),  # the whole chunk dies before the horizon
    ([0.3], [100_000]),  # far beyond every replica's death: the cache must not span it
])
def test_pruned_scan_equals_oracle_per_replica(gammas, horizons, monkeypatch):
    """With no gamma = 1 in the grid the scan prunes replicas and sites, and
    its counts stay the oracle's survivals summed over replicas, in one chunk
    or in chunks of at most 7 replicas, serially or on two workers.  Each
    replica's row of the chunk kernel, dropped replicas' 1.0 included, has
    its least label below gamma exactly where the oracle lets it survive."""
    reps, seed, top = 200, 3, max(horizons)
    counts = cone_survival_scan(gammas, horizons, reps, seed)
    monkeypatch.setattr(bondfield, "_CHUNK_BYTES", 8 * 7 * (top + 1))
    assert (cone_survival_scan(gammas, horizons, reps, seed) == counts).all()
    assert (cone_survival_scan(gammas, horizons, reps, seed, threads=2) == counts).all()
    least = run_replicas(renorm._cone_chunk, (np.array(gammas), horizons), seed, reps,
                         threads=2, cap=7)
    assert least.shape == (reps, len(horizons))
    root = BondField(seed)
    for gi, gamma in enumerate(gammas):
        reached = [site_perc_cone(gamma, top, root.derive_replica(r)).reached
                   for r in range(reps)]
        for hi, horizon in enumerate(horizons):
            assert counts[gi, hi] == sum(bool(c[horizon]) for c in reached)
            assert (least[:, hi] < gamma).tolist() == [bool(c[horizon]) for c in reached]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("horizons", [[0], [0, 1, 7], [0, 0, 4]])
@pytest.mark.parametrize("gammas", [[0.0], [1.0], [0.3, 1.0]])
def test_cone_scan_origin_and_threshold_edges(gammas, horizons, threads):
    """The scan's special cases, pinned outside hypothesis: the origin's
    label 0 survives horizon 0 at gamma = 0, also where horizon 0 is given
    twice, gamma = 0 leaves nothing live past horizon 0, and gamma = 1 in
    the grid turns pruning off.  Every count is the number of replicas
    `site_perc_cone` lets survive."""
    reps, seed = 40, 17
    counts = cone_survival_scan(gammas, horizons, reps, seed, threads)
    fields = [BondField(seed).derive_replica(r) for r in range(reps)]
    for gi, gamma in enumerate(gammas):
        for hi, horizon in enumerate(horizons):
            want = sum(site_perc_cone(gamma, horizon, fld).survived for fld in fields)
            assert counts[gi, hi] == want, (gamma, horizon)
    assert (counts[:, 0] == reps).all()


def test_scan_counts_as_the_broadcast_comparison():
    """`cone_survival_scan` counts each horizon's rows by a search of their
    sorted entries, and each count equals the broadcast strict comparison
    (least[:, None, :] < gammas[None, :, None]).sum(axis=0) over the rows
    of `_cone_chunk`.  The gamma grid holds replicas' exact least labels,
    where a tie must not count, the next floats above them, 0 and 1, and
    horizon 0's entries are -inf."""
    horizons, reps, seed = [0, 1, 3, 8], 400, 12
    exact = run_replicas(renorm._cone_chunk, (np.array([1.0]), horizons), seed, reps)
    labels = np.unique(exact[:, 1:])[::23]  # all below 1: gamma = 1 prunes nothing
    gammas = np.concatenate([[0.0, 1.0], labels, np.nextafter(labels, 1.0)])
    least = run_replicas(renorm._cone_chunk, (gammas, horizons), seed, reps)
    assert np.isin(least[:, 1:], gammas).sum() > 20  # the ties
    want = (least[:, None, :] < gammas[None, :, None]).sum(axis=0)
    assert np.array_equal(cone_survival_scan(gammas, horizons, reps, seed), want)
    assert (want[:, 0] == reps).all()


def test_cone_scan_prune_bound_is_exact_at_a_site_uniform():
    """The prune bound ceil(max(gamma) * 2**53) << 11 keeps a label one float
    below gamma: with u the least horizon-1 uniform of replica 0, below 0.5
    so that the next float g above it is not a multiple of 2**-53, the
    replica survives horizon 1 at g and not at u, as `site_perc_cone` says."""
    for seed in range(100):
        fld = BondField(seed).derive_replica(0)
        u = min(fld.uniform(BondId((TAG_SITE, m, 1))) for m in (0, 1))
        if 0.0 < u < 0.5:
            break
    for gamma in (u, math.nextafter(u, 1.0)):
        want = [int(site_perc_cone(gamma, t, fld).survived) for t in (0, 1, 2)]
        assert cone_survival_scan([gamma], [0, 1, 2], 1, seed).tolist() == [want]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gammas=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.65, 0.7, 0.8, 1.0]),
                       min_size=1, max_size=4),
       horizons=st.lists(st.integers(0, 12), min_size=1, max_size=3),
       reps=st.integers(1, 12), seed=st.integers(0, 2**20), cells=st.integers(1, 40),
       workers=st.integers(1, 3))
def test_cone_scan_equals_site_perc_cone_per_replica(monkeypatch, inline_pool, gammas, horizons,
                                                     reps, seed, cells, workers):
    """Over gamma grids (0 and 1 included), horizons (0 included), replica
    counts, seeds and chunk plans (a chunk budget, workers), every count
    of the scan is the number of replicas that the scalar `site_perc_cone`
    lets survive at that gamma and horizon."""
    inline_pool(workers)
    monkeypatch.setattr(bondfield, "_CHUNK_BYTES", 8 * cells)  # `cells` labels per chunk
    counts = cone_survival_scan(gammas, horizons, reps, seed, workers)
    assert counts.shape == (len(gammas), len(horizons))
    fields = [BondField(seed).derive_replica(r) for r in range(reps)]
    for gi, gamma in enumerate(gammas):
        for hi, horizon in enumerate(sorted(horizons)):
            want = sum(site_perc_cone(gamma, horizon, fld).survived for fld in fields)
            assert counts[gi, hi] == want, (gamma, horizon)


def _hashed_sites(monkeypatch, gammas, horizon, reps):
    """The sites the cone scan draws, summed over its `states` calls."""
    return _scan_folds(monkeypatch, gammas, horizon, reps)[0]


def test_scan_hashes_only_sites_that_can_count(monkeypatch):
    """Below gamma = 0.5 almost every replica dies within a few generations,
    so the scan draws under 1 % of the cone's sites; with gamma = 1 in the
    grid no label reaches max(gamma), and it draws every site."""
    horizon, reps = 200, 200
    cone = reps * sum(n + 1 for n in range(1, horizon + 1))
    assert _hashed_sites(monkeypatch, [0.5], horizon, reps) < 0.01 * cone
    assert _hashed_sites(monkeypatch, [0.5, 1.0], horizon, reps) == cone


def _scan_folds(monkeypatch, gammas, horizon, reps):
    """(sites drawn, cells folded by `prefix`, id columns of each site
    draw, a `states` call with a destination) over one cone scan."""
    sites, cells, widths = [0], [0], []
    states, prefix = BondField.states, BondField.prefix

    def spy_states(self, columns, **dest):
        h = states(self, columns, **dest)
        if dest:  # a site draw; `prefix` folds through `states` without one
            sites[0] += h.size
            widths.append(len(columns))
        return h

    def spy_prefix(self, words):
        out = prefix(self, words)
        cells[0] += int(np.prod(out.shape)) * len(words)
        return out

    monkeypatch.setattr(BondField, "states", spy_states)
    monkeypatch.setattr(BondField, "prefix", spy_prefix)
    cone_survival_scan(gammas, [horizon], reps, seed=0)
    return sites[0], cells[0], widths


@pytest.mark.parametrize("gammas, horizon, reps", [
    ([0.5], 200, 200),  # almost every replica dies within a few generations
    ([0.5, 1.0], 200, 200),  # nothing is pruned
    ([0.3], 100_000, 20),  # a horizon far beyond every replica's death
])
def test_scan_folds_each_column_prefix_once(monkeypatch, gammas, horizon, reps):
    """Each generation folds only its own word n on top of a replica's
    cached column states [TAG_SITE, m], and the cache grows with the
    window's right end only, so its prefix folds (the tag once per replica,
    then the columns) stay within the sites drawn plus 2 per replica."""
    sites, cells, widths = _scan_folds(monkeypatch, gammas, horizon, reps)
    assert widths and set(widths) == {1}
    assert reps <= cells <= sites + 2 * reps, (cells, sites)


def _chunk_draws(monkeypatch):
    """The (destination, scratch) pairs of the cone scan's `states` calls,
    in call order; keeping them keeps every buffer they view alive, so
    distinct buffers have distinct ids."""
    draws = []
    states = BondField.states

    def spy_states(self, columns, **dest):
        h = states(self, columns, **dest)
        if dest:  # a site draw; `prefix` folds through `states` without one
            draws.append((h, dest["scratch"]))
        return h

    monkeypatch.setattr(BondField, "states", spy_states)
    return draws


def _regrowths(draws):
    """The indices of the draws whose scratch is a buffer new to the chunk."""
    return [i for i in range(1, len(draws)) if draws[i][1].base is not draws[i - 1][1].base]


def _assert_rows_are_the_oracle(least, gammas, horizons, seed, lo, hi):
    """Row i of a chunk kernel's records, replica lo + i, has its least
    label below gamma exactly where `site_perc_cone` lets it survive."""
    assert least.shape == (hi - lo, len(horizons))
    for gamma in gammas:
        reached = [site_perc_cone(gamma, horizons[-1], BondField(seed).derive_replica(r)).reached
                   for r in range(lo, hi)]
        for t, horizon in enumerate(horizons):
            assert (least[:, t] < gamma).tolist() == [bool(c[horizon]) for c in reached]


def test_chunk_draws_into_log_h_buffers(monkeypatch):
    """A chunk's generations fold into buffers the chunk owns, grown by
    doubling: with gamma = 1 in the grid nothing is pruned and the window
    widens by a site per generation, yet the 1000 generations draw into at
    most two destinations and one scratch per doubling."""
    horizon, reps = 1000, 3
    draws = _chunk_draws(monkeypatch)
    least = renorm._cone_chunk((np.array([1.0]), [horizon]), BondField(5), 0, reps)
    assert (least < 1.0).all()
    assert [h.shape for h, _ in draws] == [(n + 1, reps) for n in range(1, horizon + 1)]
    levels = math.ceil(math.log2(horizon + 1)) + 1
    outs, scratches = {id(h.base) for h, _ in draws}, {id(s.base) for _, s in draws}
    assert len(outs) <= 2 * levels and len(scratches) <= levels
    assert not outs & scratches


def test_chunk_rows_through_regrowths_without_pruning(monkeypatch):
    """A grid holding gamma = 1 prunes nothing, so one chunk's buffers
    regrow at each doubling of its window up to horizon 70, and every row
    stays the oracle's."""
    gammas, horizons, seed, reps = [0.6, 0.7, 1.0], [0, 5, 33, 70], 8, 25
    draws = _chunk_draws(monkeypatch)
    least = renorm._cone_chunk((np.array(gammas), horizons), BondField(seed), 0, reps)
    assert len(_regrowths(draws)) >= 5
    assert {h.shape[1] for h, _ in draws} == {reps}
    _assert_rows_are_the_oracle(least, gammas, horizons, seed, 0, reps)


def test_chunk_rows_when_pruning_follows_a_regrowth(monkeypatch):
    """At seed 0 the chunk of 30 replicas regrows its buffers at a late
    generation, drops replicas in that generation and again in the next
    one, and every row stays the oracle's."""
    gammas, horizons, seed, reps = [0.6, 0.7], [0, 13, 14, 15, 40], 0, 30
    draws = _chunk_draws(monkeypatch)
    least = renorm._cone_chunk((np.array(gammas), horizons), BondField(seed), 0, reps)
    drops = {i for i in range(1, len(draws)) if draws[i][0].shape[1] < draws[i - 1][0].shape[1]}
    assert any(i >= 3 and {i + 1, i + 2} <= drops for i in _regrowths(draws))
    _assert_rows_are_the_oracle(least, gammas, horizons, seed, 0, reps)


@pytest.mark.parametrize("gammas", [[0.5, 0.7], [0.7, 1.0]])
def test_chunk_of_one_replica_equals_oracle(gammas):
    """Chunks of one replica, pruned and not, give the oracle's rows."""
    horizons, seed = [0, 3, 20], 21
    for r in range(12):
        least = renorm._cone_chunk((np.array(gammas), horizons), BondField(seed), r, r + 1)
        _assert_rows_are_the_oracle(least, gammas, horizons, seed, r, r + 1)


@pytest.mark.parametrize("gammas", [[0.0], [0.5], [1.0]])
def test_chunk_at_horizon_zero_alone_draws_nothing(monkeypatch, gammas):
    """With horizon 0 alone a chunk draws no site, and every replica's row
    is -inf: the origin counts at every gamma, 0 included."""
    draws = _chunk_draws(monkeypatch)
    least = renorm._cone_chunk((np.array(gammas), [0]), BondField(4), 0, 6)
    assert not draws and least.shape == (6, 1) and (least == -np.inf).all()
    _assert_rows_are_the_oracle(least, gammas, [0], 4, 0, 6)


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
    for horizon in (-1, -3):
        with pytest.raises(ValueError, match="horizons must be nonnegative"):
            site_perc_cone(0.0, horizon, BondField(1))
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
