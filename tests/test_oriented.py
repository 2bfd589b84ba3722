import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from exact import block_dispersion_z, oriented_survival_d1
from oracles import axis_prob, out_neighbors
from lrperc import bondfield, oriented
from lrperc.bondfield import TAG_G, BondField
from lrperc.harness import _surv_g, run_replicas
from lrperc.oriented import ExplorationParams, critical_k, explore
from lrperc.sequences import constant, explicit, harmonic, powerlaw, truncate
from lrperc.stats import EstimateWithCI


def _params(d=2, horizon=5, window=6, p=None, q=None):
    p = p if p is not None else truncate(constant(0.5), 2)
    q = q if q is not None else p
    return ExplorationParams(d, horizon, window, p, q)


def _survival(params, seed, replicas):
    hits = sum(c <= params.k for c in run_replicas(_surv_g, (params,), seed, replicas))
    return EstimateWithCI.from_counts(hits, replicas)


def _scalar_front(fld, params):
    """The generation-`horizon` front by breadth-first search over
    `out_neighbors`, one scalar bond query at a time."""
    front = {((0,) * params.d, 0)}
    for _ in range(params.horizon):
        front = set().union(*(out_neighbors(fld, v, params) for v in front)) \
            if front else set()
    return front


def test_out_neighbors_k_zero_empty():
    params = _params(p=truncate(constant(1.0), 0))
    assert out_neighbors(BondField(1), ((0, 0), 0), params) == set()


def test_out_neighbors_full_cross():
    params = _params(p=truncate(constant(1.0), 1))
    out = out_neighbors(BondField(1), ((0, 0), 0), params)
    assert out == {((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)}


def test_out_neighbors_window_clipped():
    params = _params(window=0, p=truncate(constant(1.0), 1))
    assert out_neighbors(BondField(1), ((0, 0), 0), params) == set()


def test_all_zero_sequences_die_immediately():
    params = _params(p=truncate(constant(0.0), 2))
    res = explore(BondField(3).derive_replica([0]), params)
    assert res.survived == [False]
    assert res.front_sizes == [1, 0, 0, 0, 0, 0]


def test_full_sequences_survive():
    params = _params(horizon=4, p=truncate(constant(1.0), 1))
    res = explore(BondField(3).derive_replica([0]), params)
    assert res.survived == [True]
    assert res.front_sizes[0] == 1
    assert all(s > 0 for s in res.front_sizes)


def test_explore_matches_scalar_recomputation():
    """The vectorized generation sweep agrees with an independent scalar
    breadth-first recomputation from raw per-bond queries."""
    params = _params(d=2, horizon=4, window=4,
                     p=truncate(harmonic(), 2), q=truncate(powerlaw(1.0, 0.8), 2))
    for r in range(30):
        fld = BondField(17).derive_replica(r)
        res = explore(BondField(17).derive_replica([r]), params, collect=True)
        front = {((0, 0), 0)}
        for n in range(params.horizon):
            assert res.fronts[n] == {(0, *v) for v in front}
            front = set().union(*(out_neighbors(fld, v, params) for v in front)) \
                if front else set()
        assert res.fronts[params.horizon] == {(0, *v) for v in front}


def test_front_sizes_invariants():
    params = _params(p=truncate(constant(0.4), 2))
    for r in range(50):
        res = explore(BondField(5).derive_replica([r]), params)
        assert res.front_sizes[0] == 1
        assert res.survived == [res.front_sizes[params.horizon] > 0]
        if 0 in res.front_sizes:
            first = res.front_sizes.index(0)
            assert all(s == 0 for s in res.front_sizes[first:])
        assert res.total_visited == sum(res.front_sizes)


def test_truncation_coupling_exact_subsets():
    """Same seed, k <= k': every generation's front at k is a subset of the
    front at k'."""
    for r in range(50):
        fld = BondField(23).derive_replica([r])
        fronts = {}
        for k in (1, 2, 4):
            params = _params(horizon=5, window=6, p=truncate(harmonic(), k))
            fronts[k] = explore(fld, params, collect=True).fronts
        for small, large in ((1, 2), (2, 4)):
            for fs, fl in zip(fronts[small], fronts[large]):
                assert fs <= fl


def test_window_monotonicity_exact_subsets():
    for r in range(50):
        fld = BondField(29).derive_replica([r])
        seq = truncate(harmonic(), 2)
        small = explore(fld, _params(window=3, p=seq), collect=True).fronts
        large = explore(fld, _params(window=6, p=seq), collect=True).fronts
        for fs, fl in zip(small, large):
            assert fs <= fl


def test_horizon_truncation_never_kills_survivors():
    for r in range(50):
        fld = BondField(31).derive_replica([r])
        seq = truncate(harmonic(), 2)
        long = explore(fld, _params(horizon=6, p=seq))
        short = explore(fld, _params(horizon=3, p=seq))
        if long.survived[0]:
            assert short.survived[0]
        assert short.front_sizes == long.front_sizes[:4]


def test_estimate_survival_extremes():
    full = _params(horizon=3, p=truncate(constant(1.0), 1))
    est = _survival(full, seed=1, replicas=20)
    assert est.estimate == 1.0 and est.hi == 1.0
    dead = _params(p=truncate(constant(0.0), 2))
    assert _survival(dead, seed=1, replicas=20).estimate == 0.0
    with pytest.raises(ValueError):
        _survival(full, seed=1, replicas=0)


def test_frozen_regression_harmonic_k50():
    """Long-horizon harmonic survival at high truncation; value frozen from
    the first pinned run of this configuration."""
    params = _params(d=2, horizon=200, window=5,
                     p=truncate(harmonic(), 50), q=truncate(harmonic(), 50))
    est = _survival(params, seed=12, replicas=20)
    assert est.estimate == 1.0
    assert est.lo > 0.3


def test_moves_stop_at_twice_the_window():
    """A move longer than 2 * window leaves the window from every vertex in
    it, so the move table stops growing with k there, and a k far above it
    gives the same records as k = 2 * window."""
    far, near = (_params(horizon=4, window=2, p=truncate(constant(0.2), k))
                 for k in (1000, 4))
    vecs, axes, disps, probs = far.displacement_table()
    assert len(vecs) == 2 * 2 * 4 and abs(disps).max() == 4
    crits = run_replicas(_surv_g, (far,), 3, 60)
    # the same labels, but a replica surviving at no k reads its own run's k + 1
    never = far.k + 1
    near_crits = run_replicas(_surv_g, (near,), 3, 60)
    assert np.array_equal(crits, np.where(near_crits == near.k + 1, never, near_crits))
    assert 4 in crits and never in crits


def test_displacement_table_literal():
    """The move table is axis-major, 1, -1, 2, -2, ... within an axis, and
    stops at min(k, 2W); each axis draws from its own truncated sequence."""
    params = _params(d=2, window=1, p=truncate(explicit([0.5, 0.25, 0.1]), 3),
                     q=truncate(harmonic(), 1))
    vecs, axes, disps, probs = params.displacement_table()
    assert vecs.tolist() == [[1, 0], [-1, 0], [2, 0], [-2, 0],
                             [0, 1], [0, -1], [0, 2], [0, -2]]
    assert axes.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
    assert disps.tolist() == [1, -1, 2, -2, 1, -1, 2, -2]
    assert probs.tolist() == [0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 0.0, 0.0]
    assert [a.dtype for a in (vecs, axes, disps, probs)] == [np.int64] * 3 + [np.float64]
    empty = _params(d=3, window=0).displacement_table()
    assert [a.shape for a in empty] == [(0, 3), (0,), (0,), (0,)]
    assert [a.dtype for a in empty] == [np.int64] * 3 + [np.float64]


def test_params_validation():
    with pytest.raises(ValueError):
        _params(d=0)
    with pytest.raises(ValueError):
        _params(horizon=-1)
    with pytest.raises(ValueError, match="truncation range"):
        _params(p=truncate(constant(0.5), -1))


def test_k_is_the_longer_truncation():
    """k is read off the two sequences, and each axis keeps its own."""
    params = _params(horizon=1, p=truncate(constant(1.0), 1), q=truncate(constant(1.0), 3))
    assert params.k == 3
    out = out_neighbors(BondField(1), ((0, 0), 0), params)
    assert out == {((s, 0), 1) for s in (1, -1)} | {((0, s), 1) for s in (1, -1, 2, -2, 3, -3)}
    assert explore(BondField(1).derive_replica([0]), params, collect=True).fronts[1] \
        == {(0, *v) for v in out}


def test_explicit_anisotropy():
    """Axis 1 draws from pseq, other axes from qseq."""
    params = _params(p=truncate(constant(1.0), 1), q=truncate(constant(0.0), 1))
    out = out_neighbors(BondField(1), ((0, 0), 0), params)
    assert out == {((1, 0), 1), ((-1, 0), 1)}
    assert axis_prob(params, 1, -1) == 1.0
    assert axis_prob(params, 2, 1) == 0.0


# -- bottleneck labels -------------------------------------------------------------

_ORACLE_SETS = [
    # clipping window, p != q, and k = 0 in the sweep
    dict(d=2, ks=(0, 1, 2, 4), horizon=5, window=2, p=powerlaw(1.0, 0.45),
         q=powerlaw(1.0, 0.35)),
    dict(d=1, ks=(0, 1, 3, 5), horizon=8, window=6, p=powerlaw(1.0, 0.6), q=harmonic()),
    dict(d=3, ks=(1, 2, 3), horizon=4, window=2, p=constant(0.2), q=powerlaw(0.5, 0.2)),
]


@pytest.mark.parametrize("case", range(len(_ORACLE_SETS)))
def test_critical_k_equals_per_k_explore_and_scalar_search(case):
    """One labelled sweep at max(ks) decides every k of the sweep: for every
    replica and k, critical_k <= k iff `explore` at truncation k survives iff
    the scalar breadth-first search at truncation k reaches the horizon."""
    c = _ORACLE_SETS[case]
    kmax = max(c["ks"])
    top = _params(d=c["d"], horizon=c["horizon"], window=c["window"],
                  p=truncate(c["p"], kmax), q=truncate(c["q"], kmax))
    seen = set()
    for r in range(50):
        fld, batch = (BondField(41 + case).derive_replica(i) for i in (r, [r]))
        (crit,) = explore(batch, top).critical_k
        seen.add(crit)
        for k in c["ks"]:
            params = _params(d=c["d"], horizon=c["horizon"], window=c["window"],
                             p=truncate(c["p"], k), q=truncate(c["q"], k))
            by_label = crit <= k
            assert [by_label] == explore(batch, params).survived, (r, k)
            assert by_label == bool(_scalar_front(fld, params)), (r, k)
    assert len(seen) > 2  # labels, not just survival at kmax, are exercised


def test_surv_g_records_nondecreasing_in_k():
    """One sweep per replica, at the largest k, answers every k: the kernel
    returns the replica's critical k, so its survival record nests in k, and
    survival at each k equals the answer of `explore` at that k."""
    seq, ks = powerlaw(1.0, 0.45), (1, 2, 4)
    top = _params(horizon=6, window=5, p=truncate(seq, max(ks)))
    crits = run_replicas(_surv_g, (top,), seed=16, reps=60)
    assert all(0 <= c <= max(ks) + 1 for c in crits)
    assert len(set(crits)) > 1  # the k-sweep is not trivial here
    for r, crit in enumerate(crits):
        fld = BondField(16).derive_replica([r])
        for k in ks:
            params = _params(horizon=6, window=5, p=truncate(seq, k))
            assert [crit <= k] == explore(fld, params).survived, (r, k)


def test_sweeps_refuse_a_single_replica_field():
    """`explore` and `critical_k` sweep a batch field; the root and a field
    derived from one index raise the stream layer's ValueError, also at
    horizon 0, where no bond is drawn."""
    for fld in (BondField(3), BondField(3).derive_replica(0)):
        for horizon in (0, 4):
            params = _params(horizon=horizon)
            for sweep in (explore, critical_k):
                with pytest.raises(ValueError, match="batch field"):
                    sweep(fld, params)


def test_critical_k_horizon_zero_is_zero():
    for k in (0, 3):
        params = _params(horizon=0, p=truncate(constant(0.0), k))
        res = explore(BondField(2).derive_replica([0]), params)
        assert res.survived == [True] and res.critical_k.tolist() == [0]


@pytest.mark.parametrize("k, value, window", [
    (2, 0.0, 6),  # all-zero sequences
    (0, 1.0, 6),  # no moves at k = 0
    (2, 1.0, 0),  # every move leaves a zero window
])
def test_critical_k_none_when_the_front_dies(k, value, window):
    """A replica whose front dies survives at no k <= params.k: its
    critical k is params.k + 1."""
    params = _params(horizon=3, window=window, p=truncate(constant(value), k))
    res = explore(BondField(2).derive_replica([0]), params)
    assert res.survived == [False] and res.critical_k.tolist() == [k + 1]


@pytest.mark.parametrize("d, p, q, expected", [
    (1, [0.0, 1.0], [0.0], 2),              # only range 2 is open
    (3, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 3),
    (2, [0.0, 1.0], [1.0], 1),              # axis 2 reaches at range 1
    (2, [0.0, 1.0], [0.0], 2),              # axis 1 draws from pseq
    (2, [0.0], [0.0, 0.0, 1.0], 3),         # axis 2 draws from qseq
    (3, [1.0], [0.0, 0.0, 0.0, 1.0], 1),
])
def test_critical_k_deterministic_sequences(d, p, q, expected):
    k = 4
    params = _params(d=d, horizon=3, window=20,
                     p=truncate(explicit(p), k), q=truncate(explicit(q), k))
    assert explore(BondField(7).derive_replica([0]), params).critical_k.tolist() == [expected]


_LAWS = st.one_of(
    st.builds(powerlaw, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.2, 0.45, 0.9])),
    st.builds(constant, st.sampled_from([0.0, 0.15, 0.4, 1.0])),
    st.builds(explicit, st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.8]), min_size=1, max_size=6)),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=_LAWS, q=_LAWS, d=st.integers(1, 3), kp=st.sampled_from([6, 2, 9, 1, 4, 0, 3]),
       kq=st.sampled_from([3, 8, 1, 5, 0, 2]), window=st.sampled_from([3, 2, 4, 1, 0]),
       horizon=st.sampled_from([4, 6, 2, 1, 0]), seed=st.integers(0, 2**20),
       reps=st.integers(1, 8), cap=st.one_of(st.none(), st.integers(1, 4)),
       workers=st.integers(1, 3))
@example(p=explicit([0.0, 0.0, 0.9]), q=explicit([0.0, 0.0, 0.7]), d=2, kp=8, kq=3,
         window=3, horizon=4, seed=5, reps=6, cap=2, workers=2)  # r = 1, 2 die at generation 0
@example(p=powerlaw(1.0, 0.45), q=constant(0.4), d=3, kp=2, kq=7, window=0, horizon=3,
         seed=1, reps=3, cap=None, workers=1)
@example(p=powerlaw(1.0, 0.45), q=powerlaw(2.0, 0.9), d=1, kp=9, kq=1, window=1, horizon=0,
         seed=2, reps=4, cap=1, workers=3)
def test_surv_g_equals_explore_at_full_k(monkeypatch, inline_pool, p, q, d, kp, kq, window,
                                         horizon, seed, reps, cap, workers):
    """Record for record, `_surv_g`, which deepens its sweeps over a chunk's
    replicas together, equals one `explore` at params.k per replica, over
    laws, truncations, windows, horizons and chunk plans.  No chunk takes
    more than ceil(log2 min(k, 2W)) + 1 sweeps, and each sweep holds only
    the replicas that every earlier one lost."""
    params = ExplorationParams(d, horizon, window, truncate(p, kp), truncate(q, kq))
    inline_pool(workers)
    chunks = []

    def kernel(args, root, lo, hi):
        chunks.append([])
        return _surv_g(args, root, lo, hi)

    def spy(fld, cut, collect=False):
        res = explore(fld, cut, collect)
        chunks[-1].append([c > cut.k for c in res.critical_k])  # the replicas it lost
        return res
    monkeypatch.setattr(oriented, "explore", spy)
    got = run_replicas(kernel, (params,), seed, reps, threads=workers, cap=cap)
    root = BondField(seed)
    assert got.tolist() == [explore(root.derive_replica([r]), params).critical_k[0]
                            for r in range(reps)]
    top = max(1, min(params.k, 2 * window))
    assert sum(len(sweeps[0]) for sweeps in chunks) == reps
    for sweeps in chunks:
        assert len(sweeps) <= (top - 1).bit_length() + 1
        for before, after in zip(sweeps, sweeps[1:]):
            assert len(after) == sum(before)


def test_critical_k_deepens_until_a_sweep_survives(monkeypatch):
    """`critical_k` sweeps at truncation 1, 2, 4, ... capped at
    min(k, 2W), each axis cut to its own k, and stops at the first sweep
    whose front reaches the horizon."""
    cuts = []

    def spy(fld, cut, collect=False):
        cuts.append((cut.pseq.k, cut.qseq.k))
        return explore(fld, cut, collect)
    monkeypatch.setattr(oriented, "explore", spy)
    for params, crit, want in [
        (_params(horizon=3, window=10, p=truncate(explicit([0.0] * 4 + [1.0]), 5),
                 q=truncate(constant(0.0), 3)), 5, [(1, 1), (2, 2), (4, 3), (5, 3)]),
        (_params(window=3, p=truncate(constant(0.0), 12)), 13,
         [(1, 1), (2, 2), (4, 4), (6, 6)]),  # capped at 2W
        (_params(window=0, p=truncate(constant(1.0), 4)), 5, [(0, 0)]),
    ]:
        cuts.clear()
        assert critical_k(BondField(3).derive_replica([0]), params).tolist() == [crit]
        assert cuts == want


# -- the front step -------------------------------------------------------------

def _lexsort_step(fld, front, labels, n, table, window):
    """The front step with flat (1, M) move columns and a three-key lexsort
    dedupe over (label, x_d, ..., x_1): the oracle of `_advance_front`."""
    vecs, axes, disps, probs = table
    if front.shape[1] == 0 or len(vecs) == 0:
        return front[:, :0], labels[:0]
    cols = [np.full((1, 1), TAG_G), np.full((1, 1), n)]
    cols += [x[:, None] for x in front]
    cols += [axes[None, :], disps[None, :]]
    parent, move = np.divmod(np.flatnonzero(fld.open_mask(cols, probs[None, :])), len(vecs))
    nxt = [x[parent] + v[move] for x, v in zip(front, vecs.T)]
    lab = np.maximum(labels[parent], np.abs(disps[move]))
    inside = np.logical_and.reduce([np.abs(x) <= window for x in nxt])
    nxt, lab = [x[inside] for x in nxt], lab[inside]
    order = np.lexsort((lab, *nxt[::-1]))
    nxt = [x[order] for x in nxt]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in nxt])
    return np.array([x[first] for x in nxt]), lab[order][first]


_STEP_SETS = [
    dict(d=1, k=5, horizon=10, window=8, p=powerlaw(1.0, 0.6), q=harmonic()),
    dict(d=2, k=4, horizon=6, window=5, p=powerlaw(1.0, 0.45), q=powerlaw(1.0, 0.35)),
    dict(d=3, k=3, horizon=4, window=3, p=powerlaw(1.0, 0.3), q=powerlaw(0.5, 0.25)),
    dict(d=2, k=0, horizon=3, window=4, p=constant(1.0), q=constant(1.0)),
    dict(d=2, k=50, horizon=5, window=3, p=powerlaw(1.0, 0.45), q=harmonic()),  # k > 2W
]


@pytest.fixture(params=["whole", "slices", "vertices"])
def step_ids(request, monkeypatch):
    """`step_ids()` routes the front step through `uniforms` calls of the
    default id budget, of 64 ids (a replica's vertices hashed over
    several calls), or of one vertex each."""
    def route():
        budget = {"whole": oriented._STEP_IDS, "slices": 64, "vertices": 1}[request.param]
        monkeypatch.setattr(oriented, "_STEP_IDS", budget)
        return budget
    return route


@pytest.mark.parametrize("case", range(len(_STEP_SETS)))
def test_batched_sweep_equals_per_replica_explore(monkeypatch, case, step_ids):
    """One `explore` of a batch of replicas, one front keyed by (replica,
    x), gives each replica's critical k and front, and the front sizes and
    visited count summed over them, of an unsliced `explore` of each
    replica alone; so does `critical_k` on the batch, and on a batch of
    the replicas in another order.  The budget of ids per `uniforms` call
    moves none of them."""
    c = _STEP_SETS[case]
    params = _params(d=c["d"], horizon=c["horizon"], window=c["window"],
                     p=truncate(c["p"], c["k"]), q=truncate(c["q"], c["k"]))
    root, replicas = BondField(71 + case), np.array([4, 0, 9, 2, 7, 1, 8, 3, 6, 5])
    alone = [explore(root.derive_replica([r]), params, collect=True) for r in replicas]
    default, drawn = oriented._STEP_IDS, []
    budget = step_ids()
    open_mask = BondField.open_mask

    def spy(fld, cols, probs):
        drawn.append(open_mask(fld, cols, probs))
        return drawn[-1]
    monkeypatch.setattr(BondField, "open_mask", spy)
    batch = explore(root.derive_replica(replicas), params, collect=True)
    moves = len(params.displacement_table()[0])
    assert max((ids.size for ids in drawn), default=0) <= max(budget, moves)
    if budget < default and c["k"]:
        assert len(drawn) > params.horizon
    crits = [res.critical_k[0] for res in alone]
    assert batch.critical_k.tolist() == crits
    assert batch.survived == [res.survived[0] for res in alone]
    assert batch.front_sizes == [sum(s) for s in zip(*(res.front_sizes for res in alone))]
    assert batch.total_visited == sum(res.total_visited for res in alone)
    assert batch.fronts == [{(j, *v[1:]) for j, res in enumerate(alone) for v in res.fronts[n]}
                            for n in range(params.horizon + 1)]
    assert critical_k(root.derive_replica(replicas), params).tolist() == crits
    assert critical_k(root.derive_replica(replicas[::-1]), params).tolist() == crits[::-1]
    if c["k"]:  # the replicas' fronts grow, and not all alike
        assert max(batch.front_sizes) > len(replicas)
        assert len({res.total_visited for res in alone}) > 1


@pytest.mark.parametrize("branch", ["key", "mixed", "lexsort"])
@pytest.mark.parametrize("case", range(len(_STEP_SETS)))
def test_front_step_equals_lexsort_oracle(monkeypatch, case, branch):
    """Generation by generation, `_advance_front` returns exactly the
    oracle's front, vertex order and labels, with the one-key dedupe, with
    the lexsort branch it takes for a box too large for the key, and with
    both in one sweep."""
    c = _STEP_SETS[case]
    params = _params(d=c["d"], horizon=c["horizon"], window=c["window"],
                     p=truncate(c["p"], c["k"]), q=truncate(c["q"], c["k"]))
    # the key needs at most (2W + 1)^d cells times min(k, 2W) + 1 labels
    cells = (2 * c["window"] + 1) ** c["d"] * (min(c["k"], 2 * c["window"]) + 1)
    limit = {"key": oriented._KEY_LIMIT, "mixed": cells // 4, "lexsort": 0}[branch]
    monkeypatch.setattr(oriented, "_KEY_LIMIT", limit)
    branches = {"key": 0, "lexsort": 0}
    lexsort = oriented._dedupe_lexsort

    def spy(nxt, lab):
        branches["lexsort"] += 1
        return lexsort(nxt, lab)
    monkeypatch.setattr(oriented, "_dedupe_lexsort", spy)
    table = params.displacement_table()
    label_counts = set()
    for r in range(30):
        fld = BondField(53 + case).derive_replica([r])
        front, labels = np.zeros((params.d, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
        for n in range(params.horizon):
            before = branches["lexsort"]
            got = oriented._advance_front(fld, np.vstack([0 * front[:1], front]), labels, n,
                                          table, params.window)
            want = _lexsort_step(fld, front, labels, n, table, params.window)
            branches["key"] += branches["lexsort"] == before and len(want[1]) > 0
            assert not got[0][0].any(), (r, n)  # the one replica of the field
            for g, w in zip((got[0][1:], got[1]), want):
                assert g.dtype == w.dtype and g.shape == w.shape, (r, n)
                assert np.array_equal(g, w), (r, n)
            label_counts.add(len(set(want[1].tolist())))
            front, labels = want
    if c["k"] == 0:
        assert branches == {"key": 0, "lexsort": 0}
        return
    assert max(label_counts) > 1  # fronts carry more than one label
    assert (branches["key"] > 0) == (branch != "lexsort")
    assert (branches["lexsort"] > 0) == (branch != "key")


def test_one_full_size_fold_per_generation(monkeypatch):
    """Each generation hashes its (F, d, 2k') bond grid with one full-size
    fold; the tag, generation, coordinate and axis words fold at F * d
    values or fewer."""
    params = _params(d=2, horizon=6, window=6, p=truncate(powerlaw(1.0, 0.45), 3))
    moves = params.displacement_table()[0].shape[0] // params.d
    fld = BondField(61).derive_replica([0])
    log = []
    fold, step = bondfield._fold_array, oriented._advance_front

    def spy_fold(h, w, *dest):
        out = fold(h, w, *dest)
        log.append(out.size)
        return out

    def spy_step(fld, front, *args):
        log.append(("step", front.shape[1]))
        return step(fld, front, *args)
    monkeypatch.setattr(bondfield, "_fold_array", spy_fold)
    monkeypatch.setattr(oriented, "_advance_front", spy_step)
    res = explore(fld, params)
    assert res.survived == [True] and max(res.front_sizes) > 1
    starts = [i for i, e in enumerate(log) if isinstance(e, tuple)] + [len(log)]
    assert len(starts) - 1 == params.horizon
    for i, j in zip(starts, starts[1:]):
        size = log[i][1]
        folds = log[i + 1:j]
        full = size * params.d * moves
        assert folds.count(full) == 1, (size, folds)
        assert all(f <= size * params.d for f in folds if f != full), (size, folds)


def test_surv_g_sweep_matches_exact_d1_values():
    """A d = 1 `surv_g` k-sweep agrees at every k, within a two-sided z = 4
    Wilson interval, with the transfer matrix's exact survival probability,
    which does not share the kernel's window, moves or probabilities.  Its
    records are not overdispersed either: across 40 blocks of 100
    consecutive replicas they spread as independent draws do (one-sided,
    z <= 4)."""
    seq, window, horizon, reps = powerlaw(1.0, 0.45), 2, 6, 4000
    exact = [oriented_survival_d1(truncate(seq, k), window, horizon) for k in (1, 2, 3, 4)]
    assert exact == pytest.approx([0.14099, 0.38804, 0.46711, 0.48976], abs=5e-6)
    top = _params(d=1, horizon=horizon, window=window, p=truncate(seq, 4))
    crits = run_replicas(_surv_g, (top,), seed=7, reps=reps, threads=2)
    for k, value in zip((1, 2, 3, 4), exact):
        hits = [c <= k for c in crits]
        est = EstimateWithCI.from_counts(sum(hits), reps, 4.0)
        assert est.lo <= value <= est.hi, (k, est.estimate, value)
        assert block_dispersion_z(hits, value) <= 4.0, k


def test_surv_g_sweep_is_not_overdispersed_across_seeds():
    """The d = 1 `surv_g` k-sweep of 100 replicas at each of 40 seeds: the
    seeds' hits spread as independent draws do (one-sided, z <= 4).  Blocks
    within one seed cannot see a fault in the seed derivation; these can."""
    seq, window, horizon = powerlaw(1.0, 0.45), 2, 6
    top = _params(d=1, horizon=horizon, window=window, p=truncate(seq, 4))
    blocks = [run_replicas(_surv_g, (top,), seed, 100) for seed in range(40)]
    # a seed derivation that repeats streams repeats whole blocks
    assert len(set(map(tuple, blocks))) == len(blocks)
    crits = [c for block in blocks for c in block]
    for k in (1, 2, 3, 4):
        hits = [c <= k for c in crits]
        value = oriented_survival_d1(truncate(seq, k), window, horizon)
        assert block_dispersion_z(hits, value) <= 4.0, k


def test_derived_replica_bases_are_distinct_across_seeds():
    """The 10^6 replica fields of seeds 0..999 x replicas 0..999 start from
    pairwise distinct bases, so no two of them read one stream."""
    replicas = np.arange(1000)
    bases = np.concatenate([BondField(seed).derive_replica(replicas)._base
                            for seed in range(1000)])
    assert len(np.unique(bases)) == bases.size == 10**6


@pytest.mark.parametrize("top_label, branch", [(0, "key"), (1, "lexsort")])
def test_dedupe_key_never_wraps(monkeypatch, top_label, branch):
    """A box of 2^63 cells with one label is the widest the int64 key
    holds; a second label takes the lexsort, and both give its result.  The
    box is that of a d = 3 front, and that of a d = 3 batch front of 2^20
    replicas, whose replica row leads the key."""
    calls = []
    lexsort = oriented._dedupe_lexsort
    monkeypatch.setattr(oriented, "_dedupe_lexsort",
                        lambda nxt, lab: calls.append(1) or lexsort(nxt, lab))
    lo, hi = -2**20, 2**20 - 1  # 2^21 coordinates on each axis
    front = [np.array(col, dtype=np.int64) for col in
             ([hi, lo, hi, 0, lo], [hi, lo, hi, 0, hi], [hi, lo, hi, 0, lo])]
    # 2^20 replicas, 2^21 values of x_1, and 2^11 values of x_2 and of x_3
    replica = np.array([2**20 - 1, 0, 2**20 - 1, 5, 0])
    batch = [replica, front[0], front[1] >> 10, front[2] >> 10]
    lab = np.array([top_label, 0, 0, top_label, 0], dtype=np.int64)
    for nxt in (front, batch):
        calls.clear()
        got = oriented._dedupe(nxt, lab)
        want = lexsort(nxt, lab)
        assert bool(calls) == (branch == "lexsort")
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got[0].shape == (len(nxt), 4)
