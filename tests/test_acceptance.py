"""Acceptance criteria, one test per criterion.

Each test registers a PASS/FAIL line that the terminal summary prints
(see conftest.py), so a plain `pytest -v` run shows one line per criterion.
Statistical checks use 3-sigma Wilson intervals; structural checks are
zero-tolerance.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import record_acceptance
from exact import block_counts_z, block_dispersion_z, cone_survival
from oracles import (
    SkeletonParams, bifurcations, crossing_from_scan, f_events, f_probability,
    reverify_red_cluster,
)

from lrperc import renorm
from lrperc.bondfield import BondField
from lrperc.cli import resolve_config
from lrperc.contact import infected_at_horizon, sample_timeline
from lrperc.harness import ExperimentConfig, _hprob, format_csv, run_experiment, run_replicas
from lrperc.oriented import ExplorationParams, explore
from lrperc.renorm import BifurcationParams, cone_survival_scan, explore_red_cluster, gamma_k
from lrperc.sequences import explicit, harmonic, powerlaw, truncate
from lrperc.stats import EstimateWithCI, wilson_interval

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        record_acceptance(number, label, False)
        raise
    record_acceptance(number, label, True)


def _cfg(command: str, name: str, threads: int = 1):
    return resolve_config([command, "--config", str(_CONFIGS / name),
                           "--threads", str(threads)])


def _bparams(k, p, q, beta=1):
    return BifurcationParams(beta, truncate(p, k), truncate(q, k))


def _bifurcation_frequency(params, trials, seed):
    hits = sum(run_replicas(bifurcations, (params,), seed, trials))
    return EstimateWithCI.from_counts(hits, trials, z=3.0)


def test_criterion_01_gamma_closed_form_vs_sampling():
    with _criterion(1, "closed-form vs sampling, bifurcation probability"):
        for k in (1, 5, 20):
            params = _bparams(k, harmonic(), harmonic())
            est = _bifurcation_frequency(params, trials=100_000, seed=1000 + k)
            assert est.lo <= gamma_k(params) <= est.hi, k
        # harmonic sequences start at probability 1, making the event certain;
        # a sub-unit sequence exercises the nontrivial branch of the formula
        params = _bparams(3, powerlaw(1.0, 0.5), powerlaw(1.0, 0.5))
        assert 0.0 < gamma_k(params) < 1.0
        est = _bifurcation_frequency(params, trials=100_000, seed=1077)
        assert est.lo <= gamma_k(params) <= est.hi


def test_criterion_02_f_closed_form_vs_sampling():
    with _criterion(2, "closed-form vs sampling, skeleton-event probability"):
        for delta in (0.25, 1.0):
            for k in (1, 5):
                rates = truncate(harmonic(), k)
                params = SkeletonParams(delta=delta, b=1, k=k)
                hits = f_events(rates, params, trials=100_000,
                                seed=int(2000 + 10 * delta + k)).sum()
                est = EstimateWithCI.from_counts(int(hits), 100_000, z=3.0)
                assert est.lo <= f_probability(params, rates) <= est.hi, (delta, k)


def test_criterion_03_gamma_approaches_one():
    with _criterion(3, "bifurcation probability reaches 0.99 at finite k"):
        minimal = None
        for k in range(1, 200):
            if gamma_k(_bparams(k, harmonic(), harmonic())) > 0.99:
                minimal = k
                break
        assert minimal is not None
        for k in range(1, minimal):
            assert gamma_k(_bparams(k, harmonic(), harmonic())) <= 0.99
        print(f"minimal k with bifurcation probability > 0.99: {minimal}")


def test_criterion_04_red_cluster_reverification():
    with _criterion(4, "red clusters re-verify bond-by-bond, inclusion exact"):
        params = _bparams(30, harmonic(), harmonic())
        root = BondField(4040)
        for r in range(1000):
            fld = root.derive_replica(r)
            state = explore_red_cluster(fld, params, max_steps=25)
            assert reverify_red_cluster(fld, params, state), r
            # each successful bifurcation certifies both renormalized children
            for (m, n) in state.A:
                assert state.certificates.get((m, n + 1)), (r, m, n)
                assert state.certificates.get((m + 1, n + 1)), (r, m, n)


def test_criterion_05_domination_consequence():
    with _criterion(5, "conditional red frequency dominates gamma_k"):
        params = _bparams(20, harmonic(), harmonic())
        # 10^4 runs, expressed through the checked-in config
        (row,) = run_experiment(_cfg("redcluster", "domination.cfg", threads=8))
        assert "pooled_trials" in row["extra_params"]
        assert "violation=0" in row["extra_params"]
        assert row["ci_hi"] >= gamma_k(params)
        # the same check on a smaller sample
        (row,) = run_experiment(ExperimentConfig(
            "redcluster", seed=5050, reps=500, z=3.0,
            params={"pseq": "harmonic", "qseq": "harmonic", "beta": "1",
                    "k": "20", "steps": "12"}))
        assert "violation=0" in row["extra_params"]
        assert row["ci_hi"] >= gamma_k(params)
        # harmonic's p_1 = q_1 = 1 makes every bifurcation succeed at (1, 1);
        # at this law some fail, so the frequency is a real estimate below 1
        law = powerlaw(1.0, 0.7)
        rows = run_experiment(ExperimentConfig(
            "redcluster", seed=5050, reps=200, z=3.0,
            params={"pseq": "powerlaw:1,0.7", "qseq": "powerlaw:1,0.7", "beta": "2",
                    "k": "3,20", "steps": "40"}))
        for row in rows:
            assert "violation=0" in row["extra_params"], row["k"]
            assert row["estimate"] < 1.0, row["k"]
            assert row["ci_hi"] >= gamma_k(_bparams(row["k"], law, law, beta=2)), row["k"]


def test_criterion_06_site_percolation_oracle_and_crossing():
    with _criterion(6, "site-percolation exhaustive oracle and threshold scan"):
        exact = cone_survival(0.5, 3)
        counts = cone_survival_scan([0.5], [3], 100_000, seed=606)
        lo, hi = wilson_interval(int(counts[0, 0]), 100_000, z=3.0)
        assert lo <= exact <= hi
        # the same stream in 1000 chunks of 100 replicas: each chunk's rows
        # are its slice of the full run's, and the block counts spread as
        # independent draws do (one-sided, z <= 4)
        args = (np.array([0.5]), [3])
        least = run_replicas(renorm._cone_chunk, args, 606, 100_000, cap=renorm._SCAN_CELLS // 4)
        blocks = []
        for b in range(0, 100_000, 100):
            rows = renorm._cone_chunk(args, BondField(606), b, b + 100)
            assert np.array_equal(rows, least[b:b + 100]), b
            blocks.append(int((rows[:, 0] < 0.5).sum()))
        assert sum(blocks) == counts[0, 0]
        assert block_counts_z(blocks, exact, 100) <= 4.0
        cfg = _cfg("siteperc", "crossing.cfg", threads=2)
        gammas = [float(g) for g in cfg.params["gamma"].split(",")]
        scan = cone_survival_scan(gammas,
                                  [int(h) for h in cfg.params["horizon"].split(",")],
                                  cfg.reps, cfg.seed, cfg.threads)
        crossing = crossing_from_scan(gammas, scan)
        assert crossing is not None
        assert 0.69 <= crossing <= 0.72, crossing
        print(f"estimated site-percolation threshold: {crossing:.4f}")


def test_criterion_07_truncation_coupling_exact_subsets():
    with _criterion(7, "coupled truncation subsets, zero tolerance"):
        # oriented model: per-generation fronts nest exactly across k
        for r in range(1000):
            fld = BondField(707).derive_replica([r])
            fronts = {}
            for k in (1, 3):
                params = ExplorationParams(2, 4, 5, truncate(harmonic(), k),
                                           truncate(harmonic(), k))
                fronts[k] = explore(fld, params, collect=True).fronts
            for fs, fl in zip(fronts[1], fronts[3]):
                assert fs <= fl, r
        # contact model: infected sets nest across truncations of one
        # canonical mark family
        for r in range(1000):
            tl1 = sample_timeline(708, truncate(harmonic(), 1), box=2,
                                  horizon=1.5, d=1, replica=r)
            tl3 = sample_timeline(708, truncate(harmonic(), 3), box=2,
                                  horizon=1.5, d=1, replica=r)
            small = infected_at_horizon(tl1, k=1)
            assert small == infected_at_horizon(tl3, k=1), r
            assert small <= infected_at_horizon(tl3, k=3), r


def test_criterion_08_theorem_direction_trends():
    with _criterion(8, "survival nondecreasing in k for all three models"):
        for command, name in (("survival", "trend_g.cfg"),
                              ("contact", "trend_contact.cfg"),
                              ("star", "trend_star.cfg")):
            rows = run_experiment(_cfg(command, name, threads=8))
            ests = [row["estimate"] for row in rows]
            assert all(a <= b for a, b in zip(ests, ests[1:])), (name, ests)
            assert ests[-1] > 0.5, (name, ests)


def test_criterion_09_h_event_oracle():
    with _criterion(9, "exhaustive H-probability matches Monte Carlo"):
        rows = run_experiment(_cfg("hprob", "hprob_oracle.cfg"))
        (row,) = rows
        assert row["ci_lo"] <= 95.0 / 128.0 <= row["ci_hi"]
        # the row's records, read again: they sum to its count and spread
        # across blocks of 100 replicas as independent draws do
        crits = run_replicas(_hprob, (truncate(explicit([0.5, 0.5]), 2), 2), 42, 100000)
        hits = [c <= 2 for c in crits]
        assert sum(hits) == round(row["estimate"] * row["reps"])
        assert block_dispersion_z(hits, 95.0 / 128.0) <= 4.0


def test_criterion_10_determinism_across_thread_counts():
    with _criterion(10, "byte-identical CSV across thread counts"):
        outputs = [format_csv(run_experiment(_cfg("survival", "determinism.cfg",
                                                  threads=t)))
                   for t in (1, 8)]
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 3  # header + one row per k
