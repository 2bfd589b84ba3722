"""Experiment orchestration: config resolution, parallel replica scheduling,
statistics, and CSV emission.

Outputs are a pure function of (config, seed): replicas draw from streams
derived only from their replica index, results merge commutatively, and
rows are emitted in a canonical order, so the worker count never changes a
byte of output.  Wall-clock timing is therefore reported as 0 unless the
`timing` switch is set, in which case byte-stability across runs is
forfeited by construction.

A k-sweep kernel sweeps its replica once, at the largest k, and returns its
critical k, the least k at which the event holds (None: at no k swept); the
row at k counts the replicas whose critical k is <= k.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import contact, oriented, renorm, starlat
from .bondfield import BondField
from .sequences import parse_sequence, truncate
from .stats import EstimateWithCI, wilson_interval

__all__ = [
    "ExperimentConfig", "EstimateWithCI", "wilson_interval",
    "parse_config_file", "run_experiment", "emit_csv", "format_csv",
]


# -- replica scheduling --------------------------------------------------------

def _surv_g(args, root, r):
    """Critical k of one labelled sweep at params.k = max(ks), or None."""
    (params,) = args
    return oriented.explore(root.derive_replica(r), params).critical_k


def _surv_contact(args, root, r):
    """Least infection label at the horizon of a timeline sampled at max(ks)."""
    rates, box, horizon, d = args
    tl = contact.sample_timeline(root.seed, rates, box, horizon, d, replica=r)
    return min(contact.infection_labels(tl, (0,) * d, 0.0, horizon).values(), default=None)


def _surv_star(args, root, r):
    """Critical k of one labelled sweep at params.k = max(ks), or None."""
    block, params, horizon, window = args
    return starlat.block_path_critical_k(root.derive_replica(r), block, params, horizon, window)


def _hprob(args, root, r):
    """Critical k of the H-event of gamma(0), gamma(1), by one lazy search."""
    params, window = args
    label = starlat.h_label(root.derive_replica(r), 0, 0, params, window)
    return label if label <= params.k else None


def _bifurcation(args, root, r):
    (params,) = args
    fld = root.derive_replica(r)
    return 1 if renorm.check_bifurcation(fld, ((0, 0), 0), params).success else 0


def _domination(args, root, r):
    params, max_steps = args
    state = renorm.explore_red_cluster(root.derive_replica(r), params, max_steps)
    reds = sum(red for _, red, _ in state.examined)
    return (len(state.examined), reds)


_REPLICA_FNS = {
    "surv_g": _surv_g,
    "surv_contact": _surv_contact,
    "surv_star": _surv_star,
    "hprob": _hprob,
    "bifurcation": _bifurcation,
    "domination": _domination,
}


def _chunk_worker(task):
    """Records of replicas lo..hi-1; each kernel reads replica r's stream
    from the root field BondField(seed), built once per chunk."""
    name, args, seed, lo, hi = task
    fn = _REPLICA_FNS[name]
    root = BondField(seed)
    return [fn(args, root, r) for r in range(lo, hi)]


def run_replicas(name: str, args, seed: int, reps: int, threads: int = 1) -> list:
    """Per-replica records in replica order; workers are stateless, so the
    schedule cannot influence the result.

    `threads` worker processes are started at most; never more than there
    are cores or chunks of work.
    """
    if reps < 1:
        raise ValueError("replica count must be >= 1")
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers <= 1:
        return _chunk_worker((name, args, seed, 0, reps))
    chunk = max(1, (reps + 4 * workers - 1) // (4 * workers))
    tasks = [(name, args, seed, lo, min(lo + chunk, reps))
             for lo in range(0, reps, chunk)]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for part in ex.map(_chunk_worker, tasks):
            out.extend(part)
    return out


# -- configuration ---------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Flat `key = value` text with `#` comments."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    reps: int = 100
    threads: int = 1
    out: str | None = None
    z: float = 1.96
    timing: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in _RUNNERS:
            raise ValueError(f"unknown experiment: {self.command!r}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 < self.z < math.inf:
            raise ValueError(f"z must be finite and positive, got {self.z}")

    def resolved(self) -> dict:
        d = {"command": self.command, "seed": self.seed, "reps": self.reps,
             "z": self.z}
        d.update(sorted(self.params.items()))
        return d

    def hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.resolved().items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _need(cfg: ExperimentConfig, key: str) -> str:
    if key not in cfg.params or cfg.params[key] in (None, ""):
        raise ValueError(f"{cfg.command}: missing required parameter {key!r}")
    return cfg.params[key]


def _list(cfg: ExperimentConfig, key: str, parse, kind: str) -> list:
    text = str(_need(cfg, key))
    try:
        return [parse(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--{key}: {text!r} is not a comma-separated list of {kind}") from None


def _int_list(cfg: ExperimentConfig, key: str) -> list[int]:
    return _list(cfg, key, int, "integers")


def _float_list(cfg: ExperimentConfig, key: str) -> list[float]:
    return _list(cfg, key, float, "numbers")


def _ks(cfg: ExperimentConfig) -> tuple:
    """The --k list, in its order and with its duplicates, checked before
    any sampling."""
    ks = tuple(_int_list(cfg, "k"))
    if min(ks) < 0:
        raise ValueError("truncation range must be nonnegative")
    return ks


def _star_window(cfg: ExperimentConfig) -> int:
    window = int(_need(cfg, "window"))
    if window < 1:
        raise ValueError("window must be >= 1")
    return window


# -- runners ----------------------------------------------------------------------

def _k_estimates(cfg, ks, crits):
    """(k, estimate) for each k of `ks`, from each replica's critical k."""
    hits = [sum(c is not None and c <= k for c in crits) for k in ks]
    return [(k, EstimateWithCI.from_counts(h, cfg.reps, cfg.z)) for k, h in zip(ks, hits)]


def _row(cfg, model, k, horizon, window, extra, est: EstimateWithCI | None,
         value=None):
    e = dict(extra)
    e["config"] = cfg.hash()
    return {
        "experiment": cfg.command, "model": model, "k": k,
        "seed": cfg.seed, "reps": cfg.reps, "horizon": horizon, "window": window,
        "extra_params": ";".join(f"{a}={b}" for a, b in sorted(e.items())),
        "estimate": est.estimate if est else value,
        "ci_lo": est.lo if est else value,
        "ci_hi": est.hi if est else value,
    }


def _run_gamma(cfg: ExperimentConfig):
    pseq = parse_sequence(_need(cfg, "pseq"))
    qseq = parse_sequence(_need(cfg, "qseq"))
    beta = int(_need(cfg, "beta"))
    kmax = int(_need(cfg, "kmax"))
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    rows = []
    for k in range(1, kmax + 1):
        params = renorm.BifurcationParams(k, beta, truncate(pseq, k), truncate(qseq, k))
        rows.append(_row(cfg, "renorm", k, "", "", {"beta": beta},
                         None, value=renorm.gamma_k(params)))
    return rows


def _run_survival(cfg: ExperimentConfig):
    d = int(cfg.params.get("dim", 2))
    pseq = parse_sequence(_need(cfg, "pseq"))
    qseq = parse_sequence(cfg.params.get("qseq") or _need(cfg, "pseq"))
    horizon = int(_need(cfg, "horizon"))
    window = int(_need(cfg, "window"))
    ks = _ks(cfg)
    kmax = max(ks)
    params = oriented.ExplorationParams(d, kmax, horizon, window,
                                        truncate(pseq, kmax), truncate(qseq, kmax))
    crits = run_replicas("surv_g", (params,), cfg.seed, cfg.reps, cfg.threads)
    return [_row(cfg, "g", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, crits)]


def _run_redcluster(cfg: ExperimentConfig):
    pseq = parse_sequence(_need(cfg, "pseq"))
    qseq = parse_sequence(_need(cfg, "qseq"))
    beta = int(_need(cfg, "beta"))
    steps = int(cfg.params.get("steps", 100_000))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rows = []
    for k in _ks(cfg):
        params = renorm.BifurcationParams(k, beta, truncate(pseq, k), truncate(qseq, k))
        recs = run_replicas("domination", (params, steps), cfg.seed, cfg.reps, cfg.threads)
        trials = sum(t for t, _ in recs)
        reds = sum(s for _, s in recs)
        est = EstimateWithCI.from_counts(reds, trials, cfg.z)
        g = renorm.gamma_k(params)
        extra = {"beta": beta, "steps": steps, "gamma_k": f"{g:.6g}",
                 "pooled_trials": trials, "violation": int(est.hi < g)}
        rows.append(_row(cfg, "renorm", k, "", "", extra, est))
    return rows


def _run_siteperc(cfg: ExperimentConfig):
    horizons = _int_list(cfg, "horizon")
    gammas = _float_list(cfg, "gamma")
    # one vectorized pass, coupled across gammas and horizons
    counts = renorm.cone_survival_scan(gammas, horizons, cfg.reps, cfg.seed)
    rows = []
    for gi, gamma in enumerate(gammas):
        for hi, horizon in enumerate(sorted(horizons)):
            est = EstimateWithCI.from_counts(int(counts[gi, hi]), cfg.reps, cfg.z)
            rows.append(_row(cfg, "siteperc", "", horizon, "", {"gamma": gamma}, est))
    return rows


def _run_contact(cfg: ExperimentConfig):
    d = int(cfg.params.get("dim", 2))
    rates = parse_sequence(_need(cfg, "rates"))
    horizon = float(_need(cfg, "horizon"))
    window = int(_need(cfg, "window"))
    ks = _ks(cfg)
    args = (truncate(rates, max(ks)), window, horizon, d)
    crits = run_replicas("surv_contact", args, cfg.seed, cfg.reps, cfg.threads)
    return [_row(cfg, "contact", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, crits)]


def _run_star(cfg: ExperimentConfig):
    eps = float(_need(cfg, "eps"))
    pseq = parse_sequence(_need(cfg, "pseq"))
    delta = float(_need(cfg, "delta"))
    horizon = int(_need(cfg, "horizon"))
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    window = _star_window(cfg)
    ks = _ks(cfg)
    N = starlat.choose_N(eps, delta)
    block = starlat.BlockParams(N, delta)
    params = starlat.StarParams(eps, truncate(pseq, max(ks)))
    crits = run_replicas("surv_star", (block, params, horizon, window),
                         cfg.seed, cfg.reps, cfg.threads)
    return [_row(cfg, "gstar", k, horizon, window, {"eps": eps, "delta": delta, "N": N}, est)
            for k, est in _k_estimates(cfg, ks, crits)]


def _run_hprob(cfg: ExperimentConfig):
    pseq = parse_sequence(_need(cfg, "pseq"))
    window = _star_window(cfg)
    ks = _ks(cfg)
    eps = float(cfg.params.get("eps", 0.5))
    params = starlat.StarParams(eps, truncate(pseq, max(ks)))
    crits = run_replicas("hprob", (params, window), cfg.seed, cfg.reps, cfg.threads)
    return [_row(cfg, "gstar", k, "", window, {}, est)
            for k, est in _k_estimates(cfg, ks, crits)]


_RUNNERS = {
    "gamma": _run_gamma,
    "survival": _run_survival,
    "redcluster": _run_redcluster,
    "siteperc": _run_siteperc,
    "contact": _run_contact,
    "star": _run_star,
    "hprob": _run_hprob,
}


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Dispatch to the owning module and return the result table (row dicts)."""
    t0 = time.perf_counter()
    rows = _RUNNERS[cfg.command](cfg)
    wall = time.perf_counter() - t0 if cfg.timing else 0.0
    for row in rows:
        row["wall_seconds"] = wall
    return rows


# -- CSV ----------------------------------------------------------------------------

_COLUMNS = ["experiment", "model", "k", "seed", "reps", "horizon", "window",
            "extra_params", "estimate", "ci_lo", "ci_hi", "wall_seconds"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return "" if v is None else str(v)


def format_csv(rows) -> str:
    lines = [",".join(_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in _COLUMNS))
    return "\n".join(lines) + "\n"


def emit_csv(rows, path: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(format_csv(rows))
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc
