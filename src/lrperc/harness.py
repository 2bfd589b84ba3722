"""Experiment orchestration: config resolution, the models' chunk kernels,
statistics, and CSV emission.

Outputs are a pure function of (config, seed): replicas draw from streams
derived only from their replica index, results merge commutatively, and
rows are emitted in a canonical order, so the worker count never changes a
byte of output.  Wall-clock timing is therefore reported as 0 unless the
`timing` switch is set, in which case byte-stability across runs is
forfeited by construction.

A k-sweep chunk kernel, passed by function to `run_replicas`, sweeps each
replica once, at the largest k, and returns its critical k, the least k at
which the event holds (None: at no k swept); the row at k counts the
replicas whose critical k is <= k.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

from . import contact, oriented, renorm, starlat
from .bondfield import run_replicas
from .sequences import parse_sequence, truncate
from .stats import EstimateWithCI, wilson_interval

__all__ = [
    "ExperimentConfig", "EstimateWithCI", "wilson_interval",
    "parse_config_file", "run_experiment", "emit_csv", "format_csv",
]


# -- chunk kernels: the records of replicas lo..hi-1 ------------------------------

def _surv_g(args, root, lo, hi):
    """Critical k of one labelled sweep at params.k = max(ks), or None."""
    (params,) = args
    return [oriented.explore(root.derive_replica(r), params).critical_k for r in range(lo, hi)]


def _surv_contact(args, root, lo, hi):
    """Least infection label at the horizon of a timeline sampled at max(ks)."""
    rates, box, horizon, d = args
    tls = (contact.sample_timeline(root.seed, rates, box, horizon, d, replica=r)
           for r in range(lo, hi))
    return [min(contact.infection_labels(tl, (0,) * d, 0.0, horizon).values(), default=None)
            for tl in tls]


def _surv_star(args, root, lo, hi):
    """Critical k of one labelled sweep at params.k = max(ks), or None."""
    block, params, horizon, window = args
    return [starlat.block_path_critical_k(root.derive_replica(r), block, params, horizon, window)
            for r in range(lo, hi)]


def _hprob(args, root, lo, hi):
    """Critical k of the H-event of gamma(0), gamma(1), by one lazy search."""
    params, window = args
    labels = (starlat.h_label(root.derive_replica(r), 0, 0, params, window) for r in range(lo, hi))
    return [label if label <= params.k else None for label in labels]


def _bifurcation(args, root, lo, hi):
    (params,) = args
    return [int(renorm.check_bifurcation(root.derive_replica(r), ((0, 0), 0), params).success)
            for r in range(lo, hi)]


def _domination(args, root, lo, hi):
    """Per replica, (examined, red) of the red cluster at each of `levels`,
    all grown on the replica's one field."""
    levels, max_steps = args
    out = []
    for r in range(lo, hi):
        fld = root.derive_replica(r)
        examined = [renorm.explore_red_cluster(fld, p, max_steps).examined for p in levels]
        out.append([(len(e), sum(red for _, red, _ in e)) for e in examined])
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

def _k_estimates(cfg, ks, kernel, args):
    """(k, estimate) for each k of `ks`, from one pass of `kernel`'s critical k."""
    crits = run_replicas(kernel, args, cfg.seed, cfg.reps, cfg.threads)
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
    return [_row(cfg, "g", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, _surv_g, (params,))]


def _run_redcluster(cfg: ExperimentConfig):
    pseq = parse_sequence(_need(cfg, "pseq"))
    qseq = parse_sequence(_need(cfg, "qseq"))
    beta = int(_need(cfg, "beta"))
    steps = int(cfg.params.get("steps", 100_000))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ks = _ks(cfg)
    levels = [renorm.BifurcationParams(k, beta, truncate(pseq, k), truncate(qseq, k)) for k in ks]
    recs = run_replicas(_domination, (levels, steps), cfg.seed, cfg.reps, cfg.threads)
    rows = []
    for i, (k, params) in enumerate(zip(ks, levels)):
        trials = sum(rec[i][0] for rec in recs)
        reds = sum(rec[i][1] for rec in recs)
        est = EstimateWithCI.from_counts(reds, trials, cfg.z)
        g = renorm.gamma_k(params)
        extra = {"beta": beta, "steps": steps, "gamma_k": f"{g:.6g}",
                 "pooled_trials": trials, "violation": int(est.hi < g)}
        rows.append(_row(cfg, "renorm", k, "", "", extra, est))
    return rows


def _run_siteperc(cfg: ExperimentConfig):
    horizons = _int_list(cfg, "horizon")
    gammas = _float_list(cfg, "gamma")
    # one vectorized pass per chunk of replicas, coupled across gammas and horizons
    counts = renorm.cone_survival_scan(gammas, horizons, cfg.reps, cfg.seed, cfg.threads)
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
    return [_row(cfg, "contact", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, _surv_contact, args)]


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
    args = (block, params, horizon, window)
    return [_row(cfg, "gstar", k, horizon, window, {"eps": eps, "delta": delta, "N": N}, est)
            for k, est in _k_estimates(cfg, ks, _surv_star, args)]


def _run_hprob(cfg: ExperimentConfig):
    pseq = parse_sequence(_need(cfg, "pseq"))
    window = _star_window(cfg)
    ks = _ks(cfg)
    eps = float(cfg.params.get("eps", 0.5))
    params = starlat.StarParams(eps, truncate(pseq, max(ks)))
    return [_row(cfg, "gstar", k, "", window, {}, est)
            for k, est in _k_estimates(cfg, ks, _hprob, (params, window))]


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
