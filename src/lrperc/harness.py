"""Experiment orchestration: config resolution, the models' chunk kernels,
statistics, and CSV emission.

Outputs are a pure function of (config, seed): replicas draw from streams
derived only from their replica index, results merge commutatively, and
rows are emitted in a canonical order, so the worker count never changes a
byte of output.  Wall-clock time is no part of a row: `wall_seconds` is
always 0 and is kept only so the CSV keeps its 12 columns.

`PARAMS` holds each subcommand's keys, kinds and defaults.  A config
rejects any other key, read from a file or set in code; its `typed_params`
reads its texts against it, so the runners get typed values, and its hash
covers the defaults it ran with.  A kind carries its bounds too, so an
out-of-range value is refused by its key before any replica is drawn, and
the runners hold no range check.

Every chunk kernel, passed by function to `run_replicas`, returns a numpy
array with one row per replica of its chunk, and the runner counts from
the concatenated array.  A k-sweep kernel's row is the replica's critical
k, the least k at which the event holds (k_max + 1: at no k swept), an
int64; the row at k counts the replicas whose critical k is <= k.  The
star, `hprob` and contact kernels sweep each replica once, at the largest
k; the oriented kernel sweeps at truncation 1, 2, 4, ..., and each
replica stops at the first sweep that it survives.  Every k-sweep kernel
works on its chunk's replicas together: the star, `hprob` and oriented
kernels sweep them together, a later oriented sweep holding only the
chunk's replicas that the one before lost, and the contact kernel samples
their timelines together before it sweeps each.  Each model states one
replica's working set in bytes, in closed form and building nothing
(`oriented.replica_bytes`, `starlat.replica_bytes`, whose default is
`hprob`'s one line, and `contact.replica_bytes`), and `_k_estimates` caps
a chunk's replicas at `bondfield.chunk_cap` of it, the one chunk budget
(the cone scan does the same), so a chunk's memory does not grow with
reps.  How many replicas share a chunk never changes a record.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import contact, oriented, renorm, starlat
from .bondfield import chunk_cap, run_replicas
from .sequences import parse_sequence, truncate
from .stats import EstimateWithCI, wilson_interval

__all__ = [
    "PARAMS", "GLOBALS", "ExperimentConfig", "EstimateWithCI", "wilson_interval",
    "parse_config_file", "run_experiment", "emit_csv", "format_csv",
]


# -- chunk kernels: one row per replica of lo..hi-1 -------------------------------

def _surv_g(args, root, lo, hi):
    """Critical k of the oriented cluster at params.k = max(ks), or
    max(ks) + 1, by labelled sweeps at truncation 1, 2, 4, ... up to the
    first that survives; the chunk's replicas are swept together."""
    (params,) = args
    return oriented.critical_k(root.derive_replica(range(lo, hi)), params)


def _surv_contact(args, root, lo, hi):
    """Least infection label at the horizon of a timeline sampled at max(ks),
    or max(ks) + 1; the chunk's timelines are sampled together."""
    rates, box, horizon, d = args
    tls = contact.sample_timelines(root.seed, rates, box, horizon, d, range(lo, hi))
    return np.array([min(contact.infection_labels(tl, (0,) * d, 0.0, horizon).values(),
                         default=rates.k + 1) for tl in tls], dtype=np.int64)


def _surv_star(args, root, lo, hi):
    """Critical k of one labelled sweep at params.k = max(ks), or
    max(ks) + 1; the chunk's replicas are swept together."""
    params, horizon, window = args
    return starlat.block_path_critical_k(root, range(lo, hi), params, horizon, window)


def _hprob(args, root, lo, hi):
    """Critical k of the H-event of gamma(0), gamma(1), or max(ks) + 1; the
    chunk's lines are labelled together."""
    pseq, window = args
    return starlat.h_label_max(root, range(lo, hi), [[0]] * (hi - lo), 0, pseq, window)


def _domination(args, root, lo, hi):
    """(replicas, levels, 2) int64: per replica, (examined, red) of the red
    cluster at each of `levels`, all grown on the replica's one field."""
    levels, max_steps = args
    out = []
    for r in range(lo, hi):
        fld = root.derive_replica(r)
        examined = [renorm.explore_red_cluster(fld, p, max_steps).examined for p in levels]
        out.append([(len(e), sum(red for _, red, _ in e)) for e in examined])
    return np.array(out, dtype=np.int64)


# -- configuration ---------------------------------------------------------------

# A kind is (what "'<text>' is not ..." ends with, the parser of the text);
# the parser raises ValueError on a malformed or out-of-range text.
def _bounded(parse, ok):
    def read(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return read


SEQ = ("a sequence", parse_sequence)  # a bad one keeps parse_sequence's message
INT = ("an integer", int)
NAT = ("an integer >= 0", _bounded(int, lambda n: n >= 0))
POS = ("an integer >= 1", _bounded(int, lambda n: n >= 1))
NUM = ("a number", float)
FPOS = ("a finite positive number", _bounded(float, lambda x: 0 < x < math.inf))
INTS = ("a comma-separated list of integers", lambda text: [int(t) for t in text.split(",")])
NATS = ("a comma-separated list of integers >= 0", _bounded(INTS[1], lambda ns: min(ns) >= 0))
NUMS = ("a comma-separated list of numbers", lambda text: [float(t) for t in text.split(",")])
TEXT = ("text", str)


class _Copy(str):
    """A default that is the text of another key."""


# Each subcommand's keys in CLI order: key -> (kind, default text); None: required.
# A key keeps INT or NUM where a model object checks its range before sampling:
# survival's dim, horizon and window, beta, siteperc's gamma, star's eps and delta.
PARAMS = {
    "gamma": {"pseq": (SEQ, None), "qseq": (SEQ, None), "beta": (INT, None), "kmax": (POS, None)},
    "survival": {"pseq": (SEQ, None), "qseq": (SEQ, _Copy("pseq")), "dim": (INT, "2"),
                 "k": (NATS, None), "horizon": (INT, None), "window": (INT, None)},
    "redcluster": {"pseq": (SEQ, None), "qseq": (SEQ, None), "beta": (INT, None),
                   "k": (NATS, None), "steps": (POS, "100000")},
    "siteperc": {"gamma": (NUMS, None), "horizon": (NATS, None)},
    "contact": {"rates": (SEQ, None), "dim": (POS, "2"), "k": (NATS, None),
                "horizon": (FPOS, None), "window": (NAT, None)},
    "star": {"eps": (NUM, None), "pseq": (SEQ, None), "k": (NATS, None), "delta": (NUM, None),
             "horizon": (NAT, None), "window": (POS, None)},
    "hprob": {"pseq": (SEQ, None), "k": (NATS, None), "window": (POS, None)},
}
# the keys of every subcommand, with ExperimentConfig's defaults
GLOBALS = {"seed": INT, "reps": POS, "threads": POS, "z": FPOS, "out": TEXT}


def _parse(key: str, kind, text):
    name, parse = kind
    try:
        return parse(str(text))
    except ValueError as exc:
        detail = exc if kind is SEQ else f"{text!r} is not {name}"
        raise ValueError(f"--{key}: {detail}") from None


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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in PARAMS:
            raise ValueError(f"unknown experiment: {self.command!r}")
        for key in self.params:
            if key not in PARAMS[self.command]:
                raise ValueError(f"unknown key {key!r} for {self.command}")
        for key in ("seed", "reps", "threads", "z"):
            setattr(self, key, _parse(key, GLOBALS[key], getattr(self, key)))

    @classmethod
    def from_texts(cls, command: str, texts: dict) -> "ExperimentConfig":
        """The config of a file's or the flags' texts; `__post_init__` converts
        the GLOBALS."""
        return cls(command, **{key: text for key, text in texts.items() if key in GLOBALS},
                   params={key: text for key, text in texts.items() if key not in GLOBALS})

    def resolved(self) -> dict:
        """What the hash covers: the parameter texts, every default filled in."""
        texts = {key: text for key, text in self.params.items() if text is not None}
        for key, (_, default) in PARAMS[self.command].items():
            default = texts.get(default) if isinstance(default, _Copy) else default
            if default is not None:
                texts.setdefault(key, default)
        return {"command": self.command, "seed": self.seed, "reps": self.reps, "z": self.z,
                **dict(sorted(texts.items()))}

    def typed_params(self) -> dict:
        """The typed value of each key of PARAMS[command].  All missing keys
        are named at once; a malformed or out-of-range value is named by its
        key."""
        texts, keys = self.resolved(), PARAMS[self.command]
        missing = [repr(key) for key in keys if key not in texts]
        if missing:
            raise ValueError(f"{self.command}: missing required parameter"
                             f"{'s' if len(missing) > 1 else ''} {', '.join(missing)}")
        return {key: _parse(key, kind, texts[key]) for key, (kind, _) in keys.items()}

    def hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.resolved().items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- runners: (cfg, typed parameters) -> rows ----------------------------------------

def _k_estimates(cfg, ks, kernel, args, replica_bytes):
    """(k, estimate) for each k of `ks`, from one pass of `kernel`'s critical k
    over chunks of `chunk_cap(replica_bytes)` replicas at most."""
    crits = run_replicas(kernel, args, cfg.seed, cfg.reps, cfg.threads, chunk_cap(replica_bytes))
    hits = (crits[:, None] <= ks).sum(axis=0).tolist()
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
        "wall_seconds": 0.0,
    }


def _run_gamma(cfg, p):
    beta, kmax = p["beta"], p["kmax"]
    params = renorm.BifurcationParams(beta, truncate(p["pseq"], kmax), truncate(p["qseq"], kmax))
    return [_row(cfg, "renorm", k, "", "", {"beta": beta}, None, value=g)
            for k, g in enumerate(renorm.gamma_curve(params), start=1)]


def _run_survival(cfg, p):
    d, horizon, window, ks = p["dim"], p["horizon"], p["window"], p["k"]
    kmax = max(ks)
    params = oriented.ExplorationParams(d, horizon, window,
                                        truncate(p["pseq"], kmax), truncate(p["qseq"], kmax))
    return [_row(cfg, "g", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, _surv_g, (params,), oriented.replica_bytes(params))]


def _run_redcluster(cfg, p):
    beta, steps, ks = p["beta"], p["steps"], p["k"]
    distinct = list(dict.fromkeys(ks))  # one red cluster per distinct k
    levels = [renorm.BifurcationParams(beta, truncate(p["pseq"], k), truncate(p["qseq"], k))
              for k in distinct]
    recs = run_replicas(_domination, (levels, steps), cfg.seed, cfg.reps, cfg.threads)
    rows = []
    for k in ks:
        i = distinct.index(k)
        trials, reds = recs[:, i].sum(axis=0).tolist()
        est = EstimateWithCI.from_counts(reds, trials, cfg.z)
        g = renorm.gamma_k(levels[i])
        extra = {"beta": beta, "steps": steps, "gamma_k": f"{g:.6g}",
                 "pooled_trials": trials, "violation": int(est.hi < g)}
        rows.append(_row(cfg, "renorm", k, "", "", extra, est))
    return rows


def _run_siteperc(cfg, p):
    gammas, horizons = p["gamma"], p["horizon"]
    # one vectorized pass per chunk of replicas, coupled across gammas and horizons
    counts = renorm.cone_survival_scan(gammas, horizons, cfg.reps, cfg.seed, cfg.threads)
    rows = []
    for gi, gamma in enumerate(gammas):
        for hi, horizon in enumerate(sorted(horizons)):
            est = EstimateWithCI.from_counts(int(counts[gi, hi]), cfg.reps, cfg.z)
            rows.append(_row(cfg, "siteperc", "", horizon, "", {"gamma": gamma}, est))
    return rows


def _run_contact(cfg, p):
    d, horizon, window, ks = p["dim"], p["horizon"], p["window"], p["k"]
    args = (truncate(p["rates"], max(ks)), window, horizon, d)
    return [_row(cfg, "contact", k, horizon, window, {"dim": d}, est)
            for k, est in _k_estimates(cfg, ks, _surv_contact, args, contact.replica_bytes(*args))]


def _run_star(cfg, p):
    eps, delta, horizon, window, ks = p["eps"], p["delta"], p["horizon"], p["window"], p["k"]
    N = starlat.choose_N(eps, delta)
    args = (starlat.StarParams(eps, truncate(p["pseq"], max(ks)), N), horizon, window)
    nbytes = starlat.replica_bytes(args[0], horizon)
    return [_row(cfg, "gstar", k, horizon, window, {"eps": eps, "delta": delta, "N": N}, est)
            for k, est in _k_estimates(cfg, ks, _surv_star, args, nbytes)]


def _run_hprob(cfg, p):
    window, ks = p["window"], p["k"]
    args = (truncate(p["pseq"], max(ks)), window)
    return [_row(cfg, "gstar", k, "", window, {}, est)
            for k, est in _k_estimates(cfg, ks, _hprob, args, starlat.replica_bytes())]


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
    """Resolve the parameters, run the owning module and return the result
    table (row dicts)."""
    return _RUNNERS[cfg.command](cfg, cfg.typed_params())


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
