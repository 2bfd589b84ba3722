#!/usr/bin/env python3
"""lrperc benchmark: end-to-end cost of an estimate, and a traced per-layer
breakdown.

    python3 bench/run.py --workload oriented_ksweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to `bench/`.  Every measured experiment runs in a fresh interpreter
(`bench/job.py`), is timed from outside, and has its CSV checked.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
table and a record of the host.  See bench/README.md for the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB = BENCH / "job.py"
REFERENCE = BENCH / "reference"

COLUMNS = ["experiment", "model", "k", "seed", "reps", "horizon", "window",
           "extra_params", "estimate", "ci_lo", "ci_hi", "wall_seconds"]
Z_BOUND = 4.0            # level of the test against the reference CSV
POOL_WORKERS = 2         # never more than os.cpu_count()
SETUP_LAUNCHES = 5       # set-up-only interpreters per run, after one warm-up
MIN_ITERATIONS = 3       # measured experiments per run, whatever --seconds says
JOB_TIMEOUT_S = 60.0     # a job still running after this is killed and failed
RUN_BUDGET_S = 170.0     # no job is started or left running past this


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    params: tuple        # (flag, value) pairs of the experiment
    reps: int
    pooled: bool         # False: the experiment runs in one process
    why: str

    def sweep(self) -> list:
        """The coupled parameter of the experiment: k values, or gammas."""
        key = "gamma" if self.command == "siteperc" else "k"
        return [float(v) if key == "gamma" else int(v)
                for v in dict(self.params)[key].split(",")]

    def evaluations(self) -> int:
        """Replica evaluations per experiment: reps x number of k (or gamma)."""
        return self.reps * len(self.sweep())

    def argv(self, seed: int, workers: int) -> list:
        out = [self.command]
        for flag, value in self.params:
            out += [f"--{flag}", value]
        return out + ["--seed", str(seed), "--reps", str(self.reps),
                      "--threads", str(workers)]


# Parameters are those of the checked-in configs named in each `why`; they
# are copied here so that editing a config does not change the benchmark.
WORKLOADS = {w.name: w for w in [
    Workload("oriented_ksweep", "survival",
             (("pseq", "powerlaw:1,0.35"), ("qseq", "powerlaw:1,0.35"), ("dim", "2"),
              ("k", "1,2,4,8"), ("horizon", "20"), ("window", "15")),
             reps=25, pooled=True,
             why="trend_g.cfg k-sweep on 2 workers: oriented front sweep and "
                 "medium vector hash batches"),
    Workload("star_ksweep", "star",
             (("eps", "0.8"), ("pseq", "powerlaw:1,0.95"), ("k", "1,2,4"),
              ("delta", "0.5"), ("horizon", "16"), ("window", "8")),
             reps=68, pooled=True,
             why="trend_star.cfg k-sweep on 2 workers: scalar is_open draws in "
                 "H-event searches, vector path idle"),
    Workload("cone_scan", "siteperc",
             (("gamma", "0.60,0.62,0.64,0.66,0.68,0.70,0.72,0.74,0.76,0.78,0.80"),
              ("horizon", "64,128,256")),
             reps=1200, pooled=False,
             why="crossing.cfg grid in one process: huge vector hash batches and "
                 "large boolean arrays, no pool and no k-sweep"),
    Workload("contact_ksweep", "contact",
             (("rates", "powerlaw:1,0.6"), ("dim", "2"), ("k", "1,2,4"),
              ("horizon", "5"), ("window", "5")),
             reps=160, pooled=True,
             why="trend_contact.cfg k-sweep on 2 workers: Poisson inversion, "
                 "small vector batches and the Python event sweep"),
]}

# name -> (unit, better)
END_TO_END = {
    "replicas_per_s": ("1/s", "higher"),
    "run_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "bondfield.scalar.calls": ("count", "lower"),
    "bondfield.scalar.folds": ("count", "lower"),
    "bondfield.scalar.self_s": ("s", "lower"),
    "bondfield.scalar.us_per_call": ("us", "lower"),
    "bondfield.vector.calls": ("count", "lower"),
    "bondfield.vector.values": ("count", "lower"),
    "bondfield.vector.folds": ("count", "lower"),
    "bondfield.vector.mean_batch": ("values", "higher"),
    "bondfield.vector.self_s": ("s", "lower"),
    "bondfield.vector.ns_per_value": ("ns", "lower"),
    "bondfield.derive_replica.calls": ("count", "lower"),
    "bondfield.derive_replica.self_s": ("s", "lower"),
    "bondfield.share": ("fraction", "lower"),
    "oriented.explore.calls": ("count", "lower"),
    "oriented.explore.self_s": ("s", "lower"),
    "oriented.explore.tail_ms": ("ms", "lower"),
    "oriented.explore.tail_pct": ("%", "higher"),
    "oriented.vertices": ("count", "lower"),
    "oriented.ns_per_vertex": ("ns", "lower"),
    "contact.sample_timeline.calls": ("count", "lower"),
    "contact.sample_timeline.self_s": ("s", "lower"),
    "contact.poisson.calls": ("count", "lower"),
    "contact.poisson.self_s": ("s", "lower"),
    "contact.marks": ("count", "lower"),
    "contact.resamples": ("count", "lower"),
    "contact.infected_at_horizon.calls": ("count", "lower"),
    "contact.infected_at_horizon.self_s": ("s", "lower"),
    "contact.ns_per_mark": ("ns", "lower"),
    "starlat.block_path_survival.calls": ("count", "lower"),
    "starlat.block_path_survival.self_s": ("s", "lower"),
    "starlat.block_path_survival.tail_ms": ("ms", "lower"),
    "starlat.block_path_survival.tail_pct": ("%", "higher"),
    "starlat.check_zeta.calls": ("count", "lower"),
    "starlat.check_zeta.self_s": ("s", "lower"),
    "starlat.h_connected.calls": ("count", "lower"),
    "starlat.h_connected.self_s": ("s", "lower"),
    "starlat.h_connected.true_frac": ("fraction", "higher"),
    "starlat.scalar_per_zeta": ("count", "lower"),
    "renorm.cone_scan.self_s": ("s", "lower"),
    "renorm.cone_scan.sites": ("count", "lower"),
    "renorm.cone_scan.cells": ("count", "lower"),
    "renorm.cone_scan.ns_per_site": ("ns", "lower"),
    "renorm.cone_scan.bytes_computed": ("bytes", "lower"),
    "renorm.cone_scan.survivor_frac": ("fraction", "lower"),
    "harness.run_replicas.calls": ("count", "lower"),
    "harness.run_replicas.self_s": ("s", "lower"),
    "harness.kernel_calls_per_replica": ("count", "lower"),
    "harness.serial_run_s": ("s", "lower"),
    "harness.pool_speedup": ("ratio", "higher"),
    "harness.format_csv_s": ("s", "lower"),
    "bondfield.self_s": ("s", "lower"),
    "oriented.self_s": ("s", "lower"),
    "contact.self_s": ("s", "lower"),
    "starlat.self_s": ("s", "lower"),
    "renorm.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.resolve_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Layers whose self times, summed, make up the traced run_experiment span.
LAYERS = ("bondfield", "oriented", "contact", "starlat", "renorm", "harness")
KERNELS = ("oriented.explore", "contact.sample_timeline",
           "starlat.block_path_survival", "renorm.cone_scan")


# -- output check ---------------------------------------------------------------

def _rows(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    return header, list(reader)


def _key(wl: Workload, row: dict):
    if wl.command == "siteperc":
        extra = dict(kv.split("=", 1) for kv in row["extra_params"].split(";"))
        return (float(extra["gamma"]), int(row["horizon"]))
    return int(row["k"])


def _successes(row: dict) -> tuple[int, int]:
    reps = int(row["reps"])
    return round(float(row["estimate"]) * reps), reps


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def same_proportion_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-sided p-value of equal proportions x1/n1 and x2/n2 (Fisher's exact
    test: given x1 + x2 successes in all, x1 is hypergeometric).

    Exact rather than the normal approximation, which overstates the
    significance of rare events such as survival near 0 or 1."""
    total, hits = n1 + n2, x1 + x2
    lo, hi = max(0, hits - n2), min(hits, n1)
    norm = _log_comb(total, n1)

    def pmf(k):
        return math.exp(_log_comb(hits, k) + _log_comb(total - hits, n1 - k) - norm)

    step = 1 if x1 * total >= n1 * hits else -1   # walk away from the mean
    tail, k = 0.0, x1
    while lo <= k <= hi:
        term = pmf(k)
        tail += term
        if term < 1e-18 * tail and (k - x1) * step > 0 and term < pmf(k - step):
            break
        k += step
    return min(1.0, 2.0 * tail)


def check_csv(wl: Workload, text: str, seed: int, reference: str,
              serial: str | None) -> list[str]:
    """Problems found in one experiment's CSV; empty when it passes.

    Checks the header, the expected rows, exact coupling (nondecreasing in k
    and in gamma, nonincreasing in horizon), byte identity with the 1-worker
    CSV `serial`, and, for every estimate, equal proportions with
    `reference` by a two-sided test.  The test holds the whole CSV to the
    z=4 level (p = 6.3e-5), split evenly over its rows (Bonferroni), so a
    correct CSV of 33 correlated estimates is not 33 times likelier to fail
    than one of 3.
    """
    header, body = _rows(text)
    if header != COLUMNS:
        return [f"header {header!r}"]
    if any(len(r) != len(COLUMNS) for r in body):
        return ["ragged rows"]
    rows = [dict(zip(COLUMNS, r)) for r in body]
    sweep = wl.sweep()
    if wl.command == "siteperc":
        horizons = sorted(int(h) for h in dict(wl.params)["horizon"].split(","))
        expected = [(g, h) for g in sweep for h in horizons]
    else:
        expected = sweep
    problems = []
    try:
        keys = [_key(wl, r) for r in rows]
        counts = {_key(wl, r): _successes(r) for r in rows}
    except (KeyError, ValueError) as exc:
        return [f"unparsable row: {exc}"]
    if keys != expected:
        return [f"rows {keys} != expected {expected}"]
    for r in rows:
        if (r["experiment"], r["seed"], r["reps"]) != (wl.command, str(seed), str(wl.reps)):
            problems.append(f"row fields {r['experiment']},{r['seed']},{r['reps']}")
        if not 0.0 <= float(r["estimate"]) <= 1.0:
            problems.append(f"estimate {r['estimate']} outside [0, 1]")
    if wl.command == "siteperc":
        for h in horizons:
            line = [counts[(g, h)][0] for g in sweep]
            if line != sorted(line):
                problems.append(f"survival not nondecreasing in gamma at horizon {h}: {line}")
        for g in sweep:
            line = [counts[(g, h)][0] for h in horizons]
            if line != sorted(line, reverse=True):
                problems.append(f"survival not nonincreasing in horizon at gamma {g}: {line}")
    else:
        line = [counts[k][0] for k in sweep]
        if line != sorted(line):
            problems.append(f"survival not nondecreasing in k: {line}")
    if serial is not None and text != serial:
        problems.append("CSV differs from the 1-worker CSV")
    _, ref_body = _rows(reference)
    ref = {_key(wl, r): _successes(r) for r in (dict(zip(COLUMNS, b)) for b in ref_body)}
    level = math.erfc(Z_BOUND / math.sqrt(2.0)) / len(expected)
    for key in expected:
        if key not in ref:
            problems.append(f"no reference row for {key}")
            continue
        p = same_proportion_p(*counts[key], *ref[key])
        if p < level:
            problems.append(f"{key}: {counts[key]} vs reference {ref[key]}: "
                            f"p={p:.2g} beyond the z={Z_BOUND:g} level")
    return problems


# -- jobs -----------------------------------------------------------------------

def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class JobResult:
    ok: bool             # exited 0 and printed its stamps
    error: str
    pid: int             # also the id of the job's process group
    wall_s: float
    cpu_s: float
    stamps: dict

    def span(self, a: str, b: str) -> float:
        return self.stamps[b] - self.stamps[a]


def launch(spec: dict, timeout: float) -> JobResult:
    """Run bench/job.py once in its own session and wait for it.

    On timeout the whole session (the job and its pool workers) is killed.
    CPU time is the parent's RUSAGE_CHILDREN delta, which covers the job and
    every worker it waited for; only one job runs at a time.
    """
    # lrperc comes from the checkout only; a fixed hash seed keeps string
    # hashing, and so dict layout and timing, the same in every job
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = _now()
    proc = subprocess.Popen([sys.executable, str(JOB), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True, start_new_session=True)
    error = ""
    try:
        out, err = proc.communicate(timeout=max(0.1, timeout))
    except subprocess.TimeoutExpired:
        error = f"killed after {timeout:.0f} s"
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            _await_group_exit(proc.pid)
    t1 = _now()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    stamps = {}
    if not error and proc.returncode != 0:
        error = f"exit {proc.returncode}: " + " | ".join(err.strip().splitlines()[-3:])
    if not error:
        try:
            stamps = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = "no result line"
    if stamps:
        stamps["launch"] = t0
    return JobResult(not error, error, proc.pid, t1 - t0, cpu, stamps)


def _await_group_exit(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the killed job's group is left."""
    t_end = _now() + limit_s
    while _now() < t_end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# -- one workload ---------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pool_workers() -> int:
    return max(1, min(POOL_WORKERS, os.cpu_count() or 1))


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Run:
    """One bench run of one workload: jobs, their checks, and the metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float, deadline: float, log):
        self.wl, self.seed, self.seconds, self.deadline = wl, seed, seconds, deadline
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.setup = []          # JobResults of set-up-only jobs
        self.reference = (REFERENCE / f"{wl.name}.csv").read_text()
        self.serial_csv = None
        self.measured = []       # JobResults the metrics are taken from

    def _job(self, workers: int, trace=False, setup_only=False) -> JobResult:
        spec = {"root": str(ROOT), "argv": self.wl.argv(self.seed, workers),
                "trace": trace, "setup_only": setup_only}
        return launch(spec, min(JOB_TIMEOUT_S, self.deadline - _now()))

    def time_left(self) -> bool:
        return self.deadline - _now() > 5.0

    def experiment(self, workers: int, trace=False) -> JobResult | None:
        """One checked experiment; None when it failed (it is counted)."""
        self.attempted += 1
        res = self._job(workers, trace=trace)
        problems = [res.error] if not res.ok else check_csv(
            self.wl, res.stamps["csv_text"], self.seed, self.reference, self.serial_csv)
        if problems:
            self.failed += 1
            self.log(f"FAILED {self.wl.name} workers={workers} trace={trace}: "
                     + "; ".join(problems[:5]))
            return None
        return res

    def measure_setup(self) -> None:
        self._job(1, setup_only=True)  # warm-up: compiles bytecode, fills caches
        for _ in range(SETUP_LAUNCHES):
            res = self._job(1, setup_only=True)
            if not res.ok:
                raise RuntimeError(f"set-up failed: {res.error}")
            self.setup.append(res)

    def serial(self) -> JobResult | None:
        """The untraced 1-worker run: the byte-identity reference."""
        res = self.experiment(1)
        if res is not None:
            self.serial_csv = res.stamps["csv_text"]
        return res

    def repeat(self, workers: int, trace: bool, at_least: int) -> list:
        """Experiments that passed, of those run for `seconds` (and at least
        `at_least` attempts) while the run's time budget lasts."""
        passed = []
        t_end = _now() + self.seconds
        for attempt in itertools.count():
            if not self.time_left() or (attempt >= at_least and _now() >= t_end):
                break
            res = self.experiment(workers, trace=trace)
            if res is not None:
                passed.append(res)
        self.measured = passed
        return passed

    def end_to_end(self) -> tuple[dict, dict]:
        """Medians over the pooled experiments run for `seconds`."""
        workers = _pool_workers() if self.wl.pooled else 1
        runs = self.repeat(workers, trace=False, at_least=MIN_ITERATIONS)
        setups = self.setup + runs
        samples = {
            "replicas_per_s": [self.wl.evaluations() / r.span("resolve", "run") for r in runs],
            "run_s": [r.span("resolve", "run") for r in runs],
            "wall_s": [r.wall_s for r in runs],
            "setup_s": [r.span("launch", "resolve") for r in setups],
            "cpu_s": [r.cpu_s for r in runs],
            "peak_rss_mb": [r.stamps["peak_rss_kb"] / 1024.0 for r in runs],
        }
        return {k: _median(v) for k, v in samples.items()}, {k: len(v) for k, v in samples.items()}

    def per_layer(self, serial: JobResult | None) -> tuple[dict, dict]:
        """Medians over traced 1-worker runs, repeated for `seconds`; the
        span counts must repeat exactly and the CSV must equal the untraced
        1-worker CSV."""
        pool = self.experiment(_pool_workers()) if self.wl.pooled else serial
        traced = self.repeat(1, trace=True, at_least=2)
        counts = [_span_counts(r.stamps["spans"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            self.failed += 1
            self.log(f"FAILED {self.wl.name}: span counts differ between traced runs")
        experiments = [serial] if pool is serial else [serial, pool]
        untraced = self.setup + [r for r in experiments if r is not None]
        serial_s = serial.span("resolve", "run") if serial else 0.0
        pool_s = pool.span("resolve", "run") if pool else 0.0
        samples = {
            "harness.serial_run_s": [serial_s] if serial else [],
            "harness.pool_speedup": [serial_s / pool_s] if pool_s else [],
            "harness.format_csv_s": [r.span("run", "csv") for r in untraced
                                     if "csv" in r.stamps],
            "setup.import_s": [r.span("start", "import") for r in untraced],
            "setup.resolve_s": [r.span("import", "resolve") for r in untraced],
        }
        per_run = [layer_metrics(r.stamps["spans"], self.wl, serial_s) for r in traced]
        for name in PER_LAYER.keys() - samples.keys():
            samples[name] = [m[name] for m in per_run]
        return ({k: _median(v) for k, v in samples.items()},
                {k: len(v) for k, v in samples.items()})


def _span_counts(spans: dict) -> dict:
    return {span: {k: v for k, v in row.items() if not k.endswith(("_s", "_ms"))}
            for span, row in spans.items()}


def layer_metrics(spans: dict, wl: Workload, serial_run_s: float) -> dict:
    """Per-layer metrics of one traced run, from the span table of spans.py."""
    def get(span, key):
        return float(spans.get(span, {}).get(key, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = get("harness.run_experiment", "total_s")
    m = {}
    for span, keys in [
        ("bondfield.scalar", ("calls", "folds", "self_s")),
        ("bondfield.vector", ("calls", "values", "folds", "self_s")),
        ("bondfield.derive_replica", ("calls", "self_s")),
        ("oriented.explore", ("calls", "self_s", "tail_ms", "tail_pct")),
        ("contact.sample_timeline", ("calls", "self_s")),
        ("contact.poisson", ("calls", "self_s")),
        ("contact.infected_at_horizon", ("calls", "self_s")),
        ("starlat.block_path_survival", ("calls", "self_s", "tail_ms", "tail_pct")),
        ("starlat.check_zeta", ("calls", "self_s")),
        ("starlat.h_connected", ("calls", "self_s")),
        ("renorm.cone_scan", ("self_s", "sites", "cells")),
        ("harness.run_replicas", ("calls", "self_s")),
    ]:
        for key in keys:
            m[f"{span}.{key}"] = get(span, key)
    m["bondfield.scalar.us_per_call"] = 1e6 * ratio(m["bondfield.scalar.self_s"],
                                                    m["bondfield.scalar.calls"])
    m["bondfield.vector.mean_batch"] = ratio(m["bondfield.vector.values"],
                                             m["bondfield.vector.calls"])
    m["bondfield.vector.ns_per_value"] = 1e9 * ratio(m["bondfield.vector.self_s"],
                                                     m["bondfield.vector.values"])
    m["oriented.vertices"] = get("oriented.explore", "vertices")
    m["oriented.ns_per_vertex"] = 1e9 * ratio(get("oriented.explore", "total_s"),
                                              m["oriented.vertices"])
    m["contact.marks"] = get("contact.sample_timeline", "marks")
    m["contact.resamples"] = get("contact.sample_timeline", "resamples")
    m["contact.ns_per_mark"] = 1e9 * ratio(get("contact.sample_timeline", "total_s")
                                           + get("contact.infected_at_horizon", "total_s"),
                                           m["contact.marks"])
    m["starlat.h_connected.true_frac"] = ratio(get("starlat.h_connected", "true"),
                                               m["starlat.h_connected.calls"])
    m["starlat.scalar_per_zeta"] = ratio(m["bondfield.scalar.calls"],
                                         m["starlat.check_zeta.calls"])
    sites = m["renorm.cone_scan.sites"]
    m["renorm.cone_scan.ns_per_site"] = 1e9 * ratio(get("renorm.cone_scan", "total_s"), sites)
    # computed, not measured: the uint64 hash state and float64 uniform per
    # site, plus the reach, comparison and alive booleans per (gamma, site)
    m["renorm.cone_scan.bytes_computed"] = 16 * sites + 3 * m["renorm.cone_scan.cells"]
    m["renorm.cone_scan.survivor_frac"] = ratio(get("renorm.cone_scan", "survivors"),
                                                get("renorm.cone_scan", "lanes"))
    m["harness.kernel_calls_per_replica"] = ratio(sum(get(k, "calls") for k in KERNELS),
                                                  wl.reps)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for span, row in spans.items()
                                   if span.startswith(layer + ".")
                                   and span != "harness.format_csv")
    m["bondfield.share"] = ratio(m["bondfield.self_s"], run_s)
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = run_s - serial_run_s
    return m


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, deadline: float,
                 log) -> tuple[dict, dict, int, int]:
    """(metrics, sample counts, attempted, failed) of one workload."""
    run = Run(wl, seed, seconds, deadline, log)
    load_before = os.getloadavg()[0]
    run.measure_setup()
    serial = run.serial()
    if trace:
        metrics, samples = run.per_layer(serial)
    else:
        metrics, samples = run.end_to_end()
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "src_sha256": _src_digest(), "nproc": os.cpu_count(),
        "pool_workers": _pool_workers() if wl.pooled else 1,
        "python": platform.python_version(), "numpy": run.setup[0].stamps["numpy"],
        "load1_before": load_before, "load1_after": os.getloadavg()[0],
        "attempted": run.attempted, "failed": run.failed,
        "run_s": [round(r.span("resolve", "run"), 4) for r in run.measured],
    }
    log("record " + json.dumps(record))
    return metrics, samples, run.attempted, run.failed


# -- entry point ----------------------------------------------------------------

def _preflight() -> str | None:
    """Why the program cannot be benchmarked here, or None."""
    for path in [ROOT / "src" / "lrperc" / "__init__.py", JOB,
                 *(REFERENCE / f"{name}.csv" for name in WORKLOADS)]:
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated bench still kills and waits for its running job (launch's
    # finally clause), instead of leaving the job and its workers behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**62:
        parser.error("--seed must lie in [0, 2**62)")
    problem = _preflight()
    if problem:
        print(f"error: {problem}; run from a checkout of the repository", file=sys.stderr)
        return 2

    def log(line):
        print(f"# {line}", flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    table = END_TO_END if not args.trace else PER_LAYER
    metrics_out, attempted, failed = {}, 0, 0
    for name in names:
        deadline = _now() + RUN_BUDGET_S
        try:
            metrics, samples, att, fail = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline, log)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        attempted += att
        failed += fail
        log(f"{name}: failed_frac {fail / att:.4g} (failed {fail} of {att} runs)")
        for metric, (unit, _) in table.items():
            log(f"{name}: {metric} {metrics[metric]:.6g} {unit} (n={samples[metric]})")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics_out[key] = {"value": metrics[metric], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
