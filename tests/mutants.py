"""The mutation catalog: faults planted by hand in the package, each with
the tests that must fail on it.

A record names a file under `src/`, an exact snippet that occurs once in
it, the snippet's replacement (the mutant), the test ids that kill the
mutant and the change that found it.  `tests/test_mutants.py` checks, in
the suite, that every snippet still occurs exactly once and that every
killer id collects, so a change that moves code under a mutant updates
its record.  This file also runs the catalog; pytest does not collect it:

    python tests/mutants.py [NAME ...]

It first runs the chosen mutants' killers on an unmutated copy of `src/`,
which must pass, and stops there with exit code 2 if they do not.  Then
for each mutant (all, or those named) it copies `src/` into a temporary
directory of its own, applies the mutant there, runs only its killers
against that copy (`PYTHONPATH` at the copy, `pytest -x`) and requires
them to fail.  The mutants run concurrently, one per CPU this process
may use.  It prints one line per mutant as it ends and the kill count,
and exits 1 if a mutant survives; a collection error is no kill.  A mutant whose killers run past
`_TIMEOUT_S` counts as killed, since a hang is a failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str          # relative to the repository root
    snippet: str       # occurs exactly once in `file`
    replacement: str
    killers: tuple     # pytest node ids, relative to the repository root
    found: str         # the change that found it


MUTANTS = [
    # -- stream layer -----------------------------------------------------------
    Mutant("fold-wrong-shift", "src/lrperc/bondfield.py",
           "np.right_shift(h, _S27, out=t)", "np.right_shift(h, _S30, out=t)",
           ("tests/test_bondfield.py::test_frozen_states",),
           "cone scan on integer labels (2da226a)"),
    Mutant("prefix-reversed", "src/lrperc/bondfield.py",
           "_base=self.states(words))", "_base=self.states(words[::-1]))",
           ("tests/test_bondfield.py::test_frozen_stream_through_take_and_prefix",),
           "one batched fold loop (ab0e5ab)"),
    Mutant("vector-draw-on-one-replica", "src/lrperc/bondfield.py",
           "h = self._base\n        if not np.ndim(h):",
           "h = self._base\n        if np.ndim(h) < 0:",
           ("tests/test_bondfield.py::test_vector_draw_on_single_replica_field_rejected",),
           "one form per sampling input"),
    Mutant("shape-of-one-replica", "src/lrperc/bondfield.py",
           "if not np.ndim(self._base):", "if np.ndim(self._base) < 0:",
           ("tests/test_oriented.py::test_sweeps_refuse_a_single_replica_field",),
           "one form per sampling input"),
    Mutant("destination-without-column", "src/lrperc/bondfield.py",
           " or (out is not None and not len(word_columns))", "",
           ("tests/test_bondfield.py::test_frozen_states_into_a_destination",),
           "one form per sampling input"),
    Mutant("take-of-one-replica", "src/lrperc/bondfield.py",
           "if not np.ndim(base):", "if np.ndim(base) < 0:",
           ("tests/test_bondfield.py::test_take_selects_a_batch_only",),
           "cone scan without full-window reductions"),
    Mutant("usable-cpus-from-host-count", "src/lrperc/bondfield.py",
           "return len(os.sched_getaffinity(0))", "return os.cpu_count()",
           ("tests/test_harness.py::test_run_replicas_counts_the_cpus_the_process_may_use",),
           "no idle BLAS thread pool (78c56d5)"),
    Mutant("blas-threads-unset", "src/lrperc/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")', "pass",
           ("tests/test_harness.py::test_import_starts_no_blas_thread",),
           "no idle BLAS thread pool (78c56d5)"),
    # -- cone scan --------------------------------------------------------------
    Mutant("prune-bound-floor", "src/lrperc/renorm.py",
           "math.ceil(top * 2**53)", "math.floor(top * 2**53)",
           ("tests/test_renorm.py::test_cone_scan_prune_bound_is_exact_at_a_site_uniform",),
           "cone scan on integer labels (2da226a)"),
    Mutant("horizon-zero-side-left", "src/lrperc/renorm.py",
           'hidx = np.searchsorted(horizons, 0, side="right")',
           'hidx = np.searchsorted(horizons, 0, side="left")',
           ("tests/test_renorm.py::test_cone_scan_origin_and_threshold_edges",),
           "one batched fold loop (ab0e5ab)"),
    Mutant("keep-from-max", "src/lrperc/renorm.py",
           "keep = label.min(axis=0) < bound", "keep = label.max(axis=0) < bound",
           ("tests/test_renorm.py::test_chunk_rows_when_pruning_follows_a_regrowth",
            "tests/test_renorm.py::test_pruned_scan_equals_oracle_per_replica"),
           "one batched fold loop (ab0e5ab)"),
    Mutant("edge-scan-at-the-bound", "src/lrperc/renorm.py",
           "while a < b and not (label[a] < bound).any():",
           "while a < b and not (label[a] <= bound).any():",
           ("tests/test_renorm.py::test_chunk_whose_labels_all_reach_the_bound_draws_no_more",),
           "cone scan without full-window reductions"),
    Mutant("right-scan-one-row-short", "src/lrperc/renorm.py",
           "label = label[a:b]", "label = label[a:b + 1]",
           ("tests/test_renorm.py::test_chunk_draws_the_span_of_the_sites_below_the_bound",),
           "cone scan without full-window reductions"),
    Mutant("horizon-clamp-removed", "src/lrperc/renorm.py",
           "least[kept[low >= bound], hidx] = 1.0", "pass",
           ("tests/test_renorm.py::test_replica_dead_between_drops_records_one",),
           "cone scan without full-window reductions"),
    Mutant("checkpoint-drop-skipped", "src/lrperc/renorm.py",
           "if not keep.all():", "if False:",
           ("tests/test_renorm.py::test_chunk_rows_when_pruning_follows_a_regrowth",),
           "cone scan without full-window reductions"),
    Mutant("compaction-without-swap", "src/lrperc/renorm.py",
           "                    lab, nxt = nxt, lab\n", "",
           ("tests/test_renorm.py::test_chunk_rows_when_pruning_follows_a_regrowth",),
           "cone scan without allocator churn (24b5f36)"),
    Mutant("regrowth-keeps-label-buffer", "src/lrperc/renorm.py",
           "size = max(2 * size, cells)\n"
           "            lab, nxt, tmp = (np.empty(size, dtype=np.uint64) for _ in range(3))",
           "size = max(2 * size, cells)\n"
           "            nxt, tmp = (np.empty(size, dtype=np.uint64) for _ in range(2))",
           ("tests/test_renorm.py::test_chunk_rows_through_regrowths_without_pruning",),
           "cone scan without allocator churn (24b5f36)"),
    Mutant("parents-into-destination", "src/lrperc/renorm.py",
           "np.minimum(label[:-1], label[1:], out=scratch[:w - 1])",
           "np.minimum(label[:-1], label[1:], out=h[1:-1])",
           ("tests/test_renorm.py::test_scan_equals_oracle_per_replica",),
           "cone scan without allocator churn (24b5f36)"),
    # -- oriented front step ----------------------------------------------------
    Mutant("dedupe-decode-off-by-one", "src/lrperc/oriented.py",
           "out[0] = cell + lo[0]", "out[0] = cell + lo[0] + 1",
           ("tests/test_oriented.py::test_front_step_equals_lexsort_oracle",),
           "oriented front step on a fold grid (c248cb0)"),
    Mutant("dedupe-keeps-last-key", "src/lrperc/oriented.py",
           "first[1:] = cell[1:] != cell[:-1]", "first[:-1] = cell[1:] != cell[:-1]",
           ("tests/test_oriented.py::test_front_step_equals_lexsort_oracle",),
           "oriented front step on a fold grid (c248cb0)"),
    Mutant("window-filter-strict", "src/lrperc/oriented.py",
           "disps[move]) <= window", "disps[move]) < window",
           ("tests/test_oriented.py::test_front_step_equals_lexsort_oracle",),
           "one path per sweep step"),
    # -- contact ----------------------------------------------------------------
    Mutant("source-left-unconverted", "src/lrperc/contact.py",
           "    src = tuple(src)\n", "",
           ("tests/test_contact.py::test_infection_labels_take_a_source_of_any_sequence_form",),
           "one form per sampling input"),
    Mutant("box-reach-half-width", "src/lrperc/contact.py",
           "reach = min(rates.k, 2 * box)", "reach = min(rates.k, box)",
           ("tests/test_contact.py::test_k_connected_matches_brute_force",),
           "one form per sampling input"),
    Mutant("mark-index-from-zero", "src/lrperc/contact.py",
           "j = np.arange(1 + starts[lo], 1 + ends[hi - 1])",
           "j = np.arange(starts[lo], ends[hi - 1])",
           ("tests/test_contact.py::test_surv_contact_equals_per_replica_oracle",),
           "contact timelines sampled together (678ce8e)"),
    Mutant("mean-run-start-fixed", "src/lrperc/contact.py",
           "        start = end\n", "        start = 0\n",
           ("tests/test_contact.py::test_poisson_table_equals_the_walk",),
           "a table's Poisson means grouped once (15aa390)"),
    Mutant("poisson-recurrence-off-by-one", "src/lrperc/contact.py",
           "pmf = pmf * mu / len(cdf)", "pmf = pmf * mu / (len(cdf) + 1)",
           ("tests/test_contact.py::test_poisson_table_equals_the_walk",),
           "contact pair table and flat marks (8121a56)"),
    Mutant("mean-run-ends-uncumulated", "src/lrperc/contact.py",
           "self.ends = np.cumsum(np.bincount(inv, minlength=len(means))).tolist()",
           "self.ends = np.bincount(inv, minlength=len(means)).tolist()",
           ("tests/test_contact.py::test_poisson_table_equals_the_walk",),
           "a table's Poisson means grouped once (15aa390)"),
    Mutant("mean-order-reversed", "src/lrperc/contact.py",
           'self.order = np.argsort(inv, kind="stable")',
           'self.order = np.argsort(inv, kind="stable")[::-1]',
           ("tests/test_contact.py::test_poisson_table_equals_the_walk",),
           "a table's Poisson means grouped once (15aa390)"),
    Mutant("start-instant-arrow-counts", "src/lrperc/contact.py",
           "np.concatenate([head[head < n], tl.owner[at:hi]])",
           "np.concatenate([head, tl.owner[at:hi]])",
           ("tests/test_contact.py::test_single_arrow_connects",),
           "one path per sweep step"),
    Mutant("sweep-min-dropped", "src/lrperc/contact.py",
           "if j < lv:", "if True:",
           ("tests/test_contact.py::test_relay_lowers_label_and_death_clears_it",),
           "contact process in one labelled pass (f7bea56)"),
    Mutant("sweep-max-dropped", "src/lrperc/contact.py",
           "                if lu > j:\n                    j = lu\n", "",
           ("tests/test_contact.py::test_k_connected_matches_brute_force",),
           "contact process in one labelled pass (f7bea56)"),
    Mutant("sweep-deaths-ignored", "src/lrperc/contact.py",
           "if label[o] != _HEALTHY:", "if False:",
           ("tests/test_contact.py::test_death_blocks_connection",),
           "contact process in one labelled pass (f7bea56)"),
    Mutant("tie-never-flagged", "src/lrperc/contact.py",
           "tied[run[pair + 1 < ends[run]]] = True", "tied[run[pair + 1 < ends[run]]] = False",
           ("tests/test_contact.py::test_tied_replica_is_resampled_alone",),
           "contact timelines sampled together (678ce8e)"),
    # -- star lattice -----------------------------------------------------------
    Mutant("line-axis-swapped", "src/lrperc/starlat.py",
           "return 1 + m % 2, 1 - 2 * (m % 2)", "return 2 - m % 2, 1 - 2 * (m % 2)",
           ("tests/test_harness.py::test_fast_configs_write_their_golden_csvs[trend_star]",),
           "one form per sampling input"),
    Mutant("union-without-find", "src/lrperc/starlat.py",
           "parent[_find(parent, t)] = _find(parent, t + i)", "parent[t] = _find(parent, t + i)",
           ("tests/test_starlat.py::test_hprob_equals_h_connected_at_every_k",
            "tests/test_starlat.py::test_surv_star_equals_block_path_survival_at_every_k"),
           "one H-label route (8530625)"),
    Mutant("settle-test-skipped", "src/lrperc/starlat.py",
           "    if w < W:\n        for j, (parent, label)",
           "    if False:\n        for j, (parent, label)",
           ("tests/test_starlat.py::test_sub_windows_settle_only_labels_no_wider_path_lowers",),
           "one H-label route (8530625)"),
]


def _pytest(killers, mutant: Mutant | None = None) -> tuple:
    """(pytest's exit code, or None on a timeout, seconds, its last output
    line) of `killers` run against a temporary copy of src/ with `mutant`
    applied."""
    with tempfile.TemporaryDirectory(prefix="lrperc-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = work / mutant.file
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                raise ValueError(f"{mutant.name}: the snippet does not occur once in "
                                 f"{mutant.file}")
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers]
        t0 = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - t0, "timed out"
    lines = done.stdout.strip().splitlines() or [""]
    return done.returncode, time.monotonic() - t0, lines[-1]


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    t0 = time.monotonic()
    # a killer that fails on the unmutated copy would "kill" every mutant
    code, secs, last = _pytest(sorted({k for m in chosen for k in m.killers}))
    print(f"unmutated: {secs:.1f} s  {last}", flush=True)
    if code != 0:
        print("the killers must pass on the unmutated source")
        return 2
    workers, killed = len(os.sched_getaffinity(0)), 0
    with ThreadPoolExecutor(workers) as pool:
        jobs = {pool.submit(_pytest, m.killers, m): m for m in chosen}
        for job in as_completed(jobs):
            m, (code, secs, last) = jobs[job], job.result()
            ok = code in (1, None)  # tests failed, or ran past the timeout
            killed += ok
            print(f"{'killed  ' if ok else 'SURVIVED'} {m.name:32s} {secs:6.1f} s  {last}",
                  flush=True)
    print(f"{killed} of {len(chosen)} mutants killed in {time.monotonic() - t0:.1f} s "
          f"on {workers} workers")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
