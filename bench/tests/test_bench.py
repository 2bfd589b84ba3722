"""Self-tests of the benchmark: tracing leaves outputs and the program
untouched, traced counts repeat, the output check rejects a broken kernel,
and a job past its timeout is killed with its workers."""

import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

import lrperc
import run
import spans
from lrperc import cli, contact, harness

# replica counts small enough for a quick in-process run
SMALL_REPS = {"oriented_ksweep": 4, "star_ksweep": 4, "cone_scan": 100,
              "contact_ksweep": 8}


def _small(name):
    return dataclasses.replace(run.WORKLOADS[name], reps=SMALL_REPS[name])


def _csv(wl, seed=5):
    cfg = cli.resolve_config(wl.argv(seed, 1))
    return harness.format_csv(harness.run_experiment(cfg))


def _traced(wl, seed=5):
    with spans.Tracer(lrperc) as tracer:
        text = _csv(wl, seed)
    return text, tracer.report()


def _originals():
    out = {}
    for module, attr, _, _ in spans.TARGETS:
        owner = getattr(lrperc, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        out[(module, attr)] = (owner, owner.__dict__[attr])
    return out


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_csv_equals_untraced_csv(name):
    wl = _small(name)
    assert _traced(wl)[0] == _csv(wl)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(name):
    wl = _small(name)
    _, first = _traced(wl)
    _, second = _traced(wl)
    assert run._span_counts(first) == run._span_counts(second)
    metrics = run.layer_metrics(first, wl, serial_run_s=0.0)
    total = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert math.isclose(total, metrics["trace.run_s"], rel_tol=1e-9)
    assert set(metrics) | {"harness.serial_run_s", "harness.pool_speedup",
                           "harness.format_csv_s", "setup.import_s",
                           "setup.resolve_s"} == set(run.PER_LAYER)


def test_wrappers_removed_after_tracing():
    before = _originals()
    _traced(_small("contact_ksweep"))
    assert _originals() == before
    tracer = spans.Tracer(lrperc)
    with pytest.raises(RuntimeError), tracer:
        raise RuntimeError("the run fails inside the traced block")
    assert _originals() == before


def test_output_check_passes_another_seed_and_rejects_a_broken_kernel(monkeypatch):
    wl = dataclasses.replace(run.WORKLOADS["contact_ksweep"], reps=30)
    reference = (run.REFERENCE / f"{wl.name}.csv").read_text()
    good = _csv(wl, seed=5)
    assert run.check_csv(wl, good, 5, reference, good) == []
    assert "CSV differs from the 1-worker CSV" in run.check_csv(
        wl, good, 5, reference, good.replace("contact", "other", 1))

    # a Poisson inversion that never draws a mark keeps every infection alive
    monkeypatch.setattr(contact, "poisson_from_uniform",
                        lambda u, mu: 0 * contact.np.asarray(u, dtype=int))
    broken = _csv(wl, seed=5)
    problems = run.check_csv(wl, broken, 5, reference, broken)
    assert any("beyond the z=4 level" in p for p in problems)


def test_coupling_violation_is_rejected():
    wl = dataclasses.replace(run.WORKLOADS["oriented_ksweep"], reps=150)
    reference = (run.REFERENCE / f"{wl.name}.csv").read_text()
    assert run.check_csv(wl, reference, 4, reference, reference) == []
    lines = reference.splitlines(keepends=True)
    lines[-1] = lines[-1].replace(",0.953333,", ",0.5,")
    problems = run.check_csv(wl, "".join(lines), 4, reference, None)
    assert any("not nondecreasing in k" in p for p in problems)


def test_job_past_its_timeout_is_killed_with_its_workers():
    wl = run.WORKLOADS["oriented_ksweep"]
    spec = {"root": str(run.ROOT), "argv": wl.argv(5, 2), "trace": False,
            "setup_only": False}
    res = run.launch(spec, timeout=1.0)
    assert not res.ok and res.error.startswith("killed")
    assert res.wall_s < 30
    # the job led its own process group; nothing in it survived the kill
    with pytest.raises(ProcessLookupError):
        os.killpg(res.pid, 0)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
