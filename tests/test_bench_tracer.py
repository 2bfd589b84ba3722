"""The bench tracer (bench/spans.py) wraps lrperc functions by name.  The
bench self-tests are not part of this suite, so this test is what fails
here when a traced function is renamed or removed."""

import ast
import sys
import types
from pathlib import Path

import lrperc
from lrperc import cli, harness
from lrperc.bondfield import BondField
from lrperc.oriented import ExplorationParams, explore
from lrperc.sequences import constant, powerlaw, truncate
from lrperc.starlat import StarParams

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans(monkeypatch):
    """bench/spans.py as a module, read without writing under bench/."""
    module = types.ModuleType("spans")
    monkeypatch.setitem(sys.modules, "spans", module)  # its dataclasses look it up
    exec(compile(_SPANS.read_text(), str(_SPANS), "exec"), vars(module))
    return module


def _target(module, name):
    """(owner, attribute) of one entry of spans.TARGETS."""
    owner, attr = getattr(lrperc, module), name
    if "." in name:
        cls, attr = name.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def test_bench_tracer_installs_on_every_target_and_uninstalls(monkeypatch):
    spans = _load_spans(monkeypatch)
    targets = [_target(module, name) for module, name, _, _ in spans.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]
    cfg = cli.resolve_config(["star", "--eps", "0.8", "--pseq", "powerlaw:1,0.95", "--k", "1,2",
                              "--delta", "0.5", "--horizon", "3", "--window", "3",
                              "--reps", "4", "--threads", "1"])
    untraced = harness.format_csv(harness.run_experiment(cfg))
    tracer = spans.Tracer(lrperc)
    try:
        tracer.install()
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr].__wrapped__ is original, attr
        traced = harness.format_csv(harness.run_experiment(cfg))
        # the scalar star oracles are traced by name with their arguments
        sure = StarParams(1.0, truncate(constant(1.0), 1), 1)
        assert lrperc.starlat.block_path_survival(BondField(1), sure, 1, 2)
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in targets] == originals
    assert traced == untraced
    report = tracer.report()
    assert report["harness.run_experiment"]["calls"] == 1
    assert report["starlat.block_path_survival"]["calls"] == 1
    assert report["starlat.check_zeta"]["calls"] == 1
    assert report["starlat.h_connected"]["true"] == report["starlat.h_connected"]["calls"] == 2


def _traced_run(spans, argv):
    """(untraced CSV, traced CSV, span report) of one in-process run."""
    cfg = cli.resolve_config([*argv, "--reps", "4", "--threads", "1"])
    untraced = harness.format_csv(harness.run_experiment(cfg))
    with spans.Tracer(lrperc) as tracer:
        traced = harness.format_csv(harness.run_experiment(cfg))
    return untraced, traced, tracer.report()


def test_bench_tracer_counts_contact_marks(monkeypatch):
    """`_count_marks` reads each sampled timeline's deaths, arrows and
    resamples.  The contact k-sweep samples a chunk's timelines together,
    through `sample_timelines`, and its traced CSV equals the untraced one;
    `sample_timeline`, the batch of one, is traced once per timeline."""
    spans = _load_spans(monkeypatch)
    untraced, traced, _ = _traced_run(spans, [
        "contact", "--rates", "powerlaw:1,0.6", "--dim", "1", "--k", "1,2",
        "--horizon", "2", "--window", "2"])
    assert traced == untraced
    args = (truncate(powerlaw(1.0, 0.6), 2), 2, 2.0, 1)
    with spans.Tracer(lrperc) as tracer:
        tls = [lrperc.contact.sample_timeline(0, *args, replica=r) for r in range(4)]
    sampled = tracer.report()["contact.sample_timeline"]
    assert sampled["calls"] == 4
    assert sampled["marks"] == sum(tl.times.size for tl in tls) > 0
    assert sampled["resamples"] == sum(tl.resamples for tl in tls)


def test_bench_tracer_counts_oriented_vertices(monkeypatch):
    """`_count_vertices` reads each exploration's `total_visited`.  Each
    replica is swept at truncation 1, then 2 unless the first survives, so
    the vertices are those of these sweeps; the chunk's replicas are swept
    together, so there is one call per truncation."""
    spans = _load_spans(monkeypatch)
    untraced, traced, report = _traced_run(spans, [
        "survival", "--pseq", "powerlaw:1,0.5", "--dim", "2", "--k", "1,2",
        "--horizon", "3", "--window", "3"])
    assert traced == untraced
    sweeps = []
    for r in range(4):
        fld = BondField(0).derive_replica([r])
        for k in (1, 2):
            seq = truncate(powerlaw(1.0, 0.5), k)
            sweeps.append(explore(fld, ExplorationParams(2, 3, 3, seq, seq)))
            if sweeps[-1].survived[0]:
                break
    assert len(sweeps) > 4  # some replica needs its second sweep
    explored = report["oriented.explore"]
    assert explored["calls"] == 2  # one chunk of 4 replicas, at truncation 1 and 2
    assert explored["vertices"] == sum(res.total_visited for res in sweeps)


def test_package_ships_only_what_it_runs(monkeypatch):
    """Every public top-level def or class of the package is referenced in
    the package, by a name, an attribute or an import, or is traced by the
    bench.  What only the tests run belongs in tests/oracles.py."""
    spans = _load_spans(monkeypatch)
    traced = {(module, name.split(".")[0]) for module, name, _, _ in spans.TARGETS}
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(lrperc.__file__).parent.glob("*.py")}
    used = {getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    unused = sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used
                    and (module, node.name) not in traced)
    assert unused == []
