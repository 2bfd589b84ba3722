import os

import pytest

from lrperc import harness
from lrperc.cli import build_parser, main, resolve_config
from lrperc.harness import (
    ExperimentConfig, emit_csv, format_csv, parse_config_file, run_experiment,
    run_replicas, wilson_interval,
)
from lrperc.sequences import harmonic, truncate
from lrperc.starlat import StarParams
from lrperc.stats import EstimateWithCI
from hypothesis import given, strategies as st


# -- statistics -----------------------------------------------------------------

def test_wilson_zero_successes():
    lo, hi = wilson_interval(0, 50, 1.96)
    assert lo == 0.0 and hi > 0.0


def test_wilson_all_successes():
    lo, hi = wilson_interval(50, 50, 1.96)
    assert hi == 1.0 and lo < 1.0


def test_wilson_reference_value():
    lo, hi = wilson_interval(5, 10, 1.96)
    assert lo == pytest.approx(0.2366, abs=5e-4)
    assert hi == pytest.approx(0.7634, abs=5e-4)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 4, 1.96)
    with pytest.raises(ValueError):
        wilson_interval(0, 10, 0.0)


@given(st.integers(0, 200), st.integers(1, 200), st.floats(0.1, 5.0))
def test_estimate_ordering_invariant(s, n, z):
    if s > n:
        s = n
    est = EstimateWithCI.from_counts(s, n, z)
    assert 0.0 <= est.lo <= est.estimate <= est.hi <= 1.0
    assert est.estimate == s / n


# -- config ----------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("# comment\npseq = harmonic\nk = 1,2 # trailing\n\nseed= 9\n")
    assert parse_config_file(str(f)) == {"pseq": "harmonic", "k": "1,2", "seed": "9"}


def test_parse_config_rejects_garbage(tmp_path):
    f = tmp_path / "b.cfg"
    f.write_text("pseq harmonic\n")
    with pytest.raises(ValueError, match="b.cfg:1"):
        parse_config_file(str(f))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("survival", reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig("no-such-experiment")
    with pytest.raises(ValueError):
        ExperimentConfig("survival", threads=0)


def test_missing_parameter_diagnostic_names_field():
    cfg = ExperimentConfig("survival", reps=1, params={"pseq": "harmonic"})
    with pytest.raises(ValueError, match="horizon"):
        run_experiment(cfg)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig("gamma", seed=1, params={"pseq": "harmonic"})
    b = ExperimentConfig("gamma", seed=1, params={"pseq": "harmonic"})
    c = ExperimentConfig("gamma", seed=2, params={"pseq": "harmonic"})
    assert a.hash() == b.hash() != c.hash()


def test_cli_flags_override_config_file(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("pseq = harmonic\nqseq = harmonic\nbeta = 1\nkmax = 2\nseed = 5\n")
    cfg = resolve_config(["gamma", "--config", str(f), "--seed", "11"])
    assert cfg.seed == 11
    assert cfg.params["kmax"] == "2"


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    for cmd in ("gamma", "survival", "redcluster", "siteperc", "contact",
                "star", "hprob"):
        assert parser.parse_args([cmd, "--seed", "1"]).command == cmd


# -- experiments -------------------------------------------------------------------

_TINY_SURVIVAL = {"pseq": "powerlaw:1,0.5", "qseq": "powerlaw:1,0.5", "dim": "2",
                  "k": "1,2", "horizon": "4", "window": "5"}


def test_k_sweep_row_count():
    cfg = ExperimentConfig("survival", seed=3, reps=10, params=dict(_TINY_SURVIVAL))
    rows = run_experiment(cfg)
    assert [r["k"] for r in rows] == [1, 2]
    assert all(r["experiment"] == "survival" for r in rows)


def test_gamma_rows_are_exact_values():
    cfg = ExperimentConfig("gamma", params={"pseq": "list:0.5", "qseq": "const:0.5",
                                            "beta": "1", "kmax": "1"})
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["estimate"] == pytest.approx(0.33984375, abs=1e-12)


_HPROB_ARGS = (StarParams(0.5, truncate(harmonic(), 3)), 3)


def test_run_replicas_thread_invariance():
    cfg_args = ("hprob", _HPROB_ARGS, 5, 64)
    one = run_replicas(*cfg_args, threads=1)
    many = run_replicas(*cfg_args, threads=4)
    assert one == many
    with pytest.raises(ValueError):
        run_replicas("hprob", _HPROB_ARGS, 5, 0)


@pytest.mark.parametrize("cores, threads, reps, workers", [
    (2, 8, 64, [2]),      # capped by the cores
    (8, 3, 2, [2]),       # capped by the chunks of work
    (None, 4, 64, []),    # core count unknown: serial
    (1, 4, 64, []),       # one core: serial
])
def test_run_replicas_clamps_workers(monkeypatch, cores, threads, reps, workers):
    asked = []

    class InlineExecutor:
        """Runs the chunks in this process; records the worker count asked for."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    out = run_replicas("hprob", _HPROB_ARGS, 5, reps, threads=threads)
    assert asked == workers
    assert out == run_replicas("hprob", _HPROB_ARGS, 5, reps)


def test_wall_seconds_zero_without_timing_flag():
    cfg = ExperimentConfig("gamma", params={"pseq": "harmonic", "qseq": "harmonic",
                                            "beta": "1", "kmax": "1"})
    assert run_experiment(cfg)[0]["wall_seconds"] == 0.0
    cfg.timing = True
    assert run_experiment(cfg)[0]["wall_seconds"] > 0.0


# -- CSV -------------------------------------------------------------------------------

def test_format_csv_empty():
    out = format_csv([])
    assert out == ("experiment,model,k,seed,reps,horizon,window,extra_params,"
                   "estimate,ci_lo,ci_hi,wall_seconds\n")


def test_format_csv_one_row():
    cfg = ExperimentConfig("gamma", params={"pseq": "list:0.5", "qseq": "const:0.5",
                                            "beta": "1", "kmax": "1"})
    out = format_csv(run_experiment(cfg))
    lines = out.strip().split("\n")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "gamma" and fields[2] == "1"
    assert fields[8] == "0.339844"  # 6 significant digits


def test_csv_deterministic_across_runs_and_threads():
    params = dict(_TINY_SURVIVAL)
    a = format_csv(run_experiment(ExperimentConfig("survival", seed=3, reps=8,
                                                   threads=1, params=params)))
    b = format_csv(run_experiment(ExperimentConfig("survival", seed=3, reps=8,
                                                   threads=4, params=params)))
    assert a == b


def test_emit_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig("gamma", params={"pseq": "harmonic", "qseq": "harmonic",
                                            "beta": "1", "kmax": "2"})
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    assert path.read_text() == format_csv(rows)


def test_emit_csv_unwritable_path():
    with pytest.raises(RuntimeError, match="cannot write"):
        emit_csv([], os.path.join(os.sep, "nonexistent-dir-xyz", "o.csv"))


# -- CLI end to end ---------------------------------------------------------------------

def test_cli_main_success(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["gamma", "--pseq", "harmonic", "--qseq", "harmonic", "--beta", "1",
               "--kmax", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("experiment,")
    assert len(text.strip().split("\n")) == 3
    assert "config_hash" in capsys.readouterr().err


def test_cli_main_bad_input():
    rc = main(["gamma", "--pseq", "wat:1", "--qseq", "harmonic", "--beta", "1",
               "--kmax", "2"])
    assert rc == 2


def test_cli_unreadable_or_unwritable_file_is_one_line_error(tmp_path, capsys):
    for argv in (["survival", "--config", str(tmp_path / "nope.cfg")],
                 ["gamma", "--pseq", "harmonic", "--qseq", "harmonic", "--beta", "1",
                  "--kmax", "1", "--out", str(tmp_path / "no-such-dir" / "o.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("error: ")


def test_cli_star_with_sure_vertical_bonds(capsys):
    rc = main(["star", "--eps", "1.0", "--pseq", "const:1", "--k", "1", "--delta", "0.5",
               "--horizon", "3", "--window", "2", "--reps", "2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2 and "N=1" in out[1]
    assert out[1].split(",")[8] == "1"  # every bond open: survival is sure


def test_cli_stdout_when_no_out(capsys):
    rc = main(["gamma", "--pseq", "harmonic", "--qseq", "harmonic", "--beta", "1",
               "--kmax", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("experiment,")
