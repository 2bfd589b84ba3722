import io
import math
import os
import re
import resource
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from lrperc import bondfield, contact, harness, oriented, renorm, starlat
from lrperc.bondfield import BondField
from lrperc.cli import build_parser, main, resolve_config
from lrperc.harness import (
    PARAMS, ExperimentConfig, _hprob, _surv_contact, _surv_star, emit_csv, format_csv,
    parse_config_file,
    run_experiment, run_replicas, wilson_interval,
)
from lrperc.sequences import harmonic, parse_sequence, powerlaw, truncate
from lrperc.starlat import StarParams
from lrperc.stats import EstimateWithCI
from hypothesis import given, settings, strategies as st


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


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_wilson_rejects_non_finite_z(z):
    """A nan or infinite z would print the interval [0, 1]."""
    with pytest.raises(ValueError, match="finite"):
        wilson_interval(5, 10, z)


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
    # a config built in code is read against GLOBALS, as a text is: no
    # fraction runs as a replica count or is cut to a seed, and no bool
    # stands in for a worker count
    for key, value in (("reps", 2.5), ("seed", 2.5), ("threads", True), ("z", math.nan)):
        with pytest.raises(ValueError, match=f"--{key}: {value!r} is not"):
            ExperimentConfig("survival", **{key: value})


def test_missing_parameter_diagnostic_names_field():
    cfg = ExperimentConfig("survival", reps=1, params={"pseq": "harmonic"})
    with pytest.raises(ValueError, match="horizon"):
        run_experiment(cfg)



def test_missing_parameters_are_named_at_once():
    cfg = ExperimentConfig("survival", reps=1, params={"pseq": "harmonic"})
    with pytest.raises(ValueError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == "survival: missing required parameters 'k', 'horizon', 'window'"


@pytest.mark.parametrize("command, defaults", [
    ("survival", {"dim": "2", "qseq": "powerlaw:1,0.5"}),  # qseq is pseq's text
    ("contact", {"dim": "2"}),
    ("redcluster", {"steps": "100000"}),
])
def test_spelled_out_defaults_resolve_and_hash_alike(command, defaults):
    """`resolved()`, which the stderr printout and the hash read, lists
    every default that runs, so spelling one out changes nothing."""
    left_out = {key: v for key, v in _VALID[command].items() if key not in defaults}
    spelled = ExperimentConfig(command, params={**left_out, **defaults})
    bare = ExperimentConfig(command, params=left_out)
    assert bare.resolved() == spelled.resolved()
    assert {key: bare.resolved()[key] for key in defaults} == defaults
    assert bare.hash() == spelled.hash()

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


@pytest.mark.parametrize("command,text,key", [
    # a typo used to run silently with qseq = pseq
    ("survival", "pseq = harmonic\nqseqq = const:1\ndim = 2\nk = 1\n"
                 "horizon = 2\nwindow = 2\nreps = 2\n", "qseqq"),
    ("contact", "rates = harmonic\ndelta = 0.5\n", "delta"),  # a star key
])
def test_config_file_unknown_key_is_one_line_error(tmp_path, capsys, command, text, key):
    f = tmp_path / "bad.cfg"
    f.write_text(text)
    with pytest.raises(ValueError, match=f"unknown key '{key}' for {command}"):
        resolve_config([command, "--config", str(f)])
    assert main([command, "--config", str(f)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command, key", [("survival", "dimm"), ("hprob", "epss"),
                                          ("hprob", "eps")])
def test_code_built_unknown_key_is_rejected(command, key):
    """A typo in code used to run silently with the default, and a stale
    `eps` for `hprob` with none, both folded into the config hash."""
    params = {**_VALID[command], key: "1"}
    with pytest.raises(ValueError, match=f"^unknown key '{key}' for {command}$"):
        ExperimentConfig(command, reps=20, params=params)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_hprob_eps_is_unknown(tmp_path, capsys, source):
    """No H-event reads the vertical bond probability, so `hprob` has no
    `eps`; a stale one is an error, not a new config hash."""
    argv = _argv("hprob", {**_VALID["hprob"], "reps": "2"})
    if source == "flag":
        argv += ["--eps", "0.5"]
        message = "error: unrecognized arguments: --eps 0.5"
    else:
        f = tmp_path / "h.cfg"
        f.write_text("eps = 0.5\n")
        argv += ["--config", str(f)]
        message = "error: unknown key 'eps' for hprob"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().split("\n") == [message]


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_CONFIG_COMMANDS = {"trend_g": "survival", "determinism": "survival", "crossing": "siteperc",
                    "trend_contact": "contact", "trend_star": "star", "gamma_curve": "gamma",
                    "domination": "redcluster", "hprob_oracle": "hprob"}


def test_checked_in_configs_use_only_valid_keys():
    assert {p.stem for p in _CONFIGS.glob("*.cfg")} == set(_CONFIG_COMMANDS)
    for name, command in _CONFIG_COMMANDS.items():
        cfg = resolve_config([command, "--config", str(_CONFIGS / f"{name}.cfg")])
        assert cfg.command == command


_CONFIG_HASHES = {"trend_g": "821b109455dd", "determinism": "1638c21d1b8c",
                  "crossing": "e333f6061b86", "trend_contact": "41ff87b25f04",
                  "trend_star": "f0ef2b4b6795", "gamma_curve": "795947e1d765",
                  "domination": "690babb24532", "hprob_oracle": "fc50a410c0ef"}


@pytest.mark.parametrize("name", sorted(_CONFIG_HASHES))
def test_checked_in_config_hashes_are_frozen(name):
    """Every row carries `config=<hash>`, so a change of how a config is
    resolved must not move the checked-in configs' hashes."""
    cfg = resolve_config([_CONFIG_COMMANDS[name], "--config", str(_CONFIGS / f"{name}.cfg")])
    assert cfg.hash() == _CONFIG_HASHES[name]


_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["determinism", "trend_g", "trend_star", "trend_contact",
                                  "hprob_oracle", "gamma_curve"])
def test_fast_configs_write_their_golden_csvs(name, tmp_path):
    """The CSV of each fast checked-in config at one thread is byte-equal to
    `tests/golden/<name>.csv`; `crossing` and `domination`, a few seconds
    each, are left out.  A change of output is declared by regenerating the
    file, `lrperc <command> --config configs/<name>.cfg --threads 1 --out
    tests/golden/<name>.csv`."""
    out = tmp_path / f"{name}.csv"
    assert main([_CONFIG_COMMANDS[name], "--config", str(_CONFIGS / f"{name}.cfg"),
                 "--threads", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (_GOLDEN / f"{name}.csv").read_bytes()


def test_cli_usage_error_is_one_line(capsys):
    assert main(["survival", "--reps", "nan"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_cli_non_finite_z_is_one_line_error(capsys, z):
    assert main(["contact", "--rates", "harmonic", "--k", "1", "--horizon", "1",
                 "--window", "1", "--dim", "1", "--reps", "2", "--z", z]) == 2
    assert capsys.readouterr().err.strip().split("\n")[-1].startswith("error: ")


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    for cmd in ("gamma", "survival", "redcluster", "siteperc", "contact",
                "star", "hprob"):
        assert parser.parse_args([cmd, "--seed", "1"]).command == cmd


def test_readme_cli_table_matches_params():
    """README's table of subcommands lists each one's keys of `PARAMS` in
    order, each default in parentheses after its key, "= `key`" where a
    key defaults to another's value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        name = re.fullmatch(r"`(\w+)`", cells[0]) if len(cells) == 3 else None
        if name:
            rows[name[1]] = cells[2]
    assert list(rows) == list(PARAMS)
    for command, keys in PARAMS.items():
        listed = []
        for default, names in re.findall(r"\(([^()]*)\)|`([^`]*)`", rows[command]):
            if names:
                listed += [[key, None] for key in names.split()]
            else:
                listed[-1][1] = default
        want = [[key, f"= `{default}`" if isinstance(default, harness._Copy) else default]
                for key, (_, default) in keys.items()]
        assert listed == want, command


# -- experiments -------------------------------------------------------------------

_TINY_SURVIVAL = {"pseq": "powerlaw:1,0.5", "qseq": "powerlaw:1,0.5", "dim": "2",
                  "k": "1,2", "horizon": "4", "window": "5"}


def test_k_sweep_row_count():
    cfg = ExperimentConfig("survival", seed=3, reps=10, params=dict(_TINY_SURVIVAL))
    rows = run_experiment(cfg)
    assert [r["k"] for r in rows] == [1, 2]
    assert all(r["experiment"] == "survival" for r in rows)


@pytest.mark.parametrize("ks", ["2,1", "2,2"])
def test_survival_rows_keep_k_order_and_duplicates(ks):
    """One labelled sweep at max(k) gives a row per --k entry, in the given
    order, each equal to the row of a run at that k alone."""
    def rows(k):
        return run_experiment(ExperimentConfig("survival", seed=3, reps=12,
                                               params={**_TINY_SURVIVAL, "k": k}))
    sweep = rows(ks)
    assert [r["k"] for r in sweep] == [int(k) for k in ks.split(",")]
    for row in sweep:
        (alone,) = rows(str(row["k"]))
        assert [row[c] for c in ("estimate", "ci_lo", "ci_hi")] == \
            [alone[c] for c in ("estimate", "ci_lo", "ci_hi")]


@pytest.mark.parametrize("argv, message", [
    (["survival", "--pseq", "harmonic", "--k", "1,", "--horizon", "2", "--window", "2"],
     "--k: '1,' is not a comma-separated list of integers >= 0"),
    (["siteperc", "--gamma", "0.5,x", "--horizon", "2"],
     "--gamma: '0.5,x' is not a comma-separated list of numbers"),
])
def test_cli_bad_list_entry_names_the_key(capsys, monkeypatch, argv, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the list was parsed")
    monkeypatch.setattr(harness, "run_replicas", no_sampling)
    monkeypatch.setattr(harness.renorm, "cone_survival_scan", no_sampling)
    assert main([*argv, "--reps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().split("\n")[-1] == f"error: {message}"


_TINY_STAR ={"star": {"eps": "0.8", "pseq": "powerlaw:1,0.8", "delta": "0.5",
                        "horizon": "4", "window": "3"},
              "hprob": {"pseq": "powerlaw:1,0.5", "window": "3"}}


@pytest.mark.parametrize("command", ["star", "hprob"])
@pytest.mark.parametrize("ks", ["2,1", "2,2", "0,3,1"])
def test_star_rows_keep_k_order_and_duplicates(command, ks):
    """One replica pass gives a row per --k entry, in the given order, each
    equal to the row of a run at that k alone."""
    def rows(k):
        return run_experiment(ExperimentConfig(command, seed=3, reps=40,
                                               params={**_TINY_STAR[command], "k": k}))
    sweep = rows(ks)
    assert [r["k"] for r in sweep] == [int(k) for k in ks.split(",")]
    for row in sweep:
        (alone,) = rows(str(row["k"]))
        assert [row[c] for c in ("estimate", "ci_lo", "ci_hi")] == \
            [alone[c] for c in ("estimate", "ci_lo", "ci_hi")]


@pytest.mark.parametrize("window, law", [
    (200, "powerlaw:1,0.95"), (1000, "powerlaw:1,0.95"),
    (1000, "powerlaw:1,0.5"),  # half the range-1 bonds are closed, so most lines are gridded
    (10**7, "list:0.9,0.45"), (10**7, "powerlaw:1,0.9"), (10**8, "list:0.5,0.5"),
], ids=["200", "1000", "1000-sparse", "1e7", "1e7-dense", "1e8-half"])
def test_cli_star_wide_window_draws_in_capped_batches(monkeypatch, tmp_path, window, law):
    """No `states` call hashes more than starlat._BATCH_IDS ids at these
    wide windows: at 200 a level is drawn a few lines per call; from 1000
    one line's whole grid holds more, and it is drawn in sub-windows that
    grow only as far as its label needs, in blocks of ranges.  The rows
    equal the per-k scalar oracle."""
    sizes = []
    states = BondField.states

    def spy(self, word_columns):
        h = states(self, word_columns)
        sizes.append(h.size)
        return h
    monkeypatch.setattr(BondField, "states", spy)
    out = tmp_path / "star.csv"
    assert main(["star", "--eps", "0.8", "--pseq", law, "--k", "2,50",
                 "--delta", "0.5", "--horizon", "3", "--window", str(window), "--reps", "4",
                 "--seed", "5", "--threads", "1", "--out", str(out)]) == 0
    assert sizes and max(sizes) <= starlat._BATCH_IDS
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    N = starlat.choose_N(0.8, 0.5)
    for line, k in zip(rows[1:], (2, 50)):
        row = dict(zip(header, line.split(",")))
        params = StarParams(0.8, truncate(parse_sequence(law), k), N)
        hits = sum(starlat.block_path_survival(BondField(5).derive_replica(r), params, 3, window)
                   for r in range(4))
        assert (int(row["k"]), float(row["estimate"])) == (k, hits / 4)


def test_cli_star_wide_blocks_draw_vertical_bonds_in_capped_batches(monkeypatch, tmp_path):
    """A chunk sweeps its replicas together, and a level's vertical bonds are
    drawn a few blocks per `states` call, so no call hashes more than
    starlat._BATCH_IDS ids: at --eps 1e-4 a block has 2N = 40202 vertical
    bonds, and the 4 replicas of the one chunk start with 4 blocks.  The
    rows equal those of chunks of one replica."""
    sizes = []
    states = BondField.states

    def spy(self, word_columns):
        h = states(self, word_columns)
        sizes.append(h.size)
        return h
    monkeypatch.setattr(BondField, "states", spy)
    out = tmp_path / "star.csv"
    assert main(["star", "--eps", "1e-4", "--pseq", "list:1,0.5", "--k", "1,2",
                 "--delta", "0.5", "--horizon", "3", "--window", "2", "--reps", "4",
                 "--seed", "5", "--threads", "1", "--out", str(out)]) == 0
    N = starlat.choose_N(1e-4, 0.5)
    assert N == 20101
    assert sizes and max(sizes) <= starlat._BATCH_IDS
    params = StarParams(1e-4, truncate(parse_sequence("list:1,0.5"), 2), N)
    crits = run_replicas(harness._surv_star, (params, 3, 2), seed=5, reps=4, cap=1)
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    for line, k in zip(rows[1:], (1, 2)):
        row = dict(zip(header, line.split(",")))
        hits = sum(c <= k for c in crits)
        assert (int(row["k"]), float(row["estimate"])) == (k, hits / 4)
    assert 0 < hits < 4


def test_gamma_rows_are_exact_values():
    cfg = ExperimentConfig("gamma", params={"pseq": "list:0.5", "qseq": "const:0.5",
                                            "beta": "1", "kmax": "1"})
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["estimate"] == pytest.approx(0.33984375, abs=1e-12)


def test_gamma_curve_reads_zero_below_beta(capsys):
    """At k < beta no bond of range beta exists, so gamma_k = 0 exactly; the
    curve equals gamma_k at every k.  A law with no vertical bond of range
    beta at all stays an error."""
    cfg = ExperimentConfig("gamma", params={"pseq": "harmonic", "qseq": "harmonic",
                                            "beta": "3", "kmax": "5"})
    want = [renorm.gamma_k(renorm.BifurcationParams(3, truncate(harmonic(), k),
                                                    truncate(harmonic(), k)))
            for k in range(1, 6)]
    assert [(r["k"], r["estimate"]) for r in run_experiment(cfg)] == list(zip(range(1, 6), want))
    assert want[:2] == [0.0, 0.0] and min(want[2:]) > 0
    for qseq in ("const:0", "list:0.5"):
        assert main(["gamma", "--pseq", "harmonic", "--qseq", qseq, "--beta", "2",
                     "--kmax", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().split("\n")[-1] == \
            "error: vertical displacement beta needs positive probability"


def test_redcluster_reads_zero_below_beta():
    """A k < beta row is estimate 0 with gamma_k = 0 and no violation, and the
    k >= beta row of the same run equals that of a run at that k alone."""
    def rows(ks):
        return run_experiment(ExperimentConfig(
            "redcluster", seed=2, reps=6,
            params={"pseq": "harmonic", "qseq": "harmonic", "beta": "3", "k": ks, "steps": "8"}))
    above, below = rows("5,2")
    assert (below["k"], below["estimate"], below["ci_lo"]) == (2, 0.0, 0.0)
    assert "gamma_k=0;" in below["extra_params"] and "violation=0" in below["extra_params"]
    (alone,) = rows("5")
    assert [above[c] for c in ("k", "estimate", "ci_lo", "ci_hi")] == \
        [alone[c] for c in ("k", "estimate", "ci_lo", "ci_hi")]


_HPROB_ARGS = (truncate(powerlaw(1.0, 0.5), 3), 3)  # labels 1, 2, 3 and None all occur


def test_run_replicas_thread_invariance(monkeypatch):
    """Real forked workers give the serial run's records, shares even or
    not: 64 replicas at 4 threads on the CPUs this process may use, 5
    chunks of one replica on 2 workers (shares of 2 and 3), and 3 workers
    (the caller and two children)."""
    for reps, cap, threads, cpus in [(64, None, 4, None), (5, 1, 2, 2), (64, None, 3, 3)]:
        with monkeypatch.context() as patch:
            if cpus is not None:
                patch.setattr(bondfield, "_usable_cpus", lambda: cpus)
            cfg_args = (_hprob, _HPROB_ARGS, 5, reps)
            one = run_replicas(*cfg_args, threads=1)
            many = run_replicas(*cfg_args, threads=threads, cap=cap)
            assert np.array_equal(one, many)
    with pytest.raises(ValueError):
        run_replicas(_hprob, _HPROB_ARGS, 5, 0)


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot travel")
        self.hook = lambda: None


def _faulty(fault, root, lo, hi):
    """Replica 0 runs in the calling process and replica 1 in the forked child."""
    if lo == 1:
        if fault == "raise":
            raise ValueError("replica 1 is bad")
        if fault == "exit":
            os._exit(3)
        if fault == "unpicklable":
            raise _Unpicklable()
        if fault == "caller":
            time.sleep(30)
    elif fault == "caller":
        raise ValueError("replica 0 is bad")
    if fault == "large":  # far more than a pipe buffer holds
        return np.arange(lo, hi)[:, None] + np.arange(100_000)
    return np.arange(lo, hi)


@pytest.mark.parametrize("fault, error, match", [
    ("raise", ValueError, "^replica 1 is bad$"),
    ("exit", RuntimeError, "status 3"),
    ("unpicklable", RuntimeError, "_Unpicklable"),
    ("caller", ValueError, "^replica 0 is bad$"),  # the child, asleep, is killed
    ("large", None, None),
    ("cli", None, None),
])
def test_run_replicas_failures_under_a_real_fork(monkeypatch, capsys, fault, error, match):
    """A child's exception reaches the caller with its type and message, a
    child that dies without a result raises RuntimeError, a raise in the
    caller's own share kills its children, and the CLI turns a child's
    ValueError into one `error:` line and exit 2.  No case hangs, and none
    leaves a child behind."""
    monkeypatch.setattr(bondfield, "_usable_cpus", lambda: 2)
    t0 = time.monotonic()
    if fault == "cli":
        def hprob(args, root, lo, hi):
            if lo > 0:
                raise ValueError("kernel failed in a child")
            return _hprob(args, root, lo, hi)
        monkeypatch.setattr(harness, "_hprob", hprob)
        assert main(_argv("hprob", {**_VALID["hprob"], "reps": "4", "threads": "2"})) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: kernel failed in a child"]
        assert captured.err.rstrip().endswith(errors[0])
    elif error is None:
        assert np.array_equal(run_replicas(_faulty, fault, 5, 2, threads=2),
                              _faulty(fault, None, 0, 2))
    else:
        with pytest.raises(error, match=match):
            run_replicas(_faulty, fault, 5, 2, threads=2)
    assert time.monotonic() - t0 < 20
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fresh_python(code, **env):
    """The words that `code` prints, run in a fresh interpreter that imports
    lrperc from this checkout, with no BLAS or OpenMP thread count in its
    environment but those in `env`."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(harness.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**base, **env, "PYTHONPATH": src},
                          timeout=60).stdout.split()


def test_cli_import_loads_no_process_pool():
    """The replica loop forks its workers itself, so importing the CLI loads
    neither `multiprocessing` nor `concurrent.futures`."""
    code = ("import sys, lrperc.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _fresh_python(code) == ["[]"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc/self/status")
def test_import_starts_no_blas_thread():
    """lrperc makes no BLAS call, so importing it pins OpenBLAS to one
    thread: the process has one thread after the import and still one
    after a `survival` run forks its workers."""
    argv = _argv("survival", {**_VALID["survival"], "reps": "4", "threads": "2"})
    code = ("def threads():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('Threads:'))\n"
            "import contextlib, io, os, lrperc\n"
            "after_import = threads()\n"
            "from lrperc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    status = main({argv!r})\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), after_import, status, threads())\n")
    assert _fresh_python(code) == ["1", "1", "0", "1"]


def test_import_keeps_a_blas_thread_count_the_user_set():
    code = "import os, lrperc; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2"]


@pytest.mark.parametrize("cpus, threads, reps, workers", [
    (2, 8, 64, [2]),      # capped by the usable CPUs
    (8, 3, 2, [2]),       # capped by the chunks of work
    (None, 4, 64, []),    # CPU count unknown: serial
    (1, 4, 64, []),       # one usable CPU: serial
])
def test_run_replicas_clamps_workers(inline_pool, cpus, threads, reps, workers):
    asked = inline_pool(cpus)
    out = run_replicas(_hprob, _HPROB_ARGS, 5, reps, threads=threads)
    assert asked == workers
    assert np.array_equal(out, run_replicas(_hprob, _HPROB_ARGS, 5, reps))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_run_replicas_counts_the_cpus_the_process_may_use():
    """A process allowed one CPU forks no worker at `threads=2`, however
    many CPUs the host has."""
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from lrperc import bondfield\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "recs = bondfield.run_replicas(lambda args, root, lo, hi: np.arange(lo, hi),\n"
            "                              None, 5, 8, threads=2)\n"
            "print(len(forks), recs.tolist() == list(range(8)))\n")
    assert _fresh_python(code) == ["0", "True"]


@pytest.mark.parametrize("reps, workers, cap, plan", [
    (68, 2, None, [(0, 34), (34, 68)]),  # the star k-sweep: one chunk per worker
    (25, 2, None, [(0, 12), (12, 25)]),
    (1200, 1, 510, [(0, 400), (400, 800), (800, 1200)]),  # the cone scan's cap
    (10, 4, None, [(0, 2), (2, 5), (5, 7), (7, 10)]),  # no chunk of 1 beside chunks of 3
    (10, 1, 3, [(0, 2), (2, 5), (5, 7), (7, 10)]),  # the cap needs 4 chunks
    (5, 2, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # never an empty chunk
])
def test_run_replicas_chunk_plan(inline_pool, reps, workers, cap, plan):
    """`run_replicas` cuts the replicas into the fewest chunks within `cap`
    that come in a multiple of the workers, as evenly as they go, in
    replica order."""
    inline_pool(workers)
    bounds = []

    def spy(args, root, lo, hi):
        bounds.append((lo, hi))
        return np.arange(lo, hi)
    assert run_replicas(spy, None, 5, reps, threads=workers, cap=cap).tolist() == list(range(reps))
    assert bounds == plan


_STAR_ARGS = (StarParams(0.8, truncate(powerlaw(1.0, 0.95), 4), 2), 5, 3)
_CONTACT_ARGS = (truncate(harmonic(), 3), 2, 1.5, 2)


_CONE_ARGS = (np.array([0.55, 0.65, 0.75]), [3, 12])
_RED_ARGS = ([renorm.BifurcationParams(1, truncate(powerlaw(1.0, 0.5), k),
                                       truncate(powerlaw(1.0, 0.5), k)) for k in (2, 5)], 30)


@pytest.mark.parametrize("kernel, args", [
    (_surv_star, _STAR_ARGS), (_hprob, _HPROB_ARGS), (renorm._cone_chunk, _CONE_ARGS),
    (_surv_contact, _CONTACT_ARGS), (harness._domination, _RED_ARGS),
], ids=["star", "hprob", "cone", "contact", "redcluster"])
def test_batched_kernel_records_do_not_depend_on_chunking(kernel, args):
    """Every chunk kernel gives the same rows, one per replica, in one chunk
    (threads=1), in one chunk per worker (threads=2: 12 + 13 replicas) and
    in chunks of one replica (cap=1)."""
    reps = 25
    one = run_replicas(kernel, args, 21, reps)
    assert len(one) == reps
    assert np.array_equal(run_replicas(kernel, args, 21, reps, threads=2), one)
    assert np.array_equal(run_replicas(kernel, args, 21, reps, cap=1), one)
    assert len(np.unique(one, axis=0)) > 2


# subcommand -> (params, the chunk budget in bytes that caps its chunks at
# `size` replicas, size); contact's budget is counted from its box table
_CHUNKED = {
    "survival": ({"pseq": "powerlaw:1,0.35", "k": "1,2,4", "horizon": "8", "window": "3"},
                 8 * 500, 10),  # 8 bytes per cell of a 49-cell window
    "hprob": ({"pseq": "powerlaw:1,0.5", "k": "1,2,3", "window": "3"}, 16 * 10, 10),  # one line
    "contact": ({"rates": "powerlaw:1,0.6", "dim": "1", "k": "1,2,4", "horizon": "2",
                 "window": "3"}, None, 10),
    "siteperc": ({"gamma": "0.5,0.6,0.7", "horizon": "2,9"}, 8 * 40, 4),  # 10 labels per replica
}


@pytest.mark.parametrize("command", sorted(_CHUNKED))
def test_chunks_are_capped_by_the_chunk_budget(monkeypatch, command):
    """Each runner that chunks cuts its replicas into chunks of at most
    `bondfield.chunk_cap` of one replica's bytes, however many replicas it
    runs: `size` at the budget given, one chunk of all 60 at a budget above
    every replica's bytes, and chunks of one below them.  Its rows are the
    same in every plan and on two workers, and their estimates all differ.
    A contact `uniforms` call of counts hashes no more than a chunk's
    processes, and one of times no more than _TIME_IDS marks."""
    params, budget, size = _CHUNKED[command]
    batches, calls = [], []

    def spy_run(kernel, args, *rest):
        def counted(args, root, lo, hi):
            batches.append(hi - lo)
            return kernel(args, root, lo, hi)
        return run_replicas(counted, args, *rest)
    monkeypatch.setattr(harness, "run_replicas", spy_run)
    monkeypatch.setattr(renorm, "run_replicas", spy_run)
    if command == "contact":
        table = contact._box_table(truncate(parse_sequence(params["rates"]), 4), 3, 2.0, 1)
        per = max(len(table.heads), table.mus.values.sum())  # the marks here
        budget = 32 * (math.ceil(10 * per) + 1)
        uniforms = BondField.uniforms

        def spy_uniforms(self, columns):
            u = uniforms(self, columns)
            calls.append((int(np.max(columns[0])), u.size))
            return u
        monkeypatch.setattr(BondField, "uniforms", spy_uniforms)
        monkeypatch.setattr(contact, "_TIME_IDS", 64)

    def csv(chunk_bytes, threads=1):
        monkeypatch.setattr(bondfield, "_CHUNK_BYTES", chunk_bytes)
        batches.clear()
        calls.clear()
        return format_csv(run_experiment(ExperimentConfig(
            command, seed=4, reps=60, threads=threads, params=params)))
    capped = csv(budget)
    assert batches == [size] * (60 // size)
    if command == "contact":
        assert max(n for kind, n in calls if kind == 0) <= 10 * per  # the counts
        assert max(n for kind, n in calls if kind == 1) <= 64  # the times
    assert csv(10**12) == capped and batches == [60]
    assert csv(1) == capped and batches == [1] * 60
    assert csv(budget, threads=2) == capped
    rows = capped.splitlines()[1:]
    assert len({line.split(",")[8] for line in rows}) == len(rows)  # every estimate differs


class _Planned(Exception):
    """Raised once a run's chunk plan is made, so that no replica is drawn."""


def _chunk_plan(monkeypatch, cfg):
    """(cap, chunk sizes) of the one `run_replicas` call of cfg's run,
    planned with a kernel that draws nothing."""
    sizes = []

    def empty(args, root, lo, hi):
        sizes.append(hi - lo)
        return np.zeros(hi - lo)

    def plan(kernel, args, seed, reps, threads=1, cap=None):
        run_replicas(empty, None, seed, reps, threads, cap)
        raise _Planned(cap)
    monkeypatch.setattr(harness, "run_replicas", plan)
    monkeypatch.setattr(renorm, "run_replicas", plan)
    with pytest.raises(_Planned) as planned:
        run_experiment(cfg)
    return planned.value.args[0], sizes


def _bench_workload(monkeypatch, name):
    """WORKLOADS[name] of bench/run.py, read without writing under bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    module = types.ModuleType("bench_run")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, "bench_run", module)  # its dataclasses look it up
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module.WORKLOADS[name]


# (cap, chunk sizes) of the checked-in configs that chunk, at their own
# --threads 1, and of the bench workloads, at theirs, as the models' own
# budgets (2^17 window cells, 2^16 lines, 2^15 processes or marks, 2^17
# cone labels) planned them
_PLANS = {
    "trend_g": (136, [75] * 2), "determinism": (453, [16]), "trend_star": (963, [200]),
    "hprob_oracle": (65536, [50000] * 2), "trend_contact": (10, [10] * 15),
    "crossing": (510, [500] * 40),
    "oriented_ksweep": (136, [12, 13]), "star_ksweep": (963, [34] * 2),
    "cone_scan": (510, [400] * 3), "contact_ksweep": (10, [10] * 16),
}


@pytest.mark.parametrize("name", sorted(_PLANS))
def test_chunk_plans_are_pinned(monkeypatch, inline_pool, name):
    """The one chunk budget moves no schedule: every checked-in config that
    chunks, and every bench workload on 2 CPUs, keeps its cap and chunks."""
    inline_pool(2)
    if name in _CONFIG_COMMANDS:
        cfg = resolve_config([_CONFIG_COMMANDS[name], "--config", str(_CONFIGS / f"{name}.cfg")])
    else:
        wl = _bench_workload(monkeypatch, name)
        cfg = ExperimentConfig(wl.command, reps=wl.reps, threads=2 if wl.pooled else 1,
                               params=dict(wl.params))
    assert _chunk_plan(monkeypatch, cfg) == _PLANS[name]


def test_wall_seconds_zero_without_timing_flag():
    cfg = ExperimentConfig("gamma", params={"pseq": "harmonic", "qseq": "harmonic",
                                            "beta": "1", "kmax": "1"})
    assert run_experiment(cfg)[0]["wall_seconds"] == 0.0


def test_redcluster_grows_each_distinct_k_once(monkeypatch):
    """One red cluster per replica per distinct --k; a repeated k repeats
    its row."""
    grown = []
    explore = renorm.explore_red_cluster

    def spy(fld, params, max_steps):
        grown.append(params.k)
        return explore(fld, params, max_steps)
    monkeypatch.setattr(renorm, "explore_red_cluster", spy)

    def rows(k):
        grown.clear()
        out = run_experiment(ExperimentConfig("redcluster", seed=5, reps=6, threads=1,
                                              params={**_VALID["redcluster"], "k": k}))
        # the rows of one run, without the config hash, which covers the --k text
        return [{c: (";".join(e for e in v.split(";") if not e.startswith("config="))
                     if c == "extra_params" else v) for c, v in row.items()} for row in out]
    (alone,) = rows("2")
    assert grown == [2] * 6
    assert rows("2,2") == [alone, alone]
    assert grown == [2] * 6
    assert [row["k"] for row in rows("2,1,2")] == [2, 1, 2]
    assert sorted(grown) == [1] * 6 + [2] * 6


def test_cli_has_no_timing_flag(capsys):
    """Wall time is no part of a row, so no flag stamps it on one."""
    assert main(_argv("gamma", _VALID["gamma"]) + ["--timing"]) == 2
    assert capsys.readouterr().err.strip() == "error: unrecognized arguments: --timing"


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


_AS_LIMIT = 800 * 2**20  # bytes of address space the CLI process may map


@pytest.mark.parametrize("argv", [
    ["--dim", "1", "--k", "5", "--horizon", "1000000", "--window", "5", "--reps", "1"],
    ["--dim", "2", "--k", "50", "--horizon", "5", "--window", "300", "--reps", "1"],
    ["--dim", "1", "--k", "5", "--horizon", "1000000", "--window", "5", "--reps", "2",
     "--threads", "2"],
])
def test_cli_out_of_memory_is_one_line_error(argv):
    """A run whose arrays outgrow the address space ends in one `error:`
    line and exit 2, not a traceback, also where its replicas run in a
    forked worker.  The limit binds only the CLI's process and its
    children."""
    src = str(Path(harness.__file__).resolve().parents[1])
    limit = (_AS_LIMIT, _AS_LIMIT)
    out = subprocess.run([sys.executable, "-m", "lrperc", "contact", "--rates", "const:1", *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src},
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    err = out.stderr.strip().split("\n")
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert [line for line in err if line.startswith("error:")] == [err[-1]]


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


# -- CLI fuzzing ------------------------------------------------------------------------

_SMALL = ["-1", "0", "1", "2", "3", "4", "nan", "inf", ""]
_FLOATS = _SMALL + ["0.5", "-inf"]
_SEQS = ["harmonic", "const:0.5", "powerlaw:1,0.5", "list:0.5,0.25", "powerlaw:1",
         "powerlaw:nan,0.5", "const:x", "list:", "wat:1", "harmonic:", "", "nan"]
_FUZZ_VALUES = {
    "pseq": _SEQS, "qseq": _SEQS, "rates": _SEQS,
    "k": _SMALL + ["1,2", "2,1", "1,-1", "1,,2"], "gamma": _FLOATS + ["0.5,0.7"],
    "horizon": _SMALL + ["0.5", "1,3", "-inf"],
    "eps": _FLOATS, "delta": _FLOATS, "z": _FLOATS,
    "reps": ["-1", "0", "1", "2", "3", "nan", ""],
    "dim": ["-1", "0", "1", "2", "nan", "inf", ""],
    "seed": ["0", "1", "-1", "nan", ""],
}


# a valid, cheap invocation of each subcommand; the fuzzer replaces or drops flags
_VALID = {
    "gamma": {"pseq": "harmonic", "qseq": "harmonic", "beta": "1", "kmax": "2"},
    "survival": {"pseq": "powerlaw:1,0.5", "qseq": "powerlaw:1,0.5", "dim": "2",
                 "k": "1,2", "horizon": "3", "window": "3"},
    "redcluster": {"pseq": "harmonic", "qseq": "harmonic", "beta": "1", "k": "2",
                   "steps": "3"},
    "siteperc": {"gamma": "0.5,0.7", "horizon": "1,3"},
    "contact": {"rates": "powerlaw:1,0.6", "dim": "1", "k": "1,2", "horizon": "2",
                "window": "2"},
    "star": {"eps": "0.5", "pseq": "powerlaw:1,0.95", "k": "1,2", "delta": "0.5",
             "horizon": "3", "window": "2"},
    "hprob": {"pseq": "list:0.5,0.5", "k": "2", "window": "2"},
}


def _argv(command, flags):
    return [command, *(t for key, value in flags.items() for t in (f"--{key}", value))]


_RED_ROW = {"pseq": "powerlaw:1,0.5", "qseq": "powerlaw:1,0.5", "beta": "1", "k": "5,2",
            "steps": "5"}


@pytest.mark.parametrize("command", ["survival", "redcluster", "siteperc", "contact", "star",
                                     "hprob"])
def test_counts_reach_the_rows_as_python_ints(monkeypatch, command):
    """The runners count from numpy arrays, but every count an estimate is
    built from is a Python int and every estimate a Python float, so no
    numpy scalar reaches a row's text.  The redcluster rows' pooled counts
    read as a fixed text."""
    pairs = []
    from_counts = EstimateWithCI.from_counts

    def spy(successes, trials, z=1.96):
        pairs.append((successes, trials))
        return from_counts(successes, trials, z)
    monkeypatch.setattr(EstimateWithCI, "from_counts", staticmethod(spy))
    params = _RED_ROW if command == "redcluster" else _VALID[command]
    rows = run_experiment(ExperimentConfig(command, seed=3, reps=7, params=params))
    assert pairs and {type(n) for pair in pairs for n in pair} == {int}
    assert {type(row[c]) for row in rows for c in ("estimate", "ci_lo", "ci_hi")} == {float}
    if command == "redcluster":
        assert [row["extra_params"] for row in rows] == [
            f"beta=1;config=f1df36923c78;gamma_k={g};pooled_trials={n};steps=5;violation=0"
            for g, n in (("0.688235", 29), ("0.508861", 25))]
        assert [row["estimate"] for row in rows] == [19 / 29, 11 / 25]



_KIND_TEXT = {harness.INT: "an integer", harness.NAT: "an integer >= 0",
              harness.POS: "an integer >= 1", harness.NUM: "a number",
              harness.FPOS: "a finite positive number",
              harness.INTS: "a comma-separated list of integers",
              harness.NATS: "a comma-separated list of integers >= 0",
              harness.NUMS: "a comma-separated list of numbers"}


@pytest.mark.parametrize("command, key", [(c, key) for c in PARAMS for key in PARAMS[c]])
def test_cli_malformed_value_names_its_key(capsys, monkeypatch, command, key):
    """Every key of every subcommand: a malformed value is one `error:`
    line naming the key, before any sampling; a bad sequence keeps
    `parse_sequence`'s message."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the input was checked")
    monkeypatch.setattr(harness, "run_replicas", no_sampling)
    monkeypatch.setattr(harness.renorm, "cone_survival_scan", no_sampling)
    kind = PARAMS[command][key][0]
    value, detail = (("wat:1", "unknown sequence kind: 'wat'") if kind is harness.SEQ
                     else ("x", f"'x' is not {_KIND_TEXT[kind]}"))
    assert main(_argv(command, {**_VALID[command], key: value, "reps": "2"})) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().split("\n")[-1] == f"error: --{key}: {detail}"


# every bounded (command, key) at the value just below its bound, and the
# other out-of-range values a run has to refuse
_OUT_OF_RANGE = [
    ("gamma", "kmax", "0"), ("gamma", "kmax", "-2"),
    ("survival", "k", "-1"), ("survival", "k", "1,-1"),
    ("redcluster", "k", "-1"), ("redcluster", "k", "1,-1"),
    ("redcluster", "steps", "0"), ("redcluster", "steps", "-1"),
    ("contact", "dim", "0"), ("contact", "k", "-1"), ("contact", "k", "2,-1"),
    ("contact", "horizon", "0"), ("contact", "horizon", "inf"), ("contact", "horizon", "nan"),
    ("contact", "window", "-1"), ("siteperc", "horizon", "-1"),
    ("star", "k", "-1"), ("star", "k", "1,-1"), ("star", "horizon", "-1"),
    ("star", "window", "0"),
    ("hprob", "k", "-1"), ("hprob", "k", "2,-1"), ("hprob", "window", "0"),
]


def test_out_of_range_table_covers_every_bounded_key():
    bounded = (harness.NAT, harness.NATS, harness.POS, harness.FPOS)
    assert {(c, key) for c, key, _ in _OUT_OF_RANGE} == \
        {(c, key) for c in PARAMS for key, (kind, _) in PARAMS[c].items() if kind in bounded}


@pytest.mark.parametrize("command, key, value", [*_OUT_OF_RANGE, ("gamma", "reps", "-1")])
def test_cli_out_of_range_value_rejected_before_sampling(capsys, monkeypatch, command, key,
                                                         value):
    """An out-of-range value is one `error:` line naming its key, exit 2 and
    no stdout, before any replica is drawn or any worker starts, a global
    key's too."""
    kind = PARAMS[command][key][0] if key in PARAMS[command] else harness.GLOBALS[key]
    message = f"--{key}: '{value}' is not {_KIND_TEXT[kind]}"

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the input was checked")
    monkeypatch.setattr(harness, "run_replicas", no_sampling)
    monkeypatch.setattr(harness.renorm, "cone_survival_scan", no_sampling)
    assert main(_argv(command, {**_VALID[command], "reps": "2", key: value})) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().split("\n")[-1] == f"error: {message}"


@pytest.mark.parametrize("key", ["seed", "reps", "threads", "z"])
@pytest.mark.parametrize("from_file", [False, True])
def test_global_value_reads_alike_from_flag_or_file(tmp_path, capsys, key, from_file):
    """A global key goes through one converter, from a flag or a file."""
    flags = {**_VALID["gamma"], key: "x"}
    if from_file:
        f = tmp_path / "g.cfg"
        f.write_text(f"{key} = x\n")
        flags = {**_VALID["gamma"], "config": str(f)}
    assert main(_argv("gamma", flags)) == 2
    detail = f"'x' is not {_KIND_TEXT[harness.GLOBALS[key]]}"
    assert capsys.readouterr().err.strip().split("\n") == [f"error: --{key}: {detail}"]
    f = tmp_path / "ok.cfg"
    f.write_text(f"{key} = 3\n")
    by_file = resolve_config(_argv("gamma", {**_VALID["gamma"], "config": str(f)}))
    assert by_file == resolve_config(_argv("gamma", {**_VALID["gamma"], key: "3"}))


@pytest.mark.parametrize("command", sorted(PARAMS))
@pytest.mark.parametrize("z", ["nan", "inf", "0", "-1"])
def test_cli_bad_z_rejected_before_sampling(capsys, monkeypatch, command, z):
    """A z the Wilson interval cannot use is an error before any replica is
    sampled, also for `gamma`, whose rows are exact values."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before z was checked")
    monkeypatch.setattr(harness, "run_replicas", no_sampling)
    monkeypatch.setattr(harness.renorm, "cone_survival_scan", no_sampling)
    assert main(_argv(command, {**_VALID[command], "reps": "2", "z": z})) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().split("\n")[-1] == \
        f"error: --z: '{z}' is not a finite positive number"


@pytest.mark.parametrize("command", ["survival", "contact", "star", "hprob", "redcluster"])
def test_k_sweep_is_one_pass(monkeypatch, command):
    """A k-sweep calls `run_replicas` once, and its kernel once per replica,
    however many --k entries it has."""
    passes, calls = [], []
    run = harness.run_replicas

    def spy_run(kernel, *args, **kwargs):
        passes.append(kernel.__name__)
        return run(kernel, *args, **kwargs)

    def spy_kernel(fn):
        def kernel(args, root, lo, hi):
            calls.extend((fn.__name__, r) for r in range(lo, hi))
            return fn(args, root, lo, hi)
        kernel.__name__ = fn.__name__
        return kernel
    monkeypatch.setattr(harness, "run_replicas", spy_run)
    for name in ("_surv_g", "_surv_contact", "_surv_star", "_hprob", "_domination"):
        monkeypatch.setattr(harness, name, spy_kernel(getattr(harness, name)))
    assert main(_argv(command, {**_VALID[command], "k": "2,1,2", "reps": "5",
                                "threads": "1"})) == 0
    assert len(passes) == 1
    assert calls == [(passes[0], r) for r in range(5)]


@pytest.mark.parametrize("command", sorted(PARAMS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzzed_flags_exit_0_or_2(command, data):
    """Every input gives a result (0) or an `error:` line (2), never a
    traceback.  Values stay small (reps <= 3, k, horizon, window, steps and
    kmax <= 4, one worker), so no case forks a worker or runs long."""
    flags = {**_VALID[command], "reps": "2"}
    keys = data.draw(st.lists(st.sampled_from(sorted({*PARAMS[command],
                                                      "seed", "reps", "z"})),
                              min_size=1, max_size=3, unique=True), label="fuzzed")
    for key in keys:
        values = _FUZZ_VALUES.get(key, _SMALL)
        # None drops the flag, but never --reps or --steps, whose defaults
        # (100 replicas, 100000 red-cluster steps) are not cheap
        keep = key in ("reps", "steps")
        flags[key] = data.draw(st.sampled_from(values if keep else [None, *values]), label=key)
    argv = [command, "--threads", "1"]
    for key, value in flags.items():
        if value is not None:
            argv += [f"--{key}", value]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2), argv
    if rc == 2:
        assert err.getvalue().strip().split("\n")[-1].startswith("error: "), argv
