"""Command line interface.

Subcommands: gamma, survival, redcluster, siteperc, contact, star, hprob.
Global flags: --config (flat key = value file), --seed, --reps, --threads,
--out, --z, --timing.  Flags override config-file values.  The resolved
configuration is printed to stderr before sampling begins.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, emit_csv, format_csv, parse_config_file, run_experiment

_SUBCOMMAND_PARAMS = {
    "gamma": ["pseq", "qseq", "beta", "kmax"],
    "survival": ["pseq", "qseq", "dim", "k", "horizon", "window"],
    "redcluster": ["pseq", "qseq", "beta", "k", "steps"],
    "siteperc": ["gamma", "horizon"],
    "contact": ["rates", "dim", "k", "horizon", "window"],
    "star": ["eps", "pseq", "k", "delta", "horizon", "window"],
    "hprob": ["pseq", "k", "window", "eps"],
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so `main` reports them as one `error:` line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrperc",
                     description="Monte Carlo laboratory for truncated "
                                 "long-range percolation on oriented graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _SUBCOMMAND_PARAMS.items():
        p = sub.add_parser(name)
        for key in keys:
            p.add_argument(f"--{key}")
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--z", type=float)
        p.add_argument("--out")
        p.add_argument("--timing", action="store_true", default=None)
    return parser


def resolve_config(argv) -> ExperimentConfig:
    ns = build_parser().parse_args(argv)
    file_vals = parse_config_file(ns.config) if ns.config else {}
    global_keys = {"seed": int, "reps": int, "threads": int, "z": float,
                   "timing": lambda v: str(v).lower() in ("1", "true", "yes"),
                   "out": str}
    for key in file_vals:
        if key not in global_keys and key not in _SUBCOMMAND_PARAMS[ns.command]:
            raise ValueError(f"{ns.config}: unknown key {key!r} for {ns.command}")
    merged = dict(file_vals)
    for key, val in vars(ns).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key] = val
    kwargs, params = {}, {}
    for key, val in merged.items():
        if key in global_keys:
            kwargs[key] = global_keys[key](val)
        else:
            params[key] = val
    return ExperimentConfig(command=ns.command, params=params, **kwargs)


def main(argv=None) -> int:
    try:
        cfg = resolve_config(sys.argv[1:] if argv is None else argv)
        for key, val in cfg.resolved().items():
            print(f"{key} = {val}", file=sys.stderr)
        print(f"config_hash = {cfg.hash()}", file=sys.stderr)
        rows = run_experiment(cfg)
        if cfg.out:
            emit_csv(rows, cfg.out)
        else:
            sys.stdout.write(format_csv(rows))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
