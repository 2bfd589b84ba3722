"""Command line interface: a subcommand per entry of `harness.PARAMS`, a flag
per key of its table, plus --config (flat key = value file) and the global
flags of `harness.GLOBALS` (--seed, --reps, --threads, --z, --out).  Flags
override config-file values.  The resolved configuration, defaults filled
in, is printed to stderr before sampling begins.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (GLOBALS, PARAMS, ExperimentConfig, emit_csv, format_csv, parse_config_file,
                      run_experiment)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so `main` reports them as one `error:` line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrperc",
                     description="Monte Carlo laboratory for truncated "
                                 "long-range percolation on oriented graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in PARAMS.items():
        p = sub.add_parser(name)
        for key in [*keys, "config", *GLOBALS]:
            p.add_argument(f"--{key}")
    return parser


def resolve_config(argv) -> ExperimentConfig:
    ns = build_parser().parse_args(argv)
    texts = parse_config_file(ns.config) if ns.config else {}
    for key in texts:
        if key not in GLOBALS and key not in PARAMS[ns.command]:
            raise ValueError(f"{ns.config}: unknown key {key!r} for {ns.command}")
    texts.update((key, val) for key, val in vars(ns).items()
                 if key not in ("command", "config") and val is not None)
    return ExperimentConfig.from_texts(ns.command, texts)


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
