"""One benchmark job in a fresh interpreter.

Usage: python3 bench/job.py '<json spec>'

The spec names the checkout root, the CLI argv of one experiment, and
whether to trace it or to stop after set-up.  The job imports lrperc from
`<root>/src`, calls the public entry points `lrperc.cli.resolve_config`,
`lrperc.harness.run_experiment` and `lrperc.harness.format_csv`, and prints
one JSON line with a CLOCK_MONOTONIC stamp after each phase.  That clock is
shared by all processes on the host, so the parent can time the interpreter
start from its own launch stamp.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """Largest peak RSS of this process or any worker it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import lrperc
    import numpy
    from lrperc import cli, harness
    if not os.path.abspath(lrperc.__file__).startswith(src + os.sep):
        print(f"lrperc imported from {lrperc.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"start": T_START, "import": _now(), "numpy": numpy.__version__}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer(lrperc).install()
    try:
        cfg = cli.resolve_config(spec["argv"])
        out["resolve"] = _now()
        if not spec.get("setup_only"):
            rows = harness.run_experiment(cfg)
            out["run"] = _now()
            out["csv_text"] = harness.format_csv(rows)
            out["csv"] = _now()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["spans"] = tracer.report()
    out["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
