"""Span tracing from outside the program: the bench wraps the public
functions of each lrperc module, times every call, and derives self time.

A span's self time is its duration minus the time its child spans cover.
Every instant inside the outermost span belongs to exactly one span's self
time, so the self times of all spans under `harness.run_experiment` add up
to that span's duration (the traced `run_s`).

Nothing under `src/` is changed: `Tracer.install` swaps module and class
attributes for timing wrappers, and `Tracer.uninstall` puts the originals
back.  Spans and counters stay in memory until `report` is called.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# (module, attribute or "Class.method", span name, keep per-call durations)
TARGETS = [
    ("cli", "resolve_config", "cli.resolve_config", False),
    ("harness", "run_experiment", "harness.run_experiment", False),
    ("harness", "run_replicas", "harness.run_replicas", False),
    ("harness", "format_csv", "harness.format_csv", False),
    ("bondfield", "BondField.is_open", "bondfield.scalar", False),
    ("bondfield", "BondField.uniform", "bondfield.scalar", False),
    ("bondfield", "BondField.uniform_words", "bondfield.scalar", False),
    ("bondfield", "BondField.open_mask", "bondfield.vector", False),
    ("bondfield", "BondField.uniforms", "bondfield.vector", False),
    ("bondfield", "BondField.derive_replica", "bondfield.derive_replica", False),
    ("oriented", "explore", "oriented.explore", True),
    ("contact", "sample_timeline", "contact.sample_timeline", True),
    ("contact", "poisson_from_uniform", "contact.poisson", False),
    ("contact", "infected_at_horizon", "contact.infected_at_horizon", True),
    ("starlat", "block_path_survival", "starlat.block_path_survival", True),
    ("starlat", "check_zeta", "starlat.check_zeta", False),
    ("starlat", "h_connected", "starlat.h_connected", False),
    ("renorm", "cone_survival_scan", "renorm.cone_scan", True),
]

TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)


def tail(durations) -> tuple[float, float]:
    """(percentile, value) at the highest of TAIL_LEVELS that has at least
    ten samples beyond it; (0, 0) when there are fewer than twenty samples."""
    n = len(durations)
    level, rank = 0.0, -1
    for p in TAIL_LEVELS:
        r = math.ceil(p * n / 100) - 1
        if n - 1 - r >= 10:
            level, rank = p, r
    if rank < 0:
        return 0.0, 0.0
    return level, sorted(durations)[rank]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _count_folds(st, args, result):
    st.add("folds", len(args[1]))


def _count_values(st, args, result):
    st.add("values", int(result.size))
    st.add("folds", int(result.size) * len(args[1]))


def _count_vertices(st, args, result):
    st.add("vertices", int(result.total_visited))


def _count_marks(st, args, result):
    marks = sum(len(ts) for ts in result.deaths.values())
    marks += sum(len(ts) for ts in result.arrows.values())
    st.add("marks", marks)
    st.add("resamples", int(result.resamples))


def _count_true(st, args, result):
    st.add("true", int(bool(result)))


def _count_cone(st, args, result):
    gammas, horizons, reps = args[0], args[1], args[2]
    top = max(int(h) for h in horizons)
    sites = reps * sum(n + 1 for n in range(1, top + 1))
    st.add("sites", sites)
    st.add("cells", len(gammas) * sites)
    st.add("lanes", len(gammas) * reps)
    st.add("survivors", int(result[:, -1].sum()))


# Counters that must be updated on every call of that attribute, also when
# the call is nested inside another call of the same span.
COUNTERS = {
    "BondField.uniform_words": _count_folds,
    "BondField.uniforms": _count_values,
    "explore": _count_vertices,
    "sample_timeline": _count_marks,
    "h_connected": _count_true,
    "cone_survival_scan": _count_cone,
}


class Tracer:
    """Installs timing wrappers on the lrperc package given at construction.

    A call that re-enters the span it is already in (`is_open` calling
    `uniform` calling `uniform_words`) is one span, so `calls` counts
    outermost entries only.
    """

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, owner, attr, span, keep, counter):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        st = self.stats.setdefault(span, SpanStats())
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == span:
                result = original(*args, **kwargs)
            else:
                frame = [span, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    st.calls += 1
                    st.total_s += dur
                    st.self_s += dur - frame[1]
                    if keep:
                        st.durations.append(dur)
                    if stack:
                        stack[-1][1] += dur
            if counter is not None:
                counter(st, args, result)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, name, span, keep in TARGETS:
            owner, attr = getattr(self.package, module), name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(owner, cls)
            self._wrap(owner, attr, span, keep, COUNTERS.get(name))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def report(self) -> dict:
        """Plain-data span table: calls, self and total seconds, counters and,
        for spans that keep durations, the tail percentile in ms."""
        out = {}
        for span, st in self.stats.items():
            row = {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                   **st.counters}
            if st.durations:
                row["tail_pct"], t = tail(st.durations)
                row["tail_ms"] = t * 1e3
            out[span] = row
        return out
