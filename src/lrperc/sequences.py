"""Probability sequences and their range-k truncations.

A sequence assigns an open-probability to each integer range i >= 1.
Range 0 is pinned to 0 everywhere: a zero-displacement "bond" is never
assigned a probability by any of the models, so index-0 factors must be
neutral in every product that formally ranges over |a| <= k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SequenceSpec:
    """A law i -> probability, one of: harmonic, powerlaw, constant, explicit list.

    harmonic:       min(1, 1/i)
    powerlaw(a, c): min(1, c * i**-a), clamped into [0, 1]
    constant(v):    v for every i
    explicit list:  values[i-1] for i <= len(values), 0 beyond
    """

    kind: str
    alpha: float = 0.0
    scale: float = 0.0
    value: float = 0.0
    values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("harmonic", "powerlaw", "constant", "explicit"):
            raise ValueError(f"unknown sequence kind: {self.kind!r}")
        if self.kind == "powerlaw" and not (0 < self.alpha < math.inf
                                            and 0 < self.scale < math.inf):
            raise ValueError("powerlaw needs a finite exponent > 0 and a finite scale > 0")
        if self.kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ValueError("constant value must lie in [0, 1]")
        if self.kind == "explicit" and any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("explicit-list values must lie in [0, 1]")

    def eval(self, i: int) -> float:
        """Probability at range i >= 1.  Rejects i = 0; range 0 belongs to
        TruncatedSequence, which pins it to 0."""
        if i < 1:
            raise ValueError(f"sequence index must be >= 1, got {i}")
        if self.kind == "harmonic":
            return min(1.0, 1.0 / i)
        if self.kind == "powerlaw":
            return min(1.0, self.scale * float(i) ** -self.alpha)
        if self.kind == "constant":
            return self.value
        return self.values[i - 1] if i <= len(self.values) else 0.0


def harmonic() -> SequenceSpec:
    return SequenceSpec("harmonic")


def powerlaw(alpha: float, scale: float) -> SequenceSpec:
    return SequenceSpec("powerlaw", alpha=alpha, scale=scale)


def constant(value: float) -> SequenceSpec:
    return SequenceSpec("constant", value=value)


def explicit(values) -> SequenceSpec:
    return SequenceSpec("explicit", values=tuple(values))


@dataclass(frozen=True)
class TruncatedSequence:
    """A sequence with every term of range > k removed.

    term(i) = base(i) for 1 <= i <= k, 0 for i > k, and 0 at i = 0.
    """

    base: SequenceSpec
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("truncation range must be nonnegative")

    def term(self, i: int) -> float:
        if i < 0:
            raise ValueError(f"range must be nonnegative, got {i}")
        if i == 0 or i > self.k:
            return 0.0
        return self.base.eval(i)

    def terms(self, n: int) -> list[float]:
        """First n terms, starting at i = 1."""
        return [self.term(i) for i in range(1, n + 1)]


def truncate(spec: SequenceSpec, k: int) -> TruncatedSequence:
    return TruncatedSequence(spec, k)


def signed_ranges(k: int):
    """1, -1, 2, -2, ..., k, -k: the order every witness search scans."""
    for i in range(1, k + 1):
        yield i
        yield -i


def parse_sequence(text: str) -> SequenceSpec:
    """Parse the textual grammar used by the CLI and config files.

    Accepted forms: ``harmonic``, ``powerlaw:<alpha>,<c>``, ``const:<v>``,
    ``list:<v1>,<v2>,...``.  Malformed specs raise ValueError naming the
    offending token.
    """
    text = text.strip()
    if text == "harmonic":
        return harmonic()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"malformed sequence spec: {text!r}")
    if head == "powerlaw":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"powerlaw takes <alpha>,<c>, got {rest!r}")
        try:
            a, c = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"non-numeric powerlaw parameter in {rest!r}") from None
        return powerlaw(a, c)
    if head == "const":
        try:
            v = float(rest)
        except ValueError:
            raise ValueError(f"non-numeric constant value {rest!r}") from None
        return constant(v)
    if head == "list":
        vals = []
        for tok in rest.split(","):
            try:
                vals.append(float(tok))
            except ValueError:
                raise ValueError(f"non-numeric list entry {tok!r}") from None
        return explicit(vals)
    raise ValueError(f"unknown sequence kind: {head!r}")
