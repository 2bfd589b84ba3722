"""Binomial estimates with Wilson score intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials >= 1, got {successes}/{trials}")
    if not 0 < z < math.inf:
        raise ValueError(f"z must be finite and positive, got {z}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    # pin the degenerate endpoints exactly (floating rounding can land a
    # hair inside, violating lo <= estimate <= hi)
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return (lo, hi)


@dataclass(frozen=True)
class EstimateWithCI:
    successes: int
    trials: int
    estimate: float
    lo: float
    hi: float
    z: float

    @staticmethod
    def from_counts(successes: int, trials: int, z: float = 1.96) -> "EstimateWithCI":
        lo, hi = wilson_interval(successes, trials, z)
        return EstimateWithCI(successes, trials, successes / trials, lo, hi, z)
