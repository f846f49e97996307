"""How samples become reported numbers (shared by child, run and compare)."""

from __future__ import annotations

import math
import statistics

PERCENTILES = (99.9, 99, 95, 90, 75)
NOISY_SPIN = 0.10    # fastest host.spin_s probes further apart than this: noisy


def hi_percentile(samples: list):
    """``(percentile, value)`` of the highest percentile that still has at
    least ten samples beyond it; ``None`` when not even p75 has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, ordered[int(n * p / 100)]
    return None


def summarize(samples: list) -> dict:
    """Best, median, highest admissible percentile and sample count."""
    hi = hi_percentile(samples)
    return {"best": min(samples), "median": statistics.median(samples),
            "n": len(samples),
            "hi_percentile": hi[0] if hi else None,
            "hi": hi[1] if hi else None}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: list) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
