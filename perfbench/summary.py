"""Order statistics used by every benchmark report.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it (the tail rule).  With fewer than
twenty samples no percentile above the median qualifies, and the tail is
reported as absent rather than guessed.
"""
from __future__ import annotations

import math
import statistics

# Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it.

    "Beyond" counts the samples strictly above the percentile's rank:
    for n samples that is floor(n * (1 - pct/100)).
    """
    for pct in TAIL_CANDIDATES:
        if math.floor(n * (100.0 - pct) / 100.0 + 1e-9) >= MIN_BEYOND:
            return pct
    return None


def describe(values) -> dict:
    """Sample count, median and tail percentile of one metric's samples."""
    data = list(values)
    out = {"n": len(data), "median": statistics.median(data) if data else None,
           "tail_pct": None, "tail": None}
    pct = tail_percentile(len(data))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(data, pct)
    return out


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median.

    Uses statistics.quantiles(n=4) exactly as the acceptance rule does.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
