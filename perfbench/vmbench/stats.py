"""Order statistics for latency samples.

Percentiles use the nearest-rank rule: the q-th percentile of n sorted
samples is the sample at rank ceil(q * n). A percentile is reported only
when at least ``MIN_BEYOND`` samples lie beyond it, so a p90 needs at least
100 samples.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile would have fewer than MIN_BEYOND samples beyond it."""


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the q-th percentile among n samples."""
    if n < 1:
        raise TooFewSamples("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return max(1, math.ceil(round(q * n, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - nearest_rank(n, q)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples lie beyond."""
    ordered = sorted(samples)
    beyond = samples_beyond(len(ordered), q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it, need {MIN_BEYOND}"
        )
    return ordered[nearest_rank(len(ordered), q) - 1]


def min_samples(q: float) -> int:
    """Smallest sample count whose q-th percentile has MIN_BEYOND samples beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def relative_iqr(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
