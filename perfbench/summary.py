"""The percentile rule for timing samples.

A tail percentile is reported only when at least `MIN_BEYOND` samples
lie beyond it, so a single slow sample cannot set it.  Percentiles use
the nearest-rank rule: the q-th percentile of n sorted samples is the
one at rank ceil(q/100 * n), counted from 1.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q / 100 * n))


def beyond(q: float, n: int) -> int:
    """Samples strictly after the q-th percentile's rank."""
    return n - rank(q, n)


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile, refused when too few samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if beyond(q, n) < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond(q, n)} beyond it; "
            f"need {min_beyond}"
        )
    return ordered[rank(q, n) - 1]
