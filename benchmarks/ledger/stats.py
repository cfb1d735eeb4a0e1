"""Sample summaries: median, a defensible tail percentile, run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Tail percentiles a timing may be reported at, lowest first.
TAIL_CANDIDATES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and the "tail" is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, p: float) -> int:
    """Nearest rank of the *p*-th percentile among *count* samples."""
    # Rounded first: 0.9 * 100 is 90.00000000000001 in floating point.
    return max(1, math.ceil(round(count * p / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *values* (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with enough samples beyond it.

    Falls back to the median when even the 90th has too few.
    """
    best = TAIL_CANDIDATES[0]
    for candidate in TAIL_CANDIDATES[1:]:
        if count - _rank(count, candidate) >= MIN_SAMPLES_BEYOND:
            best = candidate
    return best


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at :func:`tail_percentile` of the samples."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (needs >= 2)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else float("inf")
