"""Exact order statistics over raw samples.

Kept inside the benchmark so that a change to the program's own
quantile sketches cannot move the yardstick.  Every percentile here is
nearest-rank over the full sorted sample list: no buckets, no
interpolation, and a failed operation enters as ``inf`` so it counts as
missing any latency limit.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100); ``nan`` when empty."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def finite_or_none(value: float):
    """JSON has no infinity: non-finite numbers serialize as null."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None
