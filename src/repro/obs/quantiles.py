"""Streaming quantile estimation for request latencies.

The SLO layer needs p50/p95/p99 over thousands of request latencies
without keeping the samples.  The estimator here is a **geometric
bucket histogram** (the HDR-histogram idea, sized for wall-clock
seconds): bucket upper edges grow by a fixed factor from
``min_value`` to ``max_value``, so memory is a few hundred integers
and the relative error of any quantile is bounded by the growth
factor -- with the default 1.07, about 3.5% -- independent of the
distribution.  That bound is what the accuracy tests assert against
known distributions.

Estimates interpolate within the winning bucket at its geometric
midpoint, values below ``min_value`` clamp into the first bucket and
values above ``max_value`` into the overflow bucket (whose estimate is
the exact observed maximum).  Digests merge, so per-endpoint digests
can be combined into a service-wide one, and round-trip through plain
data for ``/metricsz`` and trace documents.  :class:`DigestMerger`
keeps one digest per key behind a lock: the serving daemons' per-endpoint
latencies and the cluster router's merge of its shards' digests.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: default smallest resolvable latency (seconds)
DEFAULT_MIN_VALUE = 1e-6

#: default largest bucketed latency (seconds); beyond is the overflow
DEFAULT_MAX_VALUE = 3600.0

#: default bucket growth factor: ~3.5% worst-case relative error
DEFAULT_GROWTH = 1.07

#: the quantiles every summary reports
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class QuantileDigest:  # repro: synchronized-externally
    """Bounded-error streaming quantiles over positive values.

    >>> digest = QuantileDigest()
    >>> for value in range(1, 1001):
    ...     digest.observe(value / 1000.0)
    >>> abs(digest.quantile(0.5) - 0.5) < 0.05
    True
    >>> digest.count
    1000
    """

    __slots__ = ("min_value", "max_value", "growth", "_edges", "_counts",
                 "count", "sum", "minimum", "maximum")

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if not 0 < min_value < max_value:
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth factor must exceed 1.0")
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        edges: List[float] = [min_value]
        while edges[-1] < max_value:
            edges.append(edges[-1] * growth)
        self._edges: Tuple[float, ...] = tuple(edges)
        # one count per edge, plus the overflow bucket
        self._counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def _bucket(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        if value > self._edges[-1]:
            return len(self._counts) - 1
        # log-index straight into the geometric grid, then nudge for
        # float rounding at the edges
        index = int(math.log(value / self.min_value) / math.log(self.growth))
        index = min(index, len(self._edges) - 1)
        while index > 0 and value <= self._edges[index - 1]:
            index -= 1
        while value > self._edges[index]:
            index += 1
        return index

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"latency must be finite and >= 0, got {value}")
        self._counts[self._bucket(value)] += 1
        self.count += 1
        self.sum += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    # -- estimation ----------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile, or ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = q * (self.count - 1) + 1  # 1-based target rank
        running = 0
        for index, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= rank:
                estimate = self._bucket_midpoint(index)
                # never estimate outside the observed range
                assert self.minimum is not None and self.maximum is not None
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def _bucket_midpoint(self, index: int) -> float:
        if index >= len(self._edges):
            # overflow: the exact max is the only honest answer
            return self.maximum if self.maximum is not None else self.max_value
        upper = self._edges[index]
        lower = self._edges[index - 1] if index > 0 else 0.0
        if lower <= 0.0:
            return upper / 2.0
        return math.sqrt(lower * upper)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- composition / wire form ---------------------------------------

    def merge(self, other: "QuantileDigest") -> None:
        """Fold ``other`` into this digest (must share the geometry)."""
        if (self.min_value, self.max_value, self.growth) != (
            other.min_value, other.max_value, other.growth
        ):
            raise ValueError("cannot merge digests with different geometry")
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        for value in (other.minimum, other.maximum):
            if value is None:
                continue
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def summary(self) -> Dict[str, object]:
        """The ``/metricsz`` view: count, mean, extremes, p50/p95/p99."""
        out: Dict[str, object] = {
            "count": self.count,
            "sum_seconds": self.sum,
            "mean_seconds": self.mean,
            "min_seconds": self.minimum,
            "max_seconds": self.maximum,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}_seconds"] = self.quantile(q)
        return out

    def to_plain(self) -> Dict[str, object]:
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "growth": self.growth,
            "counts": list(self._counts),
            "count": self.count,
            "sum": self.sum,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }

    @classmethod
    def from_plain(cls, data: Dict[str, object]) -> "QuantileDigest":
        digest = cls(
            min_value=float(data["min_value"]),
            max_value=float(data["max_value"]),
            growth=float(data["growth"]),
        )
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(digest._counts):
            raise ValueError("digest geometry does not match its counts")
        digest._counts = counts
        digest.count = int(data["count"])
        digest.sum = float(data["sum"])
        digest.minimum = (
            float(data["minimum"]) if data.get("minimum") is not None else None
        )
        digest.maximum = (
            float(data["maximum"]) if data.get("maximum") is not None else None
        )
        return digest

    def __repr__(self) -> str:
        return f"QuantileDigest(n={self.count}, mean={self.mean:g}s)"


class DigestMerger:
    """Keyed latency digests, observable locally and mergeable remotely.

    Each serving daemon observes its own request latencies per endpoint
    (``"*"`` aggregates them all).  The cluster router also absorbs each
    shard's ``latency_digests`` wire forms (from ``/metricsz?digests=1``)
    into a keyed table, yielding the cluster-level p50/p95/p99 without
    shipping raw samples.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._digests: Dict[str, QuantileDigest] = {}

    def observe(self, key: str, seconds: float) -> None:
        with self._lock:
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = QuantileDigest()
            digest.observe(seconds)

    def absorb(self, plains: Dict[str, object]) -> None:
        """Merge a ``{key: QuantileDigest.to_plain()}`` table in."""
        for key, plain in plains.items():
            incoming = QuantileDigest.from_plain(plain)
            with self._lock:
                digest = self._digests.get(key)
                if digest is None:
                    self._digests[key] = incoming
                else:
                    digest.merge(incoming)

    def summaries(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                key: digest.summary()
                for key, digest in self._digests.items()
                if digest.count
            }

    def plains(self) -> Dict[str, object]:
        with self._lock:
            return {
                key: digest.to_plain()
                for key, digest in self._digests.items()
                if digest.count
            }


def digest_of(values: Sequence[float], **kwargs) -> QuantileDigest:
    """A digest over a finished sample (tests, SLO evaluation)."""
    digest = QuantileDigest(**kwargs)
    for value in values:
        digest.observe(value)
    return digest
