"""Metric primitives and the named-metric registry.

The registry is the pipeline's flight recorder: every stage registers
the metrics it wants to expose under a dotted name (``probe.accesses``,
``whomp.grammar_rules``), and the exporters in :mod:`repro.obs.export`
render the whole registry in one pass.  Three metric kinds cover
everything the profilers need:

* :class:`Counter` -- monotonically increasing event count
  (accesses fired, symbols discarded);
* :class:`Gauge` -- a point-in-time value that can move both ways
  (live footprint bytes, capture rate);
* :class:`~repro.obs.quantiles.QuantileDigest` -- a distribution with
  count/sum/min/max and bounded-error quantiles (allocation sizes,
  LMADs per entry).  It is the same mergeable type behind the daemons'
  request latencies, so there is one distribution type, not two.

Everything is dependency-free and single-threaded by design: the
profilers are synchronous pipelines, so metrics are plain Python
attributes with no locking on the hot path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.obs.quantiles import QuantileDigest


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time value; may rise and fall."""

    __slots__ = ("name", "help", "_value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self._value = value

    def add(self, delta: Union[int, float]) -> None:
        self._value += delta

    def set_max(self, value: Union[int, float]) -> None:
        """Keep the running maximum (peak tracking)."""
        if value > self._value:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


Metric = Union[Counter, Gauge, QuantileDigest]


class Registry:  # repro: synchronized-externally
    """Named metrics, created on first use and shared thereafter.

    ``registry.counter("probe.accesses")`` returns the same object on
    every call, so pipeline stages can be instrumented independently
    without plumbing metric objects around.  Requesting an existing name
    as a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            return existing
        metric = cls(name=name, help=help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", **geometry) -> QuantileDigest:
        """A registered :class:`QuantileDigest`; ``geometry`` is its
        ``min_value``/``max_value``/``growth`` on first creation."""
        return self._get_or_create(QuantileDigest, name, help, **geometry)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        """Metrics in sorted-name order (stable export output)."""
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> Union[int, float, None]:
        """Shortcut: the current value of a counter or gauge."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, QuantileDigest):
            return None
        return metric.value
