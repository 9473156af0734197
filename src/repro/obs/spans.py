"""Nestable timing spans and the telemetry facade.

A :class:`Span` is one named stage of the pipeline -- trace-collection,
translation, decomposition, compression -- timed with the wall clock and
annotated with a throughput item count (accesses, symbols).  Spans nest:
entering a span while another is open makes it a child, so a profiled
run yields a span *tree* mirroring the paper's Figure 4 pipeline.
Re-entering the same name under the same parent merges into one node
(``calls`` increments and wall time accumulates), which keeps loops from
exploding the tree.

:class:`Telemetry` bundles a span tree with a
:class:`~repro.obs.registry.Registry` and is what gets threaded
through the pipeline.  It is always live: every instrumented component
records into the one it is given or makes its own, and an exporter or
a trace only decides who reads it.  Counts are published at stage
boundaries, so no per-event hot path consults telemetry at all.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.quantiles import QuantileDigest
from repro.obs.registry import Counter, Gauge, Registry


class Span:
    """One node of the span tree: accumulated wall time plus counts.

    Beyond the duration accounting, every span carries its position on
    a *shared timeline*: ``start_ts`` / ``end_ts`` are absolute
    wall-clock stamps (first entry, last exit; 0.0 = never entered), so
    span trees absorbed from pool workers or remote daemons order
    correctly against the parent's own spans.  When the owning
    :class:`Telemetry` has a trace id attached (see
    :mod:`repro.obs.context`), spans are stamped with it plus a fresh
    64-bit span id on first entry -- the TRACELINK linkage.
    """

    __slots__ = ("name", "parent", "children", "calls", "seconds", "items",
                 "unit", "trace_id", "span_id", "start_ts", "end_ts")

    def __init__(self, name: str, parent: Optional["Span"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: Dict[str, "Span"] = {}
        self.calls = 0
        self.seconds = 0.0
        self.items = 0
        self.unit = "items"
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.start_ts = 0.0
        self.end_ts = 0.0

    def child(self, name: str) -> "Span":
        """Get-or-create the named child (same-name spans merge)."""
        span = self.children.get(name)
        if span is None:
            span = Span(name, parent=self)
            self.children[name] = span
        return span

    def add_items(self, count: int, unit: Optional[str] = None) -> None:
        """Attribute ``count`` processed items to this span; the
        exporters derive per-stage throughput (items/sec) from it."""
        self.items += count
        if unit is not None:
            self.unit = unit

    @property
    def throughput(self) -> float:
        """Items per second over the accumulated wall time."""
        if self.seconds <= 0.0 or not self.items:
            return 0.0
        return self.items / self.seconds

    @property
    def path(self) -> str:
        """Slash-joined path from the root, e.g. ``whomp/compression``."""
        parts: List[str] = []
        node: Optional[Span] = self
        while node is not None and node.name:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) pairs, children in creation order."""
        yield depth, self
        for child in self.children.values():
            yield from child.walk(depth + 1)

    def to_plain(self) -> Dict[str, object]:
        """This subtree as plain data -- the cross-process span wire
        format used when pool workers report their timings back."""
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "items": self.items,
            "unit": self.unit,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "children": [child.to_plain() for child in self.children.values()],
        }

    def absorb_plain(self, data: Dict[str, object]) -> "Span":
        """Merge a :meth:`to_plain` tree (usually from a worker process)
        under this span, accumulating into same-name children exactly
        like re-entering a live span would.

        Timeline fields merge like a re-entry: the earliest non-zero
        ``start_ts`` and the latest ``end_ts`` win, so a span absorbed
        from several workers spans their combined wall-clock window.
        Trace/span ids are adopted only when the live node has none --
        a node the parent already stamped keeps its identity.
        """
        node = self.child(str(data["name"]))
        node.calls += int(data.get("calls", 0))
        node.seconds += float(data.get("seconds", 0.0))
        node.items += int(data.get("items", 0))
        unit = data.get("unit")
        if unit is not None:
            node.unit = str(unit)
        start_ts = float(data.get("start_ts") or 0.0)
        if start_ts > 0.0 and (node.start_ts == 0.0 or start_ts < node.start_ts):
            node.start_ts = start_ts
        end_ts = float(data.get("end_ts") or 0.0)
        if end_ts > node.end_ts:
            node.end_ts = end_ts
        if node.trace_id is None and data.get("trace_id") is not None:
            node.trace_id = str(data["trace_id"])
        if node.span_id is None and data.get("span_id") is not None:
            node.span_id = str(data["span_id"])
        for child in data.get("children", ()):
            node.absorb_plain(child)
        return node

    def __repr__(self) -> str:
        return (
            f"Span({self.path or '<root>'}: {self.seconds * 1e3:.2f}ms, "
            f"{self.calls} calls, {self.items} {self.unit})"
        )


class _SpanContext:
    """Context manager driving one enter/exit of a span."""

    __slots__ = ("_telemetry", "_span", "_start", "_items_at_enter")

    def __init__(self, telemetry: "Telemetry", span: Span) -> None:
        self._telemetry = telemetry
        self._span = span
        self._start = 0.0
        self._items_at_enter = 0

    def __enter__(self) -> Span:
        telemetry = self._telemetry
        span = self._span
        telemetry._stack.append(span)
        span.calls += 1
        if telemetry.trace_id is not None and span.trace_id is None:
            span.trace_id = telemetry.trace_id
            span.span_id = os.urandom(8).hex()
        now = time.time()
        if span.start_ts == 0.0 or now < span.start_ts:
            span.start_ts = now
        self._items_at_enter = span.items
        self._start = telemetry._clock()
        return span

    def __exit__(self, *exc_info) -> bool:
        telemetry = self._telemetry
        span = self._span
        elapsed = telemetry._clock() - self._start
        span.seconds += elapsed
        span.end_ts = max(span.end_ts, time.time())
        telemetry._stack.pop()
        events = telemetry.events
        if events is not None:
            # One structured record per stage exit; ``seconds``/``items``
            # are this entry's own share, so summing stage events
            # reconstructs the span totals.
            events.emit(
                "stage",
                trace=span.trace_id,
                span=span.span_id,
                path=span.path,
                seconds=elapsed,
                items=span.items - self._items_at_enter,
                unit=span.unit,
            )
        return False


class Telemetry:
    """The live observability facade threaded through the pipeline.

    >>> telemetry = Telemetry()
    >>> with telemetry.span("compression") as span:
    ...     telemetry.counter("symbols").inc(4)
    ...     span.add_items(4, "symbols")
    >>> telemetry.registry.value("symbols")
    4
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = registry if registry is not None else Registry()
        self.root = Span("")
        self._stack: List[Span] = [self.root]
        self._clock = clock
        #: when set (a 32-hex trace id, see :mod:`repro.obs.context`),
        #: spans are stamped with it plus fresh span ids on first entry
        self.trace_id: Optional[str] = None
        #: an optional event sink (duck-typed ``emit(kind, **fields)``,
        #: usually a :class:`repro.obs.events.EventLog`); span exits
        #: emit one ``stage`` record each when attached
        self.events = None

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        """Open (or re-enter) the named span under the current one."""
        return _SpanContext(self, self._stack[-1].child(name))

    def spans(self) -> List[Span]:
        """The top-level spans, in creation order."""
        return list(self.root.children.values())

    def find_span(self, path: str) -> Optional[Span]:
        """Look a span up by its slash path (``whomp/compression``)."""
        node = self.root
        for part in path.split("/"):
            node = node.children.get(part)  # type: ignore[assignment]
            if node is None:
                return None
        return node

    # -- metrics (registry delegates) ----------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.registry.gauge(name, help)

    def histogram(self, name: str, help: str = "", **geometry) -> QuantileDigest:
        return self.registry.histogram(name, help, **geometry)
