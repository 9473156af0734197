"""Trace documents: assembling, persisting, and rendering one trace.

The CLIs open and close one traced invocation with two helpers::

    context, events = start_tracing(telemetry, trace_out=path)
    ...  # run the pipeline
    document = finish_tracing(telemetry, context, events)

A *trace document* is the durable form of one traced invocation: the
trace id, the span trees every participant contributed (the CLI's own
plus the worker trees grafted back through the pool), and the
structured events that carried the trace id.  It is a first-class
profile-store document kind (``"format": "trace"``, validated by
:mod:`repro.core.profile_io` like any other), so traces are ingested,
content-addressed, queried, and garbage-collected exactly like
profiles.

Rendering is deliberately plain text:

* :func:`render_trace_tree` -- the ``repro-obs trace show`` view: the
  span tree drawn by :func:`repro.obs.export.render_span_tree`, the
  same renderer as ``--telemetry report``;
* :func:`top_spans` -- the hottest span paths across a run,
  aggregated from ``stage`` events;
* :func:`folded_stacks` -- ``parent;child;grandchild <microseconds>``
  lines, the folded-stack format every flamegraph tool consumes.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

# The document version (and the validating decoder) live with the other
# formats in core.profile_io; builders and validators must agree.
from repro.core.profile_io import TRACE_FORMAT_VERSION as TRACE_DOCUMENT_VERSION
from repro.obs.context import TraceContext, current, set_current
from repro.obs.events import EventLog
from repro.obs.export import format_seconds, render_span_tree
from repro.obs.spans import Telemetry


def build_trace_document(
    trace_id: str,
    spans: Iterable[Dict[str, object]],
    events: Iterable[Dict[str, object]],
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the canonical trace document for one invocation.

    ``spans`` are :meth:`repro.obs.spans.Span.to_plain` trees
    (typically the root's top-level children); ``events`` are event-log
    records, filtered here to the trace's own.
    """
    return {
        "format": "trace",
        "version": int(TRACE_DOCUMENT_VERSION),
        "trace_id": trace_id,
        "created": time.time(),
        "spans": list(spans),
        "events": [
            event for event in events if event.get("trace") == trace_id
        ],
        "meta": dict(meta or {}),
    }


def start_tracing(
    telemetry: Telemetry,
    trace_out: Optional[str] = None,
    context: Optional[TraceContext] = None,
    capacity: Optional[int] = None,
) -> Tuple[TraceContext, EventLog]:
    """Attach a trace context and event log to ``telemetry``.

    Installs the context as the process's ambient one (so fork-pool
    workers inherit it) and, when ``trace_out`` is given, mirrors every
    event into that JSONL file.  Returns ``(context, events)`` for
    :func:`finish_tracing`.
    """
    if context is None:
        context = TraceContext.new()
    events = (
        EventLog(capacity=capacity, path=trace_out)
        if capacity is not None
        else EventLog(path=trace_out)
    )
    telemetry.trace_id = context.trace_id
    telemetry.events = events
    set_current(context)
    return context, events


def finish_tracing(
    telemetry: Telemetry,
    context: TraceContext,
    events: EventLog,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Close out one traced invocation.

    Builds the canonical trace document from the telemetry's top-level
    spans and the trace's event records, appends a final ``trace``
    record (carrying the span trees, so a JSONL log alone can render
    the tree), flushes the sink, and clears the ambient context.
    Returns the document, ready for the profile store.
    """
    document = build_trace_document(
        context.trace_id,
        [span.to_plain() for span in telemetry.spans()],
        events.tail(),
        meta=meta,
    )
    events.emit(
        "trace",
        trace=context.trace_id,
        span=context.span_id,
        spans=document["spans"],
        meta=document["meta"],
    )
    events.flush()
    if current() is context:
        set_current(None)
    return document


# -- tree rendering ----------------------------------------------------------


def render_trace_tree(document: Dict[str, object]) -> str:
    """The ASCII span tree of one trace document."""
    lines: List[str] = [f"trace {document.get('trace_id', '?')}"]
    lines.extend(render_span_tree(document.get("spans", ())))
    events = document.get("events", ())
    if events:
        lines.append(f"({len(events)} event record(s) in this trace)")
    return "\n".join(lines)


# -- aggregation views -------------------------------------------------------


def top_spans(
    events: Iterable[Dict[str, object]], limit: int = 10
) -> List[Dict[str, object]]:
    """The hottest span paths by accumulated wall time.

    Aggregates ``stage`` events (one per span exit) by their slash
    path; returns rows ``{path, seconds, calls, items}`` sorted by
    seconds descending.
    """
    totals: Dict[str, Dict[str, object]] = {}
    for event in events:
        if event.get("kind") != "stage":
            continue
        path = event.get("path")
        if not isinstance(path, str):
            continue
        row = totals.setdefault(
            path, {"path": path, "seconds": 0.0, "calls": 0, "items": 0}
        )
        row["seconds"] = float(row["seconds"]) + float(event.get("seconds", 0.0))
        row["calls"] = int(row["calls"]) + 1
        row["items"] = int(row["items"]) + int(event.get("items", 0) or 0)
    rows = sorted(
        totals.values(), key=lambda row: float(row["seconds"]), reverse=True
    )
    return rows[:limit] if limit > 0 else rows


def top_from_spans(
    spans: Iterable[Dict[str, object]], limit: int = 10
) -> List[Dict[str, object]]:
    """Like :func:`top_spans`, but from span trees instead of events.

    Used when a log has no ``stage`` records for a path -- e.g. spans
    profiled inside pool workers, which reach the parent as absorbed
    trees rather than live event emissions.
    """
    totals: Dict[str, Dict[str, object]] = {}

    def walk(span: Dict[str, object], stack: str) -> None:
        name = str(span.get("name", "?"))
        path = f"{stack}/{name}" if stack else name
        row = totals.setdefault(
            path, {"path": path, "seconds": 0.0, "calls": 0, "items": 0}
        )
        row["seconds"] = float(row["seconds"]) + float(span.get("seconds", 0.0))
        row["calls"] = int(row["calls"]) + int(span.get("calls", 0))
        row["items"] = int(row["items"]) + int(span.get("items", 0))
        for child in span.get("children", ()):
            if isinstance(child, dict):
                walk(child, path)

    for span in spans:
        if isinstance(span, dict):
            walk(span, "")
    rows = sorted(
        totals.values(), key=lambda row: float(row["seconds"]), reverse=True
    )
    return rows[:limit] if limit > 0 else rows


def render_top(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'wall time':>12}  {'calls':>6}  {'items':>10}  path"]
    for row in rows:
        lines.append(
            f"{format_seconds(float(row['seconds'])):>12}  "
            f"{row['calls']:>6}  {row['items']:>10}  {row['path']}"
        )
    if len(lines) == 1:
        lines.append("(no stage events)")
    return "\n".join(lines)


def folded_stacks(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Span trees as folded-stack lines for flamegraph tools.

    The value is *self* time in microseconds (total minus children), so
    the flamegraph's widths add up exactly like the span tree's wall
    times do.
    """
    lines: List[Tuple[str, int]] = []

    def walk(span: Dict[str, object], stack: str) -> None:
        name = str(span.get("name", "?")).replace(";", "_")
        path = f"{stack};{name}" if stack else name
        seconds = float(span.get("seconds", 0.0))
        children = [
            child
            for child in span.get("children", ())
            if isinstance(child, dict)
        ]
        child_seconds = sum(float(c.get("seconds", 0.0)) for c in children)
        self_us = max(0, int(round((seconds - child_seconds) * 1e6)))
        if self_us or not children:
            lines.append((path, self_us))
        for child in children:
            walk(child, path)

    for span in spans:
        if isinstance(span, dict):
            walk(span, "")
    return [f"{path} {value}" for path, value in lines]
