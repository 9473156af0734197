"""Pipeline-wide telemetry: spans, counters, and self-profiling.

The paper's Table 1 measures the profilers themselves -- dilation
factors, profile sizes, capture rates.  This package is the repo's own
measurement substrate: a dependency-free registry of named metrics, a
nestable span tree timing each pipeline stage, and exporters rendering
the lot as a human report, JSON, or Prometheus text.

Usage::

    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    profile = WhompProfiler(telemetry=telemetry).profile(trace)
    print(render_report(telemetry))

Every instrumented component defaults to :data:`NULL_TELEMETRY`, whose
operations are no-ops.  Counts are published once per stage boundary,
never per event, so no hot path carries a telemetry check.
"""

from repro.telemetry.export import (
    MODES,
    emit,
    render,
    render_json,
    render_prometheus,
    render_report,
    telemetry_to_dict,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
)
from repro.telemetry.spans import (
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    Telemetry,
    coalesce,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MODES",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Registry",
    "Span",
    "Telemetry",
    "coalesce",
    "emit",
    "render",
    "render_json",
    "render_prometheus",
    "render_report",
    "telemetry_to_dict",
]
