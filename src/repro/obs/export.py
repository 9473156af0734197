"""Telemetry exporters: human report, JSON, Prometheus text exposition.

One :class:`~repro.obs.spans.Telemetry` object renders three ways:

* :func:`render_report` -- the operator view: the span tree with
  per-stage wall time, call counts, and throughput, followed by the
  metric catalog.  This is what ``--telemetry report`` prints.
* :func:`render_json` -- the machine view, mirroring the experiments
  runner's ``--json`` convention.
* :func:`render_prometheus` -- the scrape view, in the Prometheus text
  exposition format (``# TYPE`` comments, distributions as
  ``summary`` series, spans as ``repro_span_seconds_total{span="..."}``).

The span tree is drawn by :func:`render_span_tree` over
:meth:`~repro.obs.spans.Span.to_plain` trees, the same renderer behind
``repro-obs trace show``.  Metric names use dots internally
(``whomp.grammar_rules``) and are sanitized to underscores with a
``repro_`` prefix for Prometheus.
"""

from __future__ import annotations

import json
import re
import sys
from typing import IO, Dict, Iterable, List, Optional

from repro.obs.quantiles import SUMMARY_QUANTILES, QuantileDigest
from repro.obs.registry import Counter, Gauge
from repro.obs.spans import Telemetry

#: Exporter mode names accepted by the CLIs' ``--telemetry`` flag.
MODES = ("report", "json", "prom")


def format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1e3:8.2f}ms"


def _format_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def _span_line(span: Dict[str, object]) -> str:
    seconds = float(span.get("seconds", 0.0))
    items = int(span.get("items", 0))
    detail = f"{format_seconds(seconds)}  x{int(span.get('calls', 0))}"
    if items:
        unit = str(span.get("unit", "items"))
        detail += f"  {items} {unit}"
        if seconds > 0.0:
            detail += f" ({_format_rate(items / seconds)} {unit}/s)"
    span_id = span.get("span_id")
    if span_id:
        detail += f"  [{span_id}]"
    return detail


def _ordered_children(span: Dict[str, object]) -> List[Dict[str, object]]:
    children = [
        child for child in span.get("children", ()) if isinstance(child, dict)
    ]
    # Shared-timeline order: spans absorbed from workers carry absolute
    # start offsets, so sorting on them interleaves worker and parent
    # stages the way they actually ran.  Zero (never entered under a
    # wall clock) sorts last, in creation order.
    indexed = list(enumerate(children))
    indexed.sort(
        key=lambda pair: (
            float(pair[1].get("start_ts") or 0.0) or float("inf"),
            pair[0],
        )
    )
    return [child for __, child in indexed]


def render_span_tree(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Plain span trees as ASCII lines: wall time, calls, throughput,
    span id, and the start offset on the shared timeline."""
    roots = _ordered_children({"children": list(spans)})
    starts = [
        float(span.get("start_ts") or 0.0)
        for span in roots
        if float(span.get("start_ts") or 0.0) > 0.0
    ]
    epoch = min(starts) if starts else 0.0
    lines: List[str] = []

    def walk(span: Dict[str, object], prefix: str, is_last: bool) -> None:
        connector = "`-- " if is_last else "|-- "
        name = str(span.get("name", "?"))
        offset = ""
        start = float(span.get("start_ts") or 0.0)
        if start > 0.0 and epoch > 0.0:
            offset = f" @+{start - epoch:.3f}s"
        # the name column ends at the same place at every depth
        lines.append(
            f"{prefix}{connector}{name.ljust(24 - len(prefix))} "
            f"{_span_line(span)}{offset}"
        )
        children = _ordered_children(span)
        child_prefix = prefix + ("    " if is_last else "|   ")
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1)

    for index, span in enumerate(roots):
        walk(span, "", index == len(roots) - 1)
    return lines


def _quantiles(digest: QuantileDigest) -> Dict[str, Optional[float]]:
    return {f"p{int(q * 100)}": digest.quantile(q) for q in SUMMARY_QUANTILES}


def render_report(telemetry: Telemetry) -> str:
    """The human-readable telemetry report."""
    lines: List[str] = ["== telemetry report =="]
    spans = [span.to_plain() for span in telemetry.spans()]
    if spans:
        lines.append("span tree (wall time / calls / throughput):")
        lines.extend(f"  {line}" for line in render_span_tree(spans))
    metrics = list(telemetry.registry)
    if metrics:
        lines.append("metrics:")
        for metric in metrics:
            if isinstance(metric, QuantileDigest):
                fields = {
                    "min": metric.minimum,
                    "max": metric.maximum,
                    **_quantiles(metric),
                }
                shown = " ".join(
                    f"{key}={'-' if value is None else f'{value:g}'}"
                    for key, value in fields.items()
                )
                lines.append(
                    f"  {metric.name:<32} n={metric.count} "
                    f"sum={metric.sum:g} {shown}"
                )
            else:
                value = metric.value
                shown = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"  {metric.name:<32} {shown}")
    if len(lines) == 1:
        lines.append("(no spans or metrics recorded)")
    return "\n".join(lines)


def telemetry_to_dict(telemetry: Telemetry) -> Dict[str, object]:
    """Plain-data form of the span tree and registry."""
    counters: Dict[str, object] = {}
    gauges: Dict[str, object] = {}
    histograms: Dict[str, object] = {}
    for metric in telemetry.registry:
        if isinstance(metric, Counter):
            counters[metric.name] = metric.value
        elif isinstance(metric, Gauge):
            gauges[metric.name] = metric.value
        else:
            histograms[metric.name] = {
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.minimum,
                "max": metric.maximum,
                **_quantiles(metric),
            }
    return {
        "spans": [span.to_plain() for span in telemetry.spans()],
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_json(telemetry: Telemetry, indent: int = 2) -> str:
    return json.dumps(telemetry_to_dict(telemetry), indent=indent)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    return prefix + _PROM_INVALID.sub("_", name)


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return f"{value:g}"


def render_prometheus(telemetry: Telemetry) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for metric in telemetry.registry:
        name = _prom_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, QuantileDigest):
            if metric.count:
                for q in SUMMARY_QUANTILES:
                    lines.append(
                        f'{name}{{quantile="{q}"}} '
                        f"{_prom_value(metric.quantile(q))}"
                    )
            lines.append(f"{name}_sum {_prom_value(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
        else:
            lines.append(f"{name} {_prom_value(metric.value)}")
    spans = [span for top in telemetry.spans() for __, span in top.walk()]
    if spans:
        lines.append("# TYPE repro_span_seconds_total counter")
        for span in spans:
            lines.append(
                f'repro_span_seconds_total{{span="{span.path}"}} '
                f"{_prom_value(span.seconds)}"
            )
        lines.append("# TYPE repro_span_calls_total counter")
        for span in spans:
            lines.append(
                f'repro_span_calls_total{{span="{span.path}"}} {span.calls}'
            )
        lines.append("# TYPE repro_span_items_total counter")
        for span in spans:
            if span.items:
                lines.append(
                    f'repro_span_items_total{{span="{span.path}"}} {span.items}'
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render(telemetry: Telemetry, mode: str) -> str:
    """Render in the named mode (one of :data:`MODES`)."""
    if mode == "report":
        return render_report(telemetry)
    if mode == "json":
        return render_json(telemetry)
    if mode == "prom":
        return render_prometheus(telemetry)
    raise ValueError(f"unknown telemetry mode {mode!r}; choose from {MODES}")


def emit(
    telemetry: Telemetry,
    mode: Optional[str],
    out_path: Optional[str] = None,
    stream: Optional[IO[str]] = None,
) -> None:
    """Render and deliver: to ``out_path`` if given, else to ``stream``
    (default stdout).  A no-op when ``mode`` is None."""
    if mode is None:
        return
    text = render(telemetry, mode)
    if out_path:
        # Atomic like every other artifact write (profiles, checkpoints,
        # JSON results): a crash mid-emit must not leave a torn file a
        # scraper would half-parse.
        from repro.core.fsutil import atomic_write_text

        atomic_write_text(
            out_path, text if text.endswith("\n") else text + "\n"
        )
        target = stream if stream is not None else sys.stdout
        target.write(f"telemetry written to {out_path}\n")
    else:
        target = stream if stream is not None else sys.stdout
        target.write(text if text.endswith("\n") else text + "\n")
