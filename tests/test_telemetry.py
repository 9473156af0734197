"""Unit tests for the telemetry subsystem: registry, spans, exporters."""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.obs.export import (
    render,
    render_json,
    render_prometheus,
    render_report,
    telemetry_to_dict,
)
from repro.obs.quantiles import QuantileDigest
from repro.obs.registry import Counter, Gauge, Registry
from repro.obs.spans import Span, Telemetry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_add_and_peak(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7
        gauge.set_max(5)
        assert gauge.value == 7  # max keeps the larger value
        gauge.set_max(20)
        assert gauge.value == 20


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        histogram = Registry().histogram("h")
        for value in (1, 5, 50, 500):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 556
        assert histogram.minimum == 1
        assert histogram.maximum == 500
        assert histogram.mean == 139

    def test_registered_digest_is_a_summary(self):
        registry = Registry()
        histogram = registry.histogram("h", "sizes", min_value=1.0, max_value=1e6)
        assert isinstance(histogram, QuantileDigest)
        assert (histogram.name, histogram.help, histogram.kind) == (
            "h", "sizes", "summary"
        )
        assert registry.histogram("h") is histogram
        assert registry.value("h") is None
        for value in (1, 5, 50, 500):
            histogram.observe(value)
        assert abs(histogram.quantile(0.5) - 50) <= 50 * 0.07
        assert abs(histogram.quantile(0.99) - 500) <= 500 * 0.07
        with pytest.raises(TypeError):
            registry.counter("h")


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = Registry()
        first = registry.counter("probe.accesses")
        second = registry.counter("probe.accesses")
        assert first is second

    def test_kind_conflict_raises(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_iteration_is_name_sorted(self):
        registry = Registry()
        registry.counter("zz")
        registry.gauge("aa")
        assert [m.name for m in registry] == ["aa", "zz"]

    def test_value_shortcut(self):
        registry = Registry()
        registry.counter("c").inc(3)
        assert registry.value("c") == 3
        assert registry.value("missing") is None


class TestSpans:
    def test_nesting_builds_a_tree(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner2"):
                pass
        (outer,) = telemetry.spans()
        assert outer.name == "outer"
        assert list(outer.children) == ["inner", "inner2"]
        assert outer.children["inner"].path == "outer/inner"

    def test_same_name_spans_merge(self):
        telemetry = Telemetry()
        for __ in range(3):
            with telemetry.span("stage"):
                pass
        (stage,) = telemetry.spans()
        assert stage.calls == 3

    def test_seconds_accumulate_and_cover_children(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        telemetry = Telemetry(clock=clock)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        (outer,) = telemetry.spans()
        inner = outer.children["inner"]
        assert inner.seconds > 0
        assert outer.seconds >= inner.seconds

    def test_items_and_throughput(self):
        telemetry = Telemetry()
        with telemetry.span("stage") as span:
            span.add_items(500, "accesses")
        (stage,) = telemetry.spans()
        assert stage.items == 500
        assert stage.unit == "accesses"
        assert stage.throughput > 0

    def test_find_span_by_path(self):
        telemetry = Telemetry()
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        assert telemetry.find_span("a/b") is not None
        assert telemetry.find_span("a/zz") is None

    def test_span_survives_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("stage"):
                raise RuntimeError("boom")
        (stage,) = telemetry.spans()
        assert stage.calls == 1

    def test_spans_sit_on_a_shared_timeline(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        (outer,) = telemetry.spans()
        inner = outer.children["inner"]
        # wall-clock endpoints: first entry, last exit, properly nested
        assert 0.0 < outer.start_ts <= inner.start_ts
        assert inner.end_ts <= outer.end_ts

    def test_reentry_keeps_first_start_and_last_end(self):
        telemetry = Telemetry()
        with telemetry.span("stage"):
            pass
        (stage,) = telemetry.spans()
        first_start, first_end = stage.start_ts, stage.end_ts
        with telemetry.span("stage"):
            pass
        assert stage.start_ts == first_start
        assert stage.end_ts >= first_end

    def test_plain_form_round_trips_timeline_and_trace_fields(self):
        telemetry = Telemetry()
        telemetry.trace_id = "ab" * 16
        with telemetry.span("stage") as span:
            span.add_items(7, "accesses")
        plain = telemetry.spans()[0].to_plain()
        assert plain["trace_id"] == "ab" * 16
        assert len(plain["span_id"]) == 16
        assert plain["start_ts"] > 0.0
        assert plain["end_ts"] >= plain["start_ts"]
        absorbed = Span("").absorb_plain(plain)
        assert absorbed.trace_id == plain["trace_id"]
        assert absorbed.span_id == plain["span_id"]
        assert absorbed.start_ts == plain["start_ts"]
        assert absorbed.end_ts == plain["end_ts"]


def _sample_telemetry():
    telemetry = Telemetry()
    with telemetry.span("pipeline"):
        with telemetry.span("compression") as span:
            span.add_items(100, "symbols")
    telemetry.counter("probe.accesses", "accesses fired").inc(100)
    telemetry.gauge("leap.capture_rate").set(0.85)
    histogram = telemetry.histogram("trace.alloc_size_bytes")
    histogram.observe(8)
    histogram.observe(1024)
    return telemetry


class TestReportExporter:
    def test_contains_spans_and_metrics(self):
        text = render_report(_sample_telemetry())
        assert "pipeline" in text
        assert "compression" in text
        assert "symbols/s" in text
        assert "probe.accesses" in text
        assert "leap.capture_rate" in text

    def test_empty_telemetry(self):
        assert "no spans" in render_report(Telemetry())


class TestJsonExporter:
    def test_round_trips_through_json(self):
        data = json.loads(render_json(_sample_telemetry()))
        assert data["counters"]["probe.accesses"] == 100
        assert data["gauges"]["leap.capture_rate"] == 0.85
        assert data["histograms"]["trace.alloc_size_bytes"]["count"] == 2
        (pipeline,) = data["spans"]
        assert pipeline["name"] == "pipeline"
        (compression,) = pipeline["children"]
        assert compression["items"] == 100

    def test_histogram_entry_is_a_summary(self):
        data = telemetry_to_dict(_sample_telemetry())
        entry = data["histograms"]["trace.alloc_size_bytes"]
        assert set(entry) == {"count", "sum", "min", "max", "p50", "p95", "p99"}
        assert (entry["count"], entry["sum"]) == (2, 1032)
        assert (entry["min"], entry["max"]) == (8, 1024)
        assert 8 <= entry["p50"] <= entry["p95"] <= entry["p99"] <= 1024

    def test_dict_form_has_all_sections(self):
        data = telemetry_to_dict(Telemetry())
        assert set(data) == {"spans", "counters", "gauges", "histograms"}


#: One Prometheus text-exposition sample line: name, optional labels,
#: then a number (or +Inf).
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.e+-]+)$"
)


class TestPrometheusExporter:
    def test_every_line_is_parseable(self):
        text = render_prometheus(_sample_telemetry())
        lines = [l for l in text.splitlines() if l]
        assert lines
        for line in lines:
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert _PROM_LINE.match(line), line

    def test_names_are_sanitized_and_prefixed(self):
        text = render_prometheus(_sample_telemetry())
        assert "repro_probe_accesses 100" in text
        assert "probe.accesses" not in text

    def test_summary_series(self):
        lines = render_prometheus(_sample_telemetry()).splitlines()
        assert "# TYPE repro_trace_alloc_size_bytes summary" in lines
        quantiles = [
            line for line in lines
            if line.startswith("repro_trace_alloc_size_bytes{quantile=")
        ]
        assert [line.split('"')[1] for line in quantiles] == [
            "0.5", "0.95", "0.99"
        ]
        assert "repro_trace_alloc_size_bytes_sum 1032" in lines
        assert "repro_trace_alloc_size_bytes_count 2" in lines
        assert not any("_bucket{" in line for line in lines)

    def test_span_series(self):
        text = render_prometheus(_sample_telemetry())
        assert 'repro_span_seconds_total{span="pipeline/compression"}' in text
        assert 'repro_span_items_total{span="pipeline/compression"} 100' in text


class TestRenderDispatch:
    def test_modes(self):
        telemetry = _sample_telemetry()
        assert render(telemetry, "report").startswith("== telemetry")
        json.loads(render(telemetry, "json"))
        assert render(telemetry, "prom").startswith("#")
        with pytest.raises(ValueError):
            render(telemetry, "xml")


class TestImportWeight:
    def test_profilers_load_only_spans_and_metrics(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.profilers.whomp, repro.profilers.leap; "
                "print(' '.join(sys.modules))",
            ],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.split()
        assert "repro.obs.spans" in loaded
        heavy = {
            "repro.obs.slo",
            "repro.obs.trace",
            "repro.obs.events",
            "repro.obs.cli",
            "repro.core.profile_io",
        }
        assert heavy.isdisjoint(loaded)
