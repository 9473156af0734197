"""Integration tests: telemetry threaded through the real pipeline.

Three properties matter:

* instrumented runs populate the documented metric names and span tree;
* telemetry never changes profiler *outputs* (instrumented and null
  runs produce identical profiles);
* the :class:`~repro.telemetry.NullTelemetry` default keeps the hot
  paths within noise of a hand-rolled uninstrumented loop.
"""

import json
import re
import time

import pytest

from repro.cli import main as cli_main
from repro.core.cdc import translate_trace
from repro.core.events import AccessKind
from repro.core.omc import ObjectManager
from repro.core.scc import HorizontalSequiturSCC
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.resilience import Quarantine
from repro.runtime.process import Process
from repro.telemetry import Telemetry
from repro.workloads.registry import create

PROFILERS = pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)


class TestWhompTelemetry:
    def test_expected_metrics_and_spans(self, list_trace):
        telemetry = Telemetry()
        WhompProfiler(telemetry=telemetry).profile(list_trace)
        for name in (
            "cdc.translated_total",
            "cdc.wild_total",
            "whomp.grammar_rules",
            "whomp.profile_symbols",
            "whomp.profile_bytes",
            "whomp.groups",
        ):
            assert name in telemetry.registry, name
        for path in (
            "whomp",
            "whomp/translation",
            "whomp/decomposition",
            "whomp/compression",
        ):
            span = telemetry.find_span(path)
            assert span is not None and span.calls == 1, path
        translation = telemetry.find_span("whomp/translation")
        assert translation.items == list_trace.access_count

    def test_output_identical_to_null_run(self, list_trace):
        instrumented = WhompProfiler(telemetry=Telemetry()).profile(list_trace)
        plain = WhompProfiler().profile(list_trace)
        assert instrumented.reconstruct_accesses() == plain.reconstruct_accesses()
        assert instrumented.dimension_sizes() == plain.dimension_sizes()
        assert instrumented.group_labels == plain.group_labels


class TestLeapTelemetry:
    def test_expected_metrics_and_spans(self, list_trace):
        telemetry = Telemetry()
        profile = LeapProfiler(telemetry=telemetry).profile(list_trace)
        for name in (
            "leap.entries",
            "leap.lmads",
            "leap.lmads_per_entry",
            "leap.overflow_symbols_total",
            "leap.capture_rate",
            "leap.profile_bytes",
            "leap.budget",
        ):
            assert name in telemetry.registry, name
        assert telemetry.registry.value("leap.entries") == len(profile.entries)
        assert telemetry.registry.value("leap.capture_rate") == (
            profile.accesses_captured()
        )
        for path in ("leap/translation", "leap/decomposition", "leap/compression"):
            assert telemetry.find_span(path) is not None, path

    def test_output_identical_to_null_run(self, list_trace):
        instrumented = LeapProfiler(telemetry=Telemetry()).profile(list_trace)
        plain = LeapProfiler().profile(list_trace)
        assert instrumented.entries == plain.entries
        assert instrumented.exec_counts == plain.exec_counts
        assert instrumented.access_count == plain.access_count


class TestWorkloadTelemetry:
    def test_probe_and_trace_metrics(self):
        telemetry = Telemetry()
        trace = create("micro.list", scale=0.2).trace(telemetry=telemetry)
        registry = telemetry.registry
        assert registry.value("probe.accesses") == trace.access_count
        assert registry.value("probe.allocs") > 0
        assert registry.value("probe.frees") > 0
        assert registry.value("trace.allocated_bytes_total") > 0
        assert registry.value("trace.peak_live_bytes") > 0

    def test_footprint_published_at_finish(self):
        telemetry = Telemetry()
        process = Process(telemetry=telemetry)
        first = process.malloc("a", 100)
        second = process.malloc("b", 50)
        process.free(first)
        third = process.malloc("c", 30)
        assert "trace.peak_live_bytes" not in telemetry.registry
        process.free(second)
        process.free(third)
        process.finish()
        registry = telemetry.registry
        assert registry.value("trace.peak_live_bytes") == 150
        assert registry.value("trace.live_bytes") == 0
        assert registry.value("trace.allocated_bytes_total") == 180
        assert registry.value("probe.allocs") == 3
        assert registry.value("probe.frees") == 3
        sizes = registry.get("trace.alloc_size_bytes")
        assert (sizes.count, sizes.sum, sizes.maximum) == (3, 180, 100)

    def test_telemetry_does_not_change_the_trace(self):
        plain = create("micro.list", scale=0.2).trace()
        instrumented = create("micro.list", scale=0.2).trace(telemetry=Telemetry())
        assert plain.access_count == instrumented.access_count
        assert plain.raw_address_stream() == instrumented.raw_address_stream()


def _wild_program(process):
    """Eight loads from an untracked block, four from a tracked one."""
    load = process.instruction("ld", AccessKind.LOAD)
    pool = process.malloc("pool", 64, track=False)
    block = process.malloc("site", 64)
    for slot in range(8):
        process.load(load, pool + slot * 8)
    for slot in range(4):
        process.load(load, block + slot * 8)
    process.free(block)
    process.free(pool)
    process.finish()


def _cdc_counts(telemetry):
    return {
        name: telemetry.registry.value(name)
        for name in (
            "cdc.translated_total", "cdc.wild_total", "resilience.quarantined"
        )
    }


class TestPipelineCounts:
    """The CDC counts come from the shared pipeline, so every profiler
    and path publishes them, with the same values."""

    @pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
    @pytest.mark.parametrize("online", (False, True), ids=("offline", "online"))
    @PROFILERS
    def test_cdc_counts_agree(self, factory, online, degraded):
        telemetry = Telemetry()
        profiler = factory(
            telemetry=telemetry, quarantine=Quarantine() if degraded else None
        )
        process = Process(record_trace=not online)
        if online:
            session = profiler.attach(process.bus)
            _wild_program(process)
            session.finish()
        else:
            _wild_program(process)
            profiler.profile(process.trace)
        assert _cdc_counts(telemetry) == {
            "cdc.translated_total": 12,
            "cdc.wild_total": 8,
            "resilience.quarantined": 8 if degraded else None,
        }

    @PROFILERS
    def test_second_finish_publishes_nothing(self, factory):
        telemetry = Telemetry()
        process = Process(record_trace=False)
        session = factory(telemetry=telemetry, quarantine=Quarantine()).attach(
            process.bus
        )
        _wild_program(process)
        profile = session.finish()
        counts = _cdc_counts(telemetry)
        assert counts == {
            "cdc.translated_total": 12,
            "cdc.wild_total": 8,
            "resilience.quarantined": 8,
        }
        assert session.finish() is profile
        assert _cdc_counts(telemetry) == counts
        assert profile.quarantined == 8 and profile.access_count == 4


class TestCliTelemetry:
    #: ``run micro --scale 0.2``: every counter and gauge, and each
    #: histogram's (count, sum).  Span timings are not pinned.
    MICRO_METRICS = {
        "counters": {
            "cdc.translated_total": 408,
            "cdc.wild_total": 0,
            "leap.overflow_symbols_total": 0,
            "probe.accesses": 204,
            "probe.allocs": 1,
            "probe.frees": 1,
            "trace.accesses": 204,
            "trace.allocated_bytes_total": 816,
        },
        "gauges": {
            "leap.budget": 30,
            "leap.capture_rate": 1.0,
            "leap.entries": 2,
            "leap.lmads": 2,
            "leap.overflowed_entries": 0,
            "leap.profile_bytes": 176,
            "trace.live_bytes": 0,
            "trace.peak_live_bytes": 816,
            "whomp.grammar_rules": 22,
            "whomp.groups": 1,
            "whomp.profile_bytes": 466,
            "whomp.profile_symbols": 255,
        },
        "histograms": {
            "leap.lmads_per_entry": [2, 2],
            "trace.alloc_size_bytes": [1, 816],
        },
    }

    def test_metric_values_pinned(self, tmp_path):
        out_file = tmp_path / "telemetry.json"
        code = cli_main(
            ["run", "micro", "--scale", "0.2", "-o", str(tmp_path),
             "--telemetry", "json", "--telemetry-out", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        observed = {
            "counters": data["counters"],
            "gauges": data["gauges"],
            "histograms": {
                name: [histogram["count"], histogram["sum"]]
                for name, histogram in data["histograms"].items()
            },
        }
        assert observed == self.MICRO_METRICS

    def test_report_covers_pipeline_stages(self, tmp_path, capsys):
        code = cli_main(
            ["run", "micro", "--scale", "0.2", "-o", str(tmp_path),
             "--telemetry", "report"]
        )
        assert code == 0
        output = capsys.readouterr().out
        for stage in (
            "trace-collection",
            "translation",
            "decomposition",
            "compression",
        ):
            assert stage in output, stage
        assert "accesses/s" in output

    def test_prom_output_parseable(self, tmp_path, capsys):
        code = cli_main(
            ["run", "micro", "--scale", "0.2", "-o", str(tmp_path),
             "--telemetry", "prom"]
        )
        assert code == 0
        output = capsys.readouterr().out
        prom_line = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.e+-]+)$"
        )
        sample_lines = [
            line
            for line in output.splitlines()
            if line.startswith("repro_")
        ]
        assert sample_lines
        for line in sample_lines:
            assert prom_line.match(line), line

    def test_telemetry_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "telemetry.json"
        code = cli_main(
            ["run", "micro", "--scale", "0.2", "-o", str(tmp_path),
             "--telemetry", "json", "--telemetry-out", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert "spans" in data and data["counters"]

    def test_disabling_telemetry_changes_no_profile_outputs(self, tmp_path):
        plain_dir = tmp_path / "plain"
        instrumented_dir = tmp_path / "telemetry"
        cli_main(["run", "micro", "--scale", "0.2", "-o", str(plain_dir)])
        cli_main(
            ["run", "micro", "--scale", "0.2", "-o", str(instrumented_dir),
             "--telemetry", "report"]
        )
        for name in ("micro.whomp.json", "micro.leap.json"):
            plain = (plain_dir / name).read_text()
            instrumented = (instrumented_dir / name).read_text()
            assert plain == instrumented, name

    def test_stats_json(self, capsys):
        code = cli_main(["stats", "micro", "--scale", "0.2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accesses"] > 0
        assert "reuse" in data and "load_fraction" in data


class TestNullTelemetryOverhead:
    """The disabled fast path must stay within noise of a bare loop."""

    @staticmethod
    def _bare_whomp(trace):
        omc = ObjectManager()
        scc = HorizontalSequiturSCC()
        count = 0
        for access in translate_trace(trace, omc):
            scc.consume(access)
            count += 1
        return count

    def test_null_telemetry_overhead_under_five_percent(self):
        trace = create("micro.array", scale=2.0).trace()
        profiler = WhompProfiler()  # defaults to NULL_TELEMETRY

        def best_of(function, rounds=5):
            timings = []
            for __ in range(rounds):
                start = time.perf_counter()
                function(trace)
                timings.append(time.perf_counter() - start)
            return min(timings)

        # Warm both paths once, then interleave measurements.  Timing
        # under a loaded test runner is noisy, so take the best pairing
        # across a few independent attempts before failing: the claim is
        # about the code path, not about one scheduler quantum.
        self._bare_whomp(trace)
        profiler.profile(trace)
        attempts = []
        for __ in range(3):
            bare = best_of(self._bare_whomp)
            instrumented_null = best_of(profiler.profile)
            attempts.append((instrumented_null, bare))
            # <5% on top of the bare loop, with a small absolute floor.
            if instrumented_null <= bare * 1.05 + 0.002:
                return
        assert False, (
            f"null-telemetry profile never came within 5% of the bare "
            f"loop across {len(attempts)} attempts: {attempts}"
        )
