"""End-to-end trace propagation: spans, fork workers, HTTP, the store."""

import json
import urllib.request

import pytest

from repro.core.profile_io import dumps, loads
from repro.obs.context import TRACE_HEADER, TraceContext, current, set_current
from repro.obs.events import read_events
from repro.obs.spans import Span, Telemetry
from repro.obs.trace import build_trace_document, finish_tracing, start_tracing
from repro.parallel import ParallelExecutor, fork_available
from repro.store import ProfileStore
from repro.store.server import StoreServer

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _observed_context(value):
    # Runs inside a pool worker (or inline on the serial path): report
    # the ambient context the executor handed us.
    context = current()
    if context is None:
        return None
    return (context.trace_id, context.span_id, value)


@pytest.fixture(autouse=True)
def clean_ambient():
    yield
    set_current(None)


class TestSpanStamping:
    def test_spans_carry_trace_ids_and_wall_clocks(self):
        telemetry = Telemetry()
        context, events = start_tracing(telemetry)
        with telemetry.span("whomp") as span:
            with telemetry.span("compression"):
                pass
        assert span.trace_id == context.trace_id
        assert len(span.span_id) == 16
        assert span.start_ts > 0.0
        assert span.end_ts >= span.start_ts
        # one stage event per span exit, tagged with the trace
        stages = [r for r in events.tail() if r["kind"] == "stage"]
        assert [r["path"] for r in stages] == ["whomp/compression", "whomp"]
        assert all(r["trace"] == context.trace_id for r in stages)

    def test_untraced_telemetry_spans_stay_unstamped(self):
        telemetry = Telemetry()
        with telemetry.span("whomp") as span:
            pass
        assert span.trace_id is None
        assert span.span_id is None

    def test_absorb_plain_merges_the_timeline(self):
        # Trees absorbed from several workers merge into one node that
        # spans their combined wall-clock window, on one shared clock.
        root = Span("")
        first = Span("whomp")
        first.start_ts, first.end_ts = 100.0, 101.0
        first.trace_id = "a" * 32
        node = root.absorb_plain(first.to_plain())
        second = Span("whomp")
        second.start_ts, second.end_ts = 99.5, 100.5
        second.trace_id = "b" * 32
        assert root.absorb_plain(second.to_plain()) is node
        assert node.start_ts == 99.5
        assert node.end_ts == 101.0
        assert node.trace_id == "a" * 32  # first stamp wins


class TestExecutorPropagation:
    def test_serial_path_sees_the_ambient_context(self):
        telemetry = Telemetry()
        context, events = start_tracing(telemetry)
        outcomes = ParallelExecutor(jobs=1, telemetry=telemetry).map_outcomes(
            _observed_context, [1, 2, 3], label="probe"
        )
        results = [outcome.value for outcome in outcomes]
        assert all(r is not None for r in results)
        assert {r[0] for r in results} == {context.trace_id}
        # the serial path still emits a stage event for the batch
        assert any(
            r["kind"] == "stage" and r["path"] == "probe"
            for r in events.tail()
        )

    @needs_fork
    def test_fork_workers_join_the_trace_as_children(self):
        telemetry = Telemetry()
        context, __ = start_tracing(telemetry)
        outcomes = ParallelExecutor(jobs=2, telemetry=telemetry).map_outcomes(
            _observed_context, list(range(8)), label="probe"
        )
        results = [outcome.value for outcome in outcomes]
        assert all(r is not None for r in results)
        # same trace everywhere...
        assert {r[0] for r in results} == {context.trace_id}
        # ...but each chunk runs under its own child span, never the
        # parent's span id verbatim.
        assert context.span_id not in {r[1] for r in results}

    @needs_fork
    def test_untraced_runs_hand_workers_no_context(self):
        outcomes = ParallelExecutor(jobs=2).map_outcomes(
            _observed_context, list(range(4))
        )
        assert [outcome.value for outcome in outcomes] == [None] * 4
        assert all(outcome.ok for outcome in outcomes)


class TestFinishTracing:
    def test_document_round_trips_and_ingests(self, tmp_path):
        telemetry = Telemetry()
        context, events = start_tracing(
            telemetry, trace_out=str(tmp_path / "run.jsonl")
        )
        with telemetry.span("whomp") as span:
            span.add_items(64, "accesses")
        document = finish_tracing(
            telemetry, context, events, meta={"command": "test"}
        )
        assert document["format"] == "trace"
        assert document["trace_id"] == context.trace_id
        assert document["spans"][0]["name"] == "whomp"
        assert current() is None  # ambient cleared

        # it validates under the store's decoders like any profile
        text = dumps(document)
        assert loads(text)["trace_id"] == context.trace_id
        store = ProfileStore(str(tmp_path / "store"))
        record = store.ingest_text(text, "trace")
        assert json.loads(store.get_text(record.run_id)) == json.loads(text)

        # the JSONL sink alone can reconstruct the tree
        persisted = read_events(str(tmp_path / "run.jsonl"))
        final = [r for r in persisted if r["kind"] == "trace"]
        assert len(final) == 1
        assert final[0]["spans"][0]["name"] == "whomp"

    def test_events_are_filtered_to_the_trace(self):
        telemetry = Telemetry()
        context, events = start_tracing(telemetry)
        events.emit("request", trace=context.trace_id)
        events.emit("request", trace="f" * 32)  # someone else's
        document = finish_tracing(telemetry, context, events)
        assert all(
            e["trace"] == context.trace_id for e in document["events"]
        )


class TestHttpPropagation:
    @pytest.fixture()
    def server(self, tmp_path):
        store = ProfileStore(str(tmp_path), cache_size=8)
        instance = StoreServer(store, port=0, telemetry=Telemetry()).start()
        yield instance
        instance.stop()

    @staticmethod
    def fetch(server, path, headers=None):
        request = urllib.request.Request(server.url + path)
        for name, value in (headers or {}).items():
            request.add_header(name, value)
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.headers.get(TRACE_HEADER),
                json.loads(response.read().decode("utf-8")),
            )

    def test_daemon_joins_the_callers_trace(self, server):
        context = TraceContext.new()
        echoed, __ = self.fetch(
            server, "/healthz", {TRACE_HEADER: context.to_header()}
        )
        parsed = TraceContext.from_header(echoed)
        assert parsed is not None
        # same trace, but the daemon's own child span -- not an echo
        # of our span id.
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id != context.span_id

    def test_untraced_requests_stay_untraced(self, server):
        # No inbound trace -> no minted trace: /tracez stays focused on
        # traces callers actually started.
        echoed, __ = self.fetch(server, "/healthz")
        assert echoed is None

    def test_access_log_records_land_in_tracez(self, server):
        context = TraceContext.new()
        for __ in range(3):
            self.fetch(server, "/healthz", {TRACE_HEADER: context.to_header()})
        __, payload = self.fetch(server, f"/tracez?trace={context.trace_id}")
        requests = [
            r for r in payload["records"] if r["kind"] == "request"
        ]
        assert len(requests) == 3
        assert all(r["endpoint"] == "healthz" for r in requests)
        assert all(r["trace"] == context.trace_id for r in requests)

    def test_tracez_summary_lists_traces(self, server):
        context = TraceContext.new()
        self.fetch(server, "/healthz", {TRACE_HEADER: context.to_header()})
        __, payload = self.fetch(server, "/tracez")
        rows = {row["trace_id"]: row for row in payload["traces"]}
        assert context.trace_id in rows
        assert "request" in rows[context.trace_id]["kinds"]

    def test_metricsz_reports_endpoint_latency(self, server):
        for __ in range(5):
            self.fetch(server, "/healthz")
        __, payload = self.fetch(server, "/metricsz")
        summary = payload["endpoints"]["healthz"]
        assert summary["count"] >= 5
        assert summary["p50_seconds"] > 0.0
        assert summary["p99_seconds"] >= summary["p50_seconds"]
