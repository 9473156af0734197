"""The ``repro-obs`` CLI: tail, trace, top, flame, and slo check."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.context import TraceContext
from repro.obs.events import EventLog
from repro.obs.spans import Telemetry
from repro.obs.trace import finish_tracing, start_tracing

TRACE_A = "a" * 32
TRACE_B = "b" * 32


@pytest.fixture()
def event_log(tmp_path):
    """A JSONL log with two traces, one carrying a span tree."""
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path)
    log.emit("request", trace=TRACE_A, endpoint="ingest", seconds=0.010)
    log.emit("request", trace=TRACE_A, endpoint="ingest", seconds=0.020)
    log.emit("stage", trace=TRACE_A, path="whomp", seconds=0.5, items=100)
    log.emit("stage", trace=TRACE_A, path="whomp/compression", seconds=0.2)
    log.emit("request", trace=TRACE_B, endpoint="diff", seconds=0.001)
    log.emit(
        "trace",
        trace=TRACE_A,
        spans=[
            {
                "name": "whomp", "seconds": 0.5, "calls": 1, "items": 100,
                "unit": "accesses", "start_ts": 10.0, "end_ts": 10.5,
                "children": [
                    {"name": "compression", "seconds": 0.2, "calls": 1,
                     "items": 0, "start_ts": 10.1, "end_ts": 10.3,
                     "children": []},
                ],
            }
        ],
    )
    log.flush()
    return path


def slo_file(tmp_path, max_seconds):
    path = tmp_path / "slo.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "slos": [
                    {"name": "ingest-p99", "kind": "latency",
                     "event": "request", "match": {"endpoint": "ingest"},
                     "quantile": 0.99, "max_seconds": max_seconds}
                ],
            }
        )
    )
    return str(path)


class TestTail:
    def test_prints_summaries_and_count(self, event_log, capsys):
        assert main(["tail", "--events", event_log]) == 0
        out = capsys.readouterr().out
        assert "6 event record(s)" in out
        assert "request" in out and "stage" in out

    def test_filters_by_kind_and_trace(self, event_log, capsys):
        assert main(
            ["tail", "--events", event_log, "--kind", "request",
             "--trace", TRACE_A, "--json"]
        ) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert len(records) == 2
        assert all(r["kind"] == "request" for r in records)

    def test_count_keeps_the_tail(self, event_log, capsys):
        assert main(
            ["tail", "--events", event_log, "--count", "1", "--json"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "trace"

    def test_missing_file_is_empty_not_an_error(self, tmp_path, capsys):
        assert main(
            ["tail", "--events", str(tmp_path / "absent.jsonl")]
        ) == 0
        assert "0 event record(s)" in capsys.readouterr().out


class TestTrace:
    def test_list_shows_both_traces(self, event_log, capsys):
        assert main(["trace", "list", "--events", event_log]) == 0
        out = capsys.readouterr().out
        assert TRACE_A in out and TRACE_B in out

    def test_show_renders_the_span_tree(self, event_log, capsys):
        assert main(["trace", "show", TRACE_A, "--events", event_log]) == 0
        out = capsys.readouterr().out
        assert f"trace {TRACE_A}" in out
        assert "whomp" in out and "compression" in out
        assert "accesses" in out

    def test_show_accepts_a_unique_prefix(self, event_log, capsys):
        assert main(["trace", "show", "aaaa", "--events", event_log]) == 0
        assert f"trace {TRACE_A}" in capsys.readouterr().out

    def test_show_rejects_unknown_id(self, event_log, capsys):
        assert main(["trace", "show", "f" * 32, "--events", event_log]) == 2
        assert "no unique trace" in capsys.readouterr().err

    def test_show_requires_a_source(self, capsys):
        assert main(["trace", "show", TRACE_A]) == 2
        assert "--events" in capsys.readouterr().err

    def test_show_renders_a_real_run(self, tmp_path, capsys):
        # A document produced by the actual tracing helpers, not a
        # hand-built fixture.
        telemetry = Telemetry()
        path = str(tmp_path / "run.jsonl")
        context, events = start_tracing(telemetry, trace_out=path)
        with telemetry.span("whomp"):
            with telemetry.span("compression"):
                pass
        finish_tracing(telemetry, context, events)
        assert main(["trace", "show", context.trace_id, "--events", path]) == 0
        out = capsys.readouterr().out
        assert "whomp" in out and "compression" in out


class TestTop:
    def test_aggregates_and_ranks(self, event_log, capsys):
        assert main(["top", "--events", event_log]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "whomp" in line]
        # hottest first: whomp (0.5s) above whomp/compression (0.2s)
        assert lines[0].endswith("whomp")
        assert lines[1].endswith("whomp/compression")
        assert "100" in lines[0]  # items flow through

    def test_limit(self, event_log, capsys):
        assert main(["top", "--events", event_log, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "whomp/compression" not in out


class TestFlame:
    def test_writes_folded_stacks(self, event_log, tmp_path, capsys):
        out_path = str(tmp_path / "stacks.folded")
        assert main(
            ["flame", "--events", event_log, "-o", out_path]
        ) == 0
        lines = open(out_path).read().splitlines()
        # self time: whomp = 0.5 - 0.2 = 0.3s, compression = 0.2s
        assert "whomp 300000" in lines
        assert "whomp;compression 200000" in lines

    def test_stdout_when_no_output_path(self, event_log, capsys):
        assert main(["flame", "--events", event_log]) == 0
        assert "whomp;compression 200000" in capsys.readouterr().out


class TestSloCheck:
    def test_exit_zero_when_met(self, event_log, tmp_path, capsys):
        assert main(
            ["slo", "check", "--slo", slo_file(tmp_path, 1.0),
             "--events", event_log]
        ) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "0 breach(es)" in out

    def test_exit_one_on_breach(self, event_log, tmp_path, capsys):
        assert main(
            ["slo", "check", "--slo", slo_file(tmp_path, 1e-6),
             "--events", event_log]
        ) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_json_output(self, event_log, tmp_path, capsys):
        assert main(
            ["slo", "check", "--slo", slo_file(tmp_path, 1.0),
             "--events", event_log, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["ok"] is True

    def test_exit_two_on_bad_slo_file(self, event_log, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(
            ["slo", "check", "--slo", str(bad), "--events", event_log]
        ) == 2
        assert "not valid JSON" in capsys.readouterr().err
