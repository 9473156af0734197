"""The one outbound HTTP client and the ``--url`` paths built on it.

Every request ``repro`` sends goes through :mod:`repro.store.client`:
the router's shard calls, the load generator, and the ``--url`` modes
of ``repro-serve``, ``repro-cluster`` and ``repro-obs``.  These tests
drive those paths against in-process daemons: the per-call timeout on
a reused connection, the trace header on every hop, query quoting, and
the one-line error for a daemon that is gone.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.cluster.cli import main as cluster_main
from repro.cluster.loadgen import synthetic_documents
from repro.cluster.router import ClusterRouter
from repro.obs.cli import main as obs_main
from repro.obs.context import TRACE_HEADER, TraceContext, activate
from repro.store import ProfileStore
from repro.store.client import http_request
from repro.store.serve_cli import main as serve_main
from repro.store.server import StoreServer
from repro.store.service import HttpService

#: how long the stub shard's /stall endpoint holds a request
STALL_SECONDS = 5.0


class StallingShard(HttpService):
    """``/stall`` holds the request until released; anything else
    answers at once."""

    metric_prefix = "stub.http"

    def __init__(self):
        self.release = threading.Event()
        super().__init__("127.0.0.1", 0, None, None, None, 1 << 20)

    def route(self, request, method, path, params):
        if path == "/stall":
            self.release.wait(STALL_SECONDS)
        return 200, {"path": path}


@pytest.fixture()
def daemon(tmp_path):
    server = StoreServer(ProfileStore(str(tmp_path / "store")), port=0)
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def stopped_url(tmp_path):
    server = StoreServer(ProfileStore(str(tmp_path / "gone")), port=0)
    server.start()
    url = server.url
    server.stop()
    return url


def query_workloads(url):
    with urllib.request.urlopen(url + "/query/runs", timeout=10) as r:
        return [row["workload"] for row in json.loads(r.read())["runs"]]


def write_profile(tmp_path, stem):
    __, fmt, data = synthetic_documents(count=1, seed=0)[0]
    assert fmt == "json"
    path = tmp_path / f"{stem}.leap.json"
    path.write_bytes(data)
    return str(path)


class TestClient:
    def test_reused_connection_honours_the_call_timeout(self):
        shard = StallingShard().start()
        router = ClusterRouter(port=0, probe_interval=0)
        router.attach_shard("slow", shard.url)
        try:
            # warm this thread's keep-alive connection at the default
            # shard timeout, then call again with a short one
            assert router._try_shard("slow", "GET", "/fast")[0] == 200
            started = time.monotonic()
            answer = router._try_shard("slow", "GET", "/stall", timeout=0.3)
            elapsed = time.monotonic() - started
        finally:
            shard.release.set()
            router.stop()
            shard.stop()
        assert answer is None
        assert elapsed < STALL_SECONDS / 2
        assert router.health.snapshot()["slow"]["alive"] is False

    def test_request_carries_the_ambient_trace(self, daemon):
        with activate(TraceContext.new()) as context:
            status = http_request(daemon.url, "GET", "/healthz").status
        assert status == 200
        record = [
            r for r in daemon.events.tail() if r["kind"] == "request"
        ][-1]
        assert record["trace"] == context.trace_id

    def test_explicit_trace_header_wins_over_the_ambient_one(self, daemon):
        sent = TraceContext.new()
        with activate(TraceContext.new()):
            http_request(
                daemon.url, "GET", "/healthz",
                headers={TRACE_HEADER: sent.to_header()},
            )
        record = [
            r for r in daemon.events.tail() if r["kind"] == "request"
        ][-1]
        assert record["trace"] == sent.trace_id


class TestUrlCommands:
    @pytest.mark.parametrize("stem", ["my run", "a&b"])
    def test_ingest_url_quotes_the_workload(
        self, daemon, tmp_path, stem, capsys
    ):
        path = write_profile(tmp_path, stem)
        code = serve_main(["ingest", "--url", daemon.url, "--profiles", path])
        assert code == 0
        assert f"posted r000001 {stem}" in capsys.readouterr().out
        assert query_workloads(daemon.url) == [stem]

    def test_ingest_url_stream(self, daemon, capsys):
        code = serve_main(
            [
                "ingest", "--url", daemon.url, "--stream",
                "--workloads", "micro.array", "--scale", "0.25",
                "--profiler", "leap",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stream: sent 1, ingested 1, rejected 0" in out
        assert query_workloads(daemon.url) == ["micro.array"]

    def test_cluster_status_url(self, daemon, capsys):
        router = ClusterRouter(port=0, replicas=1, probe_interval=0)
        router.attach_shard("shard0", daemon.url)
        router.start()
        try:
            code = cluster_main(["status", "--url", router.url])
        finally:
            router.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ring: 1 shard(s), 1 replica(s)")
        assert "shard0" in out and daemon.url in out

    def test_obs_trace_list_url(self, daemon, capsys):
        with activate(TraceContext.new()) as context:
            http_request(daemon.url, "GET", "/healthz")
        code = obs_main(["trace", "list", "--url", daemon.url])
        assert code == 0
        assert context.trace_id in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, code", [("ingest", 1), ("status", 2), ("trace-list", 2)]
    )
    def test_stopped_daemon_is_a_one_line_error(
        self, stopped_url, tmp_path, capsys, command, code
    ):
        run, argv = {
            "ingest": (serve_main, [
                "ingest", "--url", stopped_url,
                "--profiles", write_profile(tmp_path, "w"),
            ]),
            "status": (cluster_main, ["status", "--url", stopped_url]),
            "trace-list": (obs_main, ["trace", "list", "--url", stopped_url]),
        }[command]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "unreachable" in err
