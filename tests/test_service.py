"""The shared HTTP service core, differentially over both daemons.

``StoreServer`` and ``ClusterRouter`` keep only their endpoints; the
dispatch, lifecycle, trace join, and access log are one implementation
(:mod:`repro.store.service`).  These tests pin that both daemons answer
the shell-level contract identically: the router is fronting one
in-process shard, so every request reaches real endpoints on both.
"""

import http.client
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.cluster.loadgen import synthetic_documents
from repro.cluster.router import ClusterRouter
from repro.obs.context import TRACE_HEADER, TraceContext
from repro.obs.events import EventLog
from repro.store import ProfileStore
from repro.store.server import StoreServer

#: small enough that an ordinary document overflows it
BODY_CAP = 4096


class Daemon:
    """One StoreServer on a fresh store."""

    def __init__(self, root):
        self.service = StoreServer(
            ProfileStore(str(root)), port=0, max_body_bytes=BODY_CAP
        ).start()

    def stop(self):
        self.service.stop()


class RoutedShard:
    """A ClusterRouter with one in-process StoreServer shard behind it."""

    def __init__(self, root):
        self.shard = StoreServer(ProfileStore(str(root)), port=0).start()
        self.service = ClusterRouter(
            port=0, replicas=1, probe_interval=0, max_body_bytes=BODY_CAP
        )
        self.service.attach_shard("shard0", self.shard.url)
        self.service.start()

    def stop(self):
        self.service.stop()
        self.shard.stop()


@pytest.fixture(params=[Daemon, RoutedShard], ids=["daemon", "router"])
def front(request, tmp_path):
    instance = request.param(tmp_path)
    yield instance
    instance.stop()


def exchange(service, method, path, body=None, headers=None):
    host, port = service.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        response.read()
        return response.status, response
    finally:
        connection.close()


def request_records(service):
    return [r for r in service.events.tail() if r["kind"] == "request"]


class TestDispatchContract:
    def test_unknown_endpoint_is_404(self, front):
        status, __ = exchange(front.service, "GET", "/no/such/endpoint")
        assert status == 404

    def test_corrupt_ingest_is_400_and_closes(self, front):
        status, response = exchange(
            front.service, "POST", "/ingest?workload=w",
            body=b"{not a profile",
        )
        assert status == 400
        assert response.getheader("Connection") == "close"

    def test_body_over_the_cap_is_413_and_closes(self, front):
        status, response = exchange(
            front.service, "POST", "/ingest?workload=w",
            body=b"x" * (BODY_CAP + 1),
        )
        assert status == 413
        assert response.getheader("Connection") == "close"

    def test_successful_ingest_keeps_the_connection(self, front):
        __, __fmt, data = synthetic_documents(count=1, seed=0)[0]
        assert len(data) <= BODY_CAP
        status, response = exchange(
            front.service, "POST", "/ingest?workload=w", body=data
        )
        assert status == 201
        assert response.getheader("Connection") is None

    def test_echoed_trace_is_a_child_of_the_sent_one(self, front):
        sent = TraceContext.new()
        status, response = exchange(
            front.service, "GET", "/healthz",
            headers={TRACE_HEADER: sent.to_header()},
        )
        assert status == 200
        echoed = TraceContext.from_header(response.getheader(TRACE_HEADER))
        assert echoed is not None
        assert echoed.trace_id == sent.trace_id
        assert echoed.span_id != sent.span_id
        record = request_records(front.service)[-1]
        assert (record["trace"], record["span"]) == (
            echoed.trace_id, echoed.span_id
        )

    def test_exactly_one_request_record_per_request(self, front):
        before = len(request_records(front.service))
        calls = [
            ("GET", "/healthz", None),
            ("GET", "/nowhere", None),
            ("POST", "/ingest?workload=w", b"garbage"),
            ("GET", "/get?run=no-such-run", None),
        ]
        for method, path, body in calls:
            exchange(front.service, method, path, body=body)
        records = request_records(front.service)[before:]
        assert [(r["method"], r["status"]) for r in records] == [
            ("GET", 200), ("GET", 404), ("POST", 400), ("GET", 404),
        ]


@pytest.mark.parametrize(
    "build",
    [
        lambda root: StoreServer(ProfileStore(str(root)), port=0),
        lambda root: ClusterRouter(port=0, probe_interval=0),
    ],
    ids=["daemon", "router"],
)
def test_stop_without_serving_returns(build, tmp_path):
    service = build(tmp_path)
    stopper = threading.Thread(target=service.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=3.0)
    assert not stopper.is_alive(), "stop() hung on a service never served"


def test_cluster_cli_exits_1_when_a_shard_fails_to_boot(tmp_path):
    # the router is built but never serves; its stop() used to hang
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cluster.cli", "serve",
            "--root", str(blocker / "cluster"), "--shards", "1",
            "--port", "0",
        ],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert b"shard boot failed" in proc.stderr


def test_drain_logs_shutdown_on_the_router():
    events = EventLog()
    router = ClusterRouter(port=0, probe_interval=0, events=events).start()
    try:
        assert router.drain(0.5) is True
    finally:
        router.stop()
    shutdown = [r for r in events.tail() if r["kind"] == "server_shutdown"]
    assert len(shutdown) == 1 and shutdown[0]["in_flight"] == 0
