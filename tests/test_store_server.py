"""The PROFSTORE serving daemon: endpoints, errors, concurrency, cache."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.events import AccessKind
from repro.core.profile_io import dumps
from repro.obs.spans import Telemetry
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.runtime.process import Process
from repro.store import ProfileStore
from repro.store.server import StoreServer


def make_leap_text(offsets):
    process = Process()
    ld = process.instruction("ld", AccessKind.LOAD)
    block = process.malloc("site", 512, type_name="long[]")
    for offset in offsets:
        process.load(ld, block + (offset % 64) * 8)
    process.free(block)
    process.finish()
    return dumps(LeapProfiler().profile(process.trace))


@pytest.fixture(scope="module")
def documents():
    return {
        "alpha": make_leap_text(range(80)),
        "beta": make_leap_text(range(0, 160, 2)),
    }


@pytest.fixture()
def server(tmp_path, documents):
    store = ProfileStore(str(tmp_path), cache_size=8)
    for workload, text in documents.items():
        store.ingest_text(text, workload)
    instance = StoreServer(store, port=0, telemetry=Telemetry()).start()
    yield instance
    instance.stop()


def fetch(server, path, method="GET", data=None):
    request = urllib.request.Request(
        server.url + path, data=data, method=method
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def fetch_error(server, path, method="GET", data=None):
    try:
        fetch(server, path, method, data)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = fetch(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["runs"] == 2
        assert payload["max_concurrent"] == server.max_concurrent
        assert payload["uptime_seconds"] >= 0

    def test_get_is_bit_identical(self, server, documents):
        status, payload = fetch(server, "/get?run=alpha@leap")
        assert status == 200
        assert payload == json.loads(documents["alpha"])

    def test_query_runs_and_entries(self, server):
        __, runs = fetch(server, "/query/runs?workload=alpha")
        assert [r["workload"] for r in runs["runs"]] == ["alpha"]
        __, entries = fetch(server, "/query/entries?min_count=1")
        assert entries["entries"]
        assert {row["workload"] for row in entries["entries"]} == {
            "alpha", "beta",
        }
        __, shapes = fetch(server, "/query/shapes?run=alpha@leap")
        assert shapes["shapes"]

    def test_diff_endpoint(self, server):
        status, payload = fetch(server, "/diff?a=alpha@leap&b=alpha@leap")
        assert status == 200
        assert payload["identical"]
        assert payload["regressions"] == []
        __, drifted = fetch(server, "/diff?a=alpha@leap&b=beta@leap")
        assert not drifted["identical"]

    def test_ingest_and_gc(self, server):
        document = make_leap_text(range(0, 120, 3)).encode("utf-8")
        status, payload = fetch(
            server, "/ingest?workload=gamma", method="POST", data=document
        )
        assert status == 201
        assert payload["kind"] == "leap"
        status, got = fetch(server, f"/get?run={payload['run_id']}")
        assert got == json.loads(document.decode("utf-8"))
        server.store.drop_run(payload["run_id"])
        status, stats = fetch(server, "/gc", method="POST")
        assert status == 200
        assert stats["removed"] == 1

    def test_metricsz_counts_requests(self, server):
        for __ in range(3):
            fetch(server, "/healthz")
        __, metrics = fetch(server, "/metricsz")
        assert metrics["counters"]["store.http.healthz_total"] >= 3
        assert metrics["counters"]["store.http.requests_total"] >= 3
        assert metrics["latency"] is None or metrics["latency"]["count"] >= 3
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(
            metrics["cache"]
        )


class TestDefaultTelemetry:
    def test_metricsz_counts_an_ingest(self, tmp_path, documents):
        instance = StoreServer(ProfileStore(str(tmp_path)), port=0).start()
        try:
            status, __ = fetch(
                instance, "/ingest?workload=alpha", method="POST",
                data=documents["alpha"].encode("utf-8"),
            )
            assert status == 201
            __, metrics = fetch(instance, "/metricsz")
        finally:
            instance.stop()
        assert metrics["counters"]["store.ingested_total"] == 1
        assert metrics["counters"]["store.http.ingest_total"] == 1


class TestErrors:
    def test_unknown_run_is_404(self, server):
        code, payload = fetch_error(server, "/get?run=r999999")
        assert code == 404
        assert "no run" in payload["error"]

    def test_unknown_endpoint_is_404(self, server):
        code, __ = fetch_error(server, "/nope")
        assert code == 404

    def test_missing_parameter_is_400(self, server):
        code, payload = fetch_error(server, "/get")
        assert code == 400
        assert "run" in payload["error"]

    def test_bad_parameter_is_400(self, server):
        code, __ = fetch_error(server, "/query/entries?instruction=banana")
        assert code == 400

    def test_corrupt_ingest_is_400_and_stores_nothing(self, server):
        before = server.store.stats()["runs"]
        code, payload = fetch_error(
            server, "/ingest?workload=bad", method="POST", data=b"not json"
        )
        assert code == 400
        assert server.store.stats()["runs"] == before
        __, metrics = fetch(server, "/metricsz")
        assert metrics["counters"]["store.http.errors_total"] >= 1


class TestConcurrency:
    def test_parallel_mixed_requests_all_succeed(self, server):
        paths = [
            "/healthz",
            "/query/runs",
            "/query/entries?min_count=1",
            "/diff?a=alpha@leap&b=beta@leap",
            "/get?run=alpha@leap",
            "/query/shapes?run=beta@leap",
        ] * 4
        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(lambda p: fetch(server, p), paths))
        assert all(status == 200 for status, __ in results)
        __, metrics = fetch(server, "/metricsz")
        assert metrics["counters"]["store.http.requests_total"] >= len(paths)

    def test_concurrent_http_ingest_is_consistent(self, server):
        documents = [
            make_leap_text(range(0, 64, step)).encode("utf-8")
            for step in range(1, 7)
        ]
        barrier = threading.Barrier(len(documents))

        def ingest(index):
            barrier.wait()
            return fetch(
                server,
                f"/ingest?workload=conc{index}",
                method="POST",
                data=documents[index],
            )

        with ThreadPoolExecutor(max_workers=len(documents)) as pool:
            results = list(pool.map(ingest, range(len(documents))))
        assert all(status == 201 for status, __ in results)
        run_ids = [payload["run_id"] for __, payload in results]
        assert len(set(run_ids)) == len(run_ids)
        for index, document in enumerate(documents):
            __, got = fetch(server, f"/get?run=conc{index}@leap")
            assert got == json.loads(document.decode("utf-8"))

    def test_repeated_queries_hit_the_lru(self, server):
        """The acceptance floor: >= 50% hit rate on a repeated-query
        pattern (every decode after the first is a hit)."""
        for __ in range(10):
            fetch(server, "/query/entries?workload=alpha&min_count=1")
        __, metrics = fetch(server, "/metricsz")
        assert metrics["cache"]["hits"] >= 9
        assert metrics["cache"]["hit_rate"] >= 0.5


def fetch_raw(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


class TestClusterPrimitives:
    """The shard-side surface SCALE-OUT's router builds on."""

    def test_healthz_reports_bound_address(self, server):
        __, payload = fetch(server, "/healthz")
        host, port = server.address
        assert payload["host"] == host
        assert payload["port"] == port

    def test_blob_serves_raw_bytes_with_provenance(self, server, documents):
        data = documents["alpha"].encode("utf-8")
        from repro.store.blobs import sha256_hex

        digest = sha256_hex(data)
        status, headers, body = fetch_raw(server, f"/blob?digest={digest}")
        assert status == 200
        assert body == data
        assert headers["X-Repro-Digest"] == digest
        assert headers["X-Repro-Workload"] == "alpha"
        assert headers["X-Repro-Kind"] == "leap"

    def test_blob_resolves_run_selectors(self, server, documents):
        data = documents["beta"].encode("utf-8")
        from repro.store.blobs import sha256_hex

        status, headers, body = fetch_raw(server, "/blob?run=beta@leap")
        assert status == 200
        assert body == data
        assert headers["X-Repro-Digest"] == sha256_hex(data)

    def test_repair_force_heals_a_corrupt_blob(self, server, documents):
        import os

        from repro.store.blobs import sha256_hex

        data = documents["alpha"].encode("utf-8")
        digest = sha256_hex(data)
        blob_path = server.store.blobs.path(digest)
        with open(blob_path, "wb") as handle:
            handle.write(b"garbage")
        assert os.path.getsize(blob_path) == len(b"garbage")
        status, payload = fetch(
            server,
            f"/repair?digest={digest}&workload=alpha",
            method="POST",
            data=data,
        )
        assert status == 200
        assert payload["replaced"] is True
        __, __headers, healed = fetch_raw(server, f"/blob?digest={digest}")
        assert healed == data

    def test_repair_creates_a_run_for_new_bytes(self, server):
        from repro.store.blobs import sha256_hex

        data = make_leap_text(range(0, 96, 3)).encode("utf-8")
        digest = sha256_hex(data)
        status, payload = fetch(
            server,
            f"/repair?digest={digest}&workload=orphan",
            method="POST",
            data=data,
        )
        assert status == 200
        assert payload["created_run"]  # the run id of the new record
        __, got = fetch(server, f"/get?run={digest}")
        assert got == json.loads(data.decode("utf-8"))

    def test_repair_rejects_mismatched_digest(self, server, documents):
        data = documents["alpha"].encode("utf-8")
        status, payload = fetch_error(
            server, f"/repair?digest={'0' * 64}&workload=alpha",
            method="POST", data=data,
        )
        assert status == 400
        assert "hash" in payload["error"]

    def test_repair_rejects_corrupt_payload(self, server, documents):
        from repro.store.blobs import sha256_hex

        bad = b"this is not a profile document"
        status, __payload = fetch_error(
            server, f"/repair?digest={sha256_hex(bad)}&workload=x",
            method="POST", data=bad,
        )
        assert status == 400

    def test_drain_with_idle_server_emits_shutdown_event(
        self, tmp_path, documents
    ):
        store = ProfileStore(str(tmp_path / "drain"), cache_size=8)
        instance = StoreServer(store, port=0, telemetry=Telemetry()).start()
        try:
            assert instance.drain(deadline_seconds=1.0) is True
        finally:
            instance.stop()
        shutdowns = [
            record
            for record in instance.events.tail()
            if record["kind"] == "server_shutdown"
        ]
        assert len(shutdowns) == 1
        assert shutdowns[0]["drained"] is True
        assert shutdowns[0]["in_flight"] == 0
        assert shutdowns[0]["deadline_seconds"] == 1.0

    def test_drain_waits_for_inflight_requests(self, server):
        """A request in flight when drain starts completes before the
        drain returns (the daemon never drops accepted work)."""
        import time

        entered = threading.Event()
        release = threading.Event()
        original = server.query.find_runs

        def slow_find_runs(*args, **kwargs):
            entered.set()
            release.wait(timeout=5.0)
            return original(*args, **kwargs)

        server.query.find_runs = slow_find_runs
        try:
            result = {}

            def client():
                result["answer"] = fetch(server, "/query/runs")

            thread = threading.Thread(target=client)
            thread.start()
            assert entered.wait(timeout=5.0)

            def drain_late():
                time.sleep(0.1)
                release.set()

            threading.Thread(target=drain_late).start()
            assert server.drain(deadline_seconds=5.0) is True
            thread.join(timeout=5.0)
            assert result["answer"][0] == 200
        finally:
            server.query.find_runs = original
