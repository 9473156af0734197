"""SCALE-OUT integration: router + supervised shards, end to end.

A real 3-shard cluster (subprocess shards, in-process router) backs
the module-scoped fixture; destructive drills (kill, drain) boot their
own.  The satellite contracts live here too: ``repro-serve serve
--port 0`` announcing its bound address, and SIGTERM draining with a
``server_shutdown`` event.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.cluster.loadgen import (
    LoadReport,
    build_plan,
    run_load,
    run_load_parallel,
    synthetic_documents,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ShardSupervisor
from repro.obs.events import EventLog, read_events
from repro.obs.quantiles import digest_of
from repro.parallel import WorkerCrashError
from repro.store.blobs import sha256_hex


class Cluster:
    """One booted cluster and the plumbing the tests poke at."""

    def __init__(self, root, shards=3, replicas=2):
        self.root = str(root)
        self.events = EventLog()
        self.router = ClusterRouter(
            port=0, replicas=replicas, probe_interval=0.2, events=self.events
        )
        self.supervisor = ShardSupervisor(
            self.root,
            shards=shards,
            events=self.events,
            on_address_change=self.router.attach_shard,
            drain_deadline=2.0,
            backoff=0.1,
        )
        self.router.supervisor = self.supervisor

    def start(self):
        self.supervisor.start()
        self.router.start()
        return self

    def stop(self):
        self.router.stop()
        self.supervisor.stop()

    @property
    def url(self):
        return self.router.url

    def get_json(self, path, timeout=15):
        with urllib.request.urlopen(self.url + path, timeout=timeout) as r:
            return r.status, json.loads(r.read().decode("utf-8"))

    def post(self, path, data=b"", timeout=60, headers=None):
        request = urllib.request.Request(
            self.url + path, data=data, method="POST",
            headers=headers or {},
        )
        with urllib.request.urlopen(request, timeout=timeout) as r:
            return r.status, json.loads(r.read().decode("utf-8"))

    def wait_for(self, predicate, deadline=20.0, interval=0.2):
        end = time.time() + deadline
        while time.time() < end:
            if predicate():
                return True
            time.sleep(interval)
        return False


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    instance = Cluster(tmp_path_factory.mktemp("cluster")).start()
    yield instance
    instance.stop()


@pytest.fixture(scope="module")
def documents():
    return synthetic_documents(count=6, seed=3)


class TestRoutedWrites:
    def test_ingest_replicates(self, cluster, documents):
        workload, __, data = documents[0]
        status, payload = cluster.post(
            f"/ingest?workload={workload}", data=data
        )
        assert status == 201
        assert payload["digest"] == sha256_hex(data)
        assert payload["written"] == 2
        assert payload["capture_completeness"] == 1.0
        assert len(set(payload["replicas"])) == 2
        assert not payload["degraded"]

    def test_replicas_follow_the_ring(self, cluster, documents):
        workload, __, data = documents[1]
        __, payload = cluster.post(f"/ingest?workload={workload}", data=data)
        assert payload["replicas"] == cluster.router.ring.place(
            payload["digest"]
        )

    def test_corrupt_document_rejected_everywhere(self, cluster):
        status_error = None
        try:
            cluster.post("/ingest?workload=bad", data=b"not a profile")
        except urllib.error.HTTPError as exc:
            status_error = exc.code
        assert status_error == 400

    def test_stream_ingest_places_each_document(self, cluster, documents):
        from repro.core.binformat import StreamWriter

        pending = []
        writer = StreamWriter(pending.append)
        writer.begin()
        for workload, __, data in documents[:2]:
            writer.send_document(workload, data)
        writer.close()
        body = b"".join(pending)
        status, payload = cluster.post(
            "/ingest/stream", data=body,
        )
        assert status == 201
        assert payload["complete"]
        assert len(payload["ingested"]) == 2
        for row in payload["ingested"]:
            assert row["capture_completeness"] == 1.0


class TestRoutedReads:
    def test_get_round_trips_bit_identical(self, cluster, documents):
        workload, __, data = documents[2]
        __, ingest = cluster.post(f"/ingest?workload={workload}", data=data)
        status, document = cluster.get_json(f"/get?run={ingest['digest']}")
        assert status == 200
        assert document == json.loads(data.decode("utf-8"))

    def test_query_runs_dedupes_replicas(self, cluster, documents):
        workload, __, data = documents[3]
        cluster.post(f"/ingest?workload={workload}", data=data)
        status, payload = cluster.get_json(f"/query/runs?workload={workload}")
        assert status == 200
        digests = [row["digest"] for row in payload["runs"]]
        # stored on two shards, reported once
        assert len(digests) == len(set(digests))
        assert sha256_hex(data) in digests
        assert payload["capture_completeness"] == 1.0
        assert not payload["degraded"]

    def test_query_entries_dedupes_replicas(self, cluster, documents):
        workload, __, data = documents[2]
        digest = sha256_hex(data)
        status, payload = cluster.get_json(f"/query/entries?run={digest}")
        assert status == 200
        assert payload["entries"]
        keys = [
            (row["digest"], row["instruction"], row["group"])
            for row in payload["entries"]
        ]
        assert len(keys) == len(set(keys))

    def test_diff_resolves_cluster_wide(self, cluster, documents):
        __, __fmt, data_a = documents[2]
        __, __fmt2, data_b = documents[3]
        status, payload = cluster.get_json(
            f"/diff?a={sha256_hex(data_a)}&b={sha256_hex(data_b)}"
        )
        assert status == 200
        assert "regressions" in payload

    def test_blob_is_verified_raw_bytes(self, cluster, documents):
        workload, __, data = documents[4]
        __, ingest = cluster.post(f"/ingest?workload={workload}", data=data)
        request = urllib.request.Request(
            cluster.url + f"/blob?digest={ingest['digest']}"
        )
        with urllib.request.urlopen(request, timeout=15) as response:
            served = response.read()
            headers = dict(response.headers)
        assert served == data
        assert headers["X-Repro-Digest"] == ingest["digest"]
        assert headers["X-Repro-Served-By"] in ingest["replicas"]


class TestReadRepair:
    def test_corrupt_replica_heals_byte_for_byte(self, cluster, documents):
        workload, __, data = documents[5]
        __, ingest = cluster.post(f"/ingest?workload={workload}", data=data)
        digest = ingest["digest"]
        victim = ingest["replicas"][0]
        blob_path = os.path.join(
            cluster.root, victim, "objects", digest[:2], digest[2:]
        )
        with open(blob_path, "wb") as handle:
            handle.write(b"bit rot")
        request = urllib.request.Request(cluster.url + f"/blob?digest={digest}")
        with urllib.request.urlopen(request, timeout=15) as response:
            served = response.read()
        assert served == data  # the corrupt replica never answers
        # the victim now holds the good bytes again (ask it directly)
        assert cluster.wait_for(
            lambda: self._shard_blob(cluster, victim, digest) == data
        )
        repairs = [
            record
            for record in cluster.events.tail()
            if record["kind"] == "read_repair" and record["digest"] == digest
        ]
        assert repairs and repairs[-1]["repaired"]
        __, clusterz = cluster.get_json("/clusterz")
        assert clusterz["replication"]["read_repairs"] >= 1

    @staticmethod
    def _shard_blob(cluster, shard, digest):
        url = cluster.router.health.url(shard)
        try:
            with urllib.request.urlopen(
                url + f"/blob?digest={digest}", timeout=10
            ) as response:
                return response.read()
        except (urllib.error.URLError, OSError):
            return None


class TestObservability:
    def test_healthz_reports_all_alive(self, cluster):
        status, payload = cluster.get_json("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["shards_alive"] == payload["shards_total"] == 3
        assert payload["capture_completeness"] == 1.0
        assert payload["port"] == cluster.router.address[1]

    def test_clusterz_layout_and_health(self, cluster):
        __, payload = cluster.get_json("/clusterz")
        assert sorted(payload["ring"]["shards"]) == [
            "shard0", "shard1", "shard2",
        ]
        assert abs(
            sum(payload["ring"]["keyspace_share"].values()) - 1.0
        ) < 1e-6
        for row in payload["shards"].values():
            assert row["url"] and isinstance(row["pid"], int)

    def test_metricsz_merges_shard_digests(self, cluster):
        # make sure every shard has served something
        for __ in range(3):
            cluster.get_json("/query/runs")
        __, payload = cluster.get_json("/metricsz")
        assert payload["router"]["endpoints"]["*"]["count"] >= 1
        cluster_all = payload["cluster"]["endpoints"].get("*")
        assert cluster_all and cluster_all["count"] >= 1
        shard_counts = sum(
            row["endpoints"]["*"]["count"]
            for row in payload["shards"].values()
            if row.get("endpoints")
        )
        # the merge carries every shard's samples
        assert cluster_all["count"] == shard_counts

    def test_metricsz_skips_a_shard_with_bad_digests(self):
        good = {
            "endpoints": {},
            "latency_digests": {"*": digest_of([0.01, 0.02]).to_plain()},
        }
        broken = digest_of([0.5]).to_plain()
        broken["counts"][0] = -1
        bad = {"endpoints": {}, "latency_digests": {"*": broken}}
        answers = {"good": good, "bad": bad}
        router = ClusterRouter(port=0, probe_interval=0)
        router.health.alive_shards = lambda: ["good", "bad"]
        router._try_shard = lambda name, method, path, **kw: (
            200, {}, json.dumps(answers[name]).encode("utf-8")
        )
        router.start()
        try:
            with urllib.request.urlopen(router.url + "/metricsz") as r:
                status = r.status
                payload = json.loads(r.read().decode("utf-8"))
        finally:
            router.stop()
        assert status == 200
        assert payload["cluster"]["endpoints"]["*"]["count"] == 2
        assert "digests" not in payload["shards"]["good"]
        assert payload["shards"]["bad"]["digests"].startswith("rejected: ")

    def test_trace_header_propagates_to_shards(self, cluster, documents):
        workload, __, data = documents[0]
        trace_id = "ab" * 16
        header = f"{trace_id}-{'cd' * 8}"
        request = urllib.request.Request(
            cluster.url + f"/ingest?workload={workload}",
            data=data,
            method="POST",
            headers={"X-Repro-Trace": header},
        )
        with urllib.request.urlopen(request, timeout=15) as response:
            echoed = response.headers.get("X-Repro-Trace")
        assert echoed and echoed.split("-")[0] == trace_id
        status, payload = cluster.get_json(f"/tracez?trace={trace_id}")
        assert status == 200
        shards_seen = {
            record.get("shard")
            for record in payload["records"]
            if record.get("shard")
        }
        assert shards_seen  # at least one shard logged under this trace


class TestFaultDrill:
    def test_kill_one_shard_zero_client_errors(self, tmp_path):
        cluster = Cluster(tmp_path / "drill").start()
        try:
            outcome = {}

            def killer():
                time.sleep(0.6)
                outcome["pid"] = cluster.supervisor.kill_shard("shard1")

            thread = threading.Thread(target=killer)
            thread.start()
            report = run_load(
                cluster.url, requests=120, concurrency=6, seed=11
            )
            thread.join()
            assert outcome["pid"] is not None
            assert report.failures == 0
            assert report.server_errors == 0
            assert report.completed + report.client_errors == report.requests
            # supervisor restarts the shard; the router re-marks it live
            assert cluster.wait_for(
                lambda: cluster.get_json("/clusterz")[1]["shards"]["shard1"][
                    "alive"
                ]
                and cluster.get_json("/clusterz")[1]["shards"]["shard1"][
                    "restarts"
                ]
                >= 1
            )
            restarts = [
                record
                for record in cluster.events.tail()
                if record["kind"] == "shard_restart"
            ]
            assert restarts and restarts[0]["shard"] == "shard1"
        finally:
            cluster.stop()

    def test_drain_relocates_and_stops(self, tmp_path):
        cluster = Cluster(tmp_path / "drain").start()
        try:
            digests = []
            for workload, __, data in synthetic_documents(count=4, seed=7):
                __, payload = cluster.post(
                    f"/ingest?workload={workload}", data=data
                )
                digests.append(payload["digest"])
            status, payload = cluster.post("/drain?shard=shard2")
            assert status == 200
            assert payload["stopped"]
            assert "error" not in payload
            assert "shard2" not in payload["ring"]["shards"]
            # every digest still fully readable from the remaining pair
            for digest in digests:
                status, __doc = cluster.get_json(f"/get?run={digest}")
                assert status == 200
            drains = [
                record
                for record in cluster.events.tail()
                if record["kind"] == "shard_drain"
            ]
            assert drains and drains[0]["shard"] == "shard2"
        finally:
            cluster.stop()


class TestServeCliContract:
    """The --port 0 announce + SIGTERM drain satellites, end to end."""

    def _spawn(self, root):
        env = dict(os.environ)
        src = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.store.serve_cli", "serve",
                "--root", str(root), "--port", "0",
                "--trace-out", str(root / "events.jsonl"),
                "--drain-deadline", "2.0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            bufsize=0,
        )

    def test_port_zero_announces_and_sigterm_drains(self, tmp_path):
        proc = self._spawn(tmp_path)
        try:
            address = None
            pending = b""
            deadline = time.time() + 30
            while address is None and time.time() < deadline:
                piece = proc.stdout.read(4096)
                if not piece:
                    break
                pending += piece
                while b"\n" in pending:
                    line, __, pending = pending.partition(b"\n")
                    text = line.decode("utf-8", "replace").strip()
                    if text.startswith("listening "):
                        address = text.split(" ", 1)[1]
                        break
            assert address, "daemon never announced its bound address"
            host, port = address.rsplit(":", 1)
            assert int(port) > 0
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=10
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["host"] == host
            assert payload["port"] == int(port)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        events = read_events(str(tmp_path / "events.jsonl"))
        shutdown = [e for e in events if e["kind"] == "server_shutdown"]
        assert len(shutdown) == 1
        assert shutdown[0]["drained"] is True
        assert shutdown[0]["in_flight"] == 0


class TestLoadgenUnits:
    def test_plan_is_deterministic(self):
        assert build_plan(50, seed=4) == build_plan(50, seed=4)
        assert build_plan(50, seed=4) != build_plan(50, seed=5)

    def test_plan_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_plan(10, seed=0, mix={"no-such-op": 1.0})

    def test_documents_are_distinct(self):
        docs = synthetic_documents(count=6, seed=1)
        digests = {sha256_hex(data) for __, __fmt, data in docs}
        assert len(digests) == 6
        assert {fmt for __, fmt, __data in docs} == {"json", "binary"}

    def test_report_merge_sums_counts_and_digests(self):
        first = LoadReport()
        first.record("get", 0.010, 200)
        first.record("get", 0.020, 503)
        second = LoadReport()
        second.record("get", 0.030, 200)
        second.record("diff", 0.040, None)
        first.merge(second)
        assert first.requests == 4
        assert first.completed == 2
        assert first.server_errors == 1
        assert first.failures == 1
        assert first.digests["*"].count == 4
        rebuilt = LoadReport.from_plain(first.to_plain())
        assert rebuilt.requests == 4
        assert rebuilt.digests["get"].count == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_closed_port_raises_at_any_jobs(self, jobs):
        # Every job's first request is refused.  The fan-out must fail
        # the run as one job does, not merge nothing into a clean report.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        url = "http://127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        with pytest.raises((OSError, WorkerCrashError)):
            run_load_parallel(url, requests=8, concurrency=2, jobs=jobs)
