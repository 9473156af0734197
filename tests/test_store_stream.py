"""Streaming ingest: ``/ingest/stream``, body framing, and torn tails.

The daemon must assemble BINCAP stream frames into validated blobs
while the producer is still running, survive producers that die
mid-stream (degraded ingest, never a torn blob), and police request
bodies: malformed ``Content-Length`` is a 400, oversized bodies a 413,
and ``Transfer-Encoding: chunked`` is decoded on the wire.
"""

import json
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import binformat as bf
from repro.core import profile_io as pio
from repro.core.binformat import StreamWriter
from repro.core.events import AccessKind
from repro.obs.spans import Telemetry
from repro.profilers.leap import LeapProfiler
from repro.runtime.process import Process
from repro.store import ProfileStore
from repro.store.server import StoreServer


def make_leap_bytes(offsets, fmt="binary"):
    process = Process()
    ld = process.instruction("ld", AccessKind.LOAD)
    block = process.malloc("site", 512, type_name="long[]")
    for offset in offsets:
        process.load(ld, block + (offset % 64) * 8)
    process.free(block)
    process.finish()
    return pio.dumps_bytes(LeapProfiler().profile(process.trace), fmt)


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(str(tmp_path), cache_size=8)


@pytest.fixture()
def server(store):
    instance = StoreServer(
        store, port=0, telemetry=Telemetry(), max_body_bytes=1 << 20
    ).start()
    yield instance
    instance.stop()


def stream_wire(documents, close=True):
    chunks = []
    writer = StreamWriter(chunks.append)
    writer.begin()
    for workload, payload in documents:
        writer.send_document(workload, payload)
    if close:
        writer.close()
    return b"".join(chunks)


def post_stream(server, wire, query=""):
    request = urllib.request.Request(
        f"{server.url}/ingest/stream{query}", data=wire, method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_raw(server, path, body, headers, half_close=False):
    """One hand-rolled HTTP request over a raw socket."""
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    try:
        lines = [f"POST {path} HTTP/1.1", f"Host: {host}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode())
        if body:
            sock.sendall(body)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        sock.settimeout(10)
        raw = b""
        while b"\r\n\r\n" not in raw:
            piece = sock.recv(4096)
            if not piece:
                break
            raw += piece
        status = int(raw.split(b" ", 2)[1])
        return status
    finally:
        sock.close()


class TestStreamIngest:
    def test_streamed_documents_land_as_runs(self, server, store):
        wire = stream_wire(
            [("alpha", make_leap_bytes(range(80))),
             ("beta", make_leap_bytes(range(0, 160, 2), fmt="json"))]
        )
        status, payload = post_stream(server, wire)
        assert status == 201
        assert payload["complete"]
        assert payload["capture_completeness"] == 1.0
        assert [r["kind"] for r in payload["ingested"]] == ["leap", "leap"]
        runs = store.runs()
        assert [r.workload for r in runs] == ["alpha", "beta"]
        assert runs[0].meta["encoding"] == "binary"
        assert runs[1].meta["encoding"] == "json"
        assert runs[0].meta["source"] == "http-stream"
        # the stored bytes decode through the normal read path
        for record in runs:
            store.get(record.run_id)

    def test_stream_meta_rides_into_run_meta(self, server, store):
        chunks = []
        writer = StreamWriter(chunks.append)
        writer.send_document(
            "alpha", make_leap_bytes(range(40)), meta={"scale": 0.5}
        )
        writer.close()
        status, payload = post_stream(server, b"".join(chunks))
        assert status == 201
        assert store.runs()[0].meta["scale"] == 0.5

    def test_corrupt_document_rejected_rest_ingested(self, server, store):
        good = make_leap_bytes(range(80))
        wire = stream_wire(
            [("bad", b"\x00garbage"), ("good", good)]
        )
        status, payload = post_stream(server, wire)
        assert status == 200  # degraded, not failed
        assert not payload["complete"]
        assert len(payload["ingested"]) == 1
        assert len(payload["rejected"]) == 1
        assert payload["rejected"][0]["workload"] == "bad"
        assert [r.workload for r in store.runs()] == ["good"]

    def test_mid_stream_kill_leaves_store_valid(self, server, store):
        """A producer dying mid-document: verified docs stay, no torn
        blob is stored, and the degraded ingest is on the event log."""
        doc = make_leap_bytes(range(80))
        wire = stream_wire([("one", doc), ("two", doc)], close=False)
        head = bytearray()
        payload = bytearray()
        bf.write_token(payload, "three")
        bf.write_token(payload, "")
        bf.write_frame(head, bf.FRAME_DOC_BEGIN, bytes(payload))
        partial = wire + bytes(head)

        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(
            (f"POST /ingest/stream HTTP/1.1\r\nHost: {host}\r\n"
             "Transfer-Encoding: chunked\r\n\r\n").encode()
        )
        sock.sendall(f"{len(partial):x}\r\n".encode() + partial + b"\r\n")
        time.sleep(0.2)
        sock.close()  # no terminating chunk, no STREAM_END

        def stream_events():
            return [
                e for e in server.events.tail()
                if e.get("kind") == "stream_ingest"
            ]

        # the docs land while the stream is live; the summary event only
        # fires once the server notices the dead socket
        deadline = time.time() + 5
        while time.time() < deadline and not stream_events():
            time.sleep(0.05)
        runs = store.runs()
        assert [r.workload for r in runs] == ["one", "two"]
        for record in runs:  # every stored blob decodes cleanly
            store.get(record.run_id)
        events = stream_events()
        assert events, "degraded stream ingest must be recorded"
        record = events[-1]
        assert record["ingested"] == 2
        assert record["torn"] == 1
        assert not record["complete"]
        assert 0 < record["capture_completeness"] < 1

    def test_concurrent_streams_all_land(self, server, store):
        def one_stream(index):
            wire = stream_wire(
                [(f"w{index}", make_leap_bytes(range(40 + index)))]
            )
            return post_stream(server, wire)[1]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(one_stream, range(6)))
        assert all(len(r["ingested"]) == 1 for r in results)
        assert len(store.runs()) == 6
        assert len({r.run_id for r in store.runs()}) == 6

    def test_empty_complete_stream_is_not_degraded(self, server, store):
        chunks = []
        writer = StreamWriter(chunks.append)
        writer.begin()
        writer.close()
        status, payload = post_stream(server, b"".join(chunks))
        assert status == 201
        assert payload["complete"]
        assert payload["ingested"] == []
        assert store.runs() == []

    def test_garbage_stream_is_a_400(self, server, store):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_stream(server, b"this is not a stream at all")
        assert excinfo.value.code == 400
        assert store.runs() == []


class TestBodyFraming:
    def test_malformed_content_length_is_400(self, server):
        status = post_raw(
            server, "/ingest?workload=x", b"",
            {"Content-Length": "banana"},
        )
        assert status == 400

    def test_negative_content_length_is_400(self, server):
        status = post_raw(
            server, "/ingest?workload=x", b"",
            {"Content-Length": "-5"},
        )
        assert status == 400

    def test_oversized_body_is_413(self, server):
        status = post_raw(
            server, "/ingest?workload=x", b"",
            {"Content-Length": str(1 << 30)},
        )
        assert status == 413

    def test_short_body_is_400(self, server, store):
        status = post_raw(
            server, "/ingest?workload=x", b"only-ten-b",
            {"Content-Length": "100", "Connection": "close"},
            half_close=True,
        )
        assert status == 400
        assert store.runs() == []

    def test_chunked_ingest_is_decoded(self, server, store):
        data = make_leap_bytes(range(80), fmt="json")
        body = b""
        for offset in range(0, len(data), 100):
            piece = data[offset : offset + 100]
            body += f"{len(piece):x}\r\n".encode() + piece + b"\r\n"
        body += b"0\r\n\r\n"
        status = post_raw(
            server, "/ingest?workload=chunky", body,
            {"Transfer-Encoding": "chunked"},
        )
        assert status == 201
        assert [r.workload for r in store.runs()] == ["chunky"]

    def test_binary_document_ingests_over_plain_post(self, server, store):
        data = make_leap_bytes(range(80))
        request = urllib.request.Request(
            f"{server.url}/ingest?workload=bin", data=data, method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 201
        record = store.runs()[0]
        assert record.meta["encoding"] == "binary"
        # /get serves the binary run as a JSON document
        with urllib.request.urlopen(
            f"{server.url}/get?run=bin@leap", timeout=10
        ) as response:
            document = json.loads(response.read())
        assert document["format"] == "leap"

    def test_diff_across_encodings(self, server, store):
        store.ingest_bytes(make_leap_bytes(range(80)), "mix")
        store.ingest_bytes(make_leap_bytes(range(0, 160, 2), fmt="json"), "mix")
        with urllib.request.urlopen(
            f"{server.url}/diff?a=mix@leap~1&b=mix@leap", timeout=10
        ) as response:
            payload = json.loads(response.read())
        assert payload["kind"] == "leap"
