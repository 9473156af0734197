"""PROFSTORE core: blobs, cache, store, and the ingest fault drill."""

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AccessKind
from repro.core.profile_io import ProfileFormatError, dumps, dumps_bytes, loads
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.resilience import FaultInjector, parse_fault_spec
from repro.runtime.process import Process
from repro.store import LRUCache, BlobStore, ProfileStore, sha256_hex


@pytest.fixture()
def leap_text(simple_trace):
    return dumps(LeapProfiler().profile(simple_trace))


@pytest.fixture()
def whomp_text(simple_trace):
    return dumps(WhompProfiler().profile(simple_trace))


def make_trace(offsets):
    """A tiny trace whose serialized profile varies with ``offsets``."""
    process = Process()
    ld = process.instruction("ld", AccessKind.LOAD)
    block = process.malloc("site", 512, type_name="long[]")
    for offset in offsets:
        process.load(ld, block + (offset % 64) * 8)
    process.free(block)
    process.finish()
    return process.trace


# -- blob layer ---------------------------------------------------------------


class TestBlobStore:
    def test_put_get_roundtrip(self, tmp_path):
        blobs = BlobStore(str(tmp_path / "objects"))
        data = b'{"format": "fake"} and some bytes \x00\xff'
        digest = blobs.put(data)
        assert digest == sha256_hex(data)
        assert blobs.get(digest) == data
        assert blobs.contains(digest)
        assert len(blobs) == 1

    def test_put_is_idempotent_and_deduplicates(self, tmp_path):
        blobs = BlobStore(str(tmp_path / "objects"))
        assert blobs.put(b"same") == blobs.put(b"same")
        assert len(blobs) == 1

    def test_path_rejects_non_digests(self, tmp_path):
        blobs = BlobStore(str(tmp_path / "objects"))
        with pytest.raises(ValueError):
            blobs.path("../../etc/passwd")
        with pytest.raises(ValueError):
            blobs.path("abc123")  # too short
        assert not blobs.contains("not-a-digest")

    def test_garbage_on_disk_raises_format_error(self, tmp_path):
        blobs = BlobStore(str(tmp_path / "objects"))
        digest = blobs.put(b"precious profile bytes")
        with open(blobs.path(digest), "wb") as handle:
            handle.write(b"not zlib at all")
        with pytest.raises(ProfileFormatError):
            blobs.get(digest)

    def test_content_digest_mismatch_raises_format_error(self, tmp_path):
        """Valid zlib whose content hashes differently is still corrupt."""
        import zlib

        blobs = BlobStore(str(tmp_path / "objects"))
        digest = blobs.put(b"original content")
        with open(blobs.path(digest), "wb") as handle:
            handle.write(zlib.compress(b"swapped content"))
        with pytest.raises(ProfileFormatError, match="does not match"):
            blobs.get(digest)

    def test_missing_blob_raises_format_error(self, tmp_path):
        blobs = BlobStore(str(tmp_path / "objects"))
        with pytest.raises(ProfileFormatError, match="unreadable"):
            blobs.get(sha256_hex(b"never stored"))

    def test_stray_files_are_not_digests(self, tmp_path):
        """Regression: a foreign file in a fan dir used to surface from
        digests() as a 'digest' that path() then rejected mid-gc."""
        blobs = BlobStore(str(tmp_path / "objects"))
        digest = blobs.put(b"real blob")
        fan_dir = os.path.dirname(blobs.path(digest))
        for name in ("README.txt", digest[2:] + ".bak", "zz" + "0" * 60):
            with open(os.path.join(fan_dir, name), "w") as handle:
                handle.write("not a blob")
        os.mkdir(os.path.join(str(tmp_path / "objects"), "notafan"))
        assert list(blobs.digests()) == [digest]
        assert len(blobs) == 1
        assert blobs.stored_bytes() == os.path.getsize(blobs.path(digest))

    def test_interrupted_put_leaves_no_digest(self, tmp_path, monkeypatch):
        """A crash between the temp write and the rename leaves the temp
        file behind; digests() must never yield it."""
        blobs = BlobStore(str(tmp_path / "objects"))
        kept = blobs.put(b"already stored")

        def crash(*args):
            raise KeyboardInterrupt("power cut before the rename")

        # the crash also skips the cleanup a live process would run
        monkeypatch.setattr(os, "replace", crash)
        monkeypatch.setattr(os, "unlink", lambda path: None)
        lost = sha256_hex(b"never landed")
        with pytest.raises(KeyboardInterrupt):
            blobs.put(b"never landed")
        monkeypatch.undo()

        fan_dir = os.path.dirname(blobs.path(lost))
        leftovers = [n for n in os.listdir(fan_dir) if n.endswith(".tmp")]
        assert len(leftovers) == 1
        assert leftovers[0].startswith(lost[2:])
        assert list(blobs.digests()) == [kept]
        assert not blobs.contains(lost)
        assert blobs.put(b"never landed") == lost
        assert sorted(blobs.digests()) == sorted([kept, lost])


# -- cache layer --------------------------------------------------------------


class TestLRUCache:
    def test_get_or_load_hits_after_miss(self):
        cache = LRUCache(capacity=4)
        calls = []
        for __ in range(3):
            assert cache.get_or_load("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1
        assert cache.stats() == (2, 1, 0)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.get_or_load("a", lambda: 1)  # refresh a; b is now oldest
        cache.get_or_load("c", lambda: 3)  # evicts b
        assert cache.get_or_load("a", lambda: "reloaded") == 1
        assert cache.get_or_load("b", lambda: "reloaded") == "reloaded"
        assert cache.evictions >= 1

    def test_invalidate_forces_reload(self):
        cache = LRUCache()
        cache.get_or_load("k", lambda: "old")
        cache.invalidate("k")
        assert cache.get_or_load("k", lambda: "new") == "new"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


# -- store layer --------------------------------------------------------------


class TestProfileStore:
    def test_ingest_get_bit_identical(self, tmp_path, leap_text, whomp_text):
        store = ProfileStore(str(tmp_path))
        for text, kind in ((leap_text, "leap"), (whomp_text, "whomp")):
            record = store.ingest_text(text, "simple", meta={"seed": 0})
            assert record.kind == kind
            assert store.get_bytes(record.run_id) == text.encode("utf-8")
            assert store.get_text(record.run_id) == text

    def test_kind_is_sniffed_not_trusted(self, tmp_path, leap_text):
        store = ProfileStore(str(tmp_path))
        record = store.ingest_text(leap_text, "simple")
        assert record.kind == "leap"
        assert store.run(record.run_id).size_bytes == len(leap_text)

    def test_same_content_two_runs_one_blob(self, tmp_path, leap_text):
        store = ProfileStore(str(tmp_path))
        first = store.ingest_text(leap_text, "simple")
        second = store.ingest_text(leap_text, "simple")
        assert first.run_id != second.run_id
        assert first.digest == second.digest
        assert store.stats()["runs"] == 2
        assert store.stats()["blobs"] == 1

    def test_manifest_survives_reopen(self, tmp_path, leap_text, whomp_text):
        store = ProfileStore(str(tmp_path))
        store.ingest_text(leap_text, "simple", meta={"note": "first"})
        store.ingest_text(whomp_text, "simple")
        reopened = ProfileStore(str(tmp_path))
        assert [r.run_id for r in reopened.runs()] == ["r000001", "r000002"]
        assert reopened.run("r000001").meta == {
            "note": "first",
            "encoding": "json",
        }
        assert reopened.get_text("r000001") == leap_text

    def test_torn_manifest_line_is_skipped(self, tmp_path, leap_text):
        store = ProfileStore(str(tmp_path))
        store.ingest_text(leap_text, "simple")
        with open(store.manifest_path, "a") as handle:
            handle.write('{"run_id": "r9, TORN')
        reopened = ProfileStore(str(tmp_path))
        assert [r.run_id for r in reopened.runs()] == ["r000001"]
        # the next ingest heals the file: the torn line is gone for good
        reopened.ingest_text(leap_text, "simple")
        with open(store.manifest_path) as handle:
            assert "TORN" not in handle.read()

    def test_ingest_rejects_undecodable_documents(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        for bad in (
            b"\xff\xfe not utf-8",
            b"not json",
            b'{"format": "unknown-kind"}',
            b'{"no_format_field": 1}',
        ):
            with pytest.raises(ProfileFormatError):
                store.ingest_bytes(bad, "simple")
        assert store.stats()["runs"] == 0
        assert store.stats()["blobs"] == 0

    def test_ingest_rejects_bad_meta_fields(
        self, tmp_path, leap_text, whomp_text
    ):
        """Completeness must be a finite real in [0, 1] and quarantined
        a non-negative int, in both kinds and both encodings."""
        from repro.core.binformat import encode_document

        store = ProfileStore(str(tmp_path))
        for text in (leap_text, whomp_text):
            for field, value in (
                ("capture_completeness", "abc"),
                ("capture_completeness", 1.5),
                ("quarantined", -5),
                ("quarantined", "7"),
            ):
                document = json.loads(text)
                document[field] = value
                with pytest.raises(ProfileFormatError, match=field):
                    store.ingest_bytes(json.dumps(document).encode(), "bad")
            document = json.loads(text)
            document["capture_completeness"] = float("nan")
            with pytest.raises(ProfileFormatError, match="completeness"):
                store.ingest_bytes(encode_document(document), "bad")
        assert store.stats()["runs"] == 0
        assert store.stats()["blobs"] == 0

    def test_binary_ingest_round_trips(self, tmp_path, simple_trace):
        store = ProfileStore(str(tmp_path))
        profile = LeapProfiler().profile(simple_trace)
        record = store.ingest_profile(profile, "simple", fmt="binary")
        assert record.kind == "leap"
        assert record.meta["encoding"] == "binary"
        assert store.get_bytes(record.run_id)[:1] == b"\x89"
        # the decoded profile and document match the JSON path exactly
        assert json.loads(dumps(store.get(record.run_id))) == json.loads(
            dumps(profile)
        )
        document = store.get_document(record.run_id)
        assert document == json.loads(dumps(profile))
        with pytest.raises(ProfileFormatError, match="binary"):
            store.get_text(record.run_id)

    def test_json_ingest_records_encoding(self, tmp_path, leap_text):
        store = ProfileStore(str(tmp_path))
        record = store.ingest_text(leap_text, "simple")
        assert record.meta["encoding"] == "json"
        assert store.get_text(record.run_id) == leap_text
        assert store.get_document(record.run_id) == json.loads(leap_text)

    def test_truncated_binary_rejected_at_the_door(self, tmp_path, simple_trace):
        store = ProfileStore(str(tmp_path))
        data = dumps_bytes(LeapProfiler().profile(simple_trace), "binary")
        with pytest.raises(ProfileFormatError):
            store.ingest_bytes(data[: len(data) - 3], "simple")
        assert store.stats()["blobs"] == 0

    def test_ingest_file_defaults_workload_to_stem(self, tmp_path, leap_text):
        path = tmp_path / "gzip.leap.json"
        path.write_text(leap_text)
        store = ProfileStore(str(tmp_path / "store"))
        record = store.ingest_file(str(path))
        assert record.workload == "gzip"
        with pytest.raises(ProfileFormatError):
            store.ingest_file(str(tmp_path / "missing.leap.json"))

    def test_resolve_selectors(self, tmp_path, leap_text, whomp_text):
        store = ProfileStore(str(tmp_path))
        store.ingest_text(leap_text, "gzip")
        store.ingest_text(whomp_text, "gzip")
        second_leap = dumps(LeapProfiler().profile(make_trace(range(32))))
        store.ingest_text(second_leap, "gzip")
        assert store.resolve("r000002").kind == "whomp"
        latest = store.resolve("gzip@leap")
        assert latest.run_id == "r000003"
        assert store.resolve("gzip@leap~1").run_id == "r000001"
        assert store.resolve(latest.digest[:12]).run_id == latest.run_id
        for bad in ("gzip@leap~7", "gzip@nope", "deadbeefdead", "r999999"):
            with pytest.raises(KeyError):
                store.resolve(bad)

    def test_get_decodes_through_cache(self, tmp_path, leap_text):
        store = ProfileStore(str(tmp_path))
        record = store.ingest_text(leap_text, "simple")
        first = store.get(record.run_id)
        second = store.get(record.run_id)
        assert first is second  # cached object, not a re-decode
        assert store.cache.stats()[:2] == (1, 1)
        assert dumps(first) == leap_text

    def test_corrupted_blob_surfaces_as_format_error(
        self, tmp_path, leap_text
    ):
        store = ProfileStore(str(tmp_path))
        record = store.ingest_text(leap_text, "simple")
        path = store.blobs.path(record.digest)
        with open(path, "r+b") as handle:
            handle.seek(4)
            byte = handle.read(1)
            handle.seek(4)
            handle.write(bytes([byte[0] ^ 0x40]))
        with pytest.raises(ProfileFormatError):
            store.get_bytes(record.run_id)
        with pytest.raises(ProfileFormatError):
            store.get(record.run_id)

    def test_drop_run_and_gc(self, tmp_path, leap_text, whomp_text):
        store = ProfileStore(str(tmp_path))
        keep = store.ingest_text(leap_text, "simple")
        drop = store.ingest_text(whomp_text, "simple")
        store.drop_run(drop.run_id)
        with pytest.raises(KeyError):
            store.run(drop.run_id)
        stats = store.gc()
        assert stats.scanned == 2
        assert stats.removed == 1
        assert stats.freed_bytes > 0
        assert store.get_text(keep.run_id) == leap_text
        assert store.stats()["blobs"] == 1
        # a second pass finds nothing to do
        assert store.gc().removed == 0

    def test_concurrent_ingest_is_consistent(self, tmp_path):
        """Eight threads ingesting distinct documents: no lost or
        duplicated manifest entries, every round-trip bit-identical."""
        texts = [
            dumps(LeapProfiler().profile(make_trace(range(0, 64, step))))
            for step in range(1, 9)
        ]
        assert len({t for t in texts}) == len(texts)
        store = ProfileStore(str(tmp_path))
        barrier = threading.Barrier(len(texts))
        errors = []

        def ingest(index):
            barrier.wait()
            try:
                for __ in range(4):
                    store.ingest_text(texts[index], f"w{index}")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=ingest, args=(i,))
            for i in range(len(texts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        records = store.runs()
        assert len(records) == len(texts) * 4
        assert len({r.run_id for r in records}) == len(records)
        for index, text in enumerate(texts):
            assert store.get_text(f"w{index}@leap") == text
        # the manifest on disk agrees with the in-memory view
        reopened = ProfileStore(str(tmp_path))
        assert len(reopened.runs()) == len(records)


# -- property: ingest -> get is bit-identical for arbitrary profiles ----------


@settings(max_examples=25, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                     max_size=40),
    profiler=st.sampled_from(["leap", "whomp"]),
)
def test_roundtrip_property(tmp_path_factory, offsets, profiler):
    trace = make_trace(offsets)
    cls = LeapProfiler if profiler == "leap" else WhompProfiler
    text = dumps(cls().profile(trace))
    store = ProfileStore(str(tmp_path_factory.mktemp("store")))
    record = store.ingest_text(text, "prop")
    data = store.get_bytes(record.run_id)
    assert data == text.encode("utf-8")
    assert record.digest == sha256_hex(data)
    if profiler == "leap":
        # the decoded form round-trips through the serializer too
        # (WHOMP decodes to a stream dict, which has no re-serializer)
        assert dumps(loads(store.get_text(record.run_id))) == text


# -- fault drill --------------------------------------------------------------


@pytest.mark.faults
class TestIngestFaultDrill:
    def test_flipped_documents_are_rejected_at_the_door(
        self, tmp_path, leap_text, whomp_text
    ):
        injector = FaultInjector(parse_fault_spec("seed=3;flip-profile=4"))
        store = ProfileStore(str(tmp_path))
        for text in (leap_text, whomp_text):
            damaged = injector.corrupt_bytes(text.encode("utf-8"))
            assert damaged != text.encode("utf-8")
            with pytest.raises(ProfileFormatError):
                store.ingest_bytes(damaged, "drill")
        assert store.stats()["runs"] == 0
        assert store.stats()["blobs"] == 0
        assert not os.path.exists(store.manifest_path)

    def test_serve_cli_ingest_drill_exits_nonzero(self, tmp_path, capsys):
        from repro.store.serve_cli import main

        root = str(tmp_path / "store")
        code = main(
            [
                "ingest", "--root", root, "--workloads", "micro.array",
                "--scale", "0.25",
                "--inject-faults", "seed=3;flip-profile=4",
            ]
        )
        assert code == 1
        assert "REJECTED" in capsys.readouterr().err
        assert ProfileStore(root).stats()["runs"] == 0

    def test_clean_serve_cli_ingest_exits_zero(self, tmp_path, capsys):
        from repro.store.serve_cli import main

        root = str(tmp_path / "store")
        code = main(
            ["ingest", "--root", root, "--workloads", "micro.array",
             "--scale", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested r000001" in out
        store = ProfileStore(root)
        assert store.stats()["runs"] == 2  # whomp + leap
        assert {r.kind for r in store.runs()} == {"whomp", "leap"}


def test_manifest_lines_are_versioned_json(tmp_path, leap_text):
    store = ProfileStore(str(tmp_path))
    store.ingest_text(leap_text, "simple")
    with open(store.manifest_path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert len(lines) == 1
    assert lines[0]["manifest_version"] == 1
    assert lines[0]["workload"] == "simple"
