"""Many-thread hammering of the structures REPROLINT vouches for.

These are the dynamic counterparts of the static lockset analysis:
16 threads per structure, invariants checked on the quiesced state.
A missing lock shows up here as a lost update, a hit-rate above 1.0,
or a manifest/record mismatch -- exactly the defect classes RL101,
RL102, and RL105 flag statically.
"""

import json
import threading

import pytest

from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.profilers.leap import LeapProfiler
from repro.resilience.degraded import Quarantine
from repro.runtime.process import Process
from repro.store import LRUCache, ProfileStore

THREADS = 16
ROUNDS = 200


def hammer(worker):
    """Run ``worker(index)`` on THREADS threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(THREADS)

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestLRUCacheStress:
    def test_hit_accounting_stays_consistent(self):
        cache = LRUCache(capacity=8)

        def worker(index):
            for round_no in range(ROUNDS):
                key = (index + round_no) % 24
                value = cache.get_or_load(key, lambda k=key: k * 2)
                assert value == key * 2
                rate = cache.hit_rate
                assert 0.0 <= rate <= 1.0

        hammer(worker)
        hits, misses, evictions = cache.stats()
        assert hits + misses == THREADS * ROUNDS
        assert len(cache) <= 8
        assert evictions >= misses - 24  # every over-capacity miss evicts

    def test_eviction_churn_keeps_capacity_bound(self):
        cache = LRUCache(capacity=2)

        def worker(index):
            for round_no in range(ROUNDS):
                cache.get_or_load((index, round_no), lambda: round_no)

        hammer(worker)
        assert len(cache) <= 2
        hits, misses, _ = cache.stats()
        assert hits + misses == THREADS * ROUNDS


class TestQuarantineStress:
    def test_counters_records_and_reasons_agree(self):
        quarantine = Quarantine(limit=64)
        reasons = ["bad-size", "torn-tuple", "unknown-site", "neg-offset"]

        def worker(index):
            for round_no in range(ROUNDS):
                reason = reasons[(index + round_no) % len(reasons)]
                quarantine.add(reason, ("rec", index, round_no))

        hammer(worker)
        assert quarantine.total == THREADS * ROUNDS
        assert sum(quarantine.reasons.values()) == quarantine.total
        assert len(quarantine.records) == 64
        assert quarantine.dropped == quarantine.total - 64

    def test_event_emission_respects_cap(self):
        emitted = []
        emit_lock = threading.Lock()

        class Sink:
            def emit(self, kind, **fields):
                with emit_lock:
                    emitted.append((kind, fields))

        quarantine = Quarantine(limit=8)
        quarantine.events = Sink()

        def worker(index):
            for round_no in range(ROUNDS):
                quarantine.add("bad-size", (index, round_no))

        hammer(worker)
        assert quarantine.total == THREADS * ROUNDS
        assert len(emitted) == Quarantine.EVENT_CAP


def distinct_documents(count):
    """``count`` serialized profiles with pairwise-distinct contents."""
    documents = []
    for variant in range(count):
        process = Process()
        load = process.instruction("ld", AccessKind.LOAD)
        block = process.malloc("site", 512, type_name="long[]")
        for offset in range(variant + 1):
            process.load(load, block + (offset % 64) * 8)
        process.free(block)
        process.finish()
        profile = LeapProfiler().profile(process.trace)
        documents.append(dumps_bytes(profile))
    return documents


class TestProfileStoreStress:
    def test_parallel_ingest_keeps_manifest_consistent(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        documents = distinct_documents(8)
        per_thread = 6

        def worker(index):
            for round_no in range(per_thread):
                data = documents[(index + round_no) % len(documents)]
                record = store.ingest_bytes(
                    data, f"wl-{index}-{round_no}"
                )
                assert store.blobs.get(record.digest) == data

        hammer(worker)
        records = store.runs()
        assert len(records) == THREADS * per_thread
        assert len({r.run_id for r in records}) == len(records)
        # dedup: 8 distinct payloads -> exactly 8 blobs; ingests that
        # skipped validation still recorded the validated kind
        assert len(store.blobs) == len(documents)
        assert {r.kind for r in records} == {"leap"}
        # the on-disk manifest agrees with memory line for line
        with open(store.manifest_path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == len(records)
        assert {l["run_id"] for l in lines} == {r.run_id for r in records}

    def test_ingest_is_durable_before_return(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        (document,) = distinct_documents(1)
        record = store.ingest_bytes(document, "solo")
        with open(store.manifest_path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert [l["run_id"] for l in lines] == [record.run_id]
