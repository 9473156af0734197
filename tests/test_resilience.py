"""Tests for the resilience layer: fault injection, quarantine,
checkpointing, executor retry/timeout/fallback, and degraded profiling.

The contract under test is determinism-under-failure: the same fault
seed provokes the same faults (across processes and invocations), and
every failure mode the layer claims to survive is provoked here and
shown to be survived.
"""

import json
import os
import pickle

import pytest

from repro.compression.lmad import LMADCompressor
from repro.core.cdc import translate_trace
from repro.core.events import AccessEvent, AccessKind, AllocEvent, Trace
from repro.core.fsutil import atomic_write_text
from repro.core.tuples import WILD_GROUP, WILD_OBJECT, ObjectRelativeAccess
from repro.obs.spans import Telemetry
from repro.parallel import (
    ParallelExecutor,
    TaskOutcome,
    WorkerCrashError,
    fork_available,
)
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    Quarantine,
    parse_fault_spec,
    quarantine_stream,
)
from repro.workloads.registry import create

pytestmark = pytest.mark.faults

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


class TestFaultSpec:
    def test_full_grammar_round_trip(self):
        plan = parse_fault_spec(
            "seed=7; drop-events=0.25; corrupt-events=0.5; kill-task=2,5;"
            "stall-task=1:0.75; flip-profile=16; timeout=12.5; retries=3;"
            "backoff=0.2; abort-after=4"
        )
        assert plan.seed == 7
        assert plan.drop_events == 0.25
        assert plan.corrupt_events == 0.5
        assert plan.kill_tasks == (2, 5)
        assert plan.stall_tasks == {1: 0.75}
        assert plan.flip_profile == 16
        assert plan.timeout == 12.5
        assert plan.retries == 3
        assert plan.backoff == 0.2
        assert plan.abort_after == 4
        assert plan.any_event_faults()
        assert plan.any_process_faults()

    def test_empty_spec_is_inert(self):
        plan = parse_fault_spec("")
        assert plan == FaultPlan()
        assert not plan.any_event_faults()
        assert not plan.any_process_faults()

    @pytest.mark.parametrize(
        "spec",
        [
            "bare-clause",
            "unknown-key=1",
            "drop-events=1.5",
            "corrupt-events=-0.1",
            "stall-task=3",
            "kill-task=x",
            "timeout=never",
        ],
    )
    def test_bad_clauses_rejected(self, spec):
        with pytest.raises(ValueError, match="fault"):
            parse_fault_spec(spec)


class TestDeterminism:
    def test_event_decisions_stable_across_injectors(self):
        spec = "seed=11;drop-events=0.2;corrupt-events=0.2"
        first = FaultInjector(parse_fault_spec(spec))
        second = FaultInjector(parse_fault_spec(spec))
        decisions = [
            (first.drops_event(i), first.corrupts_event(i)) for i in range(500)
        ]
        assert decisions == [
            (second.drops_event(i), second.corrupts_event(i))
            for i in range(500)
        ]
        # the probabilities actually bite
        assert any(drop for drop, __ in decisions)
        assert any(corrupt for __, corrupt in decisions)

    def test_different_seeds_differ(self):
        a = FaultInjector(parse_fault_spec("seed=1;drop-events=0.5"))
        b = FaultInjector(parse_fault_spec("seed=2;drop-events=0.5"))
        assert [a.drops_event(i) for i in range(200)] != [
            b.drops_event(i) for i in range(200)
        ]

    def test_position_determinism(self):
        # Whether event #k is dropped depends only on (seed, k), never on
        # which other events were examined first or in what order.
        injector = FaultInjector(parse_fault_spec("seed=3;drop-events=0.3"))
        forward = [injector.drops_event(i) for i in range(100)]
        backward = [injector.drops_event(i) for i in reversed(range(100))]
        assert forward == list(reversed(backward))

    def test_corrupt_bytes_deterministic(self):
        data = bytes(range(256)) * 8
        plan = parse_fault_spec("seed=9;flip-profile=12")
        damaged = FaultInjector(plan).corrupt_bytes(data)
        assert damaged == FaultInjector(plan).corrupt_bytes(data)
        assert damaged != data
        assert len(damaged) == len(data)


def _micro_access(index=0):
    return AccessEvent(
        instruction_id=1,
        address=0x1000 + 8 * index,
        size=8,
        kind=AccessKind.LOAD,
        time=index,
    )


class TestCorruptTrace:
    def _trace(self, accesses=40):
        events = [
            AllocEvent(
                address=0x1000, size=4096, site="site0", type_name=None, time=0
            )
        ]
        events.extend(_micro_access(i) for i in range(accesses))
        return Trace.from_events(events)

    def test_drop_all(self):
        trace = self._trace()
        injector = FaultInjector(parse_fault_spec("drop-events=1.0"))
        damaged = injector.corrupt_trace(trace)
        assert damaged.access_count == 0
        assert injector.dropped == 40
        # object events survive; original trace untouched
        assert any(isinstance(e, AllocEvent) for e in damaged)
        assert trace.access_count == 40

    def test_corrupt_all_preserves_count(self):
        trace = self._trace()
        injector = FaultInjector(parse_fault_spec("corrupt-events=1.0"))
        damaged = injector.corrupt_trace(trace)
        assert damaged.access_count == 40
        assert injector.corrupted == 40
        originals = [e for e in trace if isinstance(e, AccessEvent)]
        corrupted = [e for e in damaged if isinstance(e, AccessEvent)]
        assert all(a != b for a, b in zip(originals, corrupted))

    def test_no_event_faults_returns_same_trace(self):
        trace = self._trace()
        injector = FaultInjector(parse_fault_spec("kill-task=1"))
        assert injector.corrupt_trace(trace) is trace


class TestFireOnce:
    def test_at_most_once_across_injectors(self, tmp_path):
        ledger = str(tmp_path / "ledger")
        plan = parse_fault_spec("kill-task=3")
        first = FaultInjector(plan, ledger)
        assert first.should_kill(3)
        # same injector, a fresh injector, and a "resumed invocation"
        # injector all stand down
        assert not first.should_kill(3)
        assert not FaultInjector(plan, ledger).should_kill(3)
        assert not FaultInjector(parse_fault_spec("kill-task=3"), ledger).should_kill(3)

    def test_unlisted_tasks_never_kill(self, tmp_path):
        injector = FaultInjector(parse_fault_spec("kill-task=3"), str(tmp_path))
        assert not injector.should_kill(2)
        assert injector.stall_seconds(2) == 0.0

    def test_stall_schedule(self):
        injector = FaultInjector(parse_fault_spec("stall-task=4:1.5"))
        assert injector.stall_seconds(4) == 1.5
        assert injector.stall_seconds(5) == 0.0


def _good_access(index=0):
    return ObjectRelativeAccess(
        instruction_id=1,
        group=0,
        object_serial=0,
        offset=8 * index,
        time=index,
        size=8,
        kind=AccessKind.LOAD,
    )


class TestQuarantine:
    def test_bounded_records_unbounded_counts(self):
        quarantine = Quarantine(limit=3)
        for index in range(10):
            quarantine.add("bad-size", index)
        assert quarantine.total == 10
        assert len(quarantine.records) == 3
        assert quarantine.dropped == 7
        assert quarantine.reasons == {"bad-size": 10}

    def test_stream_diverts_malformed_and_wild(self):
        import dataclasses

        wild = dataclasses.replace(
            _good_access(1), group=WILD_GROUP, object_serial=WILD_OBJECT
        )
        bad = dataclasses.replace(_good_access(2), size=-1)
        quarantine = Quarantine()
        kept = list(
            quarantine_stream([_good_access(0), wild, bad], quarantine)
        )
        assert kept == [_good_access(0)]
        assert quarantine.total == 2
        assert set(quarantine.reasons) == {"wild", "bad-size"}

    def test_include_wild_false_keeps_wild(self):
        import dataclasses

        wild = dataclasses.replace(
            _good_access(1), group=WILD_GROUP, object_serial=WILD_OBJECT
        )
        quarantine = Quarantine()
        kept = list(
            quarantine_stream([wild], quarantine, include_wild=False)
        )
        assert kept == [wild]
        assert quarantine.total == 0


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("fig3", {"status": "ok", "results": {"x": 1}})
        loaded = store.load("fig3")
        assert loaded["status"] == "ok"
        assert loaded["results"] == {"x": 1}
        assert store.completed() == ["fig3"]

    def test_version_mismatch_treated_as_absent(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        (tmp_path / "fig5.json").write_text(
            json.dumps({"status": "ok", "checkpoint_version": 999})
        )
        assert store.load("fig5") is None
        assert store.completed() == []

    def test_garbage_file_treated_as_absent(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        (tmp_path / "fig9.json").write_text("{truncated")
        assert store.load("fig9") is None

    def test_discard(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("table1", {"status": "ok"})
        store.discard("table1")
        store.discard("table1")  # idempotent
        assert store.completed() == []


class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        path = str(tmp_path / "nested" / "out.json")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as handle:
            assert handle.read() == "second"
        # no stray temp files left behind
        assert os.listdir(os.path.dirname(path)) == ["out.json"]


def _square(value):
    return value * value


def _explode_on_three(value):
    if value == 3:
        raise ValueError("boom on 3")
    return value * value


class TestWorkerCrashError:
    def test_context_survives_pickle(self):
        error = WorkerCrashError(
            "label: task 3 raised ValueError: boom",
            worker_traceback="Traceback ...",
            chunk_index=1,
            items_processed=2,
        )
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.worker_traceback == "Traceback ..."
        assert clone.chunk_index == 1
        assert clone.items_processed == 2


@needs_fork
class TestExecutorResilience:
    def test_killed_worker_chunk_is_retried(self, tmp_path):
        injector = FaultInjector(
            parse_fault_spec("kill-task=3;timeout=10;retries=2;backoff=0.01"),
            str(tmp_path / "ledger"),
        )
        telemetry = Telemetry()
        executor = ParallelExecutor(
            jobs=2, telemetry=telemetry, fault_injector=injector
        )
        tasks = list(range(8))
        outcomes = executor.map_outcomes(_square, tasks)
        assert [o.value for o in outcomes] == [t * t for t in tasks]
        assert all(o.ok for o in outcomes)
        assert any(o.attempts > 1 for o in outcomes)
        assert telemetry.registry.value("resilience.timeouts") >= 1
        assert telemetry.registry.value("resilience.retries") >= 1

    def test_exhausted_retries_fall_back_inline(self, tmp_path):
        # retries=0: the single injected kill exhausts the budget, so
        # the chunk must be rescued by the inline serial fallback.
        injector = FaultInjector(
            parse_fault_spec("kill-task=1;timeout=5;retries=0"),
            str(tmp_path / "ledger"),
        )
        telemetry = Telemetry()
        executor = ParallelExecutor(
            jobs=2, telemetry=telemetry, fault_injector=injector
        )
        tasks = list(range(6))
        outcomes = executor.map_outcomes(_square, tasks)
        assert [o.value for o in outcomes] == [t * t for t in tasks]
        assert any(o.fallback for o in outcomes)
        assert telemetry.registry.value("resilience.fallbacks") == 1

    def test_task_exception_contained_with_context(self):
        executor = ParallelExecutor(jobs=2)
        outcomes = executor.map_outcomes(
            _explode_on_three, list(range(8)), label="drill"
        )
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == 1
        error = failed[0].error
        assert "task 3 raised ValueError: boom on 3" in str(error)
        assert "boom on 3" in error.worker_traceback
        assert error.chunk_index is not None
        assert error.items_processed is not None
        # neighbours keep their results
        assert [o.value for o in outcomes if o.ok] == [
            v * v for v in range(8) if v != 3
        ]

    def test_task_exceptions_are_never_retried(self):
        telemetry = Telemetry()
        executor = ParallelExecutor(
            jobs=2, telemetry=telemetry, retries=3, timeout=10
        )
        executor.map_outcomes(_explode_on_three, list(range(8)))
        # the counter is never even registered: deterministic task
        # exceptions must not reach the retry machinery
        assert not telemetry.registry.value("resilience.retries")

    def test_plan_overrides_executor_policy(self):
        injector = FaultInjector(
            parse_fault_spec("timeout=2.5;retries=7;backoff=0.125")
        )
        executor = ParallelExecutor(jobs=2, fault_injector=injector)
        assert executor.timeout == 2.5
        assert executor.retries == 7
        assert executor.backoff == 0.125

    def test_process_faults_imply_default_timeout(self, tmp_path):
        injector = FaultInjector(
            parse_fault_spec("kill-task=0"), str(tmp_path)
        )
        executor = ParallelExecutor(jobs=2, fault_injector=injector)
        assert executor.timeout is not None


class TestSerialOutcomes:
    def test_serial_path_contains_exceptions(self):
        executor = ParallelExecutor(jobs=1)
        seen = []
        outcomes = executor.map_outcomes(
            _explode_on_three,
            list(range(5)),
            progress=lambda index, outcome: seen.append(index),
        )
        assert seen == [0, 1, 2, 3, 4]
        assert [o.ok for o in outcomes] == [True, True, True, False, True]
        assert isinstance(outcomes[3], TaskOutcome)
        assert isinstance(outcomes[3].error, WorkerCrashError)


class TestDegradedProfiling:
    @pytest.fixture(scope="class")
    def damaged_trace(self):
        trace = create("micro.list", scale=0.3).trace()
        injector = FaultInjector(
            parse_fault_spec("seed=5;corrupt-events=0.05;drop-events=0.02")
        )
        return injector.corrupt_trace(trace)

    def test_whomp_quarantines_and_reports_completeness(self, damaged_trace):
        quarantine = Quarantine()
        profile = WhompProfiler(quarantine=quarantine).profile(damaged_trace)
        assert quarantine.total > 0
        assert profile.quarantined == quarantine.total
        assert 0.0 < profile.capture_completeness < 1.0
        # the streams stay internally consistent: every grammar expands
        # to exactly the kept-access count
        for grammar in profile.grammars.values():
            assert len(grammar.expand()) == profile.access_count

    def test_leap_quarantines_and_reports_completeness(self, damaged_trace):
        quarantine = Quarantine()
        profile = LeapProfiler(quarantine=quarantine).profile(damaged_trace)
        assert quarantine.total > 0
        assert 0.0 < profile.capture_completeness < 1.0
        for entry in profile.entries.values():
            assert (
                sum(lmad.count for lmad in entry.lmads) + entry.overflow.count
                == entry.total_symbols
            )

    @pytest.mark.parametrize(
        "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
    )
    def test_column_filter_quarantines_what_the_tuple_filter_does(
        self, damaged_trace, factory
    ):
        """The profilers filter the translated columns slice by slice;
        the quarantine gets the tuples, reasons and order of one
        ``quarantine_stream`` over the whole access stream."""
        expected = Quarantine()
        for __ in quarantine_stream(translate_trace(damaged_trace), expected):
            pass
        quarantine = Quarantine()
        factory(quarantine=quarantine).profile(damaged_trace)
        assert set(expected.reasons) == {"wild", "bad-size", "bad-instruction"}
        assert quarantine.reasons == expected.reasons
        assert quarantine.records == expected.records

    def test_clean_trace_full_completeness(self):
        trace = create("micro.list", scale=0.2).trace()
        quarantine = Quarantine()
        profile = WhompProfiler(quarantine=quarantine).profile(trace)
        assert quarantine.total == 0
        assert profile.capture_completeness == 1.0
        baseline = WhompProfiler().profile(trace)
        for name, grammar in profile.grammars.items():
            assert grammar.expand() == baseline.grammars[name].expand()


class TestSummaryFallback:
    def test_overflow_cap_folds_into_summary(self):
        import random

        rng = random.Random(17)
        compressor = LMADCompressor(dims=1, budget=2, overflow_cap=5)
        vectors = [(rng.randrange(0, 10_000),) for __ in range(200)]
        for vector in vectors:
            compressor.feed(vector)
        entry = compressor.finish()
        assert entry.summarized
        # everything landed in the summary, nothing was lost
        assert entry.overflow.count + sum(l.count for l in entry.lmads) == 200
        values = [v[0] for v in vectors]
        assert entry.overflow.minimum[0] == min(values)
        assert entry.overflow.maximum[0] == max(values)

    def test_no_cap_means_no_summary(self):
        compressor = LMADCompressor(dims=1, budget=2)
        for value in range(100):
            compressor.feed((value * 7919,))
        assert not compressor.finish().summarized

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            LMADCompressor(dims=1, budget=2, overflow_cap=0)


class TestProfileFlipFuzz:
    def test_degraded_save_carries_completeness(self, tmp_path):
        from repro.core.profile_io import dumps, loads

        trace = create("micro.list", scale=0.2).trace()
        injector = FaultInjector(parse_fault_spec("seed=2;corrupt-events=0.1"))
        quarantine = Quarantine()
        profile = WhompProfiler(quarantine=quarantine).profile(
            injector.corrupt_trace(trace)
        )
        loaded = loads(dumps(profile))
        assert loaded["capture_completeness"] == profile.capture_completeness
        assert loaded["quarantined"] == profile.quarantined
