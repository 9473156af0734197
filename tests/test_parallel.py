"""Tests for the process-pool executor and for the picklability of
compressors and profiles (whole profiles cross the pool in the
experiment and ingest fan-outs).
"""

import pickle

import pytest

from repro.compression.lmad import LMADCompressor
from repro.compression.sequitur import SequiturGrammar
from repro.obs.spans import Telemetry
from repro.parallel import (
    ParallelExecutor,
    WorkerCrashError,
    fork_available,
    resolve_jobs,
)
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import create

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _square(value):
    return value * value


def _explode(value):
    raise ValueError(f"boom on {value}")


def _values(outcomes):
    return [outcome.value for outcome in outcomes]


class TestExecutor:
    def test_serial_fallback_preserves_order(self):
        executor = ParallelExecutor(jobs=1)
        assert _values(executor.map_outcomes(_square, [3, 1, 2])) == [9, 1, 4]

    def test_single_task_runs_inline(self):
        # One task never justifies a pool, whatever jobs says.
        executor = ParallelExecutor(jobs=8)
        assert executor.effective_jobs(1) == 1
        assert _values(executor.map_outcomes(_square, [5])) == [25]

    def test_empty_task_list(self):
        assert ParallelExecutor(jobs=4).map_outcomes(_square, []) == []

    @needs_fork
    def test_pool_results_in_task_order(self):
        executor = ParallelExecutor(jobs=2)
        tasks = list(range(23))
        assert _values(executor.map_outcomes(_square, tasks)) == [
            t * t for t in tasks
        ]

    @needs_fork
    def test_worker_exception_surfaces_as_crash_error(self):
        executor = ParallelExecutor(jobs=2)
        outcomes = executor.map_outcomes(_explode, [1, 2])
        for outcome in outcomes:
            assert isinstance(outcome.error, WorkerCrashError)
            assert "ValueError" in str(outcome.error)
            assert "boom" in outcome.error.worker_traceback

    @needs_fork
    def test_pool_telemetry(self):
        telemetry = Telemetry()
        executor = ParallelExecutor(jobs=2, telemetry=telemetry)
        executor.map_outcomes(_square, [1, 2, 3], label="squares")
        assert telemetry.registry.value("parallel.pools_total") == 1
        assert telemetry.registry.value("parallel.tasks_total") == 3
        assert telemetry.find_span("squares") is not None

    def test_resolve_jobs(self):
        if fork_available():
            assert resolve_jobs(3) == 3
            assert resolve_jobs(None) >= 1
            assert resolve_jobs(0) >= 1
        else:
            assert resolve_jobs(3) == 1

    def test_chunksize_heuristic(self):
        assert ParallelExecutor._chunksize(100, 4) == 6
        assert ParallelExecutor._chunksize(3, 4) == 1


class TestPickling:
    def test_sequitur_grammar_round_trip(self):
        grammar = SequiturGrammar()
        grammar.feed_all([1, 2, 3, 2, 3, 1, 2, 3, 2, 3] * 20)
        clone = pickle.loads(pickle.dumps(grammar))
        assert clone.to_productions() == grammar.to_productions()
        assert clone.expand() == grammar.expand()
        assert clone.size() == grammar.size()
        assert clone.size_bytes_varint() == grammar.size_bytes_varint()
        assert clone.tokens_fed == grammar.tokens_fed

    def test_sequitur_grammar_feedable_after_round_trip(self):
        tokens = [1, 2, 1, 2, 3, 1, 2, 1, 2, 3] * 10
        grammar = SequiturGrammar()
        grammar.feed_all(tokens)
        clone = pickle.loads(pickle.dumps(grammar))
        extra = [5, 1, 2, 5, 1, 2]
        grammar.feed_all(extra)
        clone.feed_all(extra)
        assert clone.expand() == tokens + extra
        clone.check_invariants()

    def test_from_productions_rejects_dangling_reference(self):
        from repro.compression.sequitur import Ref

        with pytest.raises(ValueError):
            SequiturGrammar.from_productions({0: [Ref(99)]})

    def test_lmad_entry_round_trip(self):
        compressor = LMADCompressor(dims=3, budget=2)
        compressor.feed_all(
            [(0, i, i) for i in range(5)]
            + [(1, 7 * i, i) for i in range(5)]
            + [(9, 100, 1), (3, 50, 2)]  # overflow after budget
        )
        entry = compressor.finish()
        clone = pickle.loads(pickle.dumps(entry))
        assert clone == entry
        assert clone.overflow.count == entry.overflow.count

    def test_whole_profiles_round_trip(self):
        trace = create("micro.list", scale=0.3).trace()
        whomp = WhompProfiler().profile(trace)
        leap = LeapProfiler().profile(trace)
        whomp_clone = pickle.loads(pickle.dumps(whomp))
        leap_clone = pickle.loads(pickle.dumps(leap))
        assert whomp_clone.reconstruct_accesses() == whomp.reconstruct_accesses()
        assert whomp_clone.size_bytes_varint() == whomp.size_bytes_varint()
        assert leap_clone.entries == leap.entries
        assert leap_clone.kinds == leap.kinds
        assert leap_clone.exec_counts == leap.exec_counts
