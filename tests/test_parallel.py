"""Tests for the process-pool subsystem and the parallel profilers.

The contract under test is the tentpole's: parallel output must be
*bit-identical* to serial output — same grammar productions, same LMAD
entries, same side tables — because the decomposed substreams are
independent by construction and the merge is a pure reassembly.
"""

import pickle

import pytest

from repro.compression.lmad import LMADCompressor
from repro.compression.rle import DeltaRleCodec
from repro.compression.sequitur import SequiturGrammar
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.obs.spans import Telemetry
from repro.parallel import (
    ParallelExecutor,
    WorkerCrashError,
    fork_available,
    resolve_jobs,
)
from repro.parallel.workers import shard_round_robin
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


class TestExecutor:
    def test_serial_fallback_preserves_order(self):
        executor = ParallelExecutor(jobs=1)
        assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_single_task_runs_inline(self):
        # One task never justifies a pool, whatever jobs says.
        executor = ParallelExecutor(jobs=8)
        assert executor.effective_jobs(1) == 1
        assert executor.map(_square, [5]) == [25]

    def test_empty_task_list(self):
        assert ParallelExecutor(jobs=4).map(_square, []) == []

    @needs_fork
    def test_pool_results_in_task_order(self):
        executor = ParallelExecutor(jobs=2)
        tasks = list(range(23))
        assert executor.map(_square, tasks) == [t * t for t in tasks]

    @needs_fork
    def test_worker_exception_surfaces_as_crash_error(self):
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(WorkerCrashError) as excinfo:
            executor.map(_explode, [1, 2])
        assert "ValueError" in str(excinfo.value)
        assert "boom" in excinfo.value.worker_traceback

    @needs_fork
    def test_pool_telemetry(self):
        telemetry = Telemetry()
        executor = ParallelExecutor(jobs=2, telemetry=telemetry)
        executor.map(_square, [1, 2, 3], label="squares")
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

    def test_shard_round_robin_balances_and_drops_empties(self):
        shards = shard_round_robin(list(range(7)), 3)
        assert shards == [[0, 3, 6], [1, 4], [2, 5]]
        assert shard_round_robin([1], 4) == [[1]]
        assert shard_round_robin([], 4) == []


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


@needs_fork
class TestParallelProfilers:
    @pytest.fixture(scope="class")
    def trace(self):
        return create("micro.array", scale=0.2).trace()

    def test_whomp_parallel_identical(self, trace):
        serial = WhompProfiler().profile(trace)
        parallel = WhompProfiler(jobs=2).profile(trace)
        assert {
            name: grammar.to_productions()
            for name, grammar in parallel.grammars.items()
        } == {
            name: grammar.to_productions()
            for name, grammar in serial.grammars.items()
        }
        assert list(parallel.grammars) == list(serial.grammars)
        assert parallel.base_addresses == serial.base_addresses
        assert parallel.lifetimes == serial.lifetimes
        assert parallel.group_labels == serial.group_labels
        assert parallel.access_count == serial.access_count
        assert parallel.size_bytes_varint() == serial.size_bytes_varint()
        assert parallel.reconstruct_accesses() == serial.reconstruct_accesses()

    def test_whomp_parallel_with_alternate_compressor(self, trace):
        serial = WhompProfiler(compressor=DeltaRleCodec).profile(trace)
        parallel = WhompProfiler(compressor=DeltaRleCodec, jobs=2).profile(trace)
        assert {
            name: codec.expand() for name, codec in parallel.grammars.items()
        } == {name: codec.expand() for name, codec in serial.grammars.items()}

    def test_whomp_parallel_telemetry_spans(self, trace):
        telemetry = Telemetry()
        WhompProfiler(jobs=2, telemetry=telemetry).profile(trace)
        for stage in ("translation", "decomposition", "compression"):
            span = telemetry.find_span(f"whomp/{stage}")
            assert span is not None and span.seconds >= 0.0
        assert telemetry.registry.value("whomp.profile_symbols") > 0

    def test_leap_parallel_identical(self, trace):
        serial = LeapProfiler().profile(trace)
        parallel = LeapProfiler(jobs=3).profile(trace)
        assert parallel.entries == serial.entries
        assert list(parallel.entries) == list(serial.entries)
        assert parallel.kinds == serial.kinds
        assert parallel.exec_counts == serial.exec_counts
        assert parallel.group_labels == serial.group_labels
        assert parallel.access_count == serial.access_count
        assert parallel.size_bytes() == serial.size_bytes()

    def test_leap_parallel_respects_budget(self, trace):
        serial = LeapProfiler(budget=2).profile(trace)
        parallel = LeapProfiler(budget=2, jobs=2).profile(trace)
        assert parallel.entries == serial.entries
        assert parallel.accesses_captured() == serial.accesses_captured()


class TestAdoption:
    def test_horizontal_adopt_requires_all_dimensions(self):
        scc = HorizontalSequiturSCC()
        with pytest.raises(ValueError):
            scc.adopt_grammars({"instruction": SequiturGrammar()})

    def test_vertical_adopted_entries_returned_by_finish(self):
        scc = VerticalLMADSCC()
        compressor = LMADCompressor(dims=3)
        compressor.feed_all([(0, i, i) for i in range(4)])
        entries = {(1, 0): compressor.finish()}
        scc.adopt_entries(entries)
        assert scc.finish() == entries
