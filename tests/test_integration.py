"""Cross-module integration tests: the full pipeline end to end."""

import pytest

from repro import (
    LeapProfiler,
    Process,
    WhompProfiler,
    translate_trace_list,
)
from repro.baselines.connors import ConnorsProfiler
from repro.baselines.dependence_lossless import LosslessDependenceProfiler
from repro.baselines.rasg import RasgProfiler
from repro.baselines.stride_lossless import LosslessStrideProfiler
from repro.core.events import AccessKind
from repro.lang.interp import run_source
from repro.postprocess.dependence import analyze_dependences
from repro.postprocess.strides import LeapStrideAnalyzer, stride_score
from repro.workloads.registry import create

MINI_PROGRAM = """
struct item { int key; int value; }

global int[32] histogram;

fn main(): int {
  // build a batch of items, histogram their keys, re-read them
  var items: item* = new item[64];
  for (var i: int = 0; i < 64; i = i + 1) {
    items[i].key = i % 32;
    items[i].value = i * 3;
  }
  for (var i: int = 0; i < 64; i = i + 1) {
    var k: int = items[i].key;
    histogram[k] = histogram[k] + 1;
  }
  var total: int = 0;
  for (var i: int = 0; i < 32; i = i + 1) {
    total = total + histogram[i];
  }
  delete items;
  return total;
}
"""


class TestLangToProfilers:
    """mini-IR program -> trace -> every profiler -> consistent results."""

    @pytest.fixture(scope="class")
    def program_trace(self):
        result, interpreter = run_source(MINI_PROGRAM)
        assert result == 64
        return interpreter.process.trace

    def test_whomp_lossless(self, program_trace):
        profile = WhompProfiler().profile(program_trace)
        raw = [(e.instruction_id, e.address) for e in program_trace.accesses()]
        assert profile.reconstruct_accesses() == raw

    def test_leap_dependences_match_truth(self, program_trace):
        estimated = analyze_dependences(LeapProfiler().profile(program_trace))
        truth = LosslessDependenceProfiler().profile(program_trace)
        for pair, frequency in truth.dependent_pairs().items():
            assert estimated.frequency(*pair) == pytest.approx(frequency, abs=0.2)

    def test_strides_on_lang_trace(self, program_trace):
        leap = LeapProfiler().profile(program_trace)
        identified = LeapStrideAnalyzer().strongly_strided(leap)
        real = LosslessStrideProfiler().profile(program_trace).strongly_strided()
        score = stride_score(identified, real)
        assert score is not None and score >= 0.5


class TestWorkloadToEverything:
    @pytest.fixture(scope="class")
    def trace(self):
        return create("crafty", scale=0.1).trace()

    def test_all_profilers_agree_on_access_count(self, trace):
        whomp = WhompProfiler().profile(trace)
        rasg = RasgProfiler().profile(trace)
        leap = LeapProfiler().profile(trace)
        assert whomp.access_count == trace.access_count
        assert rasg.access_count == trace.access_count
        assert leap.access_count == trace.access_count
        assert sum(leap.exec_counts.values()) == trace.access_count

    def test_leap_vs_connors_vs_truth_sanity(self, trace):
        truth = LosslessDependenceProfiler().profile(trace)
        leap_est = analyze_dependences(LeapProfiler().profile(trace))
        connors = ConnorsProfiler(window=256).profile(trace)
        true_pairs = truth.dependent_pairs()
        assert true_pairs  # crafty has dependences
        # Connors never claims a pair truth denies
        for pair in connors.dependent_pairs():
            assert pair in true_pairs
        # LEAP never produces frequencies above 1
        for frequency in leap_est.dependent_pairs().values():
            assert 0 < frequency <= 1.0 + 1e-9

    def test_translated_stream_time_is_dense(self, trace):
        translated = translate_trace_list(trace)
        assert [a.time for a in translated] == list(range(len(translated)))


class TestOnlinePipelineEndToEnd:
    def test_online_leap_while_running(self):
        """Attach LEAP online, run a program, detach: same result as the
        offline path on the recorded trace."""
        workload = create("micro.array", scale=0.5)
        process = Process()
        session = LeapProfiler().attach(process.bus)
        workload.run(process)
        process.finish()
        online = session.finish()
        offline = LeapProfiler().profile(process.trace)
        assert online.entries == offline.entries

    def test_two_profilers_one_run(self):
        """WHOMP's recorder and LEAP's online pipeline can share a bus."""
        from repro.profilers.leap import LeapProfiler

        workload = create("micro.matrix", scale=0.5)
        process = Process()  # trace recorder attached
        session = LeapProfiler().attach(process.bus)
        workload.run(process)
        process.finish()
        leap = session.finish()
        whomp = WhompProfiler().profile(process.trace)
        assert whomp.access_count == leap.access_count


class TestDeterministicSeeding:
    def test_trace_stable_for_docs(self):
        """Pin a tiny behavioural fingerprint so accidental workload
        changes that would invalidate EXPERIMENTS.md get caught."""
        trace = create("micro.list", scale=0.2, seed=0).trace()
        translated = translate_trace_list(trace)
        assert translated[0].offset in (0, 16)
        assert trace.access_count > 0


def test_scalar_rmw_dependence_detected_by_all():
    """A read-modify-write scalar: every profiler must see the pair."""
    process = Process()
    process.declare_static("x", 8)
    address = process.static("x").address
    ld = process.instruction("ld", AccessKind.LOAD)
    st = process.instruction("st", AccessKind.STORE)
    for __ in range(100):
        process.load(ld, address)
        process.store(st, address)
    process.finish()
    trace = process.trace

    truth = LosslessDependenceProfiler().profile(trace)
    leap = analyze_dependences(LeapProfiler().profile(trace))
    connors = ConnorsProfiler(window=8).profile(trace)
    pair = (st.instruction_id, ld.instruction_id)
    assert truth.frequency(*pair) == pytest.approx(0.99)
    assert leap.frequency(*pair) == pytest.approx(0.99)
    assert connors.frequency(*pair) == pytest.approx(0.99)


class TestFrameworkFacade:
    """What the removed ``ProfilingSession`` facade offered, done with
    the profilers' own ``attach``: several online profilers on one
    process bus, and a LEAP budget override."""

    def test_session_runs_both_profilers_online(self):
        """WHOMP and LEAP attached online to one process each finish
        with the offline profile of the same workload's recorded trace,
        byte for byte, and leave the bus uninstrumented."""
        from repro.core.profile_io import dumps_bytes

        workload = create("micro.matrix", scale=0.4)
        process = Process(record_trace=False)
        whomp_session = WhompProfiler().attach(process.bus)
        leap_session = LeapProfiler().attach(process.bus)
        workload.run(process)
        process.finish()
        whomp, leap = whomp_session.finish(), leap_session.finish()
        assert not process.bus.instrumented

        trace = workload.trace()
        assert whomp.access_count == leap.access_count == trace.access_count > 0
        assert dumps_bytes(whomp, "binary") == dumps_bytes(
            WhompProfiler().profile(trace), "binary"
        )
        assert dumps_bytes(leap, "binary") == dumps_bytes(
            LeapProfiler().profile(trace), "binary"
        )

    def test_session_budget_override(self):
        """An online ``LeapProfiler(budget=3)`` keeps at most 3 LMADs per
        entry and equals the offline profile at the same budget."""
        from repro.core.profile_io import dumps_bytes

        workload = create("micro.hash", scale=0.2)
        process = Process(record_trace=False)
        session = LeapProfiler(budget=3).attach(process.bus)
        workload.run(process)
        process.finish()
        leap = session.finish()
        assert not process.bus.instrumented

        assert leap.entries
        assert all(len(entry.lmads) <= 3 for entry in leap.entries.values())
        assert dumps_bytes(leap, "binary") == dumps_bytes(
            LeapProfiler(budget=3).profile(workload.trace()), "binary"
        )
