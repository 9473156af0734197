"""Tests for phase detection and phase-cognizant LEAP."""

import pytest

from repro.analysis.phases import (
    PhaseDetector,
    PhasedLeapProfiler,
    compare_with_flat,
)
from repro.core.events import AccessKind
from repro.profilers.leap import LeapProfiler
from repro.runtime.process import Process
from repro.workloads.registry import SPEC_BENCHMARKS, create


def classify_all(detector, instructions):
    """Hand ``instructions`` to the detector one interval slice at a time."""
    for start in range(0, len(instructions), detector.interval):
        detector.classify(instructions[start:start + detector.interval])


def two_phase_process(rounds=3, words=1024):
    """Alternates a strided scan+update and random probing; the probe
    phase shares the scan's load instruction, so the flat profiler's
    budget gets burned by the random phase.  The update store only runs
    in phase A, which is what makes the interval signatures differ."""
    process = Process()
    buffer = process.malloc("buf", words * 8)
    ld = process.instruction("scan", AccessKind.LOAD)
    st = process.instruction("update", AccessKind.STORE)
    state = 1
    for __ in range(rounds):
        for word in range(words):
            process.load(ld, buffer + word * 8)
            process.store(st, buffer + word * 8)
        for __ in range(words):
            state = (state * 1103515245 + 12345) % (1 << 31)
            process.load(ld, buffer + (state % words) * 8)
    process.finish()
    return process


class TestPhaseDetector:
    def test_uniform_stream_is_one_phase(self):
        detector = PhaseDetector(interval=100)
        classify_all(detector, [t % 4 for t in range(1000)])
        assert len(detector.phases) == 1
        assert len(detector.assignments) == 10

    def test_two_distinct_phases_detected(self):
        detector = PhaseDetector(interval=100)
        classify_all(detector, [0] * 500 + [1] * 500)
        assert len(detector.phases) == 2
        assert detector.assignments == [0] * 5 + [1] * 5

    def test_recurring_phase_reuses_id(self):
        detector = PhaseDetector(interval=100)
        classify_all(detector, [block % 2 for block in range(4) for __ in range(100)])
        assert detector.assignments == [0, 1, 0, 1]

    def test_partial_interval_flushed(self):
        """A trailing partial interval is classified like a full one."""
        detector = PhaseDetector(interval=100)
        detector.classify([0] * 100)
        assert len(detector.assignments) == 1
        detector.classify([0] * 50)
        assert detector.assignments == [0, 0]
        assert detector.phases[0].intervals == [0, 1]

    def test_threshold_controls_merging(self):
        def phases_with(threshold):
            detector = PhaseDetector(interval=100, threshold=threshold)
            # signatures differ slightly between blocks
            classify_all(detector, [
                0 if t % 10 else block for block in range(4) for t in range(100)
            ])
            return len(detector.phases)

        assert phases_with(2.0) == 1  # everything merges
        assert phases_with(0.01) >= 2  # tiny threshold splits

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            PhaseDetector(interval=0)


class TestPhasedLeap:
    def test_phased_capture_beats_flat_on_phase_change(self):
        process = two_phase_process()
        flat, phased = compare_with_flat(process.trace, interval=1024)
        assert phased > flat

    def test_profiles_partition_the_trace(self):
        process = two_phase_process(rounds=2)
        phased = PhasedLeapProfiler(interval=1024).profile(process.trace)
        total = sum(p.access_count for p in phased.profiles.values())
        assert total == process.trace.access_count

    def test_assignments_cover_whole_trace(self):
        process = two_phase_process(rounds=2)
        phased = PhasedLeapProfiler(interval=1024).profile(process.trace)
        assert len(phased.assignments) >= process.trace.access_count // 1024
        assert phased.phase_count() >= 2

    def test_size_accounts_all_phases(self):
        process = two_phase_process(rounds=2)
        phased = PhasedLeapProfiler(interval=1024).profile(process.trace)
        assert phased.size_bytes() == sum(
            p.size_bytes() for p in phased.profiles.values()
        )

    def test_kinds_follow_their_rows_across_intervals(self):
        """A store first executed in a later interval keeps its kind:
        every slice reads the next kinds, not the trace's first ones."""
        process = Process()
        buffer = process.malloc("buf", 80)
        ld = process.instruction("ld", AccessKind.LOAD)
        st = process.instruction("st", AccessKind.STORE)
        for word in range(10):
            process.load(ld, buffer + word * 8)
        for word in range(10):
            process.store(st, buffer + word * 8)
        process.finish()
        phased = PhasedLeapProfiler(interval=10).profile(process.trace)
        assert phased.assignments == [0, 1]
        assert phased.profiles[1].kinds == {st.instruction_id: AccessKind.STORE}

    def test_empty_trace(self):
        from repro.core.events import Trace

        phased = PhasedLeapProfiler().profile(Trace())
        assert phased.phase_count() == 0
        assert phased.accesses_captured() == 1.0

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_one_interval_equals_flat_leap(self, name):
        """With one interval covering the trace, the single phase's
        profile is the flat LEAP profile."""
        trace = create(name, scale=0.04, seed=3).trace()
        phased = PhasedLeapProfiler(interval=10**9).profile(trace)
        flat = LeapProfiler().profile(trace)
        assert phased.phase_count() == 1
        (profile,) = phased.profiles.values()
        assert profile.entries == flat.entries
        assert profile.kinds == flat.kinds
        assert profile.exec_counts == flat.exec_counts
        assert profile.access_count == flat.access_count
