"""Tests for the baseline profilers (RASG, lossless dependence, Connors,
lossless stride)."""

import pytest

from repro.baselines.connors import ConnorsProfiler
from repro.baselines.dependence_lossless import (
    DependenceProfile,
    LosslessDependenceProfiler,
)
from repro.baselines.rasg import RasgProfiler
from repro.baselines.stride_lossless import LosslessStrideProfiler
from repro.core.events import AccessKind
from repro.runtime.process import Process


def build(events):
    """events: list of ('ld'|'st', name, address)"""
    process = Process()
    process.declare_static("arena", 1 << 16)
    base = process.static("arena").address
    for kind, name, offset in events:
        if kind == "st":
            instr = process.instruction(name, AccessKind.STORE)
            process.store(instr, base + offset)
        else:
            instr = process.instruction(name, AccessKind.LOAD)
            process.load(instr, base + offset)
    process.finish()
    return process


class TestRasg:
    def test_instruction_and_address_grammars(self, list_trace):
        profile = RasgProfiler().profile(list_trace)
        assert set(profile.grammars) == {"instruction", "address"}
        assert profile.access_count == list_trace.access_count
        streams = {
            name: grammar.expand() for name, grammar in profile.grammars.items()
        }
        assert streams["address"] == list_trace.raw_address_stream()

    def test_sizes_positive(self, list_trace):
        profile = RasgProfiler().profile(list_trace)
        assert profile.size() > 0
        assert profile.size_bytes_varint() > 0
        assert sum(profile.dimension_sizes().values()) == profile.size()


class TestLosslessDependence:
    def test_simple_raw(self):
        process = build([("st", "s1", 0), ("ld", "l1", 0)])
        profile = LosslessDependenceProfiler().profile(process.trace)
        s1 = 0
        l1 = 1
        assert profile.frequency(s1, l1) == 1.0

    def test_no_dependence_on_different_addresses(self):
        process = build([("st", "s1", 0), ("ld", "l1", 8)])
        profile = LosslessDependenceProfiler().profile(process.trace)
        assert profile.dependent_pairs() == {}

    def test_order_matters(self):
        process = build([("ld", "l1", 0), ("st", "s1", 0)])
        profile = LosslessDependenceProfiler().profile(process.trace)
        assert profile.dependent_pairs() == {}

    def test_any_earlier_write_counts(self):
        # store once, load many times later: every load conflicts
        events = [("st", "s1", 0)] + [("ld", "l1", 0)] * 10
        profile = LosslessDependenceProfiler().profile(build(events).trace)
        assert profile.frequency(0, 1) == 1.0

    def test_fractional_frequency(self):
        events = [("st", "s1", 0)]
        events += [("ld", "l1", 0)] * 3 + [("ld", "l1", 8)] * 7
        profile = LosslessDependenceProfiler().profile(build(events).trace)
        assert profile.frequency(0, 1) == pytest.approx(0.3)

    def test_multiple_stores_each_counted(self):
        events = [("st", "s1", 0), ("st", "s2", 0), ("ld", "l1", 0)]
        profile = LosslessDependenceProfiler().profile(build(events).trace)
        pairs = profile.dependent_pairs()
        assert len(pairs) == 2

    def test_counts(self):
        events = [("st", "s1", 0), ("ld", "l1", 0), ("ld", "l1", 0)]
        profile = LosslessDependenceProfiler().profile(build(events).trace)
        assert profile.store_counts[0] == 1
        assert profile.load_counts[1] == 2

    def test_frequency_of_unknown_pair(self):
        profile = DependenceProfile()
        assert profile.frequency(1, 2) == 0.0


class TestConnors:
    def test_catches_short_distance(self):
        process = build([("st", "s1", 0), ("ld", "l1", 0)])
        profile = ConnorsProfiler(window=4).profile(process.trace)
        assert profile.frequency(0, 1) == 1.0

    def test_misses_beyond_window(self):
        events = [("st", "s1", 0)]
        events += [("st", "s2", 8 * (i + 1)) for i in range(10)]
        events += [("ld", "l1", 0)]
        process = build(events)
        small = ConnorsProfiler(window=4).profile(process.trace)
        large = ConnorsProfiler(window=64).profile(process.trace)
        s1 = 0
        load = process.instructions["l1"].instruction_id
        assert small.frequency(s1, load) == 0.0  # s1 fell out of the window
        assert large.frequency(s1, load) == 1.0

    def test_never_overestimates(self, list_trace):
        truth = LosslessDependenceProfiler().profile(list_trace)
        windowed = ConnorsProfiler(window=32).profile(list_trace)
        for pair, frequency in windowed.dependent_pairs().items():
            assert frequency <= truth.dependent_pairs().get(pair, 0.0) + 1e-9

    def test_window_eviction_multiset(self):
        # same address stored twice by one instruction; eviction must not
        # drop the second copy prematurely
        events = [("st", "s1", 0), ("st", "s1", 0), ("st", "s2", 8), ("ld", "l1", 0)]
        profile = ConnorsProfiler(window=2).profile(build(events).trace)
        # window holds [s1(second), s2]: s1 still present once
        assert profile.frequency(0, 2) == 1.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ConnorsProfiler(window=0)

    def test_counts_match_lossless(self, list_trace):
        truth = LosslessDependenceProfiler().profile(list_trace)
        windowed = ConnorsProfiler(window=16).profile(list_trace)
        assert windowed.load_counts == truth.load_counts
        assert windowed.store_counts == truth.store_counts


class TestLosslessStride:
    def test_constant_stride_detected(self):
        events = [("ld", "l1", 8 * i) for i in range(20)]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.dominant_stride(0) == 8
        assert profile.dominant_fraction(0) == 1.0
        assert profile.strongly_strided() == {0}

    def test_mixed_strides_below_threshold(self):
        offsets = []
        for i in range(30):
            offsets.append(8 * i if i % 2 == 0 else 1000 + 24 * i)
        events = [("ld", "l1", offset) for offset in offsets]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.strongly_strided() == set()

    def test_dominant_stride_at_threshold(self):
        # exactly 70%: 7 samples of stride 8, 3 of other strides
        offsets = [0, 8, 16, 24, 32, 40, 48, 56, 1000, 2000, 3000]
        events = [("ld", "l1", offset) for offset in offsets]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.strongly_strided(threshold=0.70) == {0}

    def test_min_samples_filter(self):
        events = [("ld", "l1", 0), ("ld", "l1", 8)]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.strongly_strided(min_samples=4) == set()
        assert profile.strongly_strided(min_samples=1) == {0}

    def test_no_histogram_for_single_execution(self):
        events = [("ld", "l1", 0)]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.dominant_stride(0) is None
        assert profile.dominant_fraction(0) == 0.0

    def test_negative_strides_tracked(self):
        events = [("ld", "l1", 8 * i) for i in reversed(range(20))]
        profile = LosslessStrideProfiler().profile(build(events).trace)
        assert profile.dominant_stride(0) == -8
