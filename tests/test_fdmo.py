"""Tests for the profile-consuming optimizations (FDMO consumers):
hot streams, object clustering, stride prefetching, field reordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdc import translate_columns, translate_trace_list
from repro.core.events import AccessKind
from repro.core.tuples import WILD_GROUP
from repro.postprocess.clustering import (
    ObjectClusterer,
    affinity_graph,
    build_layout,
    cluster_order,
)
from repro.postprocess.field_reorder import (
    WORD,
    FieldOrder,
    FieldReorderer,
    field_statistics,
    propose_orders,
)
from repro.postprocess.hot_streams import coverage, extract_hot_streams
from repro.postprocess.prefetch import evaluate_prefetching, plan_from_profile
from repro.profilers.leap import LeapProfiler
from repro.runtime.cache import CacheConfig
from repro.runtime.process import Process
from repro.workloads.micro import LinkedListTraversal, MatrixTraversal


class TestHotStreams:
    def test_traversal_stream_found(self):
        trace = LinkedListTraversal(nodes=50, sweeps=8).trace()
        stream = translate_trace_list(trace)
        hot = extract_hot_streams(stream, top=3)
        assert hot
        # the hottest stream is the full 50-node traversal, repeated
        best = hot[0]
        assert best.length == 50
        assert best.occurrences >= 8
        assert best.heat == best.length * best.occurrences

    def test_wild_accesses_skipped(self):
        process = Process()
        ld = process.instruction("ld", AccessKind.LOAD)
        block = process.malloc("s", 64)
        process.load(ld, block)
        process.free(block)
        process.load(ld, block)  # wild
        process.finish()
        hot = extract_hot_streams(translate_trace_list(process.trace))
        for stream in hot:
            assert all(group >= 0 for group, __ in stream.references)

    def test_min_occurrences_filter(self):
        trace = LinkedListTraversal(nodes=20, sweeps=3).trace()
        stream = translate_trace_list(trace)
        strict = extract_hot_streams(stream, min_occurrences=1000)
        assert strict == []

    def test_coverage_bounds(self):
        trace = LinkedListTraversal(nodes=30, sweeps=5).trace()
        stream = translate_trace_list(trace)
        hot = extract_hot_streams(stream, top=5)
        assert 0.0 <= coverage(hot, len(stream)) <= 1.0
        assert coverage([], 100) == 0.0
        assert coverage(hot, 0) == 0.0


class TestClustering:
    def test_affinity_counts_co_access(self):
        trace = LinkedListTraversal(nodes=10, sweeps=2).trace()
        __, groups, serials, *__ = translate_columns(trace)
        references = [r for r in zip(groups, serials) if r[0] != WILD_GROUP]
        edges = affinity_graph(references, window=4)
        assert edges
        assert all(weight > 0 for weight in edges.values())
        for (a, b) in edges:
            assert a <= b  # canonical edge order

    def test_cluster_order_is_permutation(self):
        objects = [(0, i) for i in range(10)]
        edges = {((0, 0), (0, 1)): 5, ((0, 2), (0, 3)): 4}
        order = cluster_order(objects, edges)
        assert sorted(order) == sorted(objects)

    def test_affine_objects_adjacent(self):
        objects = [(0, i) for i in range(5)]
        edges = {((0, 1), (0, 3)): 10}
        heat = {(0, 1): 100}
        order = cluster_order(objects, edges, heat)
        assert order[0] == (0, 1)
        assert order[1] == (0, 3)

    def test_layout_is_packed_and_aligned(self):
        order = [(0, 1), (0, 0)]
        sizes = {(0, 0): 24, (0, 1): 40}
        layout = build_layout(order, sizes, align=16)
        assert layout.bases[(0, 1)] % 16 == 0
        assert layout.bases[(0, 0)] == layout.bases[(0, 1)] + 48
        assert layout.total_bytes == 48 + 32

    def test_clustering_reduces_misses_on_scattered_list(self):
        trace = LinkedListTraversal(nodes=150, sweeps=8).trace()
        comparison = ObjectClusterer().evaluate(trace, CacheConfig(4096, 64, 2))
        assert comparison.optimized.miss_rate < comparison.baseline.miss_rate
        assert comparison.miss_reduction > 0.15

    def test_replay_streams_have_equal_length(self):
        trace = LinkedListTraversal(nodes=20, sweeps=2).trace()
        comparison = ObjectClusterer().evaluate(trace)
        assert comparison.baseline.accesses == comparison.optimized.accesses


class TestPrefetch:
    def test_plan_selects_strided_instructions(self):
        trace = MatrixTraversal(rows=40, cols=40).trace()
        profile = LeapProfiler().profile(trace)
        plan = plan_from_profile(profile)
        assert len(plan) >= 1
        assert all(stride != 0 for stride in plan.strides.values())

    def test_prefetching_reduces_misses_on_strided_code(self):
        trace = MatrixTraversal(rows=48, cols=48).trace()
        comparison = evaluate_prefetching(trace, config=CacheConfig(4096, 64, 2))
        assert comparison.miss_reduction > 0.5
        assert comparison.optimized.prefetches > 0

    def test_prefetching_neutral_on_random_code(self):
        from repro.workloads.micro import HashProbe

        trace = HashProbe(buckets=4096, probes=2000).trace()
        comparison = evaluate_prefetching(trace, config=CacheConfig(4096, 64, 2))
        # nothing strongly-strided within objects -> no prefetches for
        # the probe loop; demand misses unchanged
        assert comparison.optimized.miss_rate <= comparison.baseline.miss_rate + 0.01


class TestFieldReorder:
    def hot_cold_trace(self, records=200, sweeps=5, size=256):
        """Two hot fields at opposite ends of a big record + cold ones."""
        process = Process()
        hot_a = process.instruction("hot_a", AccessKind.LOAD)
        hot_b = process.instruction("hot_b", AccessKind.LOAD)
        cold = process.instruction("cold", AccessKind.LOAD)
        objects = [process.malloc("rec", size) for __ in range(records)]
        for sweep in range(sweeps):
            for obj in objects:
                process.load(hot_a, obj)
                process.load(hot_b, obj + size - 8)
            if sweep == 0:
                for obj in objects:
                    process.load(cold, obj + size // 2)
        process.finish()
        return process.trace

    def test_statistics(self):
        trace = self.hot_cold_trace(records=10, sweeps=2)
        __, groups, serials, offsets, *__ = translate_columns(trace)
        frequency, affinity = field_statistics(groups, serials, offsets)
        group_frequency = frequency[0]
        assert group_frequency[0] == group_frequency[248]
        assert group_frequency[0] > group_frequency[128]
        assert affinity[0]  # the hot pair co-occurs

    def test_proposal_packs_hot_pair(self):
        trace = self.hot_cold_trace(records=30, sweeps=3)
        orders = FieldReorderer().propose(trace)
        order = orders[0]
        new_a, new_b = order.apply(0), order.apply(248)
        assert abs(new_a - new_b) == 8  # now adjacent

    def test_reordering_reduces_misses(self):
        trace = self.hot_cold_trace()
        comparison = FieldReorderer().evaluate(trace, CacheConfig(4096, 64, 2))
        assert comparison.miss_reduction > 0.25

    def test_small_objects_skipped(self):
        trace = LinkedListTraversal(nodes=30, sweeps=3).trace()  # 24B nodes
        orders = FieldReorderer().propose(trace)
        assert orders == {}  # nothing bigger than a line

    def test_noop_when_nothing_reordered(self):
        trace = LinkedListTraversal(nodes=30, sweeps=3).trace()
        comparison = FieldReorderer().evaluate(trace, CacheConfig(2048, 64, 2))
        assert comparison.optimized.miss_rate == pytest.approx(
            comparison.baseline.miss_rate
        )


def cubic_propose_orders(frequency, affinity, object_sizes, line_bytes=64):
    """Reference greedy for :func:`propose_orders`: every step rescores
    each remaining field against every placed one."""
    orders = {}
    for group, group_frequency in frequency.items():
        if object_sizes.get(group, 0) <= line_bytes:
            continue
        offsets = sorted(group_frequency)
        if len(offsets) < 2:
            continue
        group_affinity = affinity.get(group, {})
        placed = [max(offsets, key=lambda o: group_frequency[o])]
        remaining = set(offsets) - set(placed)
        while remaining:
            def score(candidate):
                bond = sum(
                    group_affinity.get((min(candidate, p), max(candidate, p)), 0)
                    for p in placed
                )
                return (bond, group_frequency[candidate])

            best = max(remaining, key=score)
            placed.append(best)
            remaining.discard(best)
        remap = {old: index * WORD for index, old in enumerate(placed)}
        if any(old != new for old, new in remap.items()):
            orders[group] = FieldOrder(group, remap)
    return orders


@st.composite
def field_profiles(draw):
    """Per-group offset frequencies and pair affinities, with small
    ranges so that ties in bond and frequency are common."""
    frequency, affinity, sizes = {}, {}, {}
    for group in range(draw(st.integers(1, 3))):
        offsets = draw(st.sets(st.integers(0, 40).map(lambda w: w * WORD), max_size=24))
        frequency[group] = {o: draw(st.integers(1, 4)) for o in sorted(offsets)}
        pairs = [(a, b) for a in sorted(offsets) for b in sorted(offsets) if a < b]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
        affinity[group] = {pair: draw(st.integers(1, 3)) for pair in chosen}
        sizes[group] = draw(st.sampled_from([32, 64, 128, 512]))
    return frequency, affinity, sizes


@settings(max_examples=200, deadline=None)
@given(field_profiles())
def test_running_bond_greedy_equals_the_cubic_one(profile):
    assert propose_orders(*profile) == cubic_propose_orders(*profile)
