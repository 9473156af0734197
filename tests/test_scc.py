"""Tests for the Separation and Compression Component."""

import pytest

from repro.workloads.registry import create

from repro.compression.rle import DeltaRleCodec
from repro.core.cdc import translate_trace_list
from repro.core.events import AccessKind
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import DIMENSIONS, ObjectRelativeAccess
from repro.profilers.whomp import WhompProfiler


def access(i, g, o, f, t, kind=AccessKind.LOAD):
    return ObjectRelativeAccess(i, g, o, f, t, 8, kind)


def columns_of(stream):
    """The translation's columns, transposed from a tuple stream."""
    return tuple(zip(*(
        (a.instruction_id, a.group, a.object_serial, a.offset, a.time, a.size, a.kind)
        for a in stream
    )))


class TestHorizontalSCC:
    def test_streams_match_dimensions(self, simple_trace):
        scc = HorizontalSequiturSCC()
        stream = translate_trace_list(simple_trace)
        for item in stream:
            scc.consume(item)
        assert set(scc.grammars) == set(DIMENSIONS)
        for name in DIMENSIONS:
            expanded = scc.grammars[name].expand()
            assert expanded == [a.dimension(name) for a in stream]

    def test_total_sizes(self, simple_trace):
        profile = WhompProfiler().profile(simple_trace)
        assert profile.size() == sum(
            g.size() for g in profile.grammars.values()
        )
        assert profile.size_bytes() > 0

    def test_pluggable_compressor(self, simple_trace):
        scc = HorizontalSequiturSCC(compressor=DeltaRleCodec)
        stream = translate_trace_list(simple_trace)
        for item in stream:
            scc.consume(item)
        for name in DIMENSIONS:
            assert scc.grammars[name].expand() == [
                a.dimension(name) for a in stream
            ]


class TestVerticalSCC:
    def test_entries_partition_by_instruction_and_group(self):
        scc = VerticalLMADSCC()
        scc.consume(access(0, 0, 0, 0, 0))
        scc.consume(access(0, 1, 0, 0, 1))
        scc.consume(access(1, 0, 0, 8, 2, AccessKind.STORE))
        entries = scc.finish()
        assert set(entries) == {(0, 0), (0, 1), (1, 0)}

    def test_kind_and_exec_tracking(self):
        scc = VerticalLMADSCC()
        scc.consume(access(0, 0, 0, 0, 0))
        scc.consume(access(0, 0, 0, 8, 1))
        scc.consume(access(1, 0, 0, 0, 2, AccessKind.STORE))
        assert scc.kinds[0] is AccessKind.LOAD
        assert scc.kinds[1] is AccessKind.STORE
        assert scc.exec_counts == {0: 2, 1: 1}

    def test_triples_fed_in_order(self):
        scc = VerticalLMADSCC()
        for t in range(10):
            scc.consume(access(0, 0, 0, t * 8, t))
        entry = scc.finish()[(0, 0)]
        assert len(entry.lmads) == 1
        assert entry.lmads[0].stride == (0, 8, 1)

    def test_budget_respected(self):
        scc = VerticalLMADSCC(budget=2)
        # quadratic offsets: no linear chains longer than 2
        for t in range(40):
            scc.consume(access(0, 0, 0, t * t * 8, t))
        entry = scc.finish()[(0, 0)]
        assert len(entry.lmads) == 2
        assert entry.overflow.count > 0


class TestStagedEqualsStreaming:
    """Property: the staged ``decompose`` + ``compress_streams`` path is
    observationally identical to per-access ``consume`` — the invariant
    both the telemetry-instrumented and the parallel pipelines rely on.
    """

    WORKLOADS = (
        ("micro.array", 0.2),
        ("micro.list", 0.2),
        ("micro.hash", 0.2),
    )

    @pytest.mark.parametrize("name,scale", WORKLOADS)
    def test_vertical_staged_equals_consume(self, name, scale):
        trace = create(name, scale=scale).trace()
        stream = translate_trace_list(trace)

        streaming = VerticalLMADSCC()
        for item in stream:
            streaming.consume(item)

        staged = VerticalLMADSCC()
        substreams = staged.decompose(columns_of(stream))
        staged.compress_streams(substreams)

        streaming_entries = streaming.finish()
        staged_entries = staged.finish()
        assert staged_entries == streaming_entries
        assert list(staged_entries) == list(streaming_entries)
        assert staged.kinds == streaming.kinds
        assert staged.exec_counts == streaming.exec_counts

    @pytest.mark.parametrize("name,scale", WORKLOADS)
    def test_horizontal_staged_equals_consume(self, name, scale):
        trace = create(name, scale=scale).trace()
        stream = translate_trace_list(trace)

        streaming = HorizontalSequiturSCC()
        for item in stream:
            streaming.consume(item)

        staged = HorizontalSequiturSCC()
        staged.compress_streams(staged.decompose(columns_of(stream)))

        frozen = staged.freeze()
        assert list(frozen) == list(DIMENSIONS)
        for dim in DIMENSIONS:
            assert (
                frozen[dim].to_productions()
                == streaming.grammars[dim].to_productions()
            )
