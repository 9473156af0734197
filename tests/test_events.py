"""Tests for the trace event model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AccessEvent, AccessKind, AllocEvent, FreeEvent, Trace


def build_trace():
    trace = Trace()
    trace.record_alloc(0x1000, 64, "site.a", "node")
    trace.record_access(0, 0x1000, 8, AccessKind.STORE)
    trace.record_access(1, 0x1008, 8, AccessKind.LOAD)
    trace.record_free(0x1000)
    return trace


class TestRecording:
    def test_time_counts_accesses_only(self):
        trace = build_trace()
        events = list(trace)
        assert isinstance(events[0], AllocEvent) and events[0].time == 0
        assert isinstance(events[1], AccessEvent) and events[1].time == 0
        assert events[2].time == 1
        assert isinstance(events[3], FreeEvent) and events[3].time == 2

    def test_access_count(self):
        trace = build_trace()
        assert trace.access_count == 2
        assert len(trace) == 4

    def test_accesses_iterator(self):
        trace = build_trace()
        accesses = list(trace.accesses())
        assert [a.instruction_id for a in accesses] == [0, 1]

    def test_object_events_iterator(self):
        trace = build_trace()
        events = list(trace.object_events())
        assert len(events) == 2

    def test_raw_address_stream(self):
        trace = build_trace()
        assert trace.raw_address_stream() == [0x1000, 0x1008]

    def test_raw_size_bytes(self):
        trace = build_trace()
        assert trace.raw_size_bytes() == 2 * 12

    def test_indexing(self):
        trace = build_trace()
        assert isinstance(trace[0], AllocEvent)
        assert isinstance(trace[-1], FreeEvent)


class TestFromEvents:
    def test_preserves_counts(self):
        trace = build_trace()
        rebuilt = Trace.from_events(list(trace))
        assert rebuilt.access_count == trace.access_count
        assert list(rebuilt) == list(trace)


# -- the columnar trace against the list model it replaced --------------


class ListModel:
    """The trace as one list of event objects: the representation the
    columnar :class:`Trace` must stay indistinguishable from."""

    def __init__(self):
        self.events = []
        self.clock = 0

    def record_access(self, instruction_id, address, size, kind):
        self.events.append(AccessEvent(instruction_id, address, size, kind, self.clock))
        self.clock += 1

    def record_alloc(self, address, size, site, type_name=None):
        self.events.append(AllocEvent(address, size, site, type_name, self.clock))

    def record_free(self, address):
        self.events.append(FreeEvent(address, self.clock))


_u64 = st.integers(0, (1 << 63) - 1)
_record = st.one_of(
    st.tuples(
        st.just("access"), st.integers(0, 50), _u64, st.sampled_from([1, 2, 4, 8]),
        st.sampled_from(list(AccessKind)),
    ),
    st.tuples(
        st.just("alloc"), _u64, st.integers(1, 4096), st.sampled_from(["s.a", "s.b"]),
        st.sampled_from([None, "node"]),
    ),
    st.tuples(st.just("free"), _u64),
)


def _replay(records, *targets):
    for target in targets:
        for op, *args in records:
            getattr(target, "record_" + op)(*args)


class TestColumnarFidelity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_record, max_size=40))
    def test_matches_list_model(self, records):
        """Object events land between accesses, several at one clock
        included, and every view agrees with the list model."""
        trace, model = Trace(), ListModel()
        _replay(records, trace, model)
        events = model.events
        assert len(trace) == len(events)
        assert list(trace) == events
        for index in range(len(events)):
            assert trace[index] == events[index]
            assert trace[-index - 1] == events[-index - 1]
        accesses = [e for e in events if isinstance(e, AccessEvent)]
        assert list(trace.accesses()) == accesses
        assert trace.access_count == len(accesses)
        assert list(trace.object_events()) == [
            e for e in events if not isinstance(e, AccessEvent)
        ]
        assert trace.raw_address_stream() == [e.address for e in accesses]

    def test_index_out_of_range(self):
        import pytest

        trace = build_trace()
        for index in (len(trace), -len(trace) - 1):
            with pytest.raises(IndexError):
                trace[index]

    def test_record_access_returns_nothing(self):
        assert Trace().record_access(0, 0x10, 8, AccessKind.LOAD) is None


class TestUnpackedColumns:
    """Fields the 64-bit columns cannot hold turn the columns into
    lists; such traces still load and read back unchanged."""

    def test_from_events_beyond_int64(self):
        events = [
            AccessEvent(0, 0x1000, 8, AccessKind.LOAD, 0),
            AccessEvent(1, 1 << 64, 8, AccessKind.STORE, 1),
            FreeEvent(0x1000, 2),
            AccessEvent(2, 0x1008, 8, AccessKind.LOAD, 2),
        ]
        trace = Trace.from_events(events)
        assert list(trace) == events
        assert trace.raw_address_stream() == [0x1000, 1 << 64, 0x1008]
        assert trace[1].address == 1 << 64

    def test_load_non_int_field(self):
        events = [
            AccessEvent(0, 4096, 8, AccessKind.LOAD, 0),
            AccessEvent(1, 4104, 2.5, AccessKind.STORE, 1),
            AllocEvent(8192, 16, "s", None, 2),
            AccessEvent(2, 8192, 8, AccessKind.LOAD, 2),
        ]
        trace = Trace.from_events(events)
        assert trace.access_count == 3
        assert trace[1].size == 2.5
        assert isinstance(trace[2], AllocEvent)
        assert list(trace) == events

    def test_recording_continues_after_unpacking(self):
        trace = Trace()
        trace.record_access(0, 0x10, 8, AccessKind.LOAD)
        trace.record_access(1, 1 << 70, 8, AccessKind.STORE)
        trace.record_access(2, 0x18, 8, "bogus-kind")
        assert [(e.address, e.kind, e.time) for e in trace.accesses()] == [
            (0x10, AccessKind.LOAD, 0),
            (1 << 70, AccessKind.STORE, 1),
            (0x18, "bogus-kind", 2),
        ]
