"""Tests for horizontal and vertical decomposition: the SCCs' ``decompose``
over the translation's columns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AccessKind
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import DIMENSIONS, ObjectRelativeAccess

#: (instruction, group, object, offset, time) rows
SAMPLE = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 16, 1),
    (0, 0, 1, 0, 2),
    (1, 0, 1, 16, 3),
    (2, 1, 0, 8, 4),
]

#: SAMPLE plus an access that splits instruction 0 across two groups
NESTED = SAMPLE + [(0, 1, 0, 8, 5)]


def columns(rows, kinds=None):
    """The translation's columns for ``rows``: 8-byte accesses, loads
    unless ``kinds`` says otherwise."""
    if kinds is None:
        kinds = [AccessKind.LOAD] * len(rows)
    instructions, groups, objects, offsets, times = (
        [row[d] for row in rows] for d in range(5)
    )
    return (
        instructions, groups, objects, offsets, times, [8] * len(rows), iter(kinds)
    )


def recombine(substreams):
    """Merge vertical sub-streams back into rows by their time field."""
    rows = [
        (instruction, group, obj, offset, time)
        for (instruction, group), triples in substreams.items()
        for obj, offset, time in triples
    ]
    rows.sort(key=lambda row: row[4])
    return rows


class TestHorizontal:
    def test_default_dimensions(self):
        streams = HorizontalSequiturSCC().decompose(columns(SAMPLE))
        assert set(streams) == set(DIMENSIONS)
        assert streams["instruction"] == [0, 1, 0, 1, 2]
        assert streams["group"] == [0, 0, 0, 0, 1]
        assert streams["object"] == [0, 0, 1, 1, 0]
        assert streams["offset"] == [0, 16, 0, 16, 8]

    def test_streams_have_equal_length(self):
        streams = HorizontalSequiturSCC().decompose(columns(SAMPLE))
        lengths = {len(s) for s in streams.values()}
        assert lengths == {len(SAMPLE)}

    def test_empty_stream(self):
        streams = HorizontalSequiturSCC().decompose(columns([]))
        assert all(s == [] for s in streams.values())


class TestVertical:
    def test_partition_by_instruction(self):
        parts = VerticalLMADSCC().decompose(columns(SAMPLE))
        assert [time for __, __, time in parts[(0, 0)]] == [0, 2]
        assert [time for __, __, time in parts[(1, 0)]] == [1, 3]

    def test_partition_by_group(self):
        """The second level of the nesting splits each instruction's
        rows by group."""
        parts = VerticalLMADSCC().decompose(columns(NESTED))
        by_group = {}
        for (__, group), triples in parts.items():
            by_group[group] = by_group.get(group, 0) + len(triples)
        assert by_group == {0: 4, 1: 2}
        assert [time for __, __, time in parts[(0, 1)]] == [5]

    def test_partitions_preserve_order(self):
        parts = VerticalLMADSCC().decompose(columns(SAMPLE))
        for triples in parts.values():
            times = [time for __, __, time in triples]
            assert times == sorted(times)

    def test_by_instruction_group(self):
        parts = VerticalLMADSCC().decompose(columns(SAMPLE))
        assert set(parts) == {(0, 0), (1, 0), (2, 1)}
        assert len(parts[(0, 0)]) == 2


class TestRecombine:
    def test_inverts_vertical(self):
        parts = VerticalLMADSCC().decompose(columns(SAMPLE))
        assert recombine(parts) == SAMPLE

    def test_inverts_nested_vertical(self):
        parts = VerticalLMADSCC().decompose(columns(NESTED))
        assert recombine(parts) == NESTED


class TestProject:
    def test_triples(self):
        """Each sub-stream holds its rows' (object, offset, time)."""
        parts = VerticalLMADSCC().decompose(columns(SAMPLE))
        assert parts[(0, 0)][0] == (0, 0, 0)
        assert parts[(2, 1)][-1] == (0, 8, 4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 3),
            st.integers(0, 4),
            st.integers(0, 64),
        ),
        max_size=60,
    ),
)
def test_vertical_recombine_roundtrip(rows):
    """Both decompositions are invertible: the horizontal streams zip
    back to the rows, and the vertical sub-streams merge back through
    the time-stamp tag (the paper's reason for adding time), with the
    side tables per-access ``consume`` records."""
    stream = [(i, g, o, f, t) for t, (i, g, o, f) in enumerate(rows)]
    kinds = [AccessKind.STORE if row[3] % 2 else AccessKind.LOAD for row in stream]

    streams = HorizontalSequiturSCC().decompose(columns(stream))
    assert list(zip(*(streams[name] for name in DIMENSIONS))) == [
        row[:4] for row in stream
    ]

    scc = VerticalLMADSCC()
    assert recombine(scc.decompose(columns(stream, kinds))) == stream
    reference = VerticalLMADSCC()
    for row, kind in zip(stream, kinds):
        reference.consume(ObjectRelativeAccess(*row, 8, kind))
    assert list(scc.kinds.items()) == list(reference.kinds.items())
    assert list(scc.exec_counts.items()) == list(reference.exec_counts.items())
