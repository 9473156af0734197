"""BINCAP: the compact binary profile format and the document stream.

Three layers under test:

* primitives -- varints, frames, the incremental :class:`FrameParser`;
* documents -- hypothesis-generated WHOMP/LEAP/dependence documents
  must survive ``encode_document`` -> ``decode_document`` identically,
  and every truncation or byte-flip of an encoded document must raise
  :class:`BinaryFormatError` (the trailing CRC's job);
* streams -- :class:`StreamWriter` -> :class:`StreamReader` across
  arbitrary feed boundaries, including torn tails and CRC damage.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binformat as bf
from repro.core import profile_io as pio
from repro.core.binformat import (
    BinaryFormatError,
    FrameParser,
    StreamReader,
    StreamWriter,
    decode_document,
    encode_document,
    sniff_kind,
)

# -- primitives ---------------------------------------------------------------


class TestVarints:
    @given(st.integers(min_value=0, max_value=2 ** 64))
    @settings(max_examples=80, deadline=None)
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        bf.write_uvarint(out, value)
        decoded, pos = bf.read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    @given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63))
    @settings(max_examples=80, deadline=None)
    def test_svarint_round_trip(self, value):
        out = bytearray()
        bf.write_svarint(out, value)
        decoded, pos = bf.read_svarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_small_values_are_one_byte(self):
        out = bytearray()
        bf.write_uvarint(out, 127)
        assert len(out) == 1

    def test_truncated_uvarint_raises(self):
        out = bytearray()
        bf.write_uvarint(out, 1 << 40)
        with pytest.raises(BinaryFormatError):
            bf.read_uvarint(bytes(out[:-1]), 0)

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_varint_block_round_trip(self, values):
        out = bytearray()
        for value in values:
            bf.write_uvarint(out, value)
        assert bf._read_varint_block(bytes(out)) == values

    def test_varint_block_truncation_raises(self):
        out = bytearray()
        bf.write_uvarint(out, 1 << 30)
        with pytest.raises(BinaryFormatError):
            bf._read_varint_block(bytes(out[:-1]))


class TestFrameParser:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=0x0F),
                st.binary(max_size=200),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_frames_survive_any_feed_chunking(self, frames, chunk_size):
        wire = bytearray()
        for tag, payload in frames:
            bf.write_frame(wire, tag, payload)
        parser = FrameParser()
        seen = []
        for offset in range(0, len(wire), chunk_size):
            parser.feed(bytes(wire[offset : offset + chunk_size]))
            while True:
                frame = parser.next_frame()
                if frame is None:
                    break
                seen.append(frame)
        assert seen == [(tag, payload) for tag, payload in frames]
        assert parser.pending == 0

    def test_oversized_frame_rejected_before_buffering(self):
        wire = bytearray()
        wire.append(0x02)
        bf.write_uvarint(wire, 1 << 40)  # a length no one should honour
        parser = FrameParser()
        parser.feed(bytes(wire))
        with pytest.raises(BinaryFormatError):
            parser.next_frame()


# -- hypothesis document strategies -------------------------------------------

_label_text = st.text(max_size=12)
_counts = st.dictionaries(
    st.integers(min_value=0, max_value=500).map(str),
    st.integers(min_value=0, max_value=1 << 32),
    max_size=8,
)


@st.composite
def whomp_documents(draw):
    grammars = {}
    for name in draw(
        st.sets(st.sampled_from(["instruction", "group", "object", "offset"]),
                min_size=1)
    ):
        rule_ids = draw(
            st.sets(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=5)
        )
        productions = {}
        for rule_id in rule_ids:
            symbols = draw(
                st.lists(
                    st.one_of(
                        st.integers(-(1 << 40), 1 << 40).map(
                            lambda v: ["T", v]
                        ),
                        st.integers(0, 60).map(lambda v: ["R", v]),
                    ),
                    max_size=6,
                )
            )
            productions[str(rule_id)] = symbols
        grammars[name] = {
            "start": draw(st.sampled_from(sorted(rule_ids))),
            "productions": productions,
        }
    return {
        "format": "whomp",
        "version": 1,
        "access_count": draw(st.integers(0, 1 << 32)),
        "capture_completeness": draw(
            st.floats(0.0, 1.0, allow_nan=False)
        ),
        "quarantined": draw(st.integers(0, 1000)),
        "grammars": grammars,
        "base_addresses": draw(
            st.lists(
                st.tuples(
                    st.integers(-8, 100),
                    st.integers(0, 100),
                    st.integers(0, 1 << 48),
                ).map(list),
                max_size=10,
            )
        ),
        "lifetimes": draw(_lifetime_rows()),
        "group_labels": draw(
            st.dictionaries(
                st.integers(-8, 100).map(str), _label_text, max_size=6
            )
        ),
    }


@st.composite
def _lifetime_rows(draw):
    rows = []
    for __ in range(draw(st.integers(0, 6))):
        alloc = draw(st.integers(0, 1 << 32))
        rows.append(
            [
                draw(st.integers(-8, 100)),
                draw(st.integers(0, 100)),
                alloc,
                draw(st.one_of(st.none(), st.integers(0, 1 << 32))),
                draw(st.integers(0, 1 << 32)),
            ]
        )
    return rows


@st.composite
def _overflow(draw):
    dims = draw(st.integers(0, 3))
    if dims == 0:
        return {"count": draw(st.integers(0, 1 << 20)), "min": None,
                "max": None, "granularity": None}
    ints = st.integers(-(1 << 40), 1 << 40)
    return {
        "count": draw(st.integers(0, 1 << 20)),
        "min": draw(st.lists(ints, min_size=dims, max_size=dims)),
        "max": draw(st.lists(ints, min_size=dims, max_size=dims)),
        "granularity": draw(st.lists(ints, min_size=dims, max_size=dims)),
    }


@st.composite
def _entries(draw):
    entries = []
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, 200), st.integers(-8, 100)), max_size=6
        )
    )
    for instruction, group in sorted(pairs):
        lmads = []
        for __ in range(draw(st.integers(0, 3))):
            dims = draw(st.integers(0, 4))
            ints = st.integers(-(1 << 40), 1 << 40)
            lmads.append(
                [
                    draw(st.lists(ints, min_size=dims, max_size=dims)),
                    draw(st.lists(ints, min_size=dims, max_size=dims)),
                    draw(st.integers(0, 1 << 32)),
                ]
            )
        entries.append(
            {
                "instruction": instruction,
                "group": group,
                "total": draw(st.integers(0, 1 << 32)),
                "summarized": draw(st.booleans()),
                "lmads": lmads,
                "overflow": draw(_overflow()),
            }
        )
    return entries


@st.composite
def leap_documents(draw):
    entries = draw(_entries())
    kinds = {
        str(e["instruction"]): draw(st.sampled_from(["load", "store"]))
        for e in entries
    }
    return {
        "format": "leap",
        "version": 1,
        "budget": draw(st.integers(0, 1 << 20)),
        "access_count": draw(st.integers(0, 1 << 32)),
        "capture_completeness": draw(st.floats(0.0, 1.0, allow_nan=False)),
        "quarantined": draw(st.integers(0, 1000)),
        "entries": entries,
        "kinds": kinds,
        "exec_counts": draw(_counts),
        "group_labels": draw(
            st.dictionaries(
                st.integers(-8, 100).map(str), _label_text, max_size=6
            )
        ),
        "lifetimes": draw(_lifetime_rows()),
    }


@st.composite
def dependence_documents(draw):
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=8
        )
    )
    return {
        "format": "dependence",
        "version": 1,
        "conflicts": [
            [store, load, draw(st.integers(1, 1 << 32))]
            for store, load in sorted(pairs)
        ],
        "load_counts": draw(_counts),
        "store_counts": draw(_counts),
    }


# -- document round trips -----------------------------------------------------


class TestDocumentRoundTrip:
    @given(whomp_documents())
    @settings(max_examples=60, deadline=None)
    def test_whomp(self, document):
        assert decode_document(encode_document(document)) == document

    @given(leap_documents())
    @settings(max_examples=60, deadline=None)
    def test_leap(self, document):
        assert decode_document(encode_document(document)) == document

    @given(dependence_documents())
    @settings(max_examples=60, deadline=None)
    def test_dependence(self, document):
        assert decode_document(encode_document(document)) == document

    @given(
        st.one_of(whomp_documents(), leap_documents(), dependence_documents())
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_equals_json_document(self, document):
        """The two encodings decode to the same document dict."""
        via_json = json.loads(json.dumps(document))
        via_binary = decode_document(encode_document(document))
        assert via_binary == via_json

    def test_trace_documents_stay_json(self):
        with pytest.raises(BinaryFormatError):
            encode_document({"format": "trace", "version": 1})


class TestCorruptionDetection:
    @given(leap_documents(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_raises(self, document, data):
        encoded = encode_document(document)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(BinaryFormatError):
            decode_document(encoded[:cut])

    @given(dependence_documents(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_byte_flip_raises(self, document, data):
        encoded = bytearray(encode_document(document))
        index = data.draw(st.integers(0, len(encoded) - 1))
        flip = data.draw(st.integers(1, 255))
        encoded[index] ^= flip
        with pytest.raises(BinaryFormatError):
            decode_document(bytes(encoded))

    def test_header_kind_corruption_rejected(self):
        document = {
            "format": "dependence", "version": 1,
            "conflicts": [], "load_counts": {}, "store_counts": {},
        }
        encoded = bytearray(encode_document(document))
        # the version uvarint sits right after the HEADER frame preamble
        with pytest.raises(BinaryFormatError):
            bf.decode_document(
                bytes(encoded).replace(b"dependence", b"dependencf")
            )


class TestSniffing:
    def test_sniff_kind_reads_binary_headers(self):
        document = {
            "format": "dependence", "version": 1,
            "conflicts": [], "load_counts": {}, "store_counts": {},
        }
        assert sniff_kind(encode_document(document)) == "dependence"

    def test_sniff_kind_passes_on_json(self):
        assert sniff_kind(b'{"format": "leap"}') is None

    def test_sniff_kind_rejects_torn_magic(self):
        encoded = encode_document(
            {"format": "dependence", "version": 1,
             "conflicts": [], "load_counts": {}, "store_counts": {}}
        )
        with pytest.raises(BinaryFormatError):
            sniff_kind(encoded[:4])

    def test_profile_io_sniff_format_routes_both(self):
        document = {
            "format": "dependence", "version": 1,
            "conflicts": [], "load_counts": {}, "store_counts": {},
        }
        encoded = encode_document(document)
        assert pio.sniff_format(encoded) == "dependence"
        assert pio.sniff_format(json.dumps(document)) == "dependence"
        assert (
            pio.sniff_format(json.dumps(document).encode()) == "dependence"
        )


# -- streams ------------------------------------------------------------------


def _stream_bytes(documents, close=True, chunk_size=64):
    chunks = []
    writer = StreamWriter(chunks.append)
    writer.begin()
    for workload, meta, payload in documents:
        writer.send_document(
            workload, payload, meta=meta, chunk_size=chunk_size
        )
    if close:
        writer.close()
    return b"".join(chunks)


class TestStream:
    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=10),
                st.dictionaries(st.text(max_size=6), st.integers(0, 100),
                                max_size=3),
                st.binary(min_size=0, max_size=500),
            ),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_across_any_chunking(self, documents, chunk_size):
        wire = _stream_bytes(documents)
        reader = StreamReader()
        events = []
        for offset in range(0, len(wire), chunk_size):
            events.extend(reader.feed(wire[offset : offset + chunk_size]))
        docs = [e for e in events if e[0] == "doc"]
        assert [(w, m, b) for __, w, m, b in docs] == [
            (w, m, b) for w, m, b in documents
        ]
        assert events[-1] == ("end", len(documents))
        summary = reader.summary()
        assert summary["complete"]
        assert summary["capture_completeness"] == 1.0

    def test_torn_tail_degrades_not_raises(self):
        wire = _stream_bytes(
            [("a", {}, b"x" * 300), ("b", {}, b"y" * 300)], close=False
        )
        reader = StreamReader()
        events = reader.feed(wire[: len(wire) - 80])  # kill mid-document
        assert [e[0] for e in events] == ["doc"]
        summary = reader.summary()
        assert not summary["complete"]
        assert summary["torn"] == 1
        assert 0.0 < summary["capture_completeness"] < 1.0

    def test_crc_damage_tears_only_that_document(self):
        payload_a = b"a" * 200
        payload_b = b"b" * 200
        wire = bytearray(
            _stream_bytes(
                [("a", {}, payload_a), ("b", {}, payload_b)],
                chunk_size=1 << 12,
            )
        )
        index = wire.find(payload_a)
        assert index > 0
        wire[index] ^= 0xFF
        reader = StreamReader()
        events = reader.feed(bytes(wire))
        kinds = [e[0] for e in events]
        assert kinds == ["torn", "doc", "end"]
        assert events[1][1] == "b"
        summary = reader.summary()
        assert not summary["complete"]
        assert summary["documents"] == 1

    def test_document_size_cap_enforced(self):
        wire = _stream_bytes([("a", {}, b"z" * 4096)])
        reader = StreamReader(max_document_bytes=1024)
        with pytest.raises(BinaryFormatError):
            reader.feed(wire)


# -- grammar expansion --------------------------------------------------------


def _tagged_both(grammar):
    """``grammar``'s tagged form as each encoding reaches the expander:
    converted from JSON shape, and decoded from a BINCAP grammar frame."""
    from_json = bf.tag_grammar(grammar)
    start, productions = bf._decode_grammar_tagged(bf._encode_grammar(from_json))
    assert (start, productions) == from_json
    return [from_json, (start, productions)]


class TestExpansion:
    def test_matches_iterative_expander(self):
        data = {
            "start": 0,
            "productions": {
                "0": [["R", 1], ["R", 1], ["T", 7]],
                "1": [["T", 1], ["T", -2]],
            },
        }
        for start, productions in _tagged_both(data):
            bottom_up = bf._expand_tagged(start, productions, 5)
            one_by_one = bf._expand_tagged_iterative(start, productions, 5)
            assert bottom_up == one_by_one == [1, -2, 1, -2, 7]

    def test_grammar_bomb_rejected_before_expansion(self):
        # each rule doubles: 2**40 symbols claimed from 40 rules
        productions = {"40": [["T", 0], ["T", 0]]}
        for rule in range(39, -1, -1):
            productions[str(rule)] = [
                ["R", rule + 1], ["R", rule + 1]
            ]
        data = {"start": 0, "productions": productions}
        for start, tagged in _tagged_both(data):
            with pytest.raises(BinaryFormatError, match="expands"):
                bf._expand_tagged(start, tagged, 10_000)

    def test_cycle_rejected(self):
        data = {"start": 0, "productions": {"0": [["R", 0]]}}
        for start, productions in _tagged_both(data):
            with pytest.raises(BinaryFormatError, match="cycle"):
                bf._expand_tagged(start, productions, 10)

    def test_undefined_rule_rejected(self):
        data = {"start": 0, "productions": {"0": [["R", 9]]}}
        for start, productions in _tagged_both(data):
            with pytest.raises(BinaryFormatError, match="undefined"):
                bf._expand_tagged(start, productions, 10)

    def test_deep_chain_takes_bounded_fallback(self, monkeypatch):
        """A 3000-deep unshared chain sums to 3000 symbols of per-rule
        expansion for a 1-symbol stream, past the bottom-up budget, so
        both encodings must load it through the bounded walker."""
        calls = []
        walker = bf._expand_tagged_iterative

        def spy(start, productions, max_symbols):
            calls.append(max_symbols)
            return walker(start, productions, max_symbols)

        monkeypatch.setattr(bf, "_expand_tagged_iterative", spy)
        chain = {str(i): [["R", i + 1]] for i in range(2999)}
        chain["2999"] = [["T", -7]]
        document = {
            "format": "whomp", "version": 1, "access_count": 1,
            "grammars": {
                name: {"start": 0, "productions": chain}
                for name in ("instruction", "group", "object", "offset")
            },
            "base_addresses": [], "lifetimes": [], "group_labels": {},
        }
        for data in (encode_document(document), json.dumps(document).encode()):
            calls.clear()
            streams = pio.loads_bytes(data)["streams"]
            assert all(stream == [-7] for stream in streams.values())
            assert calls == [1, 1, 1, 1]
