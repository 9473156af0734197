"""Tests for profile serialization round trips."""

import functools
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dependence_lossless import LosslessDependenceProfiler
from repro.compression.sequitur import Ref, compress
from repro.core import binformat as bf
from repro.core.binformat import BinaryFormatError, encode_document
from repro.core.profile_io import (
    ProfileFormatError,
    dumps,
    loads,
    loads_bytes,
)
from repro.core.tuples import DIMENSIONS
from repro.postprocess.dependence import analyze_dependences
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.micro import LinkedListTraversal


class TestWhompIO:
    def test_round_trip_streams(self, list_trace):
        profile = WhompProfiler().profile(list_trace)
        loaded = loads(dumps(profile))
        for name in DIMENSIONS:
            assert loaded["streams"][name] == profile.grammars[name].expand()
        assert loaded["base_addresses"] == profile.base_addresses
        assert loaded["access_count"] == profile.access_count
        assert loaded["group_labels"] == profile.group_labels
        assert [tuple(r) for r in loaded["lifetimes"]] == [
            tuple(r) for r in profile.lifetimes
        ]


class TestLeapIO:
    def test_round_trip(self, list_trace):
        profile = LeapProfiler().profile(list_trace)
        loaded = loads(dumps(profile))
        assert loaded.entries == profile.entries
        assert loaded.kinds == profile.kinds
        assert loaded.exec_counts == profile.exec_counts
        assert loaded.access_count == profile.access_count
        assert loaded.budget == profile.budget
        assert loaded.group_labels == profile.group_labels

    def test_loaded_profile_analyzable(self, list_trace):
        profile = LeapProfiler().profile(list_trace)
        loaded = loads(dumps(profile))
        original = analyze_dependences(profile).dependent_pairs()
        reloaded = analyze_dependences(loaded).dependent_pairs()
        assert original == reloaded

    def test_overflow_summary_preserved(self):
        from repro.workloads.micro import HashProbe

        trace = HashProbe(buckets=512, probes=800).trace()
        profile = LeapProfiler().profile(trace)
        assert any(e.overflow.count for e in profile.entries.values())
        loaded = loads(dumps(profile))
        for key, entry in profile.entries.items():
            assert loaded.entries[key].overflow.count == entry.overflow.count
            assert loaded.entries[key].overflow.minimum == entry.overflow.minimum


class TestDependenceIO:
    def test_round_trip(self, list_trace):
        profile = LosslessDependenceProfiler().profile(list_trace)
        loaded = loads(dumps(profile))
        assert loaded.conflicts == profile.conflicts
        assert loaded.load_counts == profile.load_counts
        assert loaded.store_counts == profile.store_counts
        assert loaded.dependent_pairs() == profile.dependent_pairs()

    def test_wrong_format_rejected(self):
        with pytest.raises(ProfileFormatError):
            loads('{"format": "other"}')

    @staticmethod
    def _document(conflicts, version=1):
        return {
            "format": "dependence", "version": version,
            "conflicts": conflicts, "load_counts": {}, "store_counts": {},
        }

    def test_wrong_version_rejected_in_both_encodings(self):
        document = self._document([[3, 1, 5]], version=99)
        with pytest.raises(ProfileFormatError, match="version"):
            loads_bytes(json.dumps(document).encode("utf-8"))
        with pytest.raises(BinaryFormatError, match="version"):
            encode_document(document)

    def test_duplicate_conflict_rows_rejected_in_both_encodings(self):
        document = self._document([[3, 1, 5], [3, 1, 9]])
        with pytest.raises(ProfileFormatError, match="duplicate"):
            loads_bytes(json.dumps(document).encode("utf-8"))
        with pytest.raises(BinaryFormatError, match="duplicate"):
            encode_document(document)
        # BINCAP bytes carrying the two rows, framed by hand
        conflicts = bytearray()
        for value, write in ((2, bf.write_uvarint), (3, bf.write_svarint),
                             (1, bf.write_svarint), (5, bf.write_uvarint),
                             (0, bf.write_svarint), (0, bf.write_svarint),
                             (9, bf.write_uvarint)):
            write(conflicts, value)
        frames = [(bf.FRAME_CONFLICTS, bytes(conflicts))]
        for name in ("load_counts", "store_counts"):
            payload = bytearray()
            bf.write_token(payload, name)
            bf.write_uvarint(payload, 0)
            frames.append((bf.FRAME_COUNTS, bytes(payload)))
        with pytest.raises(ProfileFormatError, match="duplicate"):
            loads_bytes(_framed("dependence", frames))


def _framed(kind, frames):
    """A BINCAP document of ``kind`` holding ``frames`` verbatim."""
    out = bytearray(bf.MAGIC)
    header = bytearray()
    bf.write_uvarint(header, bf.BINARY_VERSION)
    bf.write_token(header, kind)
    bf.write_frame(out, bf.FRAME_HEADER, bytes(header))
    for tag, payload in frames:
        bf.write_frame(out, tag, payload)
    bf.write_frame(out, bf.FRAME_END, struct.pack("<I", zlib.crc32(out)))
    return bytes(out)


def _whomp_with_grammar(grammar, access_count):
    """A WHOMP document whose four dimensions share ``grammar``."""
    return {
        "format": "whomp",
        "version": 1,
        "access_count": access_count,
        "grammars": {name: grammar for name in DIMENSIONS},
        "base_addresses": [],
        "lifetimes": [],
        "group_labels": {},
    }


def _both_encodings(document):
    """``document`` as JSON bytes and as BINCAP bytes."""
    return [json.dumps(document).encode("utf-8"), encode_document(document)]


def _load_streams(document):
    """The four dimension streams of ``document``, loaded from each
    encoding in turn; asserts the two encodings agree."""
    json_data, binary_data = _both_encodings(document)
    streams = loads_bytes(json_data)["streams"]
    assert loads_bytes(binary_data)["streams"] == streams
    return streams


class TestProductionExpansion:
    """The one grammar expander, reached through both encodings.

    Expansion must handle rule chains far deeper than Python's
    recursion limit while still rejecting true cycles, undefined rules,
    bad symbol tags, and grammars that expand past the claimed length.
    """

    @staticmethod
    def _chain(depth, terminal=7):
        productions = {str(i): [["R", i + 1]] for i in range(depth - 1)}
        productions[str(depth - 1)] = [["T", terminal]]
        return {"start": 0, "productions": productions}

    @staticmethod
    def _rejected(document, match):
        for data in _both_encodings(document):
            with pytest.raises(ProfileFormatError, match=match):
                loads_bytes(data)

    def test_deep_chain_expands(self):
        streams = _load_streams(_whomp_with_grammar(self._chain(5000), 1))
        assert all(stream == [7] for stream in streams.values())

    def test_deep_chain_loads_as_whomp_stream(self):
        document = _whomp_with_grammar(self._chain(3000), 1)
        loaded = loads(json.dumps(document))
        assert all(stream == [7] for stream in loaded["streams"].values())
        assert _load_streams(document) == loaded["streams"]

    def test_two_rule_cycle_rejected(self):
        cyclic = {
            "start": 0,
            "productions": {"0": [["R", 1]], "1": [["R", 0]]},
        }
        self._rejected(_whomp_with_grammar(cyclic, 1), "cycle")

    def test_self_cycle_rejected(self):
        cyclic = {"start": 0, "productions": {"0": [["T", 1], ["R", 0]]}}
        self._rejected(_whomp_with_grammar(cyclic, 1), "cycle")

    def test_repeated_sibling_reference_is_not_a_cycle(self):
        grammar = {
            "start": 0,
            "productions": {"0": [["R", 1], ["R", 1]], "1": [["T", 4]]},
        }
        streams = _load_streams(_whomp_with_grammar(grammar, 2))
        assert all(stream == [4, 4] for stream in streams.values())

    def test_undefined_rule_rejected(self):
        grammar = {"start": 0, "productions": {"0": [["R", 9]]}}
        self._rejected(_whomp_with_grammar(grammar, 1), "undefined")

    def test_bad_tag_rejected(self):
        # JSON refuses it on load; BINCAP has no way to carry it at all
        grammar = {"start": 0, "productions": {"0": [["X", 1]]}}
        document = _whomp_with_grammar(grammar, 1)
        with pytest.raises(ProfileFormatError, match="tag"):
            loads_bytes(json.dumps(document).encode("utf-8"))
        with pytest.raises(BinaryFormatError, match="tag"):
            encode_document(document)

    def test_expansion_bomb_capped(self):
        # A doubling grammar describes 2**40 symbols in 40 rules; the
        # loader must abort at its cap instead of materializing it.
        productions = {"39": [["T", 1], ["T", 1]]}
        for rule in range(39):
            productions[str(rule)] = [["R", rule + 1], ["R", rule + 1]]
        document = _whomp_with_grammar(
            {"start": 0, "productions": productions}, 10_000
        )
        self._rejected(document, "expands")


def _stringify_a_terminal(document):
    for grammar in document["grammars"].values():
        for rhs in grammar["productions"].values():
            for symbol in rhs:
                if symbol[0] == "T":
                    symbol[1] = str(symbol[1])
                    return


def _set_first(table, value):
    """Overwrite the value of ``table``'s first row or key."""
    if isinstance(table, dict):
        table[next(iter(table))] = value
    else:
        table[0][-1] = value


def _first_lmad_start(document, value):
    start = next(
        lmad[0] for entry in document["entries"] for lmad in entry["lmads"]
        if lmad[0]
    )
    start[0] = value


#: edits that make a loadable document one BINCAP cannot carry
_MUTATIONS = {
    "string terminal": _stringify_a_terminal,
    "lifetime row": lambda doc: doc["lifetimes"].append(["a"]),
    "base row": lambda doc: doc["base_addresses"].append([1, 2, "zz"]),
    "completeness": lambda doc: doc.update(capture_completeness="abc"),
    "quarantined": lambda doc: doc.update(quarantined=-5),
    "negative exec count": lambda doc: _set_first(doc["exec_counts"], -3),
    "fractional exec count": lambda doc: _set_first(doc["exec_counts"], 2.5),
    "string exec count": lambda doc: _set_first(doc["exec_counts"], "7"),
    "fractional instruction": (
        lambda doc: doc["entries"][0].update(instruction=1.5)
    ),
    "fractional LMAD start": lambda doc: _first_lmad_start(doc, 0.5),
    "negative conflict count": lambda doc: _set_first(doc["conflicts"], -5),
    "fractional conflict count": (
        lambda doc: _set_first(doc["conflicts"], 2.5)
    ),
    "fractional load count": lambda doc: _set_first(doc["load_counts"], 1.5),
}

#: the mutations each fixed-document arm draws; every one of them is
#: refused on load (the WHOMP arm's random documents are drawn instead)
_ARM_MUTATIONS = {
    "leap": [
        "completeness", "lifetime row", "quarantined", "negative exec count",
        "fractional exec count", "string exec count",
        "fractional instruction", "fractional LMAD start",
    ],
    "dependence": [
        "negative conflict count", "fractional conflict count",
        "fractional load count",
    ],
}


_rows = st.lists(
    st.tuples(
        st.integers(-8, 50), st.integers(0, 50), st.integers(0, 1 << 40)
    ),
    max_size=4,
)


def _json_grammar(tokens):
    """The JSON-shape grammar of ``tokens``, written out from its
    productions rather than by the encoder under test."""
    grammar = compress(tokens).freeze()
    return {
        "start": grammar.start,
        "productions": {
            str(rule_id): [
                ["R", symbol.rule_id] if isinstance(symbol, Ref) else ["T", symbol]
                for symbol in rhs
            ]
            for rule_id, rhs in grammar.to_productions().items()
        },
    }


@st.composite
def _loadable_whomp(draw):
    length = draw(st.integers(1, 40))
    grammars = {}
    for name in DIMENSIONS:
        grammars[name] = _json_grammar(
            draw(
                st.lists(
                    st.integers(-9, 9), min_size=length, max_size=length
                )
            )
        )
    return {
        "format": "whomp",
        "version": 1,
        "access_count": length,
        "capture_completeness": draw(st.floats(0.0, 1.0)),
        "quarantined": draw(st.integers(0, 9)),
        "grammars": grammars,
        "base_addresses": [list(row) for row in draw(_rows)],
        "lifetimes": [
            [group, serial, alloc, None, 8]
            for group, serial, alloc in draw(_rows)
        ],
        "group_labels": {"0": "heap"},
    }


@functools.lru_cache(maxsize=None)
def _arm_text(kind):
    """The fixed document of the ``leap`` or ``dependence`` arm."""
    trace = LinkedListTraversal(nodes=12, sweeps=2).trace()
    leap = LeapProfiler().profile(trace)
    return dumps(leap if kind == "leap" else analyze_dependences(leap))


class TestJsonCarriesOnlyWhatBincapCarries:
    """A JSON document that loads must re-encode to BINCAP and load to
    the same result; anything BINCAP cannot carry is refused on load."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_documents_load_only_if_bincap_carries_them(self, data):
        kind = data.draw(st.sampled_from(["whomp", "leap", "dependence"]))
        if kind == "whomp":
            document = data.draw(_loadable_whomp())
            mutations = ["string terminal", "lifetime row", "base row",
                         "completeness", "quarantined"]
        else:
            document = json.loads(_arm_text(kind))
            mutations = _ARM_MUTATIONS[kind]
        loads_bytes(json.dumps(document).encode("utf-8"))  # loads unmutated
        mutation = data.draw(st.sampled_from(mutations))
        _MUTATIONS[mutation](document)
        json_data = json.dumps(document).encode("utf-8")
        try:
            loaded = loads_bytes(json_data)
        except ProfileFormatError:
            return
        from_binary = loads_bytes(encode_document(document))
        if kind != "whomp":
            loaded, from_binary = dumps(loaded), dumps(from_binary)
        assert from_binary == loaded

    @pytest.mark.parametrize(
        "kind, mutation",
        [(kind, name) for kind, names in _ARM_MUTATIONS.items()
         for name in names],
    )
    def test_mutation_is_refused_on_load(self, kind, mutation):
        document = json.loads(_arm_text(kind))
        _MUTATIONS[mutation](document)
        with pytest.raises(ProfileFormatError):
            loads_bytes(json.dumps(document).encode("utf-8"))
        with pytest.raises(BinaryFormatError):
            encode_document(document)


@pytest.mark.faults
class TestFuzzedLoading:
    """Fuzz the loaders with the fault harness: any damaged input must
    raise :class:`ProfileFormatError` -- never a raw ``KeyError`` /
    ``TypeError`` / ``RecursionError`` escaping the decoder, and never
    a silently inconsistent profile."""

    @pytest.fixture(scope="class")
    def whomp_text(self, list_trace):
        return dumps(WhompProfiler().profile(list_trace))

    @pytest.fixture(scope="class")
    def leap_text(self, list_trace):
        return dumps(LeapProfiler().profile(list_trace))

    def test_truncation_always_rejected(self, whomp_text, leap_text):
        for text in (whomp_text, leap_text):
            step = max(1, len(text) // 97)  # ~100 cut points incl. 0
            for cut in range(0, len(text), step):
                with pytest.raises(ProfileFormatError):
                    loads(text[:cut])

    def test_bit_flips_never_escape_format_error(self, tmp_path, whomp_text, leap_text):
        from repro.core.profile_io import load
        from repro.resilience import FaultInjector, parse_fault_spec

        path = tmp_path / "fuzzed.json"
        for text in (whomp_text, leap_text):
            data = text.encode("utf-8")
            for seed in range(40):
                injector = FaultInjector(
                    parse_fault_spec(f"seed={seed};flip-profile=3")
                )
                path.write_bytes(injector.corrupt_bytes(data))
                try:
                    load(str(path))
                except ProfileFormatError:
                    pass  # the only acceptable exception

    def test_oversized_access_count_rejected(self, whomp_text):
        document = json.loads(whomp_text)
        document["access_count"] = document["access_count"] + 1
        with pytest.raises(ProfileFormatError):
            loads(json.dumps(document))

    def test_negative_access_count_rejected(self, whomp_text):
        document = json.loads(whomp_text)
        document["access_count"] = -1
        with pytest.raises(ProfileFormatError):
            loads(json.dumps(document))

    def test_leap_count_mismatch_rejected(self, leap_text):
        document = json.loads(leap_text)
        entry = document["entries"][0]
        entry["total"] = entry["total"] + 5
        with pytest.raises(ProfileFormatError):
            loads(json.dumps(document))

    def test_missing_dimension_rejected(self, whomp_text):
        document = json.loads(whomp_text)
        del document["grammars"][DIMENSIONS[0]]
        with pytest.raises(ProfileFormatError):
            loads(json.dumps(document))

    def test_non_json_and_non_object_documents_rejected(self):
        for text in ("", "not json", "[1, 2, 3]", '"a string"', "null"):
            with pytest.raises(ProfileFormatError):
                loads(text)

    def test_load_missing_file_rejected(self, tmp_path):
        from repro.core.profile_io import load

        with pytest.raises(ProfileFormatError):
            load(str(tmp_path / "absent.json"))


class TestBytesAPI:
    """dumps_bytes / loads_bytes / document_from_bytes across encodings."""

    def _profiles(self, list_trace):
        leap = LeapProfiler().profile(list_trace)
        return [
            WhompProfiler().profile(list_trace),
            leap,
            analyze_dependences(leap),
        ]

    def test_bytes_round_trip_both_encodings(self, list_trace):
        from repro.core.profile_io import (
            document_from_bytes,
            dumps,
            dumps_bytes,
            loads_bytes,
        )

        for profile in self._profiles(list_trace):
            expected = json.loads(dumps(profile))
            for fmt in ("json", "binary"):
                data = dumps_bytes(profile, fmt)
                assert document_from_bytes(data) == expected
                reloaded = loads_bytes(data)
                if fmt == "binary":
                    assert data[:1] == b"\x89"
                if not isinstance(reloaded, dict):  # WHOMP loads as a dict
                    assert json.loads(dumps(reloaded)) == expected

    def test_sniff_format_routes_both_encodings(self, list_trace):
        from repro.core.profile_io import dumps, dumps_bytes, sniff_format

        kinds = ("whomp", "leap", "dependence")
        for kind, profile in zip(kinds, self._profiles(list_trace)):
            assert sniff_format(dumps(profile)) == kind
            assert sniff_format(dumps_bytes(profile, "json")) == kind
            assert sniff_format(dumps_bytes(profile, "binary")) == kind

    def test_sniff_format_rejects_junk(self):
        from repro.core.profile_io import sniff_format

        for payload in (b"", b"\x89RPBnope", b"\xff\xfe\x00", '{"format": "x"}'):
            with pytest.raises(ProfileFormatError):
                sniff_format(payload)

    def test_save_load_binary_file(self, tmp_path, list_trace):
        from repro.core.profile_io import dumps, load, save

        profile = LeapProfiler().profile(list_trace)
        path = str(tmp_path / "trace.leap.bin")
        save(profile, path, fmt="binary")
        with open(path, "rb") as handle:
            assert handle.read(1) == b"\x89"
        assert json.loads(dumps(load(path))) == json.loads(dumps(profile))

    def test_unknown_serialization_rejected(self, list_trace):
        from repro.core.profile_io import dumps_bytes

        profile = LeapProfiler().profile(list_trace)
        with pytest.raises(ValueError):
            dumps_bytes(profile, "msgpack")
