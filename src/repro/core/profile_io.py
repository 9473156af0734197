"""Profile serialization.

Profiles are the artifact a feedback-directed compiler consumes in a
later build, so they must survive a round trip to disk.  Two encodings
carry the same versioned documents: JSON (human-inspectable,
diff-friendly, the canonical store form) and the BINCAP binary format
(:mod:`repro.core.binformat`) -- framed, varint/delta-encoded, several
times smaller, and the fast path for streamed ingest.  The bytes-level
API (:func:`dumps_bytes` / :func:`loads_bytes` /
:func:`document_from_bytes`) routes on the binary magic, so every
consumer accepts either encoding transparently.

Supported payloads: :class:`~repro.profilers.whomp.WhompProfile`
(grammars stored as productions, re-expandable),
:class:`~repro.profilers.leap.LeapProfile` (LMAD records), and
:class:`~repro.baselines.dependence_lossless.DependenceProfile` (the
post-processed MDF table).

Robustness contract: **loading never trusts the file**.  Whatever a
truncated write, a flipped bit, or a hand-edited document does to the
bytes, a loader either returns a valid profile or raises
:class:`ProfileFormatError` -- never a ``KeyError``/``TypeError`` from
half-decoded structure, and never unbounded work from a malicious
document (a doubling grammar claiming a small ``access_count`` is
refused from its arithmetic; internal totals are cross-checked).  Both
encodings decode WHOMP through one stream builder and the one grammar
expander in :mod:`repro.core.binformat`, and a JSON document loads only
if BINCAP can carry it.  The fuzz tests in ``tests/test_profile_io.py``
drive this with bit flips and truncations at every offset.

:func:`save` / :func:`load` are the path-level API: atomic writes
(temp file + ``os.replace``) and format sniffing, so a crash mid-save
can never leave a truncated profile where a good one stood.
"""

from __future__ import annotations

import io
import json
import re
from typing import IO, Callable, Dict, List, Optional, Tuple, Union

from repro.baselines.dependence_lossless import DependenceProfile
from repro.compression.lmad import LMAD, LMADProfileEntry, OverflowSummary
from repro.compression.sequitur import Ref, SequiturGrammar
from repro.core import binformat
from repro.core.events import AccessKind
from repro.core.fsutil import atomic_write_bytes, atomic_write_text
from repro.core.tuples import DIMENSIONS
from repro.profilers.leap import LeapProfile
from repro.profilers.whomp import WhompProfile

FORMAT_VERSION = 1

#: serialization encodings the path/bytes-level API can produce
SERIALIZATIONS = ("json", "binary")


class ProfileFormatError(Exception):
    """Raised when a profile file cannot be decoded."""


#: exception classes that half-decoded JSON structure raises when the
#: decoders index into it; all converted to :class:`ProfileFormatError`
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _load_document(stream: IO[str]) -> Dict[str, object]:
    """Parse one JSON document, normalizing every parse-level failure
    (bad JSON, binary garbage, a non-object top level) to
    :class:`ProfileFormatError`."""
    try:
        document = json.load(stream)
    except ProfileFormatError:
        raise
    except (ValueError, RecursionError, OSError, UnicodeDecodeError) as exc:
        raise ProfileFormatError(f"unparseable profile: {exc}") from exc
    if not isinstance(document, dict):
        raise ProfileFormatError("profile document is not a JSON object")
    return document


def _require_version(document: Dict[str, object], fmt: str) -> None:
    if document.get("format") != fmt:
        raise ProfileFormatError(f"not a {fmt.upper()} profile")
    if document.get("version") != FORMAT_VERSION:
        raise ProfileFormatError(f"unsupported version {document.get('version')}")


def _count_field(document: Dict[str, object], key: str) -> int:
    value = document.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProfileFormatError(f"bad {key}: {value!r}")
    return value


def document_meta(document: Dict[str, object]) -> Tuple[float, int]:
    """The checked ``(capture_completeness, quarantined)`` of a WHOMP or
    LEAP document, JSON or BINCAP alike: completeness a finite real in
    [0, 1], quarantined a non-negative int."""
    completeness = document.get("capture_completeness", 1.0)
    if type(completeness) not in (int, float) or not 0 <= completeness <= 1:
        raise ProfileFormatError(f"bad capture_completeness: {completeness!r}")
    quarantined = document.get("quarantined", 0)
    if type(quarantined) is not int or quarantined < 0:
        raise ProfileFormatError(f"bad quarantined: {quarantined!r}")
    return completeness, quarantined


def _table(
    rows: List[object], width: int, nullable: Optional[int] = None
) -> List[Tuple[object, ...]]:
    """``rows`` as tuples of ``width`` ints, where column ``nullable``
    may also be None -- the only row shape a BINCAP table frame
    carries."""
    table = []
    for row in rows:
        row = tuple(row)
        if len(row) != width or not all(
            type(value) is int or (value is None and column == nullable)
            for column, value in enumerate(row)
        ):
            raise ProfileFormatError(f"bad table row {list(row)!r}")
        table.append(row)
    return table


def _labels(labels: Dict[str, object]) -> Dict[int, str]:
    decoded = {int(key): value for key, value in labels.items()}
    if not all(isinstance(value, str) for value in decoded.values()):
        raise ProfileFormatError("group labels must be strings")
    return decoded


# -- grammar (de)serialization ------------------------------------------------


def _grammar_to_json(grammar: SequiturGrammar) -> Dict[str, object]:
    productions = {}
    for rule_id, rhs in grammar.to_productions().items():
        encoded: List[object] = []
        for symbol in rhs:
            if isinstance(symbol, Ref):
                encoded.append(["R", symbol.rule_id])
            else:
                encoded.append(["T", symbol])
        productions[str(rule_id)] = encoded
    return {"start": grammar.start.id, "productions": productions}


# -- WHOMP ----------------------------------------------------------------


def _whomp_document(profile: WhompProfile) -> Dict[str, object]:
    """The canonical document dict, shared by both serializers."""
    return {
        "format": "whomp",
        "version": FORMAT_VERSION,
        "access_count": profile.access_count,
        "capture_completeness": profile.capture_completeness,
        "quarantined": profile.quarantined,
        "grammars": {
            name: _grammar_to_json(grammar)
            for name, grammar in profile.grammars.items()
        },
        "base_addresses": [
            [group, serial, address]
            for (group, serial), address in sorted(profile.base_addresses.items())
        ],
        "lifetimes": [list(row) for row in profile.lifetimes],
        "group_labels": {str(k): v for k, v in profile.group_labels.items()},
    }


def save_whomp(profile: WhompProfile, stream: IO[str]) -> None:
    json.dump(_whomp_document(profile), stream)


def load_whomp_streams(stream: IO[str]) -> Dict[str, object]:
    """Load a WHOMP profile as expanded dimension streams plus the
    auxiliary tables.

    The Sequitur grammar objects themselves are not reconstructed (the
    grammar is a compression artifact); consumers want the streams.
    Returns a dict with ``streams``, ``base_addresses``, ``lifetimes``,
    ``group_labels``, ``access_count``, ``capture_completeness``,
    ``quarantined``.
    """
    return _decode_whomp(_load_document(stream))


def _decode_whomp(document: Dict[str, object]) -> Dict[str, object]:
    """The one WHOMP stream builder, for both encodings.

    JSON documents arrive with JSON-shape grammars, which
    :func:`binformat.tag_grammar` converts; BINCAP documents
    (:func:`binformat.decode_tagged`) arrive already tagged.  Either way
    every grammar expands through ``binformat._expand_tagged``, capped
    at the claimed ``access_count``, and the tables are type-checked, so
    a document that loads here also re-encodes to BINCAP.
    """
    _require_version(document, "whomp")
    try:
        access_count = _count_field(document, "access_count")
        completeness, quarantined = document_meta(document)
        streams = {}
        for name, grammar in document["grammars"].items():
            if not isinstance(grammar, tuple):
                grammar = binformat.tag_grammar(grammar)
            streams[name] = binformat._expand_tagged(*grammar, access_count)
        missing = [name for name in DIMENSIONS if name not in streams]
        if missing:
            raise ProfileFormatError(f"missing dimension streams: {missing}")
        for name, values in streams.items():
            if len(values) != access_count:
                raise ProfileFormatError(
                    f"{name} stream has {len(values)} symbols, "
                    f"expected {access_count}"
                )
        return {
            "streams": streams,
            "base_addresses": {
                (group, serial): address
                for group, serial, address in _table(
                    document["base_addresses"], 3
                )
            },
            "lifetimes": _table(document["lifetimes"], 5, nullable=3),
            "group_labels": _labels(document["group_labels"]),
            "access_count": access_count,
            "capture_completeness": completeness,
            "quarantined": quarantined,
        }
    except ProfileFormatError:
        raise
    except _DECODE_ERRORS as exc:  # BinaryFormatError is a ValueError
        raise ProfileFormatError(f"malformed WHOMP profile: {exc}") from exc


# -- LEAP --------------------------------------------------------------------


def _leap_document(profile: LeapProfile) -> Dict[str, object]:
    entries = []
    for (instruction, group), entry in sorted(profile.entries.items()):
        overflow = entry.overflow
        entries.append(
            {
                "instruction": instruction,
                "group": group,
                "total": entry.total_symbols,
                "summarized": entry.summarized,
                "lmads": [
                    [list(l.start), list(l.stride), l.count] for l in entry.lmads
                ],
                "overflow": {
                    "count": overflow.count,
                    "min": list(overflow.minimum) if overflow.minimum else None,
                    "max": list(overflow.maximum) if overflow.maximum else None,
                    "granularity": (
                        list(overflow.granularity) if overflow.granularity else None
                    ),
                },
            }
        )
    return {
        "format": "leap",
        "version": FORMAT_VERSION,
        "budget": profile.budget,
        "access_count": profile.access_count,
        "capture_completeness": profile.capture_completeness,
        "quarantined": profile.quarantined,
        "entries": entries,
        "kinds": {str(k): v.value for k, v in profile.kinds.items()},
        "exec_counts": {str(k): v for k, v in profile.exec_counts.items()},
        "group_labels": {str(k): v for k, v in profile.group_labels.items()},
        "lifetimes": [list(row) for row in profile.lifetimes],
    }


def save_leap(profile: LeapProfile, stream: IO[str]) -> None:
    json.dump(_leap_document(profile), stream)


def load_leap(stream: IO[str]) -> LeapProfile:
    return _decode_leap(_load_document(stream))


def _decode_leap(document: Dict[str, object]) -> LeapProfile:
    _require_version(document, "leap")
    try:
        entries: Dict[Tuple[int, int], LMADProfileEntry] = {}
        for record in document["entries"]:
            lmads = tuple(
                LMAD(tuple(start), tuple(stride), count)
                for start, stride, count in record["lmads"]
            )
            dims = lmads[0].dims if lmads else 3
            overflow = OverflowSummary(dims=dims)
            overflow.count = _count_field(record["overflow"], "count")
            if record["overflow"]["min"] is not None:
                overflow.minimum = tuple(record["overflow"]["min"])
                overflow.maximum = tuple(record["overflow"]["max"])
                overflow.granularity = tuple(record["overflow"]["granularity"])
            total = _count_field(record, "total")
            described = sum(l.count for l in lmads) + overflow.count
            if described != total:
                raise ProfileFormatError(
                    f"entry ({record['instruction']}, {record['group']}) "
                    f"describes {described} symbols but claims {total}"
                )
            entries[(record["instruction"], record["group"])] = LMADProfileEntry(
                lmads=lmads,
                overflow=overflow,
                total_symbols=total,
                summarized=bool(record.get("summarized", False)),
            )
        completeness, quarantined = document_meta(document)
        return LeapProfile(
            entries=entries,
            kinds={int(k): AccessKind(v) for k, v in document["kinds"].items()},
            exec_counts={int(k): v for k, v in document["exec_counts"].items()},
            group_labels=_labels(document["group_labels"]),
            access_count=_count_field(document, "access_count"),
            budget=_count_field(document, "budget"),
            lifetimes=_table(document["lifetimes"], 5, nullable=3),
            capture_completeness=completeness,
            quarantined=quarantined,
        )
    except ProfileFormatError:
        raise
    except _DECODE_ERRORS as exc:
        raise ProfileFormatError(f"malformed LEAP profile: {exc}") from exc


# -- dependence tables -------------------------------------------------------


def _dependence_document(profile: DependenceProfile) -> Dict[str, object]:
    return {
        "format": "dependence",
        "version": FORMAT_VERSION,
        "conflicts": [
            [store, load, count]
            for (store, load), count in sorted(profile.conflicts.items())
        ],
        "load_counts": {str(k): v for k, v in profile.load_counts.items()},
        "store_counts": {str(k): v for k, v in profile.store_counts.items()},
    }


def save_dependence(profile: DependenceProfile, stream: IO[str]) -> None:
    json.dump(_dependence_document(profile), stream)


def load_dependence(stream: IO[str]) -> DependenceProfile:
    return _decode_dependence(_load_document(stream))


def _decode_dependence(document: Dict[str, object]) -> DependenceProfile:
    if document.get("format") != "dependence":
        raise ProfileFormatError("not a dependence profile")
    try:
        return DependenceProfile(
            conflicts={
                (store, load): count
                for store, load, count in document["conflicts"]
            },
            load_counts={
                int(k): v for k, v in document["load_counts"].items()
            },
            store_counts={
                int(k): v for k, v in document["store_counts"].items()
            },
        )
    except ProfileFormatError:
        raise
    except _DECODE_ERRORS as exc:
        raise ProfileFormatError(f"malformed dependence profile: {exc}") from exc


# -- trace documents ----------------------------------------------------------

#: version of the TRACELINK trace document (see :mod:`repro.obs.trace`,
#: which builds them; decoding lives here so the store validates traces
#: exactly like profiles)
TRACE_FORMAT_VERSION = 1

_HEX_DIGITS = frozenset("0123456789abcdef")


def _decode_trace(document: Dict[str, object]) -> Dict[str, object]:
    """Validate a trace document; returns the document itself.

    Traces are consumed as plain data (the ``repro-obs`` renderers and
    the daemon's ``/tracez`` endpoint work straight off the dict), so
    decoding is validation: id well-formed, spans and events lists of
    objects, every span subtree sane.  Same contract as the profile
    decoders -- a valid document or :class:`ProfileFormatError`.
    """
    if document.get("format") != "trace":
        raise ProfileFormatError("not a trace document")
    version = document.get("version")
    if not isinstance(version, int) or not 1 <= version <= TRACE_FORMAT_VERSION:
        raise ProfileFormatError(f"unsupported trace version {version!r}")
    trace_id = document.get("trace_id")
    if (
        not isinstance(trace_id, str)
        or len(trace_id) != 32
        or not set(trace_id) <= _HEX_DIGITS
    ):
        raise ProfileFormatError(f"bad trace id {trace_id!r}")

    def check_span(span: object, depth: int = 0) -> None:
        if depth > 64:
            raise ProfileFormatError("span tree too deep")
        if not isinstance(span, dict) or not isinstance(span.get("name"), str):
            raise ProfileFormatError("malformed span node")
        for key in ("seconds", "start_ts", "end_ts"):
            value = span.get(key, 0.0)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProfileFormatError(f"span {key} is not a number")
        children = span.get("children", [])
        if not isinstance(children, list):
            raise ProfileFormatError("span children is not a list")
        for child in children:
            check_span(child, depth + 1)

    try:
        spans = document["spans"]
        events = document["events"]
        if not isinstance(spans, list) or not isinstance(events, list):
            raise ProfileFormatError("trace spans/events must be lists")
        for span in spans:
            check_span(span)
        for event in events:
            if not isinstance(event, dict) or not isinstance(
                event.get("kind"), str
            ):
                raise ProfileFormatError("malformed event record")
    except ProfileFormatError:
        raise
    except _DECODE_ERRORS as exc:
        raise ProfileFormatError(f"malformed trace document: {exc}") from exc
    return document


def save_trace(document: Dict[str, object], stream: IO[str]) -> None:
    json.dump(_decode_trace(document), stream, sort_keys=True)


def load_trace(stream: IO[str]) -> Dict[str, object]:
    return _decode_trace(_load_document(stream))


# -- path-level API -----------------------------------------------------------

_DECODERS = {
    "whomp": _decode_whomp,
    "leap": _decode_leap,
    "dependence": _decode_dependence,
    "trace": _decode_trace,
}

#: format names the text-level API recognizes (sniffable documents)
FORMATS = tuple(sorted(_DECODERS))


def _document_for(profile: object) -> Dict[str, object]:
    """The canonical document dict for any supported profile object."""
    for cls, builder in (
        (WhompProfile, _whomp_document),
        (LeapProfile, _leap_document),
        (DependenceProfile, _dependence_document),
    ):
        if isinstance(profile, cls):
            return builder(profile)
    if isinstance(profile, dict) and profile.get("format") == "trace":
        return _decode_trace(profile)
    raise TypeError(f"unsupported profile type {type(profile).__name__}")


def dumps(profile: object) -> str:
    """Serialize any supported profile to its canonical document text.

    This is exactly the content :func:`save` writes to disk; the profile
    store keys blobs by the sha256 of this text, so two ingests of the
    same profile deduplicate to one blob.
    """
    if isinstance(profile, dict) and profile.get("format") == "trace":
        return json.dumps(_decode_trace(profile), sort_keys=True)
    return json.dumps(_document_for(profile))


def dumps_bytes(profile: object, fmt: str = "json") -> bytes:
    """Serialize a profile to bytes in the requested encoding.

    ``fmt`` is ``"json"`` (UTF-8 of :func:`dumps`) or ``"binary"``
    (the BINCAP format).  Trace documents are JSON-only; asking for a
    binary trace raises :class:`ProfileFormatError`.
    """
    if fmt == "json":
        return dumps(profile).encode("utf-8")
    if fmt != "binary":
        raise ValueError(f"unknown serialization {fmt!r} (want {SERIALIZATIONS})")
    try:
        return binformat.encode_document(_document_for(profile))
    except binformat.BinaryFormatError as exc:
        raise ProfileFormatError(str(exc)) from exc


def profile_from_document(document: Dict[str, object]) -> object:
    """Decode a document dict into its profile object, dispatching on
    the ``format`` field (the common tail of :func:`loads` and
    :func:`loads_bytes`).  WHOMP grammars may be in JSON shape or in
    the tagged form :func:`repro.core.binformat.decode_tagged` leaves."""
    fmt = document.get("format")
    decoder = _DECODERS.get(fmt)
    if decoder is None:
        raise ProfileFormatError(f"unknown profile format {fmt!r}")
    return decoder(document)


def loads(text: str) -> object:
    """Decode a profile document from text, sniffing the format.

    The text-level twin of :func:`load`, with the same robustness
    contract: a valid profile or :class:`ProfileFormatError`, nothing in
    between.
    """
    return profile_from_document(_load_document(io.StringIO(text)))


def _document(
    data: bytes, decode_binary: Callable[[bytes], Dict[str, object]]
) -> Dict[str, object]:
    """The document dict of either encoding: BINCAP bytes (magic) go
    through ``decode_binary``, anything else must be UTF-8 JSON."""
    try:
        if binformat.sniff_kind(data) is not None:
            return decode_binary(data)
    except binformat.BinaryFormatError as exc:
        raise ProfileFormatError(str(exc)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(
            f"profile bytes are neither binary nor UTF-8 JSON: {exc}"
        ) from exc
    return _load_document(io.StringIO(text))


def document_from_bytes(data: Union[bytes, bytearray]) -> Dict[str, object]:
    """Decode either encoding back to its JSON-shape document dict.

    Binary bytes (BINCAP magic) are frame-decoded and CRC-checked; any
    other bytes must be a UTF-8 JSON object.  The result is the common
    currency of the differ and the daemon's ``/get`` endpoint --
    downstream code never needs to know which encoding arrived.
    """
    return _document(bytes(data), binformat.decode_document)


def loads_bytes(data: Union[bytes, bytearray]) -> object:
    """Decode a profile from bytes in either encoding (magic-routed).

    Both encodings reach the same per-kind decoders; BINCAP WHOMP
    grammars arrive there still tagged
    (:func:`repro.core.binformat.decode_tagged`), so binary loads never
    build the JSON-shape grammar at all.
    """
    document = _document(bytes(data), binformat.decode_tagged)
    return profile_from_document(document)


#: canonical documents serialize their ``format`` field first, so a
#: bounded prefix scan finds it without parsing the whole document
_SNIFF_PREFIX = 4096
_SNIFF_RE = re.compile(r'"format"\s*:\s*"([a-z]+)"')


def sniff_format(payload: Union[str, bytes, bytearray]) -> str:
    """The ``format`` field of a profile document (cheap validity gate).

    Cheap means cheap: binary documents are identified from the 8-byte
    magic plus the header frame, and JSON documents from a bounded scan
    of the first few KiB (canonical documents put ``format`` first), so
    sniffing a multi-megabyte document costs microseconds either way.
    Non-canonical JSON falls back to a full parse.  Raises
    :class:`ProfileFormatError` when the payload carries no recognized
    format name.  Note the gate sniffs, it does not validate -- feed
    the payload to :func:`loads` / :func:`loads_bytes` for that.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        data = bytes(payload)
        try:
            kind = binformat.sniff_kind(data)
        except binformat.BinaryFormatError as exc:
            raise ProfileFormatError(str(exc)) from exc
        if kind is not None:
            if kind not in _DECODERS:
                raise ProfileFormatError(f"unknown profile format {kind!r}")
            return kind
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProfileFormatError(
                f"profile bytes are neither binary nor UTF-8 JSON: {exc}"
            ) from exc
    else:
        text = payload
    match = _SNIFF_RE.search(text[:_SNIFF_PREFIX])
    if match and match.group(1) in _DECODERS and text.lstrip()[:1] == "{":
        return match.group(1)
    document = _load_document(io.StringIO(text))
    fmt = document.get("format")
    if fmt not in _DECODERS:
        raise ProfileFormatError(f"unknown profile format {fmt!r}")
    return fmt


def save(profile: object, path: str, fmt: str = "json") -> None:
    """Serialize any supported profile to ``path`` atomically.

    The document is fully rendered in memory, written to a temp file in
    the target directory, fsynced, and renamed into place -- a crash at
    any instant leaves either the previous file or the complete new
    one, never a truncation.  ``fmt`` selects the encoding (see
    :data:`SERIALIZATIONS`).
    """
    if fmt == "json":
        atomic_write_text(path, dumps(profile))
    else:
        atomic_write_bytes(path, dumps_bytes(profile, fmt))


def load(path: str) -> object:
    """Load any supported profile file, sniffing the encoding + format.

    Returns what the format's loader returns: a stream dict for WHOMP
    (see :func:`load_whomp_streams`), a :class:`LeapProfile`, or a
    :class:`DependenceProfile`.  Raises :class:`ProfileFormatError` for
    anything unreadable or unrecognized (including an unreadable path).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path!r}: {exc}") from exc
    return loads_bytes(data)
