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
refused from its arithmetic; internal totals are cross-checked).  JSON
carries only what BINCAP carries, by construction: every JSON document
is checked against the same frame and row declarations
(:data:`repro.core.binformat.SCHEMAS`) the BINCAP codec walks, before
it reaches the per-kind decoders both encodings share.  WHOMP streams
come from the one grammar expander in :mod:`repro.core.binformat`.
:func:`validate_bytes` refuses exactly what :func:`loads_bytes`
refuses, with each kind's decoder swapped for a check that builds
nothing: a WHOMP grammar's expanded length is computed, not expanded.
A property test drives both over mutated documents.  The
fuzz tests in ``tests/test_profile_io.py`` drive this with bit flips
and truncations at every offset.

:func:`save` / :func:`load` are the path-level API: atomic writes
(temp file + ``os.replace``) and format sniffing, so a crash mid-save
can never leave a truncated profile where a good one stood.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Tuple, Union

from repro.baselines.dependence_lossless import DependenceProfile
from repro.compression.lmad import LMAD, LMADProfileEntry, OverflowSummary
from repro.core import binformat
from repro.core.events import AccessKind
from repro.core.fsutil import atomic_write_bytes, atomic_write_text
from repro.core.tuples import DIMENSIONS
from repro.profilers.leap import LeapProfile
from repro.profilers.whomp import WhompProfile

FORMAT_VERSION = binformat.DOCUMENT_VERSION

#: serialization encodings the path/bytes-level API can produce
SERIALIZATIONS = ("json", "binary")


class ProfileFormatError(Exception):
    """Raised when a profile file cannot be decoded."""


#: exception classes that half-decoded JSON structure raises when the
#: decoders index into it; all converted to :class:`ProfileFormatError`
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _parse(text: str) -> Dict[str, object]:
    """Parse one JSON document, normalizing every parse-level failure
    (bad JSON, binary garbage, a non-object top level) to
    :class:`ProfileFormatError`."""
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ProfileFormatError(f"unparseable profile: {exc}") from exc
    if not isinstance(document, dict):
        raise ProfileFormatError("profile document is not a JSON object")
    return document


def _load_document(text: str, tagged: bool = True) -> Dict[str, object]:
    """Parse one JSON document (:func:`_parse`).  A profile document
    must also pass :func:`repro.core.binformat.check_document`, and comes
    back in the form :func:`repro.core.binformat.decode_tagged` gives,
    or as parsed when ``tagged`` is false."""
    document = _parse(text)
    if document.get("format") not in binformat.SCHEMAS:
        return document
    try:
        checked = binformat.check_document(document)
    except binformat.BinaryFormatError as exc:
        raise ProfileFormatError(str(exc)) from exc
    return checked if tagged else document


def document_meta(document: Dict[str, object]) -> Tuple[float, int]:
    """The ``(capture_completeness, quarantined)`` of a checked WHOMP or
    LEAP document, JSON or BINCAP alike.  Both encodings carry any
    double; completeness must also lie in [0, 1]."""
    completeness = document.get("capture_completeness", 1.0)
    if not 0 <= completeness <= 1:
        raise ProfileFormatError(f"bad capture_completeness: {completeness!r}")
    return completeness, document.get("quarantined", 0)


# -- WHOMP ----------------------------------------------------------------


def _whomp_document(profile: WhompProfile) -> Dict[str, object]:
    """The canonical document dict, shared by both serializers, in
    :func:`binformat.decode_tagged`'s form: each grammar is its frozen
    tagged form, which BINCAP writes as it stands and JSON writes
    through :func:`binformat.untagged`."""
    return {
        "format": "whomp",
        "version": FORMAT_VERSION,
        "access_count": profile.access_count,
        "capture_completeness": profile.capture_completeness,
        "quarantined": profile.quarantined,
        "grammars": {
            name: grammar.tagged() for name, grammar in profile.grammars.items()
        },
        "base_addresses": [
            [group, serial, address]
            for (group, serial), address in sorted(profile.base_addresses.items())
        ],
        "lifetimes": [list(row) for row in profile.lifetimes],
        "group_labels": {str(k): v for k, v in profile.group_labels.items()},
    }


def _whomp_grammars(document: Dict[str, object]) -> Dict[str, tuple]:
    """Each dimension's tagged grammar and its rule sizes, the part of a
    WHOMP document's checks that loading and validation share.

    Checked documents of either encoding arrive with tagged grammars
    (see :func:`binformat.decode_tagged`); a JSON-shape grammar, as
    :func:`document_from_bytes` returns it, is tagged here.
    :func:`binformat.rule_sizes` rejects undefined rules, cycles and any
    rule longer than ``access_count``; every dimension must be present.
    """
    access_count = document["access_count"]
    grammars = {}
    for name, grammar in document["grammars"].items():
        grammar = binformat.tag_grammar(grammar)
        grammars[name] = grammar, binformat.rule_sizes(*grammar, access_count)
    missing = [name for name in DIMENSIONS if name not in grammars]
    if missing:
        raise ProfileFormatError(f"missing dimension streams: {missing}")
    return grammars


def _check_whomp(document: Dict[str, object]) -> None:
    """Every check :func:`_decode_whomp` makes, with no stream built: a
    grammar codes its stream losslessly, so the start rule's size is the
    stream's length and must equal ``access_count``."""
    access_count = document["access_count"]
    document_meta(document)
    for name, ((start, __), sizes) in _whomp_grammars(document).items():
        if sizes[start] != access_count:
            raise ProfileFormatError(
                f"{name} grammar codes {sizes[start]} symbols, "
                f"expected {access_count}"
            )


def _decode_whomp(document: Dict[str, object]) -> Dict[str, object]:
    """The one WHOMP stream builder, for both encodings: every grammar
    expands through ``binformat._expand_tagged``, capped at the claimed
    ``access_count``, and each stream must have that length."""
    access_count = document["access_count"]
    completeness, quarantined = document_meta(document)
    streams = {
        name: binformat._expand_tagged(*grammar, access_count, sizes)
        for name, (grammar, sizes) in _whomp_grammars(document).items()
    }
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
            for group, serial, address in document["base_addresses"]
        },
        "lifetimes": [tuple(row) for row in document["lifetimes"]],
        "group_labels": _int_keys(document["group_labels"]),
        "access_count": access_count,
        "capture_completeness": completeness,
        "quarantined": quarantined,
    }


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


def _int_keys(table: Dict[str, object]) -> Dict[int, object]:
    return {int(key): value for key, value in table.items()}


def _check_leap(document: Dict[str, object]) -> None:
    """Every check :func:`_decode_leap` makes, from the rows alone: the
    schema has checked their types and widths, so what is left is that
    each LMAD describes at least one symbol (:class:`LMAD` refuses
    less), that each entry's LMADs and overflow add up to its claimed
    total, and the meta."""
    for record in document["entries"]:
        counts = [count for __, __, count in record["lmads"]]
        if counts and min(counts) < 1:
            raise ProfileFormatError(f"LMAD count must be >= 1, got {min(counts)}")
        described = sum(counts) + record["overflow"]["count"]
        if described != record["total"]:
            raise ProfileFormatError(
                f"entry ({record['instruction']}, {record['group']}) "
                f"describes {described} symbols but claims {record['total']}"
            )
    document_meta(document)


def _decode_leap(document: Dict[str, object]) -> LeapProfile:
    entries: Dict[Tuple[int, int], LMADProfileEntry] = {}
    for record in document["entries"]:
        lmads = tuple(
            LMAD(tuple(start), tuple(stride), count)
            for start, stride, count in record["lmads"]
        )
        dims = lmads[0].dims if lmads else 3
        overflow = OverflowSummary(dims=dims)
        overflow.count = record["overflow"]["count"]
        if record["overflow"]["min"] is not None:
            overflow.minimum = tuple(record["overflow"]["min"])
            overflow.maximum = tuple(record["overflow"]["max"])
            overflow.granularity = tuple(record["overflow"]["granularity"])
        total = record["total"]
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
            summarized=record.get("summarized", False),
        )
    completeness, quarantined = document_meta(document)
    return LeapProfile(
        entries=entries,
        kinds={int(k): AccessKind(v) for k, v in document["kinds"].items()},
        exec_counts=_int_keys(document["exec_counts"]),
        group_labels=_int_keys(document["group_labels"]),
        access_count=document["access_count"],
        budget=document["budget"],
        lifetimes=[tuple(row) for row in document["lifetimes"]],
        capture_completeness=completeness,
        quarantined=quarantined,
    )


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


def _decode_dependence(document: Dict[str, object]) -> DependenceProfile:
    return DependenceProfile(
        conflicts={
            (store, load): count for store, load, count in document["conflicts"]
        },
        load_counts=_int_keys(document["load_counts"]),
        store_counts=_int_keys(document["store_counts"]),
    )


# -- trace documents ----------------------------------------------------------

#: version of the TRACELINK trace document (see :mod:`repro.obs.trace`,
#: which builds them; decoding lives here so the store validates traces
#: exactly like profiles)
TRACE_FORMAT_VERSION = binformat.DOCUMENT_VERSION

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


# -- path-level API -----------------------------------------------------------

#: kind -> (check, decode).  ``decode`` builds the profile object and
#: refuses what cannot be one; ``check`` refuses exactly the same
#: documents without building anything (a dependence table has nothing
#: to refuse past the schema, and a trace is checked by its decode).
_DECODERS = {
    "whomp": (_check_whomp, _decode_whomp),
    "leap": (_check_leap, _decode_leap),
    "dependence": (lambda document: None, _decode_dependence),
    "trace": (_decode_trace, _decode_trace),
}


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
    return json.dumps(binformat.untagged(_document_for(profile)))


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


def _decode(document: Dict[str, object], build: bool = True) -> object:
    """The profile object of a checked document; with ``build`` false,
    only its kind's check (returns None).  Whatever they raise is a
    :class:`ProfileFormatError`."""
    kind = document.get("format")
    if kind not in _DECODERS:
        raise ProfileFormatError(f"unknown profile format {kind!r}")
    check, decode = _DECODERS[kind]
    try:
        return (decode if build else check)(document)
    except ProfileFormatError:
        raise
    except _DECODE_ERRORS as exc:  # BinaryFormatError is a ValueError
        raise ProfileFormatError(f"malformed {kind} profile: {exc}") from exc


def profile_from_document(document: Dict[str, object]) -> object:
    """Decode a checked document dict into its profile object,
    dispatching on the ``format`` field (the common tail of
    :func:`loads` and :func:`loads_bytes`).  The document comes from
    :func:`document_from_bytes` or the loaders; WHOMP grammars may be in
    JSON shape or in the tagged form
    :func:`repro.core.binformat.decode_tagged` leaves."""
    return _decode(document)


def loads(text: str) -> object:
    """Decode a profile document from text, sniffing the format.

    The text-level twin of :func:`load`, with the same robustness
    contract: a valid profile or :class:`ProfileFormatError`, nothing in
    between.
    """
    return profile_from_document(_load_document(text))


def _document(data: bytes, tagged: bool) -> Dict[str, object]:
    """The checked document dict of either encoding: BINCAP bytes
    (magic) are frame-decoded, anything else must be UTF-8 JSON.  With
    ``tagged``, WHOMP grammars stay in the tagged form."""
    try:
        if binformat.sniff_kind(data) is not None:
            if tagged:
                return binformat.decode_tagged(data)
            return binformat.decode_document(data)
    except binformat.BinaryFormatError as exc:
        raise ProfileFormatError(str(exc)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(
            f"profile bytes are neither binary nor UTF-8 JSON: {exc}"
        ) from exc
    return _load_document(text, tagged)


def document_from_bytes(data: Union[bytes, bytearray]) -> Dict[str, object]:
    """Decode either encoding back to its JSON-shape document dict.

    Binary bytes (BINCAP magic) are frame-decoded and CRC-checked; any
    other bytes must be a UTF-8 JSON object that BINCAP could carry.
    The result is the common currency of the differ and the daemon's
    ``/get`` endpoint -- downstream code never needs to know which
    encoding arrived.
    """
    return _document(bytes(data), tagged=False)


def loads_bytes(data: Union[bytes, bytearray]) -> object:
    """Decode a profile from bytes in either encoding (magic-routed).

    Both encodings reach the same per-kind decoders with WHOMP grammars
    already tagged (:func:`repro.core.binformat.decode_tagged`), so
    binary loads never build the JSON-shape grammar at all.
    """
    return profile_from_document(_document(bytes(data), tagged=True))


def validate_bytes(data: Union[bytes, bytearray]) -> str:
    """The kind of a document :func:`loads_bytes` would decode, checked
    without building its profile; raises :class:`ProfileFormatError`
    for exactly the bytes :func:`loads_bytes` rejects.

    The document goes through the same frame decode and CRC (BINCAP) or
    parse and :func:`repro.core.binformat.check_document` (JSON) as a
    load, then through its kind's load-time checks.  A WHOMP grammar is
    checked by its rule sizes alone (:func:`repro.core.binformat.rule_sizes`):
    no stream is expanded, no LEAP or dependence object is made.
    """
    document = _document(bytes(data), tagged=True)
    _decode(document, build=False)
    return document["format"]


def stored_document(data: bytes) -> Dict[str, object]:
    """:func:`document_from_bytes` of bytes that already validated: a
    profile store's blob, which :func:`validate_bytes` passed at ingest
    and whose sha256 every read re-checks.  JSON is parsed without
    re-running :func:`repro.core.binformat.check_document`, to the same
    dict; BINCAP still frame-decodes, as that is how its dict is built."""
    if data.startswith(binformat.MAGIC):
        return document_from_bytes(data)
    return _parse(data.decode("utf-8"))


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
    the payload to :func:`validate_bytes` for that, which checks
    everything a load checks without building the profile.
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
    document = _parse(text)
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

    Returns a dict for WHOMP -- the expanded dimension ``streams`` plus
    ``base_addresses``, ``lifetimes``, ``group_labels``,
    ``access_count``, ``capture_completeness`` and ``quarantined``; the
    grammar is a compression artifact and is not rebuilt -- a
    :class:`LeapProfile`, or a :class:`DependenceProfile`.  Raises :class:`ProfileFormatError` for
    anything unreadable or unrecognized (including an unreadable path).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path!r}: {exc}") from exc
    return loads_bytes(data)
