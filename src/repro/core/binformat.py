"""BINCAP -- the compact binary profile format and its stream protocol.

JSON stays the readable, diffable document form; this module is the
*wire and archive* form: a framed, varint/delta-encoded binary encoding
of the same WHOMP / LEAP / dependence documents, typically several
times smaller and faster to decode (the store-ingest hot path is one
full decode per document).

Layout of one binary document::

    MAGIC (8 bytes)                  \x89 R P B \r \n \x1a \n
    frame*                           tag byte, uvarint length, payload
    END frame                        CRC32 of every preceding byte

The PNG-style magic catches text-mode mangling as well as mistaking a
JSON document for a binary one; :func:`sniff_kind` peeks it (plus the
header frame) without decoding the body.  Every frame is
length-prefixed, so a reader can skip, buffer, or stream frames without
understanding their payloads, and the trailing CRC detects a truncated
or bit-flipped file: decode either returns a valid document or raises
:class:`BinaryFormatError`, mirroring the robustness contract of
:mod:`repro.core.profile_io` (which wraps these errors in
``ProfileFormatError``).

Integers are LEB128 varints, zigzag-coded where negative values occur
(offsets, wild-group terminals).  Repeated rows are delta-coded against
the previous row -- object serials and base addresses in the OMC
tables, allocation/free timestamps in lifetime rows, LMAD start vectors
within an entry -- which is what makes object-relative streams so
compressible: consecutive rows differ by small amounts by construction.
A grammar symbol is one tagged varint (:func:`tag_grammar`), and that
tagged form is also what both encodings hand the one grammar expander,
:func:`_expand_tagged`, on load.

The same frame layer carries the **stream protocol** used by
``repro-serve ingest --stream``: a :class:`StreamWriter` emits
documents incrementally (``DOC_BEGIN``, raw-byte ``CHUNK`` frames, a
``DOC_END`` carrying length + CRC32, and a final ``STREAM_END`` with
the document count) over a pipe or socket, and the daemon feeds the
bytes to a :class:`StreamReader` as they arrive, assembling and
validating complete documents *while* the workload is still being
profiled.  A torn tail (the producer died mid-document) is detected --
the completed prefix is kept, the partial document is discarded, and
:meth:`StreamReader.summary` reports the degraded completeness instead
of anything crashing.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: binary document magic: \x89 catches 7-bit strips, RPB names the
#: format, \r\n\x1a\n catches newline translation (the PNG trick)
MAGIC = b"\x89RPB\r\n\x1a\n"

#: bumped when the frame vocabulary or payload encodings change
BINARY_VERSION = 1

#: bumped when the stream protocol changes
STREAM_VERSION = 1

# -- frame tags ---------------------------------------------------------------

FRAME_HEADER = 0x01  # uvarint version, token kind
FRAME_META = 0x02  # kind-specific scalars
FRAME_GRAMMAR = 0x03  # one WHOMP dimension grammar
FRAME_BASES = 0x04  # (group, serial) -> base address rows
FRAME_LIFETIMES = 0x05  # (group, serial, alloc, free, size) rows
FRAME_LABELS = 0x06  # group id -> label rows
FRAME_ENTRY = 0x07  # one LEAP (instruction, group) entry
FRAME_KINDS = 0x08  # LEAP instruction -> load/store rows
FRAME_EXECS = 0x09  # LEAP instruction -> exec count rows
FRAME_CONFLICTS = 0x0A  # dependence (store, load, count) rows
FRAME_COUNTS = 0x0B  # dependence load/store count rows
FRAME_END = 0x0F  # 4-byte LE CRC32 of everything before this frame

FRAME_STREAM_BEGIN = 0x10  # uvarint stream version
FRAME_DOC_BEGIN = 0x11  # token workload, token meta (JSON text or "")
FRAME_CHUNK = 0x12  # raw document bytes
FRAME_DOC_END = 0x13  # uvarint byte length, 4-byte LE CRC32
FRAME_STREAM_END = 0x14  # uvarint document count

#: kinds this codec can encode (trace documents stay JSON-only)
BINARY_KINDS = ("whomp", "leap", "dependence")


class BinaryFormatError(ValueError):
    """Raised when binary profile bytes cannot be decoded.

    A ``ValueError`` subclass so generic "bad input" handlers (the
    daemon's 400 path) catch it without naming it;
    :mod:`repro.core.profile_io` re-raises it as ``ProfileFormatError``
    so path-level callers see one exception type for both formats.
    """


# -- varint primitives --------------------------------------------------------


def _encode_uvarint(value: int) -> bytes:
    if value < 0:
        raise BinaryFormatError(f"uvarint cannot encode negative {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


#: one-byte fast path for the overwhelmingly common small values
_UVARINT_CACHE: List[bytes] = [_encode_uvarint(i) for i in range(1 << 14)]


def write_uvarint(out: bytearray, value: int) -> None:
    if 0 <= value < 16384:
        out += _UVARINT_CACHE[value]
    else:
        out += _encode_uvarint(value)


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-coded signed varint."""
    zigzag = value << 1 if value >= 0 else (-value << 1) - 1
    if zigzag < 16384:
        out += _UVARINT_CACHE[zigzag]
    else:
        out += _encode_uvarint(zigzag)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one uvarint at ``pos``; returns (value, next position)."""
    try:
        byte = data[pos]
    except IndexError:
        raise BinaryFormatError("truncated varint") from None
    pos += 1
    if byte < 0x80:
        return byte, pos
    result = byte & 0x7F
    shift = 7
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise BinaryFormatError("truncated varint") from None
        pos += 1
        if byte < 0x80:
            return result | (byte << shift), pos
        result |= (byte & 0x7F) << shift
        shift += 7
        if shift > 70:
            raise BinaryFormatError("varint longer than 10 bytes")


def read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    zigzag, pos = read_uvarint(data, pos)
    return (zigzag >> 1) ^ -(zigzag & 1), pos


def write_token(out: bytearray, text: str) -> None:
    """A length-prefixed UTF-8 string."""
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def read_token(data: bytes, pos: int, limit: int = 1 << 20) -> Tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    if length > limit:
        raise BinaryFormatError(f"token of {length} bytes exceeds limit")
    raw = data[pos : pos + length]
    if len(raw) != length:
        raise BinaryFormatError("truncated token")
    try:
        return raw.decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise BinaryFormatError(f"token is not UTF-8: {exc}") from exc


def _read_double(data: bytes, pos: int) -> Tuple[float, int]:
    raw = data[pos : pos + 8]
    if len(raw) != 8:
        raise BinaryFormatError("truncated double")
    return struct.unpack("<d", raw)[0], pos + 8


def _read_varint_block(data: bytes, pos: int = 0) -> List[int]:
    """Decode a frame payload that is varints wall to wall into a flat
    int list with one tight loop.

    Row decoders then interpret the list positionally -- an order of
    magnitude cheaper than a function call per varint, which is what
    makes pure-Python binary decode competitive with the C JSON parser.
    """
    values: List[int] = []
    append = values.append
    size = len(data)
    try:
        while pos < size:
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                append(byte)
                continue
            result = byte & 0x7F
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    append(result | (byte << shift))
                    break
                result |= (byte & 0x7F) << shift
                shift += 7
                if shift > 70:
                    raise BinaryFormatError("varint longer than 10 bytes")
    except IndexError:
        raise BinaryFormatError("truncated varint") from None
    return values


# -- frame layer --------------------------------------------------------------


def write_frame(out: bytearray, tag: int, payload: bytes) -> None:
    out.append(tag)
    write_uvarint(out, len(payload))
    out += payload


class FrameParser:
    """Incremental frame splitter: feed bytes, pull complete frames.

    The workhorse of both :func:`iter_frames` (whole documents in
    memory) and :class:`StreamReader` (bytes trickling off a socket).
    A frame is only surfaced once its full payload has arrived, so a
    consumer never sees a torn payload; :attr:`pending` says how many
    buffered bytes belong to an incomplete trailing frame.
    """

    def __init__(self, max_frame_bytes: int = 1 << 30) -> None:
        self._buffer = bytearray()
        self._pos = 0
        self.max_frame_bytes = max_frame_bytes
        #: total bytes consumed into complete frames
        self.consumed = 0

    def feed(self, data: bytes) -> None:
        self._buffer += data

    @property
    def pending(self) -> int:
        """Buffered bytes not yet part of a surfaced frame."""
        return len(self._buffer) - self._pos

    def next_frame(self) -> Optional[Tuple[int, bytes]]:
        """The next complete ``(tag, payload)``, or None to wait."""
        buffer, pos = self._buffer, self._pos
        if pos >= len(buffer):
            return None
        cursor = pos + 1
        # inline uvarint read that waits instead of raising on a
        # not-yet-complete length prefix
        length = 0
        shift = 0
        while True:
            if cursor >= len(buffer):
                return None
            byte = buffer[cursor]
            cursor += 1
            if byte < 0x80:
                length |= byte << shift
                break
            length |= (byte & 0x7F) << shift
            shift += 7
            if shift > 70:
                raise BinaryFormatError("frame length varint overflow")
        if length > self.max_frame_bytes:
            raise BinaryFormatError(
                f"frame of {length} bytes exceeds the "
                f"{self.max_frame_bytes}-byte cap"
            )
        if cursor + length > len(buffer):
            return None
        payload = bytes(buffer[cursor : cursor + length])
        tag = buffer[pos]
        self._pos = cursor + length
        self.consumed += self._pos - pos
        if self._pos > 1 << 16:
            del self._buffer[: self._pos]
            self._pos = 0
        return tag, payload


def iter_frames(data: bytes, offset: int) -> Iterator[Tuple[int, bytes]]:
    """All frames of an in-memory document, raising on a torn tail."""
    parser = FrameParser()
    parser.feed(data[offset:])
    while True:
        frame = parser.next_frame()
        if frame is None:
            if parser.pending:
                raise BinaryFormatError(
                    "truncated binary profile: torn trailing frame"
                )
            return
        yield frame


# -- document encoding --------------------------------------------------------


def tag_grammar(
    grammar: Dict[str, object]
) -> Tuple[int, Dict[int, List[int]]]:
    """A JSON-shape grammar (``{"start", "productions"}``) in the
    *tagged* form that grammar frames carry and :func:`_expand_tagged`
    takes: ``(start, {rule_id: [tagged, ...]})``.

    Each symbol is one int whose bit 0 tells a rule reference
    (``rule_id << 1 | 1``) from a terminal (``zigzag(value) << 1``), so
    on the wire the common small terminal costs one byte.  This is the
    only place the rule is written: the encoder and the JSON loader both
    go through it, so a JSON grammar that loads always re-encodes.
    Rule ids and the start must be non-negative ints, terminals ints.
    """
    start = grammar["start"]
    if type(start) is not int or start < 0:
        raise BinaryFormatError(f"bad start rule {start!r}")
    productions: Dict[int, List[int]] = {}
    for key, rhs in grammar["productions"].items():
        rule_id = int(key)
        if rule_id < 0 or rule_id in productions:
            raise BinaryFormatError(f"negative or duplicate rule id {key!r}")
        tagged: List[int] = []
        append = tagged.append
        for tag, value in rhs:
            if type(value) is not int:
                raise BinaryFormatError(
                    f"grammar symbols must be integers, got {value!r}"
                )
            if tag == "T":  # zigzag(value) << 1
                append(value << 2 if value >= 0 else (-value << 2) - 2)
            elif tag == "R" and value >= 0:
                append(value << 1 | 1)
            else:
                raise BinaryFormatError(
                    f"bad symbol tag {tag!r} for {value!r}"
                )
        productions[rule_id] = tagged
    return start, productions


def _encode_grammar(name: str, grammar: Dict[str, object]) -> bytes:
    start, productions = tag_grammar(grammar)
    out = bytearray()
    write_token(out, name)
    write_uvarint(out, start)
    write_uvarint(out, len(productions))
    previous = 0
    for rule_id in sorted(productions):
        rhs = productions[rule_id]
        write_uvarint(out, rule_id - previous)
        previous = rule_id
        write_uvarint(out, len(rhs))
        for tagged in rhs:
            write_uvarint(out, tagged)
    return bytes(out)


def _decode_grammar_tagged(
    payload: bytes,
) -> Tuple[str, int, Dict[int, List[int]]]:
    """Decode a grammar frame to its tagged form (see
    :func:`tag_grammar`): productions as lists of the raw symbol
    varints, no per-symbol list objects.  The hot inner loop inlines the
    varint read -- this frame is most of a WHOMP document's bytes."""
    name, pos = read_token(payload, 0)
    start, pos = read_uvarint(payload, pos)
    n_rules, pos = read_uvarint(payload, pos)
    if n_rules > len(payload):
        raise BinaryFormatError("grammar claims more rules than bytes")
    productions: Dict[int, List[int]] = {}
    rule_id = 0
    data = payload
    size = len(payload)
    try:
        for __ in range(n_rules):
            delta, pos = read_uvarint(data, pos)
            rule_id += delta
            n_symbols, pos = read_uvarint(data, pos)
            if n_symbols > size:
                raise BinaryFormatError(
                    "production claims more symbols than bytes"
                )
            rhs: List[int] = []
            append = rhs.append
            for __ in range(n_symbols):
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    append(byte)
                    continue
                tagged = byte & 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    if byte < 0x80:
                        append(tagged | (byte << shift))
                        break
                    tagged |= (byte & 0x7F) << shift
                    shift += 7
                    if shift > 70:
                        raise BinaryFormatError("varint longer than 10 bytes")
            productions[rule_id] = rhs
    except IndexError:
        raise BinaryFormatError("truncated grammar frame") from None
    if pos != size:
        raise BinaryFormatError("trailing bytes in grammar frame")
    return name, start, productions


def _decode_grammar(
    start: int, productions: Dict[int, List[int]]
) -> Dict[str, object]:
    """A tagged grammar back in JSON shape (``decode_document``'s form)."""
    return {
        "start": start,
        "productions": {
            str(rule_id): [
                ["R", tagged >> 1]
                if tagged & 1
                else ["T", ~(tagged >> 2) if tagged & 2 else tagged >> 2]
                for tagged in rhs
            ]
            for rule_id, rhs in productions.items()
        },
    }


def _encode_bases(rows: List[List[int]]) -> bytes:
    """``[group, serial, address]`` rows, delta-coded against the
    previous row (serials and addresses grow near-monotonically within
    a group, so deltas stay one or two bytes)."""
    out = bytearray()
    write_uvarint(out, len(rows))
    prev_group = prev_serial = prev_address = 0
    for group, serial, address in rows:
        write_svarint(out, group - prev_group)
        write_svarint(out, serial - prev_serial)
        write_svarint(out, address - prev_address)
        prev_group, prev_serial, prev_address = group, serial, address
    return bytes(out)


def _decode_bases(payload: bytes) -> List[List[int]]:
    values = _read_varint_block(payload)
    if not values:
        raise BinaryFormatError("empty bases frame")
    count = values[0]
    if len(values) != 1 + 3 * count:
        raise BinaryFormatError("bases frame row count mismatch")
    rows: List[List[int]] = []
    append = rows.append
    group = serial = address = 0
    index = 1
    for __ in range(count):
        zigzag = values[index]
        group += (zigzag >> 1) ^ -(zigzag & 1)
        zigzag = values[index + 1]
        serial += (zigzag >> 1) ^ -(zigzag & 1)
        zigzag = values[index + 2]
        address += (zigzag >> 1) ^ -(zigzag & 1)
        index += 3
        append([group, serial, address])
    return rows


def _encode_lifetimes(rows: List[List[object]]) -> bytes:
    """``[group, serial, alloc, free, size]`` rows; alloc timestamps
    are delta-coded row to row, free as an offset from its own alloc
    (lifetime length), with 0 reserved for "never freed"."""
    out = bytearray()
    write_uvarint(out, len(rows))
    prev_alloc = 0
    for row in rows:
        group, serial, alloc, free, size = row
        write_svarint(out, group)
        write_svarint(out, serial)
        write_svarint(out, alloc - prev_alloc)
        prev_alloc = alloc
        if free is None:
            write_uvarint(out, 0)
        else:
            write_uvarint(out, 1)
            write_svarint(out, free - alloc)
        write_svarint(out, size)
    return bytes(out)


def _decode_lifetimes(payload: bytes) -> List[List[object]]:
    values = _read_varint_block(payload)
    try:
        count = values[0]
        rows: List[List[object]] = []
        append = rows.append
        alloc = 0
        index = 1
        for __ in range(count):
            zigzag = values[index]
            group = (zigzag >> 1) ^ -(zigzag & 1)
            zigzag = values[index + 1]
            serial = (zigzag >> 1) ^ -(zigzag & 1)
            zigzag = values[index + 2]
            alloc += (zigzag >> 1) ^ -(zigzag & 1)
            free: Optional[int] = None
            index += 4
            if values[index - 1]:
                zigzag = values[index]
                free = alloc + ((zigzag >> 1) ^ -(zigzag & 1))
                index += 1
            zigzag = values[index]
            index += 1
            append([group, serial, alloc, free, (zigzag >> 1) ^ -(zigzag & 1)])
    except IndexError:
        raise BinaryFormatError("truncated lifetimes frame") from None
    if index != len(values):
        raise BinaryFormatError("trailing bytes in lifetimes frame")
    return rows


def _encode_labels(labels: Dict[str, object]) -> bytes:
    out = bytearray()
    try:
        rows = sorted((int(key), str(value)) for key, value in labels.items())
    except (TypeError, ValueError) as exc:
        raise BinaryFormatError(f"non-integer group id: {exc}") from exc
    write_uvarint(out, len(rows))
    for group, label in rows:
        write_svarint(out, group)
        write_token(out, label)
    return bytes(out)


def _decode_labels(payload: bytes) -> Dict[str, str]:
    count, pos = read_uvarint(payload, 0)
    if count > len(payload):
        raise BinaryFormatError("labels frame claims more rows than bytes")
    labels: Dict[str, str] = {}
    for __ in range(count):
        group, pos = read_svarint(payload, pos)
        label, pos = read_token(payload, pos)
        labels[str(group)] = label
    if pos != len(payload):
        raise BinaryFormatError("trailing bytes in labels frame")
    return labels


def _encode_entry(record: Dict[str, object]) -> bytes:
    """One LEAP entry frame.  LMAD start vectors are delta-coded
    against the previous LMAD in the entry (descriptors for one
    instruction walk the same object, so starts cluster)."""
    out = bytearray()
    write_svarint(out, record["instruction"])
    write_svarint(out, record["group"])
    write_uvarint(out, record["total"])
    overflow = record["overflow"]
    has_bounds = overflow.get("min") is not None
    flags = (1 if record.get("summarized") else 0) | (2 if has_bounds else 0)
    write_uvarint(out, flags)
    lmads = record["lmads"]
    write_uvarint(out, len(lmads))
    previous_start: Optional[List[int]] = None
    for start, stride, count in lmads:
        write_uvarint(out, len(start))
        if len(stride) != len(start):
            raise BinaryFormatError("LMAD start/stride dimension mismatch")
        if previous_start is not None and len(previous_start) == len(start):
            for component, anchor in zip(start, previous_start):
                write_svarint(out, component - anchor)
        else:
            for component in start:
                write_svarint(out, component)
        previous_start = list(start)
        for component in stride:
            write_svarint(out, component)
        write_uvarint(out, count)
    write_uvarint(out, overflow["count"])
    if has_bounds:
        minimum = overflow["min"]
        maximum = overflow["max"]
        granularity = overflow["granularity"]
        if maximum is None or granularity is None or not (
            len(minimum) == len(maximum) == len(granularity)
        ):
            raise BinaryFormatError("overflow bound vectors disagree")
        write_uvarint(out, len(minimum))
        for low, high, grain in zip(minimum, maximum, granularity):
            write_svarint(out, low)
            write_svarint(out, high - low)
            write_svarint(out, grain)
    return bytes(out)


def _decode_entry(payload: bytes) -> Dict[str, object]:
    values = _read_varint_block(payload)
    try:
        zigzag = values[0]
        instruction = (zigzag >> 1) ^ -(zigzag & 1)
        zigzag = values[1]
        group = (zigzag >> 1) ^ -(zigzag & 1)
        total = values[2]
        flags = values[3]
        n_lmads = values[4]
        if n_lmads > len(payload):
            raise BinaryFormatError("entry frame claims more LMADs than bytes")
        index = 5
        lmads: List[List[object]] = []
        previous_start: Optional[List[int]] = None
        for __ in range(n_lmads):
            dims = values[index]
            index += 1
            if dims > 64:
                raise BinaryFormatError(f"LMAD with {dims} dimensions rejected")
            block = values[index : index + dims]
            if len(block) != dims:
                raise BinaryFormatError("truncated entry frame")
            index += dims
            if previous_start is not None and len(previous_start) == dims:
                start = [
                    anchor + ((z >> 1) ^ -(z & 1))
                    for anchor, z in zip(previous_start, block)
                ]
            else:
                start = [(z >> 1) ^ -(z & 1) for z in block]
            previous_start = start
            block = values[index : index + dims]
            if len(block) != dims:
                raise BinaryFormatError("truncated entry frame")
            index += dims
            stride = [(z >> 1) ^ -(z & 1) for z in block]
            lmads.append([start, stride, values[index]])
            index += 1
        overflow: Dict[str, object] = {
            "count": values[index],
            "min": None,
            "max": None,
            "granularity": None,
        }
        index += 1
        if flags & 2:
            dims = values[index]
            index += 1
            if dims > 64:
                raise BinaryFormatError(
                    f"overflow with {dims} dimensions rejected"
                )
            minimum: List[int] = []
            maximum: List[int] = []
            granularity: List[int] = []
            for __ in range(dims):
                zigzag = values[index]
                low = (zigzag >> 1) ^ -(zigzag & 1)
                zigzag = values[index + 1]
                span = (zigzag >> 1) ^ -(zigzag & 1)
                zigzag = values[index + 2]
                index += 3
                minimum.append(low)
                maximum.append(low + span)
                granularity.append((zigzag >> 1) ^ -(zigzag & 1))
            overflow["min"] = minimum
            overflow["max"] = maximum
            overflow["granularity"] = granularity
    except IndexError:
        raise BinaryFormatError("truncated entry frame") from None
    if index != len(values):
        raise BinaryFormatError("trailing bytes in entry frame")
    return {
        "instruction": instruction,
        "group": group,
        "total": total,
        "summarized": bool(flags & 1),
        "lmads": lmads,
        "overflow": overflow,
    }


def _encode_kinds(kinds: Dict[str, object]) -> bytes:
    """Instruction -> load/store, folded into one uvarint per row
    (``delta << 1 | is_store`` over sorted instruction ids)."""
    out = bytearray()
    try:
        rows = sorted((int(key), str(value)) for key, value in kinds.items())
    except (TypeError, ValueError) as exc:
        raise BinaryFormatError(f"non-integer instruction id: {exc}") from exc
    write_uvarint(out, len(rows))
    previous = 0
    for instruction, value in rows:
        if value == "load":
            bit = 0
        elif value == "store":
            bit = 1
        else:
            raise BinaryFormatError(f"unknown access kind {value!r}")
        delta = instruction - previous
        if delta < 0:
            raise BinaryFormatError("duplicate instruction id in kinds")
        write_uvarint(out, (delta << 1) | bit)
        previous = instruction
    return bytes(out)


def _decode_kinds(payload: bytes) -> Dict[str, str]:
    values = _read_varint_block(payload)
    if not values or len(values) != 1 + values[0]:
        raise BinaryFormatError("kinds frame row count mismatch")
    kinds: Dict[str, str] = {}
    instruction = 0
    for folded in values[1:]:
        instruction += folded >> 1
        kinds[str(instruction)] = "store" if folded & 1 else "load"
    return kinds


def _encode_counts(rows_source: Dict[str, object]) -> bytes:
    """Sorted (id, count) rows with delta-coded ids."""
    out = bytearray()
    try:
        rows = sorted((int(key), int(value)) for key, value in rows_source.items())
    except (TypeError, ValueError) as exc:
        raise BinaryFormatError(f"non-integer count row: {exc}") from exc
    write_uvarint(out, len(rows))
    previous = 0
    for key, value in rows:
        write_svarint(out, key - previous)
        previous = key
        write_uvarint(out, value)
    return bytes(out)


def _decode_counts(payload: bytes, pos: int = 0) -> Dict[str, int]:
    values = _read_varint_block(payload, pos)
    if not values or len(values) != 1 + 2 * values[0]:
        raise BinaryFormatError("counts frame row count mismatch")
    rows: Dict[str, int] = {}
    key = 0
    for index in range(1, len(values), 2):
        zigzag = values[index]
        key += (zigzag >> 1) ^ -(zigzag & 1)
        rows[str(key)] = values[index + 1]
    return rows


def _encode_conflicts(rows_source: List[List[int]]) -> bytes:
    out = bytearray()
    rows = sorted((int(s), int(l), int(c)) for s, l, c in rows_source)
    write_uvarint(out, len(rows))
    prev_store = prev_load = 0
    for store, load, count in rows:
        write_svarint(out, store - prev_store)
        write_svarint(out, load - prev_load)
        write_uvarint(out, count)
        prev_store, prev_load = store, load
    return bytes(out)


def _decode_conflicts(payload: bytes) -> List[List[int]]:
    values = _read_varint_block(payload)
    if not values or len(values) != 1 + 3 * values[0]:
        raise BinaryFormatError("conflicts frame row count mismatch")
    rows: List[List[int]] = []
    store = load = 0
    for index in range(1, len(values), 3):
        zigzag = values[index]
        store += (zigzag >> 1) ^ -(zigzag & 1)
        zigzag = values[index + 1]
        load += (zigzag >> 1) ^ -(zigzag & 1)
        rows.append([store, load, values[index + 2]])
    return rows


# -- document-level encode ----------------------------------------------------


def encode_document(document: Dict[str, object]) -> bytes:
    """Serialize a JSON-shape profile document to its binary form.

    The input is exactly what ``json.loads`` of the canonical JSON
    document yields (and what :func:`decode_document` returns):
    encode/decode round-trips the document identically, which the
    property tests drive across all three kinds.
    """
    try:
        kind = document["format"]
        if kind == "whomp":
            body = _encode_whomp(document)
        elif kind == "leap":
            body = _encode_leap(document)
        elif kind == "dependence":
            body = _encode_dependence(document)
        else:
            raise BinaryFormatError(
                f"kind {kind!r} has no binary encoding (JSON only)"
            )
    except BinaryFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise BinaryFormatError(f"malformed {document.get('format')!r} "
                                f"document: {exc}") from exc
    out = bytearray(MAGIC)
    header = bytearray()
    write_uvarint(header, BINARY_VERSION)
    write_token(header, kind)
    write_frame(out, FRAME_HEADER, bytes(header))
    out += body
    crc = zlib.crc32(out) & 0xFFFFFFFF
    write_frame(out, FRAME_END, struct.pack("<I", crc))
    return bytes(out)


def _meta_payload(document: Dict[str, object], *uvarint_keys: str) -> bytes:
    out = bytearray()
    for key in uvarint_keys:
        write_uvarint(out, int(document[key]))
    out += struct.pack("<d", float(document.get("capture_completeness", 1.0)))
    write_uvarint(out, int(document.get("quarantined", 0)))
    return bytes(out)


def _encode_whomp(document: Dict[str, object]) -> bytes:
    out = bytearray()
    write_frame(out, FRAME_META, _meta_payload(document, "access_count"))
    for name in sorted(document["grammars"]):
        write_frame(
            out, FRAME_GRAMMAR, _encode_grammar(name, document["grammars"][name])
        )
    write_frame(out, FRAME_BASES, _encode_bases(document["base_addresses"]))
    write_frame(out, FRAME_LIFETIMES, _encode_lifetimes(document["lifetimes"]))
    write_frame(out, FRAME_LABELS, _encode_labels(document["group_labels"]))
    return bytes(out)


def _encode_leap(document: Dict[str, object]) -> bytes:
    out = bytearray()
    write_frame(
        out, FRAME_META, _meta_payload(document, "access_count", "budget")
    )
    write_frame(out, FRAME_KINDS, _encode_kinds(document["kinds"]))
    write_frame(out, FRAME_EXECS, _encode_counts(document["exec_counts"]))
    for record in document["entries"]:
        write_frame(out, FRAME_ENTRY, _encode_entry(record))
    write_frame(out, FRAME_LABELS, _encode_labels(document["group_labels"]))
    write_frame(out, FRAME_LIFETIMES, _encode_lifetimes(document["lifetimes"]))
    return bytes(out)


def _encode_dependence(document: Dict[str, object]) -> bytes:
    out = bytearray()
    write_frame(out, FRAME_CONFLICTS, _encode_conflicts(document["conflicts"]))
    for which in ("load_counts", "store_counts"):
        payload = bytearray()
        write_token(payload, which)
        payload += _encode_counts(document[which])
        write_frame(out, FRAME_COUNTS, bytes(payload))
    return bytes(out)


# -- document-level decode ----------------------------------------------------


def sniff_kind(data: bytes) -> Optional[str]:
    """The document kind, from the magic and header frame alone.

    Returns None when ``data`` does not start with the binary magic
    (the caller should treat it as JSON); raises
    :class:`BinaryFormatError` when the magic is present but the header
    is unreadable.  This is the cheap gate ``sniff_format`` builds on:
    no body decode, no CRC pass.
    """
    if not data.startswith(MAGIC):
        if MAGIC.startswith(bytes(data[: len(MAGIC)])) and len(data) < len(MAGIC):
            raise BinaryFormatError("truncated binary profile magic")
        return None
    parser = FrameParser()
    parser.feed(data[len(MAGIC) : len(MAGIC) + 64])
    frame = parser.next_frame()
    if frame is None:
        raise BinaryFormatError("truncated binary profile header")
    tag, payload = frame
    if tag != FRAME_HEADER:
        raise BinaryFormatError(f"first frame has tag {tag:#x}, not header")
    version, pos = read_uvarint(payload, 0)
    if version != BINARY_VERSION:
        raise BinaryFormatError(f"unsupported binary version {version}")
    kind, __ = read_token(payload, pos)
    return kind


def _checked_frames(data: bytes) -> Tuple[str, List[Tuple[int, bytes]]]:
    """Magic + frame split + CRC verification; returns (kind, body
    frames with the header stripped)."""
    kind = sniff_kind(data)
    if kind is None:
        raise BinaryFormatError("not a binary profile (bad magic)")
    frames: List[Tuple[int, bytes]] = []
    end_payload: Optional[bytes] = None
    end_frame_start = 0
    parser = FrameParser()
    parser.feed(data[len(MAGIC) :])
    while True:
        frame_start = len(MAGIC) + parser.consumed
        frame = parser.next_frame()
        if frame is None:
            break
        tag, payload = frame
        if end_payload is not None:
            raise BinaryFormatError("frames after the END frame")
        if tag == FRAME_END:
            end_payload = payload
            end_frame_start = frame_start
        else:
            frames.append((tag, payload))
    if parser.pending:
        raise BinaryFormatError("truncated binary profile: torn trailing frame")
    if end_payload is None:
        raise BinaryFormatError("truncated binary profile: no END frame")
    if len(end_payload) != 4:
        raise BinaryFormatError("END frame CRC must be 4 bytes")
    expected = struct.unpack("<I", end_payload)[0]
    actual = zlib.crc32(data[:end_frame_start]) & 0xFFFFFFFF
    if actual != expected:
        raise BinaryFormatError(
            f"CRC mismatch: document says {expected:#010x}, "
            f"content hashes to {actual:#010x}"
        )
    if not frames or frames[0][0] != FRAME_HEADER:
        raise BinaryFormatError("missing header frame")
    return kind, frames[1:]


def decode_tagged(data: bytes) -> Dict[str, object]:
    """:func:`decode_document`, except that WHOMP grammars stay in the
    tagged form ``(start, {rule_id: [tagged, ...]})`` that
    :func:`_expand_tagged` takes -- the load path's form, which never
    builds a ``["T", value]`` list."""
    kind, frames = _checked_frames(data)
    decoder = _FRAME_DECODERS.get(kind)
    if decoder is None:
        raise BinaryFormatError(f"unknown binary document kind {kind!r}")
    return decoder(frames)


def decode_document(data: bytes) -> Dict[str, object]:
    """Decode binary bytes back to the JSON-shape document dict.

    Checks the magic, the header, the trailing CRC (so truncation and
    bit flips are detected), and every frame's internal consistency.
    The result is byte-for-byte equivalent to ``json.loads`` of the
    canonical JSON document -- callers run the same validators over
    both formats.
    """
    document = decode_tagged(data)
    if document["format"] == "whomp":
        document["grammars"] = {
            name: _decode_grammar(*grammar)
            for name, grammar in document["grammars"].items()
        }
    return document


def _decode_meta(
    payload: bytes, *uvarint_keys: str
) -> Dict[str, object]:
    meta: Dict[str, object] = {}
    pos = 0
    for key in uvarint_keys:
        meta[key], pos = read_uvarint(payload, pos)
    meta["capture_completeness"], pos = _read_double(payload, pos)
    meta["quarantined"], pos = read_uvarint(payload, pos)
    if pos != len(payload):
        raise BinaryFormatError("trailing bytes in meta frame")
    return meta


def _decode_whomp_frames(frames: List[Tuple[int, bytes]]) -> Dict[str, object]:
    document: Dict[str, object] = {"format": "whomp", "version": 1}
    grammars: Dict[str, object] = {}
    seen = set()
    for tag, payload in frames:
        if tag == FRAME_META:
            document.update(_decode_meta(payload, "access_count"))
        elif tag == FRAME_GRAMMAR:
            name, start, productions = _decode_grammar_tagged(payload)
            if name in grammars:
                raise BinaryFormatError(f"duplicate grammar frame {name!r}")
            grammars[name] = (start, productions)
        elif tag == FRAME_BASES:
            document["base_addresses"] = _decode_bases(payload)
        elif tag == FRAME_LIFETIMES:
            document["lifetimes"] = _decode_lifetimes(payload)
        elif tag == FRAME_LABELS:
            document["group_labels"] = _decode_labels(payload)
        else:
            raise BinaryFormatError(f"unexpected frame {tag:#x} in WHOMP")
        seen.add(tag)
    required = {FRAME_META, FRAME_BASES, FRAME_LIFETIMES, FRAME_LABELS}
    if not required <= seen or not grammars:
        raise BinaryFormatError("WHOMP document is missing frames")
    document["grammars"] = grammars
    return document


def _decode_leap_frames(frames: List[Tuple[int, bytes]]) -> Dict[str, object]:
    document: Dict[str, object] = {"format": "leap", "version": 1}
    entries: List[Dict[str, object]] = []
    seen = set()
    for tag, payload in frames:
        if tag == FRAME_META:
            document.update(_decode_meta(payload, "access_count", "budget"))
        elif tag == FRAME_KINDS:
            document["kinds"] = _decode_kinds(payload)
        elif tag == FRAME_EXECS:
            document["exec_counts"] = _decode_counts(payload)
        elif tag == FRAME_ENTRY:
            entries.append(_decode_entry(payload))
        elif tag == FRAME_LABELS:
            document["group_labels"] = _decode_labels(payload)
        elif tag == FRAME_LIFETIMES:
            document["lifetimes"] = _decode_lifetimes(payload)
        else:
            raise BinaryFormatError(f"unexpected frame {tag:#x} in LEAP")
        seen.add(tag)
    required = {
        FRAME_META, FRAME_KINDS, FRAME_EXECS, FRAME_LABELS, FRAME_LIFETIMES
    }
    if not required <= seen:
        raise BinaryFormatError("LEAP document is missing frames")
    document["entries"] = entries
    return document


def _decode_dependence_frames(
    frames: List[Tuple[int, bytes]]
) -> Dict[str, object]:
    document: Dict[str, object] = {"format": "dependence", "version": 1}
    for tag, payload in frames:
        if tag == FRAME_CONFLICTS:
            document["conflicts"] = _decode_conflicts(payload)
        elif tag == FRAME_COUNTS:
            which, pos = read_token(payload, 0)
            if which not in ("load_counts", "store_counts"):
                raise BinaryFormatError(f"unknown counts section {which!r}")
            document[which] = _decode_counts(payload, pos)
        else:
            raise BinaryFormatError(f"unexpected frame {tag:#x} in dependence")
    for key in ("conflicts", "load_counts", "store_counts"):
        if key not in document:
            raise BinaryFormatError(f"dependence document missing {key}")
    return document


_FRAME_DECODERS = {
    "whomp": _decode_whomp_frames,
    "leap": _decode_leap_frames,
    "dependence": _decode_dependence_frames,
}


# -- grammar expansion --------------------------------------------------------


def _expand_tagged(
    start: int, productions: Dict[int, List[int]], max_symbols: int
) -> List[int]:
    """Expand a tagged grammar (see :func:`tag_grammar`) to its
    terminal stream -- the one expander both encodings load through.

    Bottom-up: each *rule* is expanded once, in dependency order, by
    concatenating its already-expanded children, and terminals stay
    single ints until they are appended to an output list.  An
    iterative DFS (any depth loads) rejects cycles and undefined rules,
    and every rule's expanded size is computed from arithmetic alone
    before any list exists, so a doubling-chain bomb claiming more than
    ``max_symbols`` is refused without being built.  Valid grammars
    whose per-rule expansions sum far past the output (deep unshared
    chains) take :func:`_expand_tagged_iterative` instead, so memory
    stays proportional to the output.
    """
    if start not in productions:
        raise BinaryFormatError(f"start rule {start!r} not in productions")
    # Iterative DFS over each rule's child references; at post-order a
    # rule's expanded size follows from its children's by arithmetic
    # alone (the expansion-bomb gate).  ``sizes`` fills in post-order,
    # so it doubles as the children-first expansion order.
    sizes: Dict[int, int] = {}
    on_stack = {start}
    refs = [t >> 1 for t in productions[start] if t & 1]
    stack: List[Tuple[int, List[int], int]] = [(start, refs, 0)]
    total_work = 0
    while stack:
        rule_id, children, index = stack.pop()
        while index < len(children):
            child = children[index]
            index += 1
            if child in sizes:
                continue
            if child in on_stack:
                raise BinaryFormatError(
                    f"grammar cycle through rule {child!r}"
                )
            rhs = productions.get(child)
            if rhs is None:
                raise BinaryFormatError(f"undefined rule {child!r}")
            stack.append((rule_id, children, index))
            stack.append((child, [t >> 1 for t in rhs if t & 1], 0))
            on_stack.add(child)
            break
        else:
            on_stack.discard(rule_id)
            # children are gated first, so no sum passes len(rhs) * max
            size = len(productions[rule_id]) - len(children)
            size += sum(map(sizes.__getitem__, children))
            if size > max_symbols:
                raise BinaryFormatError(
                    f"grammar expands past the claimed {max_symbols} symbols"
                )
            sizes[rule_id] = size
            total_work += size
    if total_work > 8 * max_symbols + 1024:
        return _expand_tagged_iterative(start, productions, max_symbols)
    expanded: Dict[int, List[int]] = {}
    for rule_id in sizes:
        out: List[int] = []
        append = out.append
        for tagged in productions[rule_id]:
            if tagged & 1:
                out += expanded[tagged >> 1]
            else:  # bit 1 is the zigzag sign bit
                append(~(tagged >> 2) if tagged & 2 else tagged >> 2)
        expanded[rule_id] = out
    return expanded[start]


def _expand_tagged_iterative(
    start: int, productions: Dict[int, List[int]], max_symbols: int
) -> List[int]:
    """Memory-bounded fallback: one terminal at a time, peak memory
    proportional to the output, never to intermediate rule expansions.
    Cycles/undefined rules were already rejected by the caller's DFS."""
    out: List[int] = []
    append = out.append
    stack: List[List[int]] = [[start, 0]]
    while stack:
        frame = stack[-1]
        rhs = productions[frame[0]]
        index = frame[1]
        if index >= len(rhs):
            stack.pop()
            continue
        frame[1] = index + 1
        tagged = rhs[index]
        if tagged & 1:
            stack.append([tagged >> 1, 0])
        else:
            if len(out) >= max_symbols:
                raise BinaryFormatError(
                    f"grammar expands past the claimed {max_symbols} symbols"
                )
            append(~(tagged >> 2) if tagged & 2 else tagged >> 2)
    return out


# -- stream protocol ----------------------------------------------------------


class StreamWriter:
    """Emit a multi-document stream over any byte sink.

    ``sink`` is a callable taking bytes (``socket.sendall``, a file's
    ``write``, an HTTP chunk queue).  Documents are format-agnostic at
    this layer -- JSON or binary bytes travel the same CHUNK frames --
    and every document closes with its length and CRC32 so the reader
    verifies reassembly before ingesting anything.
    """

    def __init__(self, sink: Callable[[bytes], object]) -> None:
        self._sink = sink
        self.documents = 0
        self._began = False

    def begin(self) -> None:
        out = bytearray()
        payload = bytearray()
        write_uvarint(payload, STREAM_VERSION)
        write_frame(out, FRAME_STREAM_BEGIN, bytes(payload))
        self._sink(bytes(out))
        self._began = True

    def send_document(
        self,
        workload: str,
        data: bytes,
        meta: Optional[Dict[str, object]] = None,
        chunk_size: int = 1 << 16,
    ) -> None:
        """Stream one complete document as BEGIN + CHUNK* + END."""
        if not self._began:
            self.begin()
        head = bytearray()
        payload = bytearray()
        write_token(payload, workload)
        write_token(
            payload, json.dumps(meta, sort_keys=True) if meta else ""
        )
        write_frame(head, FRAME_DOC_BEGIN, bytes(payload))
        self._sink(bytes(head))
        for offset in range(0, len(data), chunk_size):
            chunk = data[offset : offset + chunk_size]
            framed = bytearray()
            write_frame(framed, FRAME_CHUNK, chunk)
            self._sink(bytes(framed))
        tail = bytearray()
        end = bytearray()
        write_uvarint(end, len(data))
        end += struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF)
        write_frame(tail, FRAME_DOC_END, bytes(end))
        self._sink(bytes(tail))
        self.documents += 1

    def close(self) -> None:
        """Terminate the stream with the document count."""
        if not self._began:
            self.begin()
        out = bytearray()
        payload = bytearray()
        write_uvarint(payload, self.documents)
        write_frame(out, FRAME_STREAM_END, bytes(payload))
        self._sink(bytes(out))


class StreamReader:
    """Assemble documents from stream bytes as they arrive.

    Feed raw bytes with :meth:`feed`; it returns the events completed
    by that feed, each one of::

        ("doc", workload, meta_dict, document_bytes)   verified document
        ("torn", workload, reason)                     CRC/length mismatch
        ("end", document_count)                        clean STREAM_END

    A producer dying mid-document surfaces through :meth:`summary`
    after the connection closes: completed documents stay completed,
    the partial tail is reported (never delivered), and
    ``capture_completeness`` quantifies the damage for the degraded
    ingest record.
    """

    def __init__(self, max_document_bytes: int = 1 << 30) -> None:
        self._parser = FrameParser()
        self.max_document_bytes = max_document_bytes
        self._workload: Optional[str] = None
        self._meta: Dict[str, object] = {}
        self._chunks: List[bytes] = []
        self._size = 0
        self.documents = 0
        self.torn = 0
        self.ended: Optional[int] = None
        self.version: Optional[int] = None

    def feed(self, data: bytes) -> List[Tuple[object, ...]]:
        self._parser.feed(data)
        events: List[Tuple[object, ...]] = []
        while True:
            frame = self._parser.next_frame()
            if frame is None:
                return events
            tag, payload = frame
            if self.ended is not None:
                raise BinaryFormatError("frames after STREAM_END")
            if tag == FRAME_STREAM_BEGIN:
                self.version, __ = read_uvarint(payload, 0)
                if self.version != STREAM_VERSION:
                    raise BinaryFormatError(
                        f"unsupported stream version {self.version}"
                    )
            elif tag == FRAME_DOC_BEGIN:
                if self._workload is not None:
                    # previous document never closed: torn by protocol
                    events.append(
                        ("torn", self._workload, "document never closed")
                    )
                    self.torn += 1
                workload, pos = read_token(payload, 0)
                meta_text, __ = read_token(payload, pos)
                meta: Dict[str, object] = {}
                if meta_text:
                    try:
                        decoded = json.loads(meta_text)
                        if isinstance(decoded, dict):
                            meta = decoded
                    except ValueError:
                        pass  # meta is advisory; never fail a doc on it
                self._workload = workload
                self._meta = meta
                self._chunks = []
                self._size = 0
            elif tag == FRAME_CHUNK:
                if self._workload is None:
                    raise BinaryFormatError("CHUNK frame outside a document")
                self._size += len(payload)
                if self._size > self.max_document_bytes:
                    raise BinaryFormatError(
                        f"streamed document exceeds "
                        f"{self.max_document_bytes} bytes"
                    )
                self._chunks.append(payload)
            elif tag == FRAME_DOC_END:
                if self._workload is None:
                    raise BinaryFormatError("DOC_END frame outside a document")
                claimed, pos = read_uvarint(payload, 0)
                crc_raw = payload[pos : pos + 4]
                if len(crc_raw) != 4:
                    raise BinaryFormatError("DOC_END missing CRC")
                blob = b"".join(self._chunks)
                workload = self._workload
                self._workload, self._chunks, self._size = None, [], 0
                if len(blob) != claimed:
                    events.append(
                        (
                            "torn",
                            workload,
                            f"reassembled {len(blob)} bytes, "
                            f"producer claimed {claimed}",
                        )
                    )
                    self.torn += 1
                elif zlib.crc32(blob) & 0xFFFFFFFF != struct.unpack(
                    "<I", crc_raw
                )[0]:
                    events.append(("torn", workload, "document CRC mismatch"))
                    self.torn += 1
                else:
                    self.documents += 1
                    events.append(("doc", workload, self._meta, blob))
                self._meta = {}
            elif tag == FRAME_STREAM_END:
                count, __ = read_uvarint(payload, 0)
                if self._workload is not None:
                    events.append(
                        ("torn", self._workload, "stream ended mid-document")
                    )
                    self.torn += 1
                    self._workload, self._chunks, self._size = None, [], 0
                self.ended = count
                events.append(("end", count))
            else:
                raise BinaryFormatError(
                    f"unexpected stream frame tag {tag:#x}"
                )

    @property
    def in_document(self) -> bool:
        """True while a document's frames are still arriving."""
        return self._workload is not None

    def summary(self) -> Dict[str, object]:
        """Close-of-connection verdict for the ingest record.

        ``complete`` means the producer said goodbye (STREAM_END), its
        document count matches, nothing tore, and no bytes trail.
        ``capture_completeness`` is delivered / expected documents --
        the same degraded-mode vocabulary profiles use.
        """
        torn_tail = self.in_document or self._parser.pending > 0
        expected = self.documents + self.torn + (1 if torn_tail else 0)
        if self.ended is not None:
            expected = max(expected, self.ended)
        complete = (
            self.ended is not None
            and not torn_tail
            and self.torn == 0
            and self.documents == self.ended
        )
        return {
            "complete": complete,
            "documents": self.documents,
            "torn": self.torn + (1 if torn_tail else 0),
            "capture_completeness": (
                1.0 if expected == 0 else self.documents / expected
            ),
        }
