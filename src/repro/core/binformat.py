"""BINCAP -- the compact binary profile format and its stream protocol.

JSON stays the readable, diffable document form; this module is the
*wire and archive* form: a framed, varint/delta-encoded binary encoding
of the same WHOMP / LEAP / dependence documents, typically several
times smaller and faster to decode (the store validates each distinct
document once, by a frame decode without grammar expansion).

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
:data:`SCHEMAS` declares each kind once, as its frames and each table
frame's row of column types; :func:`encode_document`,
:func:`decode_tagged` and :func:`check_document` (the JSON loaders'
check) all walk it.  A grammar symbol is one tagged varint
(:func:`tag_grammar`), a finished grammar's own form, which both
encodings write from and hand the one grammar expander,
:func:`_expand_tagged`, on load.  Its
size check, :func:`rule_sizes`, also stands alone: validation needs a
grammar's expanded length, never its stream.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: binary document magic: \x89 catches 7-bit strips, RPB names the
#: format, \r\n\x1a\n catches newline translation (the PNG trick)
MAGIC = b"\x89RPB\r\n\x1a\n"

#: bumped when the frame vocabulary or payload encodings change
BINARY_VERSION = 1

#: bumped when the stream protocol changes
STREAM_VERSION = 1

#: the ``version`` of every JSON-shape document BINCAP carries
DOCUMENT_VERSION = 1

#: most dimensions an LMAD or an overflow bound may have
_MAX_DIMS = 64

# -- frame tags (SCHEMAS declares what each document frame holds) -------------

FRAME_HEADER = 0x01  # uvarint version, token kind
FRAME_META = 0x02
FRAME_GRAMMAR = 0x03
FRAME_BASES = 0x04
FRAME_LIFETIMES = 0x05
FRAME_LABELS = 0x06
FRAME_ENTRY = 0x07
FRAME_KINDS = 0x08
FRAME_EXECS = 0x09
FRAME_CONFLICTS = 0x0A
FRAME_COUNTS = 0x0B
FRAME_END = 0x0F  # 4-byte LE CRC32 of everything before this frame

FRAME_STREAM_BEGIN = 0x10  # uvarint stream version
FRAME_DOC_BEGIN = 0x11  # token workload, token meta (JSON text or "")
FRAME_CHUNK = 0x12  # raw document bytes
FRAME_DOC_END = 0x13  # uvarint byte length, 4-byte LE CRC32
FRAME_STREAM_END = 0x14  # uvarint document count


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

    The workhorse of both :func:`decode_tagged` (whole documents in
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


# -- hand-written payload codecs ----------------------------------------------
#
# Grammar and LEAP entry frames are most of a document's bytes and of
# its decode time, so their payloads keep specialised codecs; the
# schema below still declares where they sit, and the entry's fields.


def tag_grammar(grammar: object) -> Tuple[int, Dict[int, List[int]]]:
    """A JSON-shape grammar (``{"start", "productions"}``) in the
    *tagged* form that grammar frames carry and :func:`_expand_tagged`
    takes: ``(start, {rule_id: [tagged, ...]})``.  A grammar already
    tagged, as a frozen grammar or :func:`decode_tagged` gives it, is
    returned as it stands.

    Each symbol is one int whose bit 0 tells a rule reference
    (``rule_id << 1 | 1``) from a terminal (``zigzag(value) << 1``), so
    on the wire the common small terminal costs one byte.  The JSON
    loader goes through it, so a JSON grammar that loads always
    re-encodes; :meth:`~repro.compression.sequitur.SequiturGrammar.freeze`
    tags the same way.  Rule ids and the start must be non-negative
    ints, terminals ints.
    """
    if type(grammar) is tuple:
        return grammar
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


def _encode_grammar(tagged: Tuple[int, Dict[int, List[int]]]) -> bytes:
    start, productions = tagged
    out = bytearray()
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
    payload: bytes, pos: int = 0
) -> Tuple[int, Dict[int, List[int]]]:
    """Decode a grammar payload to its tagged form (see
    :func:`tag_grammar`): productions as lists of the raw symbol
    varints, no per-symbol list objects.  The hot inner loop inlines the
    varint read -- this frame is most of a WHOMP document's bytes."""
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
    return start, productions


def _encode_entry(record: Dict[str, object]) -> bytes:
    """One LEAP entry frame, of a record :func:`_check_entry` passed.
    LMAD start vectors are delta-coded against the previous LMAD in the
    entry (descriptors for one instruction walk the same object, so
    starts cluster)."""
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
        write_uvarint(out, len(minimum))
        for low, high, grain in zip(minimum, overflow["max"], overflow["granularity"]):
            write_svarint(out, low)
            write_svarint(out, high - low)
            write_svarint(out, grain)
    return bytes(out)


def _decode_entry(payload: bytes, pos: int = 0) -> Dict[str, object]:
    values = _read_varint_block(payload, pos)
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
            if dims > _MAX_DIMS:
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
            if dims > _MAX_DIMS:
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


# -- row schema ---------------------------------------------------------------
#
# Every other frame is a table declared once, in SCHEMAS below, from
# the column types here; one encoder, one decoder and one JSON checker
# walk those declarations.  A column sees the whole row and the previous
# one (zeros before the first), so it can code its field against either.


def _is_uint(value: object) -> bool:
    return type(value) is int and value >= 0


def _write_double(out: bytearray, value: float) -> None:
    out += struct.pack("<d", float(value))


class _Column:
    """One row field: ``ok`` accepts its JSON value, ``put`` and ``get``
    write and read it, against the previous row's value if ``delta``."""

    width = 1  # row fields the column spans

    def __init__(self, ok: Callable, put=None, get=None, delta=False) -> None:
        self.ok, self.put, self.get, self.delta = ok, put, get, delta

    def check(self, rows: list, index: int) -> bool:
        """Whether every row's field ``index`` is a valid JSON value."""
        return all(map(self.ok, [row[index] for row in rows]))

    def write(self, out: bytearray, row: list, index: int, previous: list) -> None:
        self.put(out, row[index] - previous[index] if self.delta else row[index])

    def read(self, data: bytes, pos: int, row: list, previous: list) -> int:
        value, pos = self.get(data, pos)
        row.append(value + previous[len(row)] if self.delta else value)
        return pos


class _Nullable(_Column):
    """None as a 0 byte, else a 1 byte and the svarint difference from
    column ``anchor`` of the same row (a lifetime's free time is stored
    as its length)."""

    def __init__(self, anchor: int) -> None:
        super().__init__(lambda value: value is None or type(value) is int)
        self.anchor = anchor

    def write(self, out, row, index, previous):
        if row[index] is None:
            out.append(0)
        else:
            out.append(1)
            write_svarint(out, row[index] - row[self.anchor])

    def read(self, data, pos, row, previous):
        present, pos = read_uvarint(data, pos)
        if present > 1:
            raise BinaryFormatError(f"bad presence flag {present}")
        if present:
            offset, pos = read_svarint(data, pos)
            row.append(row[self.anchor] + offset)
        else:
            row.append(None)
        return pos


class _Folded(_Column):
    """Two fields, a non-negative key and a one-bit enum, in one uvarint:
    the key's difference from the previous row's, shifted left, or'd
    with the index of the enum's name in ``names``."""

    width = 2

    def __init__(self, *names: str) -> None:
        self.names = names

    def check(self, rows, index):
        return all(
            _is_uint(row[index]) and row[index + 1] in self.names for row in rows
        )

    def write(self, out, row, index, previous):
        delta = row[index] - previous[index]
        write_uvarint(out, delta << 1 | self.names.index(row[index + 1]))

    def read(self, data, pos, row, previous):
        folded, pos = read_uvarint(data, pos)
        row.append(previous[len(row)] + (folded >> 1))
        row.append(self.names[folded & 1])
        return pos


UVARINT = _Column(_is_uint, write_uvarint, read_uvarint)
SVARINT = _Column(lambda value: type(value) is int, write_svarint, read_svarint)
DELTA = _Column(SVARINT.ok, write_svarint, read_svarint, delta=True)
TOKEN = _Column(lambda value: type(value) is str, write_token, read_token)
DOUBLE = _Column(lambda value: type(value) in (int, float), _write_double, _read_double)


class _Table:
    """A list of rows: a uvarint row count, then each row's columns.

    The first ``unique`` fields are the row's key: the encoder sorts
    the rows on it, and a key that does not exceed the previous row's is
    refused everywhere, so duplicates can neither be written nor read.
    """

    counted = True  # whether the payload starts with the row count

    def __init__(self, *columns: _Column, unique: int = 0) -> None:
        self.columns = columns
        self.unique = unique
        self.placed: List[Tuple[int, _Column]] = []
        self.width = 0
        for column in columns:
            self.placed.append((self.width, column))
            self.width += column.width
        self.zero = [0] * self.width

    def rows(self, value: object) -> list:
        """The document value as the rows the frame carries."""
        if type(value) is not list:
            raise BinaryFormatError(f"expected a list of rows, got {value!r}")
        return sorted(value) if self.unique else value

    def value(self, rows: list) -> object:
        """Decoded rows as the document value."""
        return rows

    def distinct(self, rows: list) -> list:
        if self.unique:
            keys = [row[: self.unique] for row in rows]
            if any(key >= after for key, after in zip(keys, keys[1:])):
                raise BinaryFormatError("duplicate or unsorted row keys")
        return rows

    def encode(self, value: object) -> bytes:
        """The payload of a value :meth:`check` passed."""
        rows = self.rows(value)
        out = bytearray()
        if self.counted:
            write_uvarint(out, len(rows))
        previous = self.zero
        for row in rows:
            for index, column in self.placed:
                column.write(out, row, index, previous)
            previous = row
        return bytes(out)

    def decode(self, payload: bytes, pos: int = 0) -> object:
        count, pos = read_uvarint(payload, pos) if self.counted else (1, pos)
        if count > len(payload):
            raise BinaryFormatError("table claims more rows than bytes")
        rows = []
        previous = self.zero
        for __ in range(count):
            row: list = []
            for column in self.columns:
                pos = column.read(payload, pos, row, previous)
            rows.append(row)
            previous = row
        if pos != len(payload):
            raise BinaryFormatError("trailing bytes in table frame")
        return self.value(self.distinct(rows))

    def check(self, value: object) -> object:
        rows = self.rows(value)
        for row in rows:
            if type(row) is not list or len(row) != self.width:
                raise BinaryFormatError(f"bad table row {row!r}")
        for index, column in self.placed:
            if not column.check(rows, index):
                raise BinaryFormatError(f"bad field {index} in rows {rows!r}")
        self.distinct(rows)
        return value


class _Map(_Table):
    """An object ``{str(int): value}`` as rows ``[int key, value]``
    sorted by key.  Keys must be written as ``str(int)`` would write
    them, so two keys never name one integer."""

    def __init__(self, *columns: _Column) -> None:
        super().__init__(*columns, unique=1)

    def rows(self, value):
        if type(value) is not dict:
            raise BinaryFormatError(f"expected an object, got {value!r}")
        rows = []
        for key, item in value.items():
            number = int(key)
            if str(number) != key:
                raise BinaryFormatError(f"non-canonical integer key {key!r}")
            rows.append([number, item])
        rows.sort()
        return rows

    def value(self, rows):
        return {str(key): item for key, item in rows}


class _Record(_Table):
    """One row, without a row count, whose fields are named keys of an
    object: ``(name, column)``, or ``(name, column, default)`` for a
    field that may be absent."""

    counted = False

    def __init__(self, *fields: tuple) -> None:
        super().__init__(*(column for __, column, *__ in fields))
        self.fields = fields

    def rows(self, record):
        return [[record.get(name, *default) for name, __, *default in self.fields]]

    def value(self, rows):
        return {name: value for (name, *__), value in zip(self.fields, rows[0])}

    def check(self, record):
        for name, column, *default in self.fields:
            if name not in record and default:
                continue
            if not column.ok(record.get(name)):
                raise BinaryFormatError(f"bad {name}: {record.get(name)!r}")
        return record


class _Codec(NamedTuple):
    """A hand-written payload codec; ``check`` returns the JSON value in
    :func:`decode_tagged`'s form."""

    encode: Callable
    decode: Callable
    check: Callable


_ENTRY_FIELDS = _Record(
    ("instruction", SVARINT), ("group", SVARINT), ("total", UVARINT)
)
_OVERFLOW_FIELDS = _Record(("count", UVARINT))


def _check_entry(record: Dict[str, object]) -> Dict[str, object]:
    """A JSON LEAP entry, checked against the fields that
    :func:`_encode_entry` writes."""
    _ENTRY_FIELDS.check(record)
    if type(record.get("summarized", False)) is not bool:
        raise BinaryFormatError(f"bad summarized: {record['summarized']!r}")
    components: List[object] = []  # every vector component, type-checked at once
    for start, stride, count in record["lmads"]:
        if not (
            type(start) is list and type(stride) is list
            and len(start) == len(stride) <= _MAX_DIMS and _is_uint(count)
        ):
            raise BinaryFormatError(f"bad LMAD {[start, stride, count]!r}")
        components += start
        components += stride
    overflow = _OVERFLOW_FIELDS.check(record["overflow"])
    bounds = [overflow["min"], overflow["max"], overflow["granularity"]]
    if bounds != [None] * 3:
        if not (
            all(type(bound) is list for bound in bounds)
            and len({len(bound) for bound in bounds}) == 1
            and len(bounds[0]) <= _MAX_DIMS
        ):
            raise BinaryFormatError(f"bad overflow bounds {bounds!r}")
        components += bounds[0] + bounds[1] + bounds[2]
    if not set(map(type, components)) <= {int}:
        raise BinaryFormatError(f"non-integer LMAD component in {record!r}")
    return record


# -- document schemas ---------------------------------------------------------

ONE, MANY, KEYED = "one", "many", "keyed"


class Frame(NamedTuple):
    """One frame of a document kind, in the order the encoder writes.

    ``one``: exactly once, holding ``document[key]`` (``key`` None: the
    codec's named fields sit on the document itself).  ``many``: zero
    or more, one per item of the list ``document[key]``.  ``keyed``:
    each payload starts with a token name, a key of the object
    ``document[key]`` (at least one frame, in name order), or, when
    ``key`` is a tuple of names, a document field (each exactly once).
    """

    tag: int
    key: object
    cardinality: str
    codec: object


_META_TAIL = (("capture_completeness", DOUBLE, 1.0), ("quarantined", UVARINT, 0))
_LIFETIMES = _Table(SVARINT, SVARINT, DELTA, _Nullable(anchor=2), SVARINT)
_LABELS = _Map(SVARINT, TOKEN)
_COUNTS = _Map(DELTA, UVARINT)

#: every kind BINCAP carries, frame by frame: the one place a table's
#: row layout and a kind's frame list are written down
SCHEMAS: Dict[str, Tuple[Frame, ...]] = {
    "whomp": (
        Frame(FRAME_META, None, ONE, _Record(("access_count", UVARINT), *_META_TAIL)),
        Frame(FRAME_GRAMMAR, "grammars", KEYED,
              _Codec(_encode_grammar, _decode_grammar_tagged, tag_grammar)),
        # [group, serial, address]
        Frame(FRAME_BASES, "base_addresses", ONE, _Table(DELTA, DELTA, DELTA)),
        # [group, serial, alloc, free, size]
        Frame(FRAME_LIFETIMES, "lifetimes", ONE, _LIFETIMES),
        Frame(FRAME_LABELS, "group_labels", ONE, _LABELS),
    ),
    "leap": (
        Frame(FRAME_META, None, ONE, _Record(
            ("access_count", UVARINT), ("budget", UVARINT), *_META_TAIL
        )),
        Frame(FRAME_KINDS, "kinds", ONE, _Map(_Folded("load", "store"))),
        Frame(FRAME_EXECS, "exec_counts", ONE, _COUNTS),
        Frame(FRAME_ENTRY, "entries", MANY,
              _Codec(_encode_entry, _decode_entry, _check_entry)),
        Frame(FRAME_LABELS, "group_labels", ONE, _LABELS),
        Frame(FRAME_LIFETIMES, "lifetimes", ONE, _LIFETIMES),
    ),
    "dependence": (
        # [store, load, count], one row per (store, load)
        Frame(FRAME_CONFLICTS, "conflicts", ONE,
              _Table(DELTA, DELTA, UVARINT, unique=2)),
        Frame(FRAME_COUNTS, ("load_counts", "store_counts"), KEYED, _COUNTS),
    ),
}


def _schema(kind: object) -> Tuple[Frame, ...]:
    schema = SCHEMAS.get(kind)
    if schema is None:
        raise BinaryFormatError(f"kind {kind!r} has no binary encoding (JSON only)")
    return schema


def _frame_values(frame: Frame, document: Dict[str, object]) -> list:
    """``(name, value)`` per frame of ``frame``'s kind that ``document``
    fills, in write order; the name is None unless the frame is keyed."""
    if frame.cardinality == ONE:
        return [(None, document if frame.key is None else document[frame.key])]
    if frame.cardinality == MANY:
        items = document[frame.key]
        if type(items) is not list:
            raise BinaryFormatError(f"bad {frame.key}: {items!r}")
        return [(None, item) for item in items]
    if isinstance(frame.key, tuple):
        named = {name: document[name] for name in frame.key}
    else:
        named = document[frame.key]
    if type(named) is not dict or not named or not all(type(n) is str for n in named):
        raise BinaryFormatError(f"bad {frame.key}: {named!r}")
    return sorted(named.items())


# -- document encode, decode and check ----------------------------------------


def encode_document(document: Dict[str, object]) -> bytes:
    """Serialize a profile document to its binary form.

    The input is what ``json.loads`` of the canonical JSON document
    yields (and what :func:`decode_document` returns), or that with
    tagged grammars: encode/decode round-trips the document
    identically, which the property tests drive across all three kinds.
    The document is checked first (:func:`check_document`), so BINCAP
    refuses exactly what the JSON loaders refuse.
    """
    checked = check_document(document)
    out = bytearray(MAGIC)
    header = bytearray()
    write_uvarint(header, BINARY_VERSION)
    write_token(header, checked["format"])
    write_frame(out, FRAME_HEADER, bytes(header))
    for frame in SCHEMAS[checked["format"]]:
        for name, value in _frame_values(frame, checked):
            payload = bytearray()
            if name is not None:
                write_token(payload, name)
            payload += frame.codec.encode(value)
            write_frame(out, frame.tag, payload)
    crc = zlib.crc32(out) & 0xFFFFFFFF
    write_frame(out, FRAME_END, struct.pack("<I", crc))
    return bytes(out)


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
    return kind, frames[1:]  # sniff_kind saw frames[0] is the header


def decode_tagged(data: bytes) -> Dict[str, object]:
    """:func:`decode_document`, except that WHOMP grammars stay in the
    tagged form ``(start, {rule_id: [tagged, ...]})`` that
    :func:`_expand_tagged` takes -- the load path's form, which never
    builds a ``["T", value]`` list."""
    kind, frames = _checked_frames(data)
    schema = _schema(kind)
    by_tag = {frame.tag: frame for frame in schema}
    seen = dict.fromkeys(by_tag, 0)
    document: Dict[str, object] = {"format": kind, "version": DOCUMENT_VERSION}
    for frame in schema:
        if frame.cardinality == MANY:
            document[frame.key] = []
    for tag, payload in frames:
        frame = by_tag.get(tag)
        if frame is None:
            raise BinaryFormatError(f"unexpected frame {tag:#x} in {kind}")
        seen[tag] += 1
        if frame.cardinality == MANY:
            document[frame.key].append(frame.codec.decode(payload))
        elif frame.cardinality == ONE:
            if seen[tag] > 1:
                raise BinaryFormatError(f"duplicate frame {tag:#x} in {kind}")
            value = frame.codec.decode(payload)
            document.update(value if frame.key is None else {frame.key: value})
        else:
            name, pos = read_token(payload, 0)
            fixed = isinstance(frame.key, tuple)
            named = document if fixed else document.setdefault(frame.key, {})
            if name in named or (fixed and name not in frame.key):
                raise BinaryFormatError(f"duplicate or unknown frame {name!r}")
            named[name] = frame.codec.decode(payload, pos)
    for frame in schema:
        need = len(frame.key) if isinstance(frame.key, tuple) else 1
        if frame.cardinality != MANY and seen[frame.tag] < need:
            raise BinaryFormatError(f"{kind} document is missing frames")
    return document


def decode_document(data: bytes) -> Dict[str, object]:
    """Decode binary bytes back to the JSON-shape document dict.

    Checks the magic, the header, the trailing CRC (so truncation and
    bit flips are detected), and every frame's internal consistency.
    The result is byte-for-byte equivalent to ``json.loads`` of the
    canonical JSON document -- callers run the same validators over
    both formats.
    """
    return untagged(decode_tagged(data))


def untagged(document: Dict[str, object]) -> Dict[str, object]:
    """A document in :func:`decode_tagged`'s form with its WHOMP
    grammars in JSON shape: what the JSON encoding writes and
    :func:`decode_document` returns."""
    if document["format"] != "whomp":
        return document
    shaped = dict(document)
    shaped["grammars"] = {
        name: {"start": start, "productions": {
            str(rule_id): [
                ["R", tagged >> 1]
                if tagged & 1
                else ["T", ~(tagged >> 2) if tagged & 2 else tagged >> 2]
                for tagged in rhs
            ]
            for rule_id, rhs in productions.items()
        }}
        for name, (start, productions) in document["grammars"].items()
    }
    return shaped


def check_document(document: Dict[str, object]) -> Dict[str, object]:
    """A JSON-shape document in :func:`decode_tagged`'s form, if BINCAP
    can carry it: every frame's value checked against its declaration in
    :data:`SCHEMAS`.  Raises :class:`BinaryFormatError` naming what
    BINCAP cannot carry.  JSON loaders run this, so a JSON document
    loads only if its BINCAP encoding would load to the same profile."""
    kind = document.get("format")
    checked = dict(document)
    try:
        schema = _schema(kind)
        if document.get("version") != DOCUMENT_VERSION:
            raise BinaryFormatError(f"unsupported version {document.get('version')!r}")
        for frame in schema:
            values = [
                (name, frame.codec.check(value))
                for name, value in _frame_values(frame, document)
            ]
            if frame.cardinality == KEYED and isinstance(frame.key, str):
                checked[frame.key] = dict(values)
    except BinaryFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise BinaryFormatError(f"malformed {kind!r} document: {exc}") from exc
    return checked


# -- grammar expansion --------------------------------------------------------


def rule_sizes(
    start: int, productions: Dict[int, List[int]], max_symbols: int
) -> Dict[int, int]:
    """Each reachable rule's expanded length, of a tagged grammar (see
    :func:`tag_grammar`), from arithmetic alone: no stream is built.

    An iterative DFS (any depth works) over each rule's child
    references rejects undefined rules and cycles; at post-order a
    rule's size is its terminals plus its children's sizes, so a
    doubling-chain bomb claiming more than ``max_symbols`` is refused
    before anything is expanded.  The dict fills in post-order, so its
    order is also a children-first expansion order.  A grammar codes its
    stream losslessly, so the start rule's size is the stream's length.
    """
    if start not in productions:
        raise BinaryFormatError(f"start rule {start!r} not in productions")
    sizes: Dict[int, int] = {}
    on_stack = {start}
    refs = [t >> 1 for t in productions[start] if t & 1]
    stack: List[Tuple[int, List[int], int]] = [(start, refs, 0)]
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
    return sizes


def _expand_tagged(
    start: int,
    productions: Dict[int, List[int]],
    max_symbols: int,
    sizes: Optional[Dict[int, int]] = None,
) -> List[int]:
    """Expand a tagged grammar (see :func:`tag_grammar`) to its
    terminal stream -- the one expander both encodings load through.

    ``sizes`` is :func:`rule_sizes` of the grammar, computed here when
    the caller has not already checked it.  Bottom-up: each *rule* is
    expanded once, in that children-first order, by concatenating its
    already-expanded children, and terminals stay single ints until they
    are appended to an output list.  Valid grammars whose per-rule
    expansions sum far past the output (deep unshared chains) take
    :func:`_expand_tagged_iterative` instead, so memory stays
    proportional to the output.
    """
    if sizes is None:
        sizes = rule_sizes(start, productions, max_symbols)
    if sum(sizes.values()) > 8 * max_symbols + 1024:
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
    Cycles/undefined rules were already rejected by :func:`rule_sizes`."""
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
