"""Trace event model.

An instrumented run produces a single time-ordered stream of events, of
three kinds mirroring the paper's probes (Section 2.3):

* :class:`AccessEvent` -- emitted by an *instruction probe* adjacent to a
  load or store: the (instruction-id, address) pair the CDC receives,
  plus the access width and load/store kind needed by the dependence
  post-processor.
* :class:`AllocEvent` / :class:`FreeEvent` -- emitted by *object probes*
  at object creation and destruction: creation/destruction time, size,
  type, and allocation site, feeding the OMC.

Events carry a ``time`` field: the global counter "starting from 0 at the
beginning of the program and incremented after every collected access"
(Section 2.2).  The :class:`Trace` container assigns it.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    MutableSequence,
    Optional,
    Sequence,
    Tuple,
    Union,
)


class AccessKind(enum.Enum):
    """Whether a memory instruction reads or writes."""

    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class AccessEvent:
    """One dynamic execution of a load or store instruction."""

    __slots__ = ("instruction_id", "address", "size", "kind", "time")

    instruction_id: int
    address: int
    size: int
    kind: AccessKind
    time: int


@dataclass(frozen=True)
class AllocEvent:
    """Object creation observed by an object probe.

    ``site`` is the static allocation-site id: the paper "groups
    allocated dynamic objects by static instruction" (Section 3.1), so
    the site is what the OMC turns into a group.  ``type_name`` is the
    optional compiler-provided type refinement.
    """

    __slots__ = ("address", "size", "site", "type_name", "time")

    address: int
    size: int
    site: str
    type_name: Optional[str]
    time: int


@dataclass(frozen=True)
class FreeEvent:
    """Object destruction observed by an object probe."""

    __slots__ = ("address", "time")

    address: int
    time: int


TraceEvent = Union[AccessEvent, AllocEvent, FreeEvent]
ObjectEvent = Union[AllocEvent, FreeEvent]

#: the access kinds; a kind's index here is its byte code in the packed
#: kind column (``_KINDS.index`` compares by identity first, where a
#: dict lookup would run ``Enum.__hash__`` in Python)
_KINDS = (AccessKind.LOAD, AccessKind.STORE)


class Trace:
    """A time-ordered event stream from one instrumented run.

    The trace is the profiler-independent artifact: WHOMP, LEAP, and all
    baselines consume the same :class:`Trace`, which is what makes the
    paper's profiler comparisons apples-to-apples.

    Only :class:`AccessEvent` ticks the global time counter, matching the
    paper's definition (incremented after every *collected access*);
    object events are tagged with the current counter value so lifetimes
    interleave correctly with accesses.

    Accesses are stored as columns, not objects: one ``array('q')`` each
    for instruction id, address, size and time, and one byte per access
    for load/store.  Object events stay a list, each tagged with the
    number of accesses recorded before it.  Iteration, indexing and
    :meth:`accesses` build :class:`AccessEvent` views on demand, in the
    recorded order.  A field that is not an int or does not fit in 64
    bits turns every column into a plain list, so any event still
    round-trips.

    Consumers may keep data derived from the trace on it with
    :meth:`cache`; recording any event drops it.

    ``clock`` is the time of the first access recorded: a trace that
    holds one chunk of a longer run starts where the chunk before it
    ended.
    """

    def __init__(self, clock: int = 0) -> None:
        self._instructions: MutableSequence = array("q")
        self._addresses: MutableSequence = array("q")
        self._sizes: MutableSequence = array("q")
        self._times: MutableSequence = array("q")
        #: kind codes (``_KINDS`` indices) while packed, raw kinds after
        self._kinds: MutableSequence = bytearray()
        self._packed = True
        self._objects: List[Tuple[int, ObjectEvent]] = []
        self._clock = clock
        self._cached: Dict[Hashable, object] = {}

    # -- recording ----------------------------------------------------

    def record_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        self._append(instruction_id, address, size, kind, self._clock)
        self._clock += 1

    def record_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str] = None
    ) -> AllocEvent:
        event = AllocEvent(address, size, site, type_name, self._clock)
        self._add_object(event)
        return event

    def record_free(self, address: int) -> FreeEvent:
        event = FreeEvent(address, self._clock)
        self._add_object(event)
        return event

    def _append(
        self, instruction_id: int, address: int, size: int, kind: AccessKind, time: int
    ) -> None:
        self._cached.clear()
        if self._packed:
            try:
                code = _KINDS.index(kind)
                self._instructions.append(instruction_id)
                self._addresses.append(address)
                self._sizes.append(size)
                self._times.append(time)
                self._kinds.append(code)
                return
            except (ValueError, TypeError, OverflowError):
                self._unpack()
        self._instructions.append(instruction_id)
        self._addresses.append(address)
        self._sizes.append(size)
        self._times.append(time)
        self._kinds.append(kind)

    def _unpack(self) -> None:
        """Turn every column into a list, dropping a half-appended row
        (the kind column is appended last, so it counts whole rows)."""
        rows = len(self._kinds)
        self._instructions = list(self._instructions[:rows])
        self._addresses = list(self._addresses[:rows])
        self._sizes = list(self._sizes[:rows])
        self._times = list(self._times[:rows])
        self._kinds = [_KINDS[code] for code in self._kinds]
        self._packed = False

    def _add_object(self, event: ObjectEvent) -> None:
        self._cached.clear()
        self._objects.append((len(self._kinds), event))

    # -- access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds) + len(self._objects)

    def __iter__(self) -> Iterator[TraceEvent]:
        accesses = self.accesses()
        done = 0
        for position, event in self._objects:
            if position > done:
                yield from islice(accesses, position - done)
                done = position
            yield event
        yield from accesses

    def __getitem__(self, index: int) -> TraceEvent:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("trace index out of range")
        # Object event k sits at index (accesses before it) + k, which
        # grows with k: bisect for the first one at or after ``index``.
        objects = self._objects
        low, high = 0, len(objects)
        while low < high:
            mid = (low + high) // 2
            if objects[mid][0] + mid < index:
                low = mid + 1
            else:
                high = mid
        if low < len(objects) and objects[low][0] + low == index:
            return objects[low][1]
        j = index - low
        return AccessEvent(
            self._instructions[j],
            self._addresses[j],
            self._sizes[j],
            _KINDS[self._kinds[j]] if self._packed else self._kinds[j],
            self._times[j],
        )

    @property
    def access_count(self) -> int:
        """Number of memory accesses (the paper's trace length)."""
        return len(self._kinds)

    def accesses(self) -> Iterator[AccessEvent]:
        """Iterate over just the access events."""
        return map(
            AccessEvent,
            self._instructions,
            self._addresses,
            self._sizes,
            self.access_kinds(),
            self._times,
        )

    def object_events(self) -> Iterator[ObjectEvent]:
        """Iterate over just the alloc/free events."""
        return (event for __, event in self._objects)

    def raw_address_stream(self) -> List[int]:
        """The conventional raw address stream (baseline input)."""
        return list(self._addresses)

    def raw_size_bytes(self) -> int:
        """Uncompressed trace size in bytes, as the paper's compression
        ratios measure it: one (instruction-id, address) record per
        access at 12 bytes (4-byte instruction id + 8-byte address)."""
        return len(self._kinds) * 12

    # -- columns (the translation's input) ----------------------------

    @property
    def packed(self) -> bool:
        """True while every access field fits its 64-bit column."""
        return self._packed

    def access_columns(self) -> Tuple[Sequence, Sequence, Sequence, Sequence]:
        """The instruction, address, size and time columns, one entry
        per access in recorded order.  Read-only by convention."""
        return self._instructions, self._addresses, self._sizes, self._times

    def access_kinds(self) -> Iterator[AccessKind]:
        """The load/store kind of each access, in recorded order."""
        if self._packed:
            return map(_KINDS.__getitem__, self._kinds)
        return iter(self._kinds)

    def positioned_object_events(self) -> List[Tuple[int, ObjectEvent]]:
        """``(accesses before it, event)`` for every object event, in
        order.  Read-only by convention."""
        return self._objects

    def cached(self, key: Hashable) -> Optional[object]:
        """What :meth:`cache` stored under ``key``, or None."""
        return self._cached.get(key)

    def cache(self, key: Hashable, value: object) -> None:
        """Keep ``value``, derived from this trace, until the next
        ``record_*`` call."""
        self._cached[key] = value

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Trace":
        """Build a trace from pre-timestamped events (used by tests)."""
        trace = cls()
        for event in events:
            if isinstance(event, AccessEvent):
                trace._append(
                    event.instruction_id, event.address, event.size, event.kind, event.time
                )
                trace._clock = max(trace._clock, event.time + 1)
            else:
                trace._add_object(event)
        return trace
