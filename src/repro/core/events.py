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
import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Union


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


class Trace:
    """A time-ordered event stream from one instrumented run.

    The trace is the profiler-independent artifact: WHOMP, LEAP, and all
    baselines consume the same :class:`Trace`, which is what makes the
    paper's profiler comparisons apples-to-apples.

    Only :class:`AccessEvent` ticks the global time counter, matching the
    paper's definition (incremented after every *collected access*);
    object events are tagged with the current counter value so lifetimes
    interleave correctly with accesses.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._clock = 0
        self._access_count = 0

    # -- recording ----------------------------------------------------

    def record_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> AccessEvent:
        event = AccessEvent(instruction_id, address, size, kind, self._clock)
        self._events.append(event)
        self._clock += 1
        self._access_count += 1
        return event

    def record_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str] = None
    ) -> AllocEvent:
        event = AllocEvent(address, size, site, type_name, self._clock)
        self._events.append(event)
        return event

    def record_free(self, address: int) -> FreeEvent:
        event = FreeEvent(address, self._clock)
        self._events.append(event)
        return event

    # -- access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._events[index]

    @property
    def access_count(self) -> int:
        """Number of memory accesses (the paper's trace length)."""
        return self._access_count

    def accesses(self) -> Iterator[AccessEvent]:
        """Iterate over just the access events."""
        return (e for e in self._events if isinstance(e, AccessEvent))

    def object_events(self) -> Iterator[TraceEvent]:
        """Iterate over just the alloc/free events."""
        return (e for e in self._events if not isinstance(e, AccessEvent))

    def raw_address_stream(self) -> List[int]:
        """The conventional raw address stream (baseline input)."""
        return [e.address for e in self._events if isinstance(e, AccessEvent)]

    def raw_size_bytes(self) -> int:
        """Uncompressed trace size in bytes, as the paper's compression
        ratios measure it: one (instruction-id, address) record per
        access at 12 bytes (4-byte instruction id + 8-byte address)."""
        return self._access_count * 12

    # -- serialization ------------------------------------------------

    def dump(self, stream: IO[str]) -> None:
        """Write the trace as JSON lines (one event per line)."""
        for event in self._events:
            if isinstance(event, AccessEvent):
                record = [
                    "A",
                    event.instruction_id,
                    event.address,
                    event.size,
                    event.kind.value,
                    event.time,
                ]
            elif isinstance(event, AllocEvent):
                record = [
                    "M",
                    event.address,
                    event.size,
                    event.site,
                    event.type_name,
                    event.time,
                ]
            else:
                record = ["F", event.address, event.time]
            stream.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, stream: IO[str]) -> "Trace":
        """Read a trace written by :meth:`dump`."""
        trace = cls()
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            tag = record[0]
            if tag == "A":
                __, instruction_id, address, size, kind, time = record
                trace._events.append(
                    AccessEvent(instruction_id, address, size, AccessKind(kind), time)
                )
                trace._access_count += 1
                trace._clock = time + 1
            elif tag == "M":
                __, address, size, site, type_name, time = record
                trace._events.append(AllocEvent(address, size, site, type_name, time))
            elif tag == "F":
                __, address, time = record
                trace._events.append(FreeEvent(address, time))
            else:
                raise ValueError(f"unknown trace record tag {tag!r}")
        return trace

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Trace":
        """Build a trace from pre-timestamped events (used by tests)."""
        trace = cls()
        for event in events:
            trace._events.append(event)
            if isinstance(event, AccessEvent):
                trace._access_count += 1
                trace._clock = max(trace._clock, event.time + 1)
        return trace
