"""Control and Decomposition Component (CDC).

"The CDC acts as a hub to the profiling process.  It receives
information from the instruction probes, and queries the OMC to make the
information object-relative.  It then passes on the object-relative
stream to the separation and compression component." (Section 2.3)

Two modes are provided:

* :func:`translate_columns` -- walk a :class:`Trace`, drive the OMC
  from its object events, and return the translated stream as integer
  columns.  Each trace is resolved once; later calls replay the kept
  columns.  Every profile translates this way: an offline profile its
  whole trace, an online session each chunk of probe firings (Table
  1's dilation is measured through them), and so does phase
  detection.  :func:`translate_trace` yields the same translation as
  :class:`ObjectRelativeAccess` tuples, for the analyses that walk a
  stream of tuples (the field-reordering and clustering consumers).
* :class:`OnlineCDC` -- a probe sink that translates and forwards each
  access as it fires, one tuple at a time.  No profiler uses it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import (
    Callable, Iterable, Iterator, List, MutableSequence, Optional, Sequence, Tuple,
)

from repro.core.events import AccessKind, AllocEvent, ObjectEvent, Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP, WILD_OBJECT, ObjectRelativeAccess, make_access


#: (group, object, offset) columns, one entry per access of a trace
Translation = Tuple[Sequence[int], Sequence[int], Sequence[int]]

#: the translated stream as columns, in :func:`make_access`'s argument
#: order: instruction, group, object, offset, time, size, kind.  The
#: kind column is an iterator, read once.
Columns = Tuple[
    Sequence[int], Sequence[int], Sequence[int], Sequence[int],
    Sequence[int], Sequence[int], Iterable[AccessKind],
]


def translate_trace(
    trace: Trace, omc: Optional[ObjectManager] = None
) -> Iterator[ObjectRelativeAccess]:
    """Translate a whole trace into the object-relative stream.

    Object events update the OMC in trace order, so each access is
    resolved against the objects live *at its time* -- essential for
    correctness under address reuse, where one raw address names
    different objects at different times.

    The caller may pass (and keep) the ``omc`` to read auxiliary outputs
    afterwards; by default a fresh one is created.  The OMC holds its
    final state from the first access yielded on.  Translation is that
    of :func:`translate_columns`, memo included.
    """
    yield from map(make_access, *translate_columns(trace, omc))


def translate_columns(trace: Trace, omc: Optional[ObjectManager] = None) -> Columns:
    """Translate a whole trace into the object-relative :data:`Columns`.

    ``omc`` is driven through every object event of the trace, as by
    :func:`translate_trace`; a free of an untracked address raises
    :class:`~repro.core.omc.TranslationError`.

    A trace is translated once.  With a fresh OMC, the (group, object,
    offset) columns are kept on the trace, keyed by ``refine_by_type``
    and ``len(trace)``, so WHOMP and LEAP profiling one trace resolve
    each address once.  A later call with a fresh OMC replays only the
    object events into it, which rebuilds the same groups, records and
    live index, and returns the kept columns.  An OMC that already
    holds objects is translated against as it is, without the memo.
    """
    if omc is None:
        omc = ObjectManager()
    if not omc.fresh:
        translation = _resolve(trace, omc)
    else:
        key = ("cdc.translation", omc.refine_by_type, len(trace))
        translation = trace.cached(key)
        if translation is None:
            translation = _resolve(trace, omc)
            trace.cache(key, translation)
        else:
            for __, event in trace.positioned_object_events():
                _apply(omc, event)
    instructions, __, sizes, times = trace.access_columns()
    groups, serials, offsets = translation
    return (
        instructions, groups, serials, offsets, times, sizes, trace.access_kinds()
    )


def _resolve(trace: Trace, omc: ObjectManager) -> Translation:
    """Drive ``omc`` through the whole trace and resolve every access.

    Consecutive accesses mostly touch one object, so the last object
    hit is checked before the OMC's index.  Any object event clears it:
    a free may end that object's life.
    """
    __, addresses, __, __ = trace.access_columns()
    groups, serials = array("q"), array("q")
    # Wild offsets are raw addresses, which fit 64 bits only when the
    # trace's own address column does.
    offsets: MutableSequence[int] = array("q") if trace.packed else []
    add_group, add_serial, add_offset = groups.append, serials.append, offsets.append
    resolve = omc.resolve
    start = end = 0  # the last object hit: [start, end)
    group = serial = 0
    done = 0
    for position, event in chain(
        trace.positioned_object_events(), ((len(addresses), None),)
    ):
        for address in addresses[done:position]:
            if start <= address < end:
                add_group(group)
                add_serial(serial)
                add_offset(address - start)
                continue
            hit = resolve(address)
            if hit is None:
                add_group(WILD_GROUP)
                add_serial(WILD_OBJECT)
                add_offset(address)
            else:
                start, end, record = hit
                group, serial = record.group_id, record.serial
                add_group(group)
                add_serial(serial)
                add_offset(address - start)
        done = position
        if event is not None:
            _apply(omc, event)
            start = end = 0
    return groups, serials, offsets


def _apply(omc: ObjectManager, event: ObjectEvent) -> None:
    """Feed one object event to the OMC."""
    if isinstance(event, AllocEvent):
        omc.on_alloc(event.address, event.size, event.site, event.type_name, event.time)
    else:
        omc.on_free(event.address, event.time)


def translate_trace_list(
    trace: Trace, omc: Optional[ObjectManager] = None
) -> List[ObjectRelativeAccess]:
    """Eager variant of :func:`translate_trace`."""
    return list(translate_trace(trace, omc))


class OnlineCDC:
    """Probe sink translating accesses on the fly, one at a time.

    ``consumer`` receives each :class:`ObjectRelativeAccess` as it is
    produced.  The CDC owns the global time-stamp counter, incremented
    after every collected access, per Section 2.2.  The profilers'
    online sessions do not use it: they buffer firings into chunks and
    translate each with :func:`translate_columns`.
    """

    def __init__(
        self,
        consumer: Callable[[ObjectRelativeAccess], None],
        omc: Optional[ObjectManager] = None,
    ) -> None:
        self.omc = omc if omc is not None else ObjectManager()
        self._consumer = consumer
        self._clock = 0
        self._wild = 0

    @property
    def clock(self) -> int:
        """Accesses collected so far."""
        return self._clock

    @property
    def wild(self) -> int:
        """Accesses so far that resolved to no live object."""
        return self._wild

    def on_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        triple = self.omc.translate(address)
        if triple is None:
            self._wild += 1
            group, serial, offset = WILD_GROUP, WILD_OBJECT, address
        else:
            group, serial, offset = triple
        self._consumer(
            ObjectRelativeAccess(
                instruction_id=instruction_id,
                group=group,
                object_serial=serial,
                offset=offset,
                time=self._clock,
                size=size,
                kind=kind,
            )
        )
        self._clock += 1

    def on_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        self.omc.on_alloc(address, size, site, type_name, self._clock)

    def on_free(self, address: int) -> None:
        self.omc.on_free(address, self._clock)
