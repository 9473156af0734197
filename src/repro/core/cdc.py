"""Control and Decomposition Component (CDC).

"The CDC acts as a hub to the profiling process.  It receives
information from the instruction probes, and queries the OMC to make the
information object-relative.  It then passes on the object-relative
stream to the separation and compression component." (Section 2.3)

Two modes are provided:

* :func:`translate_trace` -- offline: walk a recorded :class:`Trace`,
  drive the OMC from its object events, and yield the translated stream.
* :class:`OnlineCDC` -- online: a probe sink that translates and forwards
  each access as it fires, for profilers attached directly to a running
  process (this is how Table 1's dilation is measured).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.core.events import (
    AccessEvent,
    AccessKind,
    AllocEvent,
    FreeEvent,
    Trace,
)
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP, WILD_OBJECT, ObjectRelativeAccess


def translate_access(
    omc: ObjectManager, event: AccessEvent
) -> ObjectRelativeAccess:
    """Translate one access event against the current OMC state."""
    triple = omc.translate(event.address)
    if triple is None:
        group, serial, offset = WILD_GROUP, WILD_OBJECT, event.address
    else:
        group, serial, offset = triple
    return ObjectRelativeAccess(
        instruction_id=event.instruction_id,
        group=group,
        object_serial=serial,
        offset=offset,
        time=event.time,
        size=event.size,
        kind=event.kind,
    )


def translate_trace(
    trace: Trace, omc: Optional[ObjectManager] = None
) -> Iterator[ObjectRelativeAccess]:
    """Translate a whole trace into the object-relative stream.

    Object events update the OMC as they are encountered, so each access
    is resolved against the objects live *at its time* -- essential for
    correctness under address reuse, where one raw address names
    different objects at different times.

    The caller may pass (and keep) the ``omc`` to read auxiliary outputs
    afterwards; by default a fresh one is created.
    """
    if omc is None:
        omc = ObjectManager()
    for event in trace:
        if isinstance(event, AccessEvent):
            yield translate_access(omc, event)
        elif isinstance(event, AllocEvent):
            omc.on_alloc(event.address, event.size, event.site, event.type_name, event.time)
        elif isinstance(event, FreeEvent):
            omc.on_free(event.address, event.time)


def translate_trace_list(
    trace: Trace, omc: Optional[ObjectManager] = None
) -> List[ObjectRelativeAccess]:
    """Eager variant of :func:`translate_trace`."""
    return list(translate_trace(trace, omc))


class OnlineCDC:
    """Probe sink translating accesses on the fly.

    ``consumer`` receives each :class:`ObjectRelativeAccess` as it is
    produced -- typically a profiler's SCC.  The CDC owns the global
    time-stamp counter, incremented after every collected access, per
    Section 2.2.
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
