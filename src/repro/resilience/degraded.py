"""Degraded-mode profiling: quarantine instead of crash.

DJXPerf's lesson for object-centric profilers is that imperfect
attribution is a fact of life -- the profiler must keep producing a
usable (smaller) profile rather than abort.  Here that means any tuple
the compressors cannot be trusted with -- malformed fields from a
corrupted event, or a wild access that resolves to no live object --
is diverted into a bounded sidecar stream, and the resulting profile
carries a *capture-completeness* ratio so consumers know exactly how
much of the run they are looking at.

The sidecar is bounded on purpose: a stream that is 90% garbage must
not re-inflate the memory the compressors were built to avoid.  Past
the record cap only the counts keep growing.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.tuples import ObjectRelativeAccess

#: default cap on retained quarantine records (counters keep counting
#: past it; the records themselves stop accumulating)
DEFAULT_QUARANTINE_LIMIT = 1024


class Quarantine:
    """Bounded sidecar for tuples excluded from a degraded profile.

    >>> quarantine = Quarantine(limit=2)
    >>> for i in range(5):
    ...     quarantine.add("bad-size", ("record", i))
    >>> quarantine.total, len(quarantine.records), quarantine.dropped
    (5, 2, 3)
    """

    #: cap on ``quarantine`` records one instance will emit to a
    #: TRACELINK sink -- the quarantine itself is unbounded in count,
    #: but the event ring must not be
    EVENT_CAP = 32

    def __init__(self, limit: int = DEFAULT_QUARANTINE_LIMIT) -> None:
        if limit < 0:
            raise ValueError("quarantine limit must be >= 0")
        self.limit = limit
        self.records: List[Tuple[str, object]] = []
        self.reasons: Dict[str, int] = {}
        self.total = 0
        #: optional TRACELINK event sink (duck-typed ``emit``)
        self.events = None
        self._events_emitted = 0
        # pipeline stages on several threads feed one quarantine; the
        # lock keeps total/reasons/records advancing together
        self._lock = threading.Lock()

    def add(self, reason: str, record: object) -> None:
        with self._lock:
            self.total += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            if len(self.records) < self.limit:
                self.records.append((reason, record))
            emit_now = (
                self.events is not None
                and self._events_emitted < self.EVENT_CAP
            )
            if emit_now:
                self._events_emitted += 1
            total = self.total
        if emit_now:
            # emit outside the lock: the sink does its own locking and
            # may flush to disk
            from repro.obs.context import current

            context = current()
            self.events.emit(
                "quarantine",
                trace=context.trace_id if context is not None else None,
                span=context.span_id if context is not None else None,
                reason=reason,
                total=total,
            )

    @property
    def dropped(self) -> int:
        """Quarantined tuples beyond the record cap (counted only)."""
        with self._lock:
            return self.total - len(self.records)

    def __len__(self) -> int:
        with self._lock:
            return self.total

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Quarantine({self.total} quarantined, "
                f"{len(self.records)} retained, reasons={self.reasons})"
            )


def quarantine_stream(
    accesses: Iterable[ObjectRelativeAccess],
    quarantine: Quarantine,
    include_wild: bool = True,
) -> Iterator[ObjectRelativeAccess]:
    """Yield only the well-formed accesses; divert the rest.

    Malformed tuples (non-integer or negative fields a corrupted event
    produces) always quarantine.  Wild accesses -- well-formed but
    resolving to no live object -- quarantine too by default, because
    in degraded mode their raw addresses are exactly the untrustworthy
    part of the stream; pass ``include_wild=False`` to keep the
    lossless behaviour for them.
    """
    for access in accesses:
        reason = access.malformation()
        if reason is None and include_wild and access.wild:
            reason = "wild"
        if reason is None:
            yield access
        else:
            quarantine.add(reason, access)
