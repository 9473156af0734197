"""Instrumentation probes.

Section 2.3 of the paper: "The program is instrumented by inserting
instruction and object probes into the target program.  The instruction
probes are inserted next to every load and store instruction...  Object
probes are introduced at object creation and destruction points."

Here instrumentation is a bus between the simulated process and any
number of probe sinks.  A sink is anything implementing the three
``on_*`` callbacks: a :class:`TraceRecorder` for offline profiling, or a
profiler's online session, which buffers firings into chunks and
translates each chunk as offline profiling would (the paper's decoupled
thread-to-thread communication, minus the threads).
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from repro.core.events import AccessKind, Trace


class ProbeSink(Protocol):
    """The consumer side of the probe bus."""

    def on_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        """Called by an instruction probe for every executed load/store."""

    def on_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        """Called by an object probe at object creation."""

    def on_free(self, address: int) -> None:
        """Called by an object probe at object destruction."""


class ProbeBus:
    """Fans probe firings out to every attached sink.

    With no sinks attached the bus models the *uninstrumented* program:
    :meth:`fire_access` degenerates to a cheap no-op, which is what the
    dilation-factor measurements of Table 1 compare against.
    """

    def __init__(self) -> None:
        self._sinks: List[ProbeSink] = []

    def attach(self, sink: ProbeSink) -> None:
        self._sinks.append(sink)

    def detach(self, sink: ProbeSink) -> None:
        """Detach a sink; detaching one that is not attached is a no-op
        (profiler sessions may be finished more than once)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @property
    def instrumented(self) -> bool:
        return bool(self._sinks)

    def fire_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        for sink in self._sinks:
            sink.on_access(instruction_id, address, size, kind)

    def fire_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        for sink in self._sinks:
            sink.on_alloc(address, size, site, type_name)

    def fire_free(self, address: int) -> None:
        for sink in self._sinks:
            sink.on_free(address)


class FilteredSink:
    """A sink interposer: every access firing passes through a filter
    before reaching the wrapped sink.

    The filter receives ``(instruction_id, address, size, kind)`` and
    returns either a (possibly rewritten) 4-tuple to forward or
    ``None`` to drop the firing.  Object events forward untouched.
    This is the seam the fault harness uses to damage a live event
    stream (:meth:`repro.resilience.faults.FaultInjector.wrap_sink`)
    without the bus or the profilers knowing.
    """

    def __init__(self, sink: ProbeSink, access_filter) -> None:
        self._sink = sink
        self._filter = access_filter

    def on_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        record = self._filter(instruction_id, address, size, kind)
        if record is not None:
            self._sink.on_access(*record)

    def on_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        self._sink.on_alloc(address, size, site, type_name)

    def on_free(self, address: int) -> None:
        self._sink.on_free(address)


class TraceRecorder:
    """Probe sink that appends every firing to a :class:`Trace`.

    This is the offline-profiling path: record once, then feed the same
    trace to WHOMP, LEAP, and every baseline.
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def on_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        self.trace.record_access(instruction_id, address, size, kind)

    def on_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        self.trace.record_alloc(address, size, site, type_name)

    def on_free(self, address: int) -> None:
        self.trace.record_free(address)
