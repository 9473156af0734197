"""The simulated instrumented process.

:class:`Process` is the stand-in for the paper's profiled SPEC binaries.
A workload drives it through the same surface a C program presents to an
instrumenting profiler:

* static objects declared up front and laid out by the :class:`Linker`;
* ``malloc``/``free`` backed by a real allocator policy;
* ``load``/``store`` calls naming a static instruction, which fire the
  adjacent instruction probe.

Everything observable by a profiler flows through the
:class:`~repro.runtime.probes.ProbeBus`, so the process itself knows
nothing about object-relativity -- exactly the separation the paper's
framework (Figure 4) draws between the target program and the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.events import AccessKind, AllocEvent, Trace
from repro.obs.spans import Telemetry
from repro.runtime.allocator import Allocator, make_allocator
from repro.runtime.linker import Linker, StaticObject, Symbol, SymbolTable
from repro.runtime.memory import AddressSpace, MemoryError_
from repro.runtime.probes import ProbeBus, TraceRecorder

#: Allocation-site prefix used for static objects; the OMC treats each
#: static symbol as its own group, as WHOMP derives groups of statics
#: from the exported symbol table.
STATIC_SITE_PREFIX = "static:"


@dataclass(frozen=True)
class Instruction:
    """A static load or store instruction of the simulated program.

    The ``name`` is the human-readable program point (``"walk.next"``);
    the ``instruction_id`` is the dense integer the probes report, like a
    PC.  Profilers only ever see the id.
    """

    instruction_id: int
    name: str
    kind: AccessKind


class Process:
    """One simulated process run.

    Parameters mirror the artifact knobs described in DESIGN.md:

    ``allocator``
        Heap policy name (``bump``, ``first-fit``, ``best-fit``,
        ``segregated``).  Different policies scramble raw heap addresses
        differently while leaving program behaviour identical.
    ``probe_padding``
        Extra code-segment bytes from probe insertion; shifts all static
        data.
    ``os_offset``
        Page-aligned base offset, standing in for OS address-space
        randomization.
    ``record_trace``
        When true (default) a :class:`TraceRecorder` is attached so the
        run yields a :class:`Trace`.  When false the process runs
        uninstrumented -- the "native" baseline for dilation timing.
    ``telemetry``
        The :class:`~repro.obs.spans.Telemetry` to record into (a fresh
        one when omitted); :meth:`finish` publishes the probe firings
        and the trace's footprint there, read off the recorded trace
        (so a run without ``record_trace`` publishes nothing).
    """

    def __init__(
        self,
        allocator: str = "first-fit",
        probe_padding: int = 0,
        os_offset: int = 0,
        record_trace: bool = True,
        heap_size: int = 1 << 30,
        telemetry=None,
    ) -> None:
        self.space = AddressSpace(heap_size=heap_size, os_offset=os_offset)
        self.linker = Linker(self.space, probe_padding=probe_padding)
        self.heap: Allocator = make_allocator(allocator, self.space.heap)
        self.bus = ProbeBus()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._recorder: Optional[TraceRecorder] = None
        if record_trace:
            self._recorder = TraceRecorder(Trace())
            self.bus.attach(self._recorder)
        self._instructions: Dict[str, Instruction] = {}
        self._static_types: Dict[str, Optional[str]] = {}
        self._untracked: set = set()
        self._linked = False
        self._finished = False

    # -- static data ----------------------------------------------------

    def declare_static(
        self, name: str, size: int, align: int = 8, type_name: Optional[str] = None
    ) -> None:
        """Declare a global object; call before :meth:`link`."""
        self.linker.declare(StaticObject(name, size, align))
        self._static_types[name] = type_name

    def link(self) -> SymbolTable:
        """Lay out static data and fire creation probes for every static
        object ("at the beginning ... of the program for all statically
        allocated objects", Section 3.1)."""
        if self._linked:
            return self.linker.symbol_table
        table = self.linker.link()
        self._linked = True
        for symbol in table:
            self.bus.fire_alloc(
                symbol.address,
                symbol.size,
                STATIC_SITE_PREFIX + symbol.name,
                self._static_types.get(symbol.name),
            )
        return table

    def static(self, name: str) -> Symbol:
        """Resolve a declared static object (links lazily)."""
        if not self._linked:
            self.link()
        return self.linker.symbol_table[name]

    # -- instructions -----------------------------------------------------

    def instruction(self, name: str, kind: AccessKind) -> Instruction:
        """Intern a static instruction by name.

        Repeated calls with the same name return the same instruction;
        re-interning with a different kind is a workload bug.
        """
        existing = self._instructions.get(name)
        if existing is not None:
            if existing.kind is not kind:
                raise ValueError(
                    f"instruction {name!r} re-declared as {kind} "
                    f"(was {existing.kind})"
                )
            return existing
        instruction = Instruction(len(self._instructions), name, kind)
        self._instructions[name] = instruction
        return instruction

    @property
    def instructions(self) -> Dict[str, Instruction]:
        return dict(self._instructions)

    # -- heap ------------------------------------------------------------

    def malloc(
        self,
        site: str,
        size: int,
        type_name: Optional[str] = None,
        track: bool = True,
    ) -> int:
        """Allocate heap memory from the named static allocation site.

        ``track=False`` suppresses the object probe: the block exists
        but the profiler never learns of it.  This is half of the
        paper's footnote-2 parameterization for custom allocation
        pools -- the pool buffer itself goes untracked, and the
        program's carve/release points fire :meth:`mark_object` /
        :meth:`unmark_object` instead ("manually target the custom
        alloc/dealloc functions rather than the standard malloc/free").
        """
        if not self._linked:
            self.link()
        address = self.heap.malloc(size)
        if track:
            self.bus.fire_alloc(address, size, site, type_name)
        else:
            self._untracked.add(address)
        return address

    def free(self, address: int) -> None:
        self.heap.free(address)
        if address in self._untracked:
            self._untracked.discard(address)
        else:
            self.bus.fire_free(address)

    # -- custom allocation pools (footnote 2) --------------------------------

    def mark_object(
        self, address: int, size: int, site: str, type_name: Optional[str] = None
    ) -> None:
        """Fire an object-creation probe for a custom-pool carve.

        The range must lie inside memory the process owns (typically an
        untracked pool block); the OMC will treat it as a first-class
        object with its own group/serial identity.
        """
        self.space.check_access(address, size)
        self.bus.fire_alloc(address, size, site, type_name)

    def unmark_object(self, address: int) -> None:
        """Fire an object-destruction probe for a custom-pool release."""
        self.bus.fire_free(address)

    # -- accesses ----------------------------------------------------------

    def load(self, instruction: Instruction, address: int, size: int = 8) -> None:
        """Execute a load; fires the adjacent instruction probe."""
        if instruction.kind is not AccessKind.LOAD:
            raise MemoryError_(f"{instruction.name} is not a load")
        self.space.check_access(address, size)
        self.bus.fire_access(instruction.instruction_id, address, size, AccessKind.LOAD)

    def store(self, instruction: Instruction, address: int, size: int = 8) -> None:
        """Execute a store; fires the adjacent instruction probe."""
        if instruction.kind is not AccessKind.STORE:
            raise MemoryError_(f"{instruction.name} is not a store")
        self.space.check_access(address, size)
        self.bus.fire_access(
            instruction.instruction_id, address, size, AccessKind.STORE
        )

    # -- lifecycle ----------------------------------------------------------

    def finish(self) -> None:
        """End the run: fire destruction probes for statics (the paper
        places static object probes at program begin *and end*), then
        publish the run's probe and trace metrics."""
        if self._finished:
            return
        self._finished = True
        if self._linked:
            for symbol in self.linker.symbol_table:
                self.bus.fire_free(symbol.address)
        if self._recorder is not None:
            _publish_trace_metrics(self._recorder.trace, self.telemetry)

    @property
    def trace(self) -> Trace:
        """The recorded trace (only when ``record_trace=True``)."""
        if self._recorder is None:
            raise MemoryError_("process was run without trace recording")
        return self._recorder.trace

    def instruction_name(self, instruction_id: int) -> str:
        """Reverse-map an instruction id to its program-point name."""
        for instruction in self._instructions.values():
            if instruction.instruction_id == instruction_id:
                return instruction.name
        raise KeyError(instruction_id)


def _publish_trace_metrics(trace: Trace, telemetry) -> None:
    """Publish ``probe.*`` and ``trace.*`` for a finished run.

    The recorder saw every probe firing, so the trace's events are the
    firings; one pass over its object events replays the live-footprint
    gauges.  Counters and gauges continue from earlier runs that shared
    ``telemetry``.
    """
    sizes: Dict[int, int] = {}
    allocs = frees = allocated = 0
    live_gauge = telemetry.gauge("trace.live_bytes", "currently allocated object bytes")
    live = peak = live_gauge.value
    histogram = telemetry.histogram(
        "trace.alloc_size_bytes",
        "allocation size distribution",
        min_value=1.0,
        max_value=float(1 << 32),
    )
    for event in trace.object_events():
        if isinstance(event, AllocEvent):
            allocs += 1
            allocated += event.size
            sizes[event.address] = event.size
            histogram.observe(event.size)
            live += event.size
            peak = max(peak, live)
        else:
            frees += 1
            live -= sizes.pop(event.address, 0)
    accesses = trace.access_count
    telemetry.counter(
        "probe.accesses", "load/store instruction probes fired"
    ).inc(accesses)
    telemetry.counter("probe.allocs", "object creation probes fired").inc(allocs)
    telemetry.counter("probe.frees", "object destruction probes fired").inc(frees)
    telemetry.counter("trace.accesses", "access events recorded").inc(accesses)
    telemetry.counter(
        "trace.allocated_bytes_total", "cumulative allocated bytes"
    ).inc(allocated)
    live_gauge.set(live)
    telemetry.gauge(
        "trace.peak_live_bytes", "peak allocated object bytes"
    ).set_max(peak)
