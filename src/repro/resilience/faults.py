"""Deterministic, seed-driven fault injection.

The fault harness exists to *drill* the pipeline: every failure mode
the resilience layer claims to survive (corrupted probe events, killed
or stalled worker processes, bit-flipped profile files) can be provoked on
schedule, from tests or from ``repro-experiments --inject-faults SPEC``,
and the same seed always provokes the same faults -- including across
separate CLI invocations, which is what makes the interrupt-and-resume
drill reproducible.

Fault spec grammar (clauses joined with ``;``)::

    seed=INT              RNG seed for the probabilistic clauses (default 0)
    drop-events=PROB      drop each access event with probability PROB
    corrupt-events=PROB   corrupt each access event with probability PROB
    kill-task=I[,J,...]   kill (os._exit) the worker running task index I
                          on its first attempt
    stall-task=I:SECS     sleep SECS inside the worker on every attempt
                          of task index I
    flip-profile=N        flip N bits when corrupt_bytes() is applied
    timeout=SECS          per-task worker deadline for the executor
    retries=N             executor retry cap (per task)
    backoff=SECS          executor base backoff between retries
    abort-after=N         simulated interrupt: stop the experiments
                          runner after N newly completed experiments

Probabilistic decisions use a splitmix64 hash of (seed, tag, index)
rather than a stateful RNG, so they are position-deterministic: whether
access #1234 is dropped does not depend on how many other streams were
corrupted first, or in which process the decision is taken.

Kill faults must fire at most once per task or the retry machinery
could never win; at-most-once across *processes* (the worker that kills
itself cannot remember having done so) is implemented with a ledger
directory: ``O_CREAT | O_EXCL`` file creation is the cross-process
test-and-set.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core.events import AccessEvent, Trace

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One round of splitmix64: a fast, well-mixed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _mix(seed: int, tag: str, index: int) -> int:
    """Deterministic 64-bit hash of (seed, clause tag, event index).

    ``zlib.crc32`` keys the tag because the builtin ``hash`` of strings
    is salted per process -- decisions must agree between a run and its
    resumed continuation.
    """
    tag_key = zlib.crc32(tag.encode("utf-8"))
    return _splitmix64((seed & _MASK64) ^ (tag_key << 32) ^ (index & _MASK64))


def _chance(seed: int, tag: str, index: int, probability: float) -> bool:
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return _mix(seed, tag, index) / float(1 << 64) < probability


@dataclasses.dataclass
class FaultPlan:
    """A parsed fault spec: what to break, where, and how hard."""

    seed: int = 0
    drop_events: float = 0.0
    corrupt_events: float = 0.0
    kill_tasks: Tuple[int, ...] = ()
    stall_tasks: Dict[int, float] = dataclasses.field(default_factory=dict)
    flip_profile: int = 0
    timeout: Optional[float] = None
    retries: Optional[int] = None
    backoff: Optional[float] = None
    abort_after: Optional[int] = None

    def any_event_faults(self) -> bool:
        """Whether the plan touches the probe event stream."""
        return self.drop_events > 0.0 or self.corrupt_events > 0.0

    def any_process_faults(self) -> bool:
        """Whether the plan kills or stalls forked workers."""
        return bool(self.kill_tasks) or bool(self.stall_tasks)


_GRAMMAR_HINT = (
    "fault spec clauses: seed=INT, drop-events=PROB, corrupt-events=PROB, "
    "kill-task=I[,J,...], stall-task=I:SECS, flip-profile=N, timeout=SECS, "
    "retries=N, backoff=SECS, abort-after=N (joined with ';')"
)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the ``--inject-faults`` clause grammar into a plan.

    >>> plan = parse_fault_spec("seed=7;corrupt-events=0.01;kill-task=2")
    >>> plan.seed, plan.corrupt_events, plan.kill_tasks
    (7, 0.01, (2,))
    """
    plan = FaultPlan()
    kills: List[int] = []
    for raw_clause in spec.split(";"):
        clause = raw_clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"bad fault clause {clause!r}; {_GRAMMAR_HINT}")
        key, __, value = clause.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "seed":
                plan.seed = int(value)
            elif key == "drop-events":
                plan.drop_events = _probability(value)
            elif key == "corrupt-events":
                plan.corrupt_events = _probability(value)
            elif key == "kill-task":
                kills.extend(int(part) for part in value.split(","))
            elif key == "stall-task":
                index_text, __, seconds_text = value.partition(":")
                if not seconds_text:
                    raise ValueError("stall-task needs INDEX:SECONDS")
                plan.stall_tasks[int(index_text)] = float(seconds_text)
            elif key == "flip-profile":
                plan.flip_profile = int(value)
            elif key == "timeout":
                plan.timeout = float(value)
            elif key == "retries":
                plan.retries = int(value)
            elif key == "backoff":
                plan.backoff = float(value)
            elif key == "abort-after":
                plan.abort_after = int(value)
            else:
                raise ValueError(f"unknown fault clause key {key!r}")
        except ValueError as exc:
            raise ValueError(
                f"bad fault clause {clause!r}: {exc}; {_GRAMMAR_HINT}"
            ) from None
    plan.kill_tasks = tuple(kills)
    return plan


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically.

    Picklable (the plan is plain data and the ledger is a path), so it
    can cross to worker processes.  Event-level counters
    (``dropped`` / ``corrupted``) are per-process: a worker counts the
    faults it applied, the parent counts its own.
    """

    #: cap on ``fault`` records one injector will emit -- a high
    #: corrupt-events probability over a long trace must not flood the
    #: event ring with millions of identical records
    EVENT_CAP = 32

    def __init__(
        self, plan: FaultPlan, ledger_dir: Optional[str] = None
    ) -> None:
        self.plan = plan
        if ledger_dir is None and plan.any_process_faults():
            ledger_dir = tempfile.mkdtemp(prefix="repro-fault-ledger-")
        self.ledger_dir = ledger_dir
        self.dropped = 0
        self.corrupted = 0
        #: optional TRACELINK event sink (duck-typed ``emit``); set by
        #: the owning CLI, never pickled to workers
        self.events = None
        self._events_emitted = 0

    def __getstate__(self):
        # The sink holds a lock (and possibly a file); workers get the
        # schedule, not the parent's log.
        state = dict(self.__dict__)
        state["events"] = None
        return state

    def _emit(self, fault: str, **fields) -> None:
        """One capped ``fault`` record, tagged with the ambient trace."""
        events = self.events
        if events is None or self._events_emitted >= self.EVENT_CAP:
            return
        self._events_emitted += 1
        from repro.obs.context import current

        context = current()
        events.emit(
            "fault",
            trace=context.trace_id if context is not None else None,
            span=context.span_id if context is not None else None,
            fault=fault,
            **fields,
        )

    # -- at-most-once coordination ------------------------------------

    def fire_once(self, label: str) -> bool:
        """Cross-process test-and-set: True for exactly one caller.

        The first process to create the ledger file wins; every other
        attempt (same process or not, same run or a resumed one when
        the ledger lives under the checkpoint directory) sees the file
        and stands down.
        """
        if self.ledger_dir is None:
            return True
        os.makedirs(self.ledger_dir, exist_ok=True)
        path = os.path.join(self.ledger_dir, label)
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    # -- process faults (consulted by the executor's workers) ---------

    def should_kill(self, task_index: int) -> bool:
        """Whether the worker running ``task_index`` should die *now*
        (first attempt only, enforced through the ledger)."""
        if task_index not in self.plan.kill_tasks:
            return False
        return self.fire_once(f"kill-task-{task_index}")

    def stall_seconds(self, task_index: int) -> float:
        """Seconds the worker should sleep before running the task."""
        return self.plan.stall_tasks.get(task_index, 0.0)

    # -- event faults -------------------------------------------------

    def drops_event(self, index: int) -> bool:
        return _chance(self.plan.seed, "drop-events", index, self.plan.drop_events)

    def corrupts_event(self, index: int) -> bool:
        return _chance(
            self.plan.seed, "corrupt-events", index, self.plan.corrupt_events
        )

    def corrupt_access(self, event: AccessEvent, index: int) -> AccessEvent:
        """Deterministically damage one access event.

        Three rotating corruption modes model the real-world failure
        classes the degraded pipeline must absorb: a flipped address
        bit (usually lands outside any live object -> wild access), a
        negative size, and a negative instruction id (both malformed,
        destined for the quarantine).
        """
        mode = _mix(self.plan.seed, "corrupt-mode", index) % 3
        if mode == 0:
            bit = _mix(self.plan.seed, "corrupt-bit", index) % 48
            return dataclasses.replace(event, address=event.address ^ (1 << bit))
        if mode == 1:
            return dataclasses.replace(event, size=-1)
        return dataclasses.replace(
            event, instruction_id=-(event.instruction_id + 1)
        )

    def corrupt_trace(self, trace: Trace) -> Trace:
        """A damaged copy of ``trace``: access events dropped/corrupted
        per the plan, object events untouched.  The original trace is
        never modified."""
        if not self.plan.any_event_faults():
            return trace
        events = []
        index = 0
        for event in trace:
            if isinstance(event, AccessEvent):
                if self.drops_event(index):
                    self.dropped += 1
                    self._emit("drop-event", index=index)
                elif self.corrupts_event(index):
                    self.corrupted += 1
                    self._emit("corrupt-event", index=index)
                    events.append(self.corrupt_access(event, index))
                else:
                    events.append(event)
                index += 1
            else:
                events.append(event)
        return Trace.from_events(events)

    def wrap_sink(self, sink):
        """Interpose on a live probe sink: the online analogue of
        :meth:`corrupt_trace`.  Returns a
        :class:`~repro.runtime.probes.FilteredSink` applying the plan's
        drop/corrupt clauses to each ``on_access`` firing."""
        from repro.runtime.probes import FilteredSink

        state = {"index": 0}

        def access_filter(instruction_id, address, size, kind):
            index = state["index"]
            state["index"] = index + 1
            if self.drops_event(index):
                self.dropped += 1
                self._emit("drop-event", index=index)
                return None
            if self.corrupts_event(index):
                self.corrupted += 1
                self._emit("corrupt-event", index=index)
                fake = AccessEvent(instruction_id, address, size, kind, 0)
                damaged = self.corrupt_access(fake, index)
                return (
                    damaged.instruction_id,
                    damaged.address,
                    damaged.size,
                    damaged.kind,
                )
            return instruction_id, address, size, kind

        return FilteredSink(sink, access_filter)

    # -- serialized-artifact faults -----------------------------------

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Flip ``flip-profile`` bits of ``data`` at hash-chosen
        positions (used to fuzz profile files)."""
        if self.plan.flip_profile <= 0 or not data:
            return data
        damaged = bytearray(data)
        for flip in range(self.plan.flip_profile):
            position = _mix(self.plan.seed, "flip-byte", flip) % len(damaged)
            bit = _mix(self.plan.seed, "flip-bit", flip) % 8
            damaged[position] ^= 1 << bit
        self._emit(
            "flip-profile", flips=self.plan.flip_profile, bytes=len(data)
        )
        return bytes(damaged)

    # -- bookkeeping --------------------------------------------------

    def activity(self) -> Dict[str, int]:
        """Faults this process actually applied so far."""
        return {"dropped": self.dropped, "corrupted": self.corrupted}
