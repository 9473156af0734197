"""The fork-per-task executor behind every ``--jobs N`` flag.

* **Serial fallback.**  ``jobs <= 1``, a platform without ``fork``, or
  fewer than two tasks run inline in the calling process -- same
  results, no fork, no pickling.  (``spawn`` would re-import the world
  per worker and make every argument cross a pipe.)
* **One forked process per task**, at most ``effective_jobs(n)`` alive
  at once.  Each worker ignores ``SIGINT`` (a Ctrl-C lands only in the
  parent, which kills every live worker and re-raises
  :class:`KeyboardInterrupt`) and sends its one result back over its
  own one-way pipe.  A task that raises reports its traceback text as
  data; the parent wraps it in a :class:`WorkerCrashError`.  Such
  exceptions are deterministic and are never retried.
* **Death, deadline, retry.**  A worker that *dies* (segfault,
  OOM-kill, an injected ``os._exit``) closes its pipe without a result,
  and the parent sees the end-of-file at once -- no deadline is needed
  to notice it.  A worker past the optional ``timeout`` is killed and
  handled the same way.  Only the lost task is resubmitted, with
  exponential backoff, up to ``retries`` times; then it runs inline in
  the parent, so a sick worker degrades the run instead of failing it.
  Telemetry counts ``resilience.retries``, ``resilience.timeouts`` and
  ``resilience.fallbacks``.

Results are always returned in task order, so parallel runs are
deterministic whenever the worker function is.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.context import TraceContext, activate, current, current_header
from repro.obs.spans import Telemetry

#: default retry cap per task (attempts = retries + 1)
DEFAULT_RETRIES = 2

#: default base backoff seconds between task retries (doubles per retry)
DEFAULT_BACKOFF = 0.05


class WorkerCrashError(RuntimeError):
    """A task function raised, in a worker or inline.

    Carries the failure's context across the process boundary: the
    worker traceback text and the index of the task that raised.
    """

    def __init__(
        self,
        message: str,
        worker_traceback: str = "",
        task_index: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.task_index = task_index

    def __reduce__(self):
        # RuntimeError's default pickling would drop every keyword
        # attribute; the context must survive crossing a process boundary.
        message = self.args[0] if self.args else ""
        return (type(self), (message, self.worker_traceback, self.task_index))


class TaskOutcome:
    """One task's fate under :meth:`ParallelExecutor.map_outcomes`.

    ``value`` is the task's result (``None`` on failure), ``error`` the
    contained :class:`WorkerCrashError` if the task function raised,
    ``attempts`` how many workers the task was started in, and
    ``fallback`` whether it ended up running inline in the parent after
    its retries ran out.
    """

    __slots__ = ("value", "error", "attempts", "fallback")

    def __init__(
        self,
        value: Any = None,
        error: Optional[WorkerCrashError] = None,
        attempts: int = 1,
        fallback: bool = False,
    ) -> None:
        self.value = value
        self.error = error
        self.attempts = attempts
        self.fallback = fallback

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"error={self.error}"
        return (
            f"TaskOutcome({state}, attempts={self.attempts}, "
            f"fallback={self.fallback})"
        )


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` and negatives mean
    "use all CPUs"; positive values pass through; platforms without
    ``fork`` always resolve to 1 (the serial fallback)."""
    if not fork_available():
        return 1
    if jobs is None or jobs <= 0:
        return multiprocessing.cpu_count()
    return jobs


def _attempt(function: Callable[[Any], Any], task: Any) -> Tuple[bool, Any]:
    """Run one task with its exception turned into data, so one bad
    task does not void its neighbours' results: ``(True, value)`` or
    ``(False, (type name, message, traceback text))``.  An interrupt is
    not the task's failure; it propagates."""
    try:
        return True, function(task)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - report, don't unwind
        return False, (type(exc).__name__, str(exc), traceback.format_exc())


def _worker(writer, function, task, index, injector, trace_header) -> None:
    """Body of one forked worker: run one task, send its entry, exit.

    The fault injector's stall/kill schedule applies here only, never
    inline.  The task runs under a *child* of the submitter's trace
    context (``trace_header``), so its span trees, event records and
    outbound HTTP carry the parent's trace id.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    if injector is not None:
        stall = injector.stall_seconds(index)
        if stall > 0.0:
            time.sleep(stall)
        if injector.should_kill(index):
            os._exit(13)
    parent_context = TraceContext.from_header(trace_header)
    with contextlib.ExitStack() as scope:
        if parent_context is not None:
            scope.enter_context(activate(parent_context.child()))
        entry = _attempt(function, task)
    writer.send(entry)
    writer.close()


def _kill(reader, process) -> None:
    """Stop a live worker and close its pipe."""
    process.kill()
    process.join()
    reader.close()


class ParallelExecutor:
    """Map a function over tasks with up to ``jobs`` forked workers.

    >>> executor = ParallelExecutor(jobs=1)
    >>> [outcome.value for outcome in executor.map_outcomes(abs, [-2, 3, -4])]
    [2, 3, 4]
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        telemetry: Optional[Telemetry] = None,
        retries: int = DEFAULT_RETRIES,
        timeout: Optional[float] = None,
        backoff: float = DEFAULT_BACKOFF,
        fault_injector=None,
    ) -> None:
        self.jobs = resolve_jobs(jobs if jobs is not None else 1)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fault_injector = fault_injector
        if fault_injector is not None:
            plan = fault_injector.plan
            if plan.retries is not None:
                retries = plan.retries
            if plan.timeout is not None:
                timeout = plan.timeout
            if plan.backoff is not None:
                backoff = plan.backoff
        self.retries = max(0, retries)
        self.timeout = timeout
        self.backoff = max(0.0, backoff)

    def effective_jobs(self, task_count: int) -> int:
        """Workers actually used for ``task_count`` tasks."""
        return max(1, min(self.jobs, task_count))

    def map_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: Sequence[Any],
        label: str = "parallel-map",
        progress: Optional[Callable[[int, TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Apply ``function`` to every task; one :class:`TaskOutcome`
        per task, in task order.

        Runs inline when only one worker would be used (single job,
        single task, or no ``fork``).  A task function that raises
        produces an outcome carrying the contextualized
        :class:`WorkerCrashError` while its neighbours keep their
        results.  ``progress`` (if given) is called in the parent as
        ``progress(task_index, outcome)``, in task order, as outcomes
        arrive -- the runner checkpoints each result there the moment it
        exists.  An exception from ``progress`` kills every live worker
        and propagates.
        """
        tasks = list(tasks)
        workers = self.effective_jobs(len(tasks)) if fork_available() else 1
        with self.telemetry.span(label) as span:
            if workers > 1:
                outcomes = self._forked_outcomes(
                    function, tasks, workers, label, progress
                )
            else:
                outcomes = []
                for index, task in enumerate(tasks):
                    outcomes.append(
                        self._outcome(_attempt(function, task), index, label)
                    )
                    if progress is not None:
                        progress(index, outcomes[-1])
            span.add_items(len(tasks), "tasks")
        return outcomes

    def _outcome(self, entry, index, label, attempts=1, fallback=False):
        """The :class:`TaskOutcome` of one :func:`_attempt` entry."""
        ok, value = entry
        if ok:
            return TaskOutcome(value=value, attempts=attempts, fallback=fallback)
        name, message, worker_tb = value
        self.telemetry.counter(
            "parallel.worker_errors_total", "tasks that raised"
        ).inc()
        error = WorkerCrashError(
            f"{label}: task {index} raised {name}: {message}",
            worker_traceback=worker_tb,
            task_index=index,
        )
        return TaskOutcome(error=error, attempts=attempts, fallback=fallback)

    def _forked_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: List[Any],
        workers: int,
        label: str,
        progress: Optional[Callable[[int, TaskOutcome], None]],
    ) -> List[TaskOutcome]:
        context = multiprocessing.get_context("fork")
        telemetry = self.telemetry
        telemetry.counter("parallel.pools_total", "forked fan-outs started").inc()
        telemetry.gauge(
            "parallel.jobs", "live-worker cap in the last fan-out"
        ).set(workers)
        # Captured once, so a resubmitted task runs under the same trace.
        trace_header = current_header()
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        queue = list(reversed(range(len(tasks))))  # pop() takes the lowest
        limit = math.inf if self.timeout is None else self.timeout
        # reader -> (task index, worker process, monotonic deadline)
        live: Dict[Any, Tuple[int, Any, float]] = {}
        reported = 0
        try:
            while queue or live:
                while queue and len(live) < workers:
                    index = queue.pop()
                    attempts[index] += 1
                    reader, writer = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_worker,
                        args=(writer, function, tasks[index], index,
                              self.fault_injector, trace_header),
                        daemon=True,
                    )
                    process.start()
                    # Only the worker may hold the write end, so its
                    # death is end-of-file here.
                    writer.close()
                    live[reader] = (index, process, time.monotonic() + limit)
                # until a worker reports or dies, or the nearest deadline
                nearest = min(deadline for __, ___, deadline in live.values())
                block = max(0.0, nearest - time.monotonic())
                lost = []
                for reader in wait(list(live), block if block < math.inf else None):
                    index, process, __ = live.pop(reader)
                    try:
                        entry = reader.recv()
                    except (EOFError, OSError):  # no result: it died
                        entry = None
                    reader.close()
                    process.join()
                    if entry is None:
                        lost.append((index, "worker-crash", {}))
                    else:
                        outcomes[index] = self._outcome(
                            entry, index, label, attempts[index]
                        )
                now = time.monotonic()
                for reader, (index, process, deadline) in list(live.items()):
                    if deadline <= now:
                        del live[reader]
                        _kill(reader, process)
                        telemetry.counter(
                            "resilience.timeouts", "workers killed at their deadline"
                        ).inc()
                        fields = {"timeout_seconds": self.timeout}
                        lost.append((index, "timeout", fields))
                for index, kind, fields in lost:
                    attempt = attempts[index]
                    # Event logs are a persisted format: ``chunk`` keeps
                    # its name and carries the task index.
                    self._emit_event(
                        kind, label=label, chunk=index, attempt=attempt, **fields
                    )
                    if attempt > self.retries:
                        outcomes[index] = self._fallback(
                            function, tasks[index], index, label, attempt
                        )
                        continue
                    telemetry.counter("resilience.retries", "task resubmissions").inc()
                    self._emit_event("retry", label=label, chunk=index, attempt=attempt)
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                    queue.append(index)
                while reported < len(tasks) and outcomes[reported] is not None:
                    if progress is not None:
                        progress(reported, outcomes[reported])
                    reported += 1
        finally:
            for reader, (__, process, ___) in live.items():
                _kill(reader, process)
        telemetry.counter(
            "parallel.tasks_total", "tasks executed in forked workers"
        ).inc(len(tasks))
        return outcomes

    def _fallback(self, function, task, index, label, attempts) -> TaskOutcome:
        """Run a task whose retries ran out inline in the parent,
        without fault injection: the fallback exists to rescue work,
        not to re-break it."""
        self.telemetry.counter(
            "resilience.fallbacks", "tasks rerun inline after their retries ran out"
        ).inc()
        self._emit_event("fallback", label=label, chunk=index, attempts=attempts)
        return self._outcome(
            _attempt(function, task), index, label, attempts, fallback=True
        )

    def _emit_event(self, kind: str, **fields) -> None:
        """Emit a structured resilience event when a sink is attached."""
        events = self.telemetry.events
        if events is None:
            return
        context = current()
        events.emit(
            kind,
            trace=context.trace_id if context is not None else None,
            span=context.span_id if context is not None else None,
            **fields,
        )
