"""The process-pool executor behind every ``--jobs N`` flag.

A thin, predictable wrapper over :mod:`multiprocessing`:

* **Serial fallback.**  ``jobs <= 1``, a platform without the ``fork``
  start method, or a task list shorter than two items all run inline in
  the calling process -- same results, no pool, no pickling.  (``fork``
  is required because ``spawn`` would re-import the world per worker
  and make every argument cross a pipe.)
* **Worker bootstrap.**  Workers ignore ``SIGINT`` so a Ctrl-C lands
  only in the parent, which terminates the pool and re-raises
  :class:`KeyboardInterrupt` cleanly instead of leaking children.
* **Chunked submission.**  Tasks are submitted in contiguous chunks
  (``chunksize`` heuristic below) to amortize IPC per task.
* **Crash containment.**  A worker that raises reports the traceback
  text back to the parent, which raises :class:`WorkerCrashError`
  carrying it plus the chunk index and how many of the chunk's items
  completed; a worker that *dies* (segfault, OOM-kill, an injected
  ``os._exit``) surfaces as a timed-out chunk instead of a hung join.
* **Retry / timeout / backoff.**  Each chunk is an independently
  awaited submission with an optional ``timeout`` deadline.
  Infrastructure failures -- a lost worker, a deadline miss, broken
  pool machinery -- are retried with exponential backoff up to
  ``retries`` times, and after the cap the chunk runs inline in the
  parent (the *serial fallback*), so a sick pool degrades instead of
  failing the run.  All of it is surfaced as telemetry counters:
  ``resilience.retries``, ``resilience.timeouts``,
  ``resilience.fallbacks``.  Exceptions raised *by the task function*
  are deterministic and are never retried.

Results are always returned in task order, so parallel runs are
deterministic whenever the worker function is.  With ``timeout=None``
and no faults the added machinery is dormant: one ``apply_async`` per
chunk and an unbounded ``get``, the same traffic the plain ``pool.map``
produced.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.pool
import signal
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.context import TraceContext, activate, current, current_header
from repro.obs.spans import Telemetry, coalesce

#: default retry cap per chunk (attempts = retries + 1)
DEFAULT_RETRIES = 2

#: default base backoff seconds between chunk retries (doubles per retry)
DEFAULT_BACKOFF = 0.05

#: deadline imposed when a fault plan kills/stalls workers but names no
#: timeout -- a killed worker's chunk would otherwise hang forever
FAULTED_DEFAULT_TIMEOUT = 30.0


class WorkerCrashError(RuntimeError):
    """A pool worker raised or died.

    Carries the failure's context across the pool boundary: the worker
    traceback text, the chunk the task belonged to, and how many items
    of that chunk had already completed when the failure hit.
    """

    def __init__(
        self,
        message: str,
        worker_traceback: str = "",
        chunk_index: Optional[int] = None,
        items_processed: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.chunk_index = chunk_index
        self.items_processed = items_processed

    def __reduce__(self):
        # RuntimeError's default pickling would drop every keyword
        # attribute; the context must survive crossing a pool boundary.
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.worker_traceback,
                self.chunk_index,
                self.items_processed,
            ),
        )


class TaskOutcome:
    """One task's fate under :meth:`ParallelExecutor.map_outcomes`.

    ``value`` is the task's result (``None`` on failure), ``error`` the
    contained :class:`WorkerCrashError` if the task function raised,
    ``attempts`` how many submissions its chunk needed, and
    ``fallback`` whether its chunk ended up running inline in the
    parent after the pool gave up.
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


def _bootstrap_worker() -> None:
    """Pool initializer: leave interrupt handling to the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_chunk(payload):
    """Run one contiguous chunk of tasks inside a worker.

    Applies the fault injector's kill/stall schedule (pool workers
    only: the inline fallback path never self-injects), and traps
    per-task exceptions as data so one bad task does not void its
    chunk-mates' results.  Returns a list of
    ``(True, value) | (False, (type name, message, traceback text))``
    entries, one per task, in order.

    The payload's ``trace_header`` (the submitting process's ambient
    :class:`~repro.obs.context.TraceContext`, serialized) is
    re-activated here as a *child* context scoped to the chunk, so any
    telemetry the task functions produce -- worker span trees, event
    records, outbound HTTP -- carries the parent's trace id.
    """
    function, start_index, tasks, injector, trace_header = payload
    parent_context = TraceContext.from_header(trace_header)
    entries = []
    with contextlib.ExitStack() as scope:
        if parent_context is not None:
            scope.enter_context(activate(parent_context.child()))
        for offset, task in enumerate(tasks):
            index = start_index + offset
            if injector is not None:
                stall = injector.stall_seconds(index)
                if stall > 0.0:
                    time.sleep(stall)
                if injector.should_kill(index):
                    import os

                    os._exit(13)
            try:
                entries.append((True, function(task)))
            except BaseException as exc:  # noqa: BLE001 - report, don't unwind
                entries.append(
                    (
                        False,
                        (type(exc).__name__, str(exc), traceback.format_exc()),
                    )
                )
    return entries


class ParallelExecutor:
    """Map a picklable function over tasks with up to ``jobs`` workers.

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
        self.telemetry = coalesce(telemetry)
        self.fault_injector = fault_injector
        if fault_injector is not None:
            plan = fault_injector.plan
            if plan.retries is not None:
                retries = plan.retries
            if plan.timeout is not None:
                timeout = plan.timeout
            elif timeout is None and plan.any_process_faults():
                timeout = FAULTED_DEFAULT_TIMEOUT
            if plan.backoff is not None:
                backoff = plan.backoff
        self.retries = max(0, retries)
        self.timeout = timeout
        self.backoff = max(0.0, backoff)

    def effective_jobs(self, task_count: int) -> int:
        """Workers actually used for ``task_count`` tasks."""
        return max(1, min(self.jobs, task_count))

    @staticmethod
    def _chunksize(task_count: int, workers: int) -> int:
        """Contiguous tasks per submission: aim for ~4 chunks per worker
        so stragglers rebalance without paying IPC per task."""
        return max(1, task_count // (workers * 4))

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
        arrive -- the hook the experiments runner uses to checkpoint
        each result the moment it exists.  An exception raised by
        ``progress`` aborts the run (the pool is terminated) and
        propagates.
        """
        tasks = list(tasks)
        workers = self.effective_jobs(len(tasks)) if fork_available() else 1
        if workers <= 1:
            return self._serial_outcomes(function, tasks, label, progress)
        return self._pool_outcomes(function, tasks, workers, label, progress)

    # -- inline path ---------------------------------------------------

    def _serial_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: List[Any],
        label: str,
        progress: Optional[Callable[[int, TaskOutcome], None]],
    ) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        with self.telemetry.span(label) as span:
            for index, task in enumerate(tasks):
                try:
                    outcome = TaskOutcome(value=function(task))
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # noqa: BLE001 - contain
                    outcome = TaskOutcome(
                        error=WorkerCrashError(
                            f"{label}: task {index} raised "
                            f"{type(exc).__name__}: {exc}",
                            worker_traceback=traceback.format_exc(),
                            chunk_index=index,
                            items_processed=0,
                        )
                    )
                outcomes.append(outcome)
                if progress is not None:
                    progress(index, outcome)
            span.add_items(len(tasks), "tasks")
        return outcomes

    # -- pool path -----------------------------------------------------

    def _pool_outcomes(
        self,
        function: Callable[[Any], Any],
        tasks: List[Any],
        workers: int,
        label: str,
        progress: Optional[Callable[[int, TaskOutcome], None]],
    ) -> List[TaskOutcome]:
        context = multiprocessing.get_context("fork")
        telemetry = self.telemetry
        telemetry.counter(
            "parallel.pools_total", "process pools started"
        ).inc()
        telemetry.gauge("parallel.jobs", "workers in the last pool").set(workers)
        chunksize = self._chunksize(len(tasks), workers)
        chunks = [
            (start, tasks[start : start + chunksize])
            for start in range(0, len(tasks), chunksize)
        ]
        pool = context.Pool(processes=workers, initializer=_bootstrap_worker)
        outcomes: List[TaskOutcome] = []
        try:
            with telemetry.span(label) as span:
                handles = [
                    self._submit(pool, function, start, chunk_tasks)
                    for start, chunk_tasks in chunks
                ]
                for chunk_index, (start, chunk_tasks) in enumerate(chunks):
                    entries, attempts, fallback = self._collect_chunk(
                        pool,
                        handles,
                        chunk_index,
                        function,
                        start,
                        chunk_tasks,
                        label,
                    )
                    chunk_outcomes = self._entries_to_outcomes(
                        entries, chunk_index, start, attempts, fallback, label
                    )
                    for offset, outcome in enumerate(chunk_outcomes):
                        outcomes.append(outcome)
                        if progress is not None:
                            try:
                                progress(start + offset, outcome)
                            except BaseException:
                                pool.terminate()
                                raise
                span.add_items(len(tasks), "tasks")
            telemetry.counter(
                "parallel.tasks_total", "tasks executed in pools"
            ).inc(len(tasks))
            return outcomes
        except KeyboardInterrupt:
            pool.terminate()
            raise
        finally:
            pool.close()
            pool.terminate()
            pool.join()

    def _submit(self, pool, function, start, chunk_tasks):
        # The ambient trace context (if any) rides along as its header
        # form -- fork shares memory but re-capturing at submit time
        # keeps resubmissions of the same chunk under the same trace.
        payload = (
            function,
            start,
            chunk_tasks,
            self.fault_injector,
            current_header(),
        )
        return pool.apply_async(_run_chunk, (payload,))

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

    def _collect_chunk(
        self,
        pool,
        handles,
        chunk_index: int,
        function,
        start: int,
        chunk_tasks: List[Any],
        label: str,
    ):
        """Await one chunk, retrying infrastructure failures.

        Returns ``(entries, attempts, fallback)``.  Task-raised
        exceptions arrive *inside* ``entries`` (the worker reports them
        as data) and are deterministic, so they are never retried; what
        is retried is the chunk failing to report at all -- a deadline
        miss (``resilience.timeouts``) or broken pool machinery such as
        a worker dying mid-task.  After ``retries`` resubmissions the
        chunk runs inline in the parent (``resilience.fallbacks``),
        without fault injection: the fallback exists to rescue work,
        not to re-break it.
        """
        telemetry = self.telemetry
        attempt = 1
        while True:
            try:
                entries = handles[chunk_index].get(self.timeout)
                return entries, attempt, False
            except KeyboardInterrupt:
                raise
            except multiprocessing.TimeoutError:
                telemetry.counter(
                    "resilience.timeouts",
                    "pool chunks that missed their deadline",
                ).inc()
                self._emit_event(
                    "timeout",
                    label=label,
                    chunk=chunk_index,
                    attempt=attempt,
                    timeout_seconds=self.timeout,
                )
            except Exception:  # noqa: BLE001 - broken pool machinery
                self._emit_event(
                    "worker-crash",
                    label=label,
                    chunk=chunk_index,
                    attempt=attempt,
                )
            if attempt <= self.retries:
                telemetry.counter(
                    "resilience.retries", "pool chunk resubmissions"
                ).inc()
                self._emit_event(
                    "retry", label=label, chunk=chunk_index, attempt=attempt
                )
                time.sleep(self.backoff * (2 ** (attempt - 1)))
                attempt += 1
                try:
                    handles[chunk_index] = self._submit(
                        pool, function, start, chunk_tasks
                    )
                    continue
                except Exception:  # noqa: BLE001 - pool is gone; go inline
                    pass
            telemetry.counter(
                "resilience.fallbacks",
                "chunks rerun inline after the pool gave up",
            ).inc()
            self._emit_event(
                "fallback", label=label, chunk=chunk_index, attempts=attempt
            )
            entries = _run_chunk(
                (function, start, chunk_tasks, None, current_header())
            )
            return entries, attempt, True

    def _entries_to_outcomes(
        self,
        entries,
        chunk_index: int,
        start: int,
        attempts: int,
        fallback: bool,
        label: str,
    ) -> List[TaskOutcome]:
        telemetry = self.telemetry
        outcomes: List[TaskOutcome] = []
        completed = 0
        for offset, (ok, value) in enumerate(entries):
            if ok:
                completed += 1
                outcomes.append(
                    TaskOutcome(value=value, attempts=attempts, fallback=fallback)
                )
                continue
            name, message, worker_tb = value
            telemetry.counter(
                "parallel.worker_errors_total", "tasks that raised"
            ).inc()
            outcomes.append(
                TaskOutcome(
                    error=WorkerCrashError(
                        f"{label}: task {start + offset} raised {name}: {message}",
                        worker_traceback=worker_tb,
                        chunk_index=chunk_index,
                        items_processed=completed,
                    ),
                    attempts=attempts,
                    fallback=fallback,
                )
            )
        return outcomes
