"""Fork-per-task fan-out of whole jobs.

``repro-experiments --jobs`` runs one experiment per task,
``repro-serve ingest --jobs`` profiles one workload per task, and
``repro-cluster bench --jobs`` runs one load generator per task.
A single profile is never split: its translation, decomposition and
compression run in one process (Figure 4 has no parallel step).

:mod:`repro.parallel.executor` forks one process per task (at most
``jobs`` alive at once), sees a dead worker as end-of-file on its
result pipe, kills a worker past its deadline, retries the lost task
and finally runs it inline; :mod:`repro.parallel.workers` holds the
top-level worker functions the experiment runner and the store ingest
fan out to.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    TaskOutcome,
    WorkerCrashError,
    fork_available,
    resolve_jobs,
)

__all__ = [
    "ParallelExecutor",
    "TaskOutcome",
    "WorkerCrashError",
    "fork_available",
    "resolve_jobs",
]
