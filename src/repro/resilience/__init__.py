"""Fault tolerance for the profiling pipeline.

The paper's profilers assume a pristine tuple stream and a run that
completes in one shot; the ROADMAP's production-scale north star does
not get either.  This package is the failure-containment layer:

* :mod:`repro.resilience.faults` -- a deterministic, seed-driven fault
  harness (:class:`FaultPlan` / :class:`FaultInjector`) that corrupts
  or drops probe events, bit-flips serialized profiles, and kills or
  stalls forked workers on schedule, for drills from tests or
  ``repro-experiments --inject-faults SPEC``.
* :mod:`repro.resilience.degraded` -- the quarantine sidecar that lets
  WHOMP/LEAP absorb malformed or wild tuples instead of crashing, and
  report a capture-completeness ratio in the profile.
* :mod:`repro.resilience.checkpoint` -- atomic per-experiment
  checkpoints so interrupted sweeps resume instead of restarting.

Retry/timeout/backoff for forked workers lives with the executor in
:mod:`repro.parallel.executor`: a dead worker is seen at once as
end-of-file on its result pipe, and one past its deadline is killed.
Its ``resilience.*`` telemetry counters are documented in README's
"Resilience" section.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.degraded import Quarantine, quarantine_stream
from repro.resilience.faults import FaultInjector, FaultPlan, parse_fault_spec

__all__ = [
    "CheckpointStore",
    "FaultInjector",
    "FaultPlan",
    "Quarantine",
    "parse_fault_spec",
    "quarantine_stream",
]
