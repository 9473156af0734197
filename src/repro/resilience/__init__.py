"""Fault tolerance for the profiling pipeline.

The paper's profilers assume a pristine tuple stream and a run that
completes in one shot; the ROADMAP's production-scale north star does
not get either.  This package is the failure-containment layer:

* :mod:`repro.resilience.faults` -- a deterministic, seed-driven fault
  harness (:class:`FaultPlan` / :class:`FaultInjector`) that corrupts
  or drops probe events, bit-flips serialized profiles, and kills or
  stalls pool workers on schedule, for drills from tests or
  ``repro-experiments --inject-faults SPEC``.
* :mod:`repro.resilience.degraded` -- the quarantine sidecar that lets
  WHOMP/LEAP absorb malformed or wild tuples instead of crashing, and
  report a capture-completeness ratio in the profile.
* :mod:`repro.resilience.checkpoint` -- atomic per-experiment
  checkpoints so interrupted sweeps resume instead of restarting.

Retry/timeout/backoff for pool workers lives with the pool itself in
:mod:`repro.parallel.executor`; its ``resilience.*`` telemetry
counters are documented in README's "Resilience" section.
"""

# Crash-safe writes live in core (no dependency cycles) but are part of
# the resilience toolkit's public face: everything that persists state
# -- profiles, checkpoints, manifests, JSON results -- goes through it.
from repro.core.fsutil import atomic_write_text
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.degraded import Quarantine, quarantine_stream
from repro.resilience.faults import FaultInjector, FaultPlan, parse_fault_spec

__all__ = [
    "CheckpointStore",
    "atomic_write_text",
    "FaultInjector",
    "FaultPlan",
    "Quarantine",
    "parse_fault_spec",
    "quarantine_stream",
]
