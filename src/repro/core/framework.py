"""The Figure 4 framework, wired up as a facade.

The paper's Section 2.3 framework connects an instrumented program's
probes to the OMC/CDC/SCC pipeline.  The pieces all exist as separate
classes (:class:`~repro.runtime.process.Process`, the CDC's
:func:`~repro.core.cdc.translate_columns`, the SCCs, the profilers); this
module provides the one-call compositions a profile consumer wants:

* :func:`collect_trace` -- run a workload, get the trace;
* :func:`profile_trace` / :func:`profile_workload` -- produce any
  combination of profiles from one trace;
* :class:`ProfilingSession` -- attach several *online* profilers to one
  live process simultaneously (the paper's configuration: the program
  runs once, every profiler observes the same probe firings).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.compression.lmad import DEFAULT_BUDGET
from repro.core.events import Trace
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.runtime.process import Process
from repro.workloads.base import Workload

#: profiler names accepted by the facade functions
PROFILERS = ("whomp", "leap")


def collect_trace(
    workload: Workload,
    allocator: str = "first-fit",
    probe_padding: int = 0,
    os_offset: int = 0,
    telemetry=None,
) -> Trace:
    """Run a workload under instrumentation and return its trace."""
    return workload.trace(
        allocator=allocator,
        probe_padding=probe_padding,
        os_offset=os_offset,
        telemetry=telemetry,
    )


def profile_trace(
    trace: Trace,
    profilers: Iterable[str] = PROFILERS,
    budget: Optional[int] = None,
    refine_by_type: bool = False,
    telemetry=None,
) -> Dict[str, object]:
    """Collect the named profiles from one recorded trace."""
    results: Dict[str, object] = {}
    for name in profilers:
        if name == "whomp":
            results[name] = WhompProfiler(
                refine_by_type=refine_by_type, telemetry=telemetry
            ).profile(trace)
        elif name == "leap":
            results[name] = LeapProfiler(
                budget=DEFAULT_BUDGET if budget is None else budget,
                refine_by_type=refine_by_type,
                telemetry=telemetry,
            ).profile(trace)
        else:
            raise ValueError(
                f"unknown profiler {name!r}; choose from {PROFILERS}"
            )
    return results


def profile_workload(
    workload: Union[Workload, str],
    profilers: Iterable[str] = PROFILERS,
    scale: float = 1.0,
    seed: int = 0,
    telemetry=None,
    **layout,
) -> Dict[str, object]:
    """End-to-end: run a workload (by instance or registry name) and
    profile it.  The trace is returned under the ``"trace"`` key."""
    if isinstance(workload, str):
        from repro.workloads.registry import create

        workload = create(workload, scale=scale, seed=seed)
    trace = collect_trace(workload, telemetry=telemetry, **layout)
    results = profile_trace(trace, profilers, telemetry=telemetry)
    results["trace"] = trace
    return results


class ProfilingSession:
    """Several online profilers observing one live process.

    >>> session = ProfilingSession(profilers=("whomp", "leap"))
    >>> process = session.process
    >>> # ... drive the process ...
    >>> profiles = session.finish()      # doctest: +SKIP
    """

    def __init__(
        self,
        profilers: Iterable[str] = PROFILERS,
        process: Optional[Process] = None,
        budget: Optional[int] = None,
    ) -> None:
        self.process = process if process is not None else Process(record_trace=False)
        self._sessions: Dict[str, object] = {}
        for name in profilers:
            if name == "whomp":
                self._sessions[name] = WhompProfiler().attach(self.process.bus)
            elif name == "leap":
                self._sessions[name] = LeapProfiler(
                    budget=DEFAULT_BUDGET if budget is None else budget
                ).attach(self.process.bus)
            else:
                raise ValueError(
                    f"unknown profiler {name!r}; choose from {PROFILERS}"
                )

    def run(self, workload: Workload) -> "ProfilingSession":
        """Drive the session's process through a workload."""
        workload.run(self.process)
        return self

    def finish(self) -> Dict[str, object]:
        """Finish the process and detach every profiler."""
        self.process.finish()
        return {name: session.finish() for name, session in self._sessions.items()}
