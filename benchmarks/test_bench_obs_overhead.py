"""Observability self-dilation benchmark.

Table 1's central observability claim is the *dilation factor*: how much
slower the program runs with the profiler attached.  This benchmark is
the repo's analogue for its own instrumentation.  Every profile records
into a live :class:`~repro.obs.spans.Telemetry` (its own, by default),
so the baseline here is the default profile, and the measured
configuration is **traced**: the whole TRACELINK path on top -- a trace
context attached, every span stamped with trace/span ids and wall-clock
endpoints, one structured event per stage exit into the bounded ring,
and :func:`~repro.obs.trace.start_tracing` /
:func:`~repro.obs.trace.finish_tracing` (context setup, event-log
construction, trace-document assembly).  It must stay within 10% of the
default profile, or it stops being something we can leave on.  Each
ratio is recorded in ``extra_info`` so later changes can track whether
the measurement substrate itself is getting heavier.

Both sides use best-of-N wall times.  The default profile is
additionally asserted against a hand-rolled bare stage loop (no
telemetry plumbing at all) in ``tests/test_telemetry_integration.py``.
"""

import time

from repro.obs.context import set_current
from repro.obs.spans import Telemetry
from repro.obs.trace import finish_tracing, start_tracing
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import create

#: traced vs default wall time.  Span stamping is O(spans) and event
#: emission O(stage exits), both dwarfed by the per-access profiling
#: work, so 10% is generous headroom, not a goal.
MAX_TRACED_DILATION = 1.10

ROUNDS = 5


def _micro_trace():
    return create("micro.array", scale=2.0).trace()


def _best_of(function, rounds=ROUNDS):
    timings = []
    for __ in range(rounds):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _traced_run(profiler_class, trace):
    telemetry = Telemetry()
    context, events = start_tracing(telemetry)
    try:
        profiler_class(telemetry=telemetry).profile(trace)
        finish_tracing(telemetry, context, events)
    finally:
        set_current(None)  # never leak ambient state between rounds


def _measure(benchmark, profiler_class):
    trace = _micro_trace()
    profiler_class().profile(trace)  # warm
    default_seconds = _best_of(lambda: profiler_class().profile(trace))
    _traced_run(profiler_class, trace)  # warm
    benchmark.pedantic(
        lambda: _traced_run(profiler_class, trace), rounds=3, iterations=1
    )
    seconds = _best_of(lambda: _traced_run(profiler_class, trace))
    dilation = seconds / default_seconds
    benchmark.extra_info["default_seconds"] = default_seconds
    benchmark.extra_info["tracing_seconds"] = seconds
    benchmark.extra_info["tracing_dilation"] = dilation
    assert dilation < MAX_TRACED_DILATION


def test_whomp_tracing_dilation(benchmark):
    _measure(benchmark, WhompProfiler)


def test_leap_tracing_dilation(benchmark):
    _measure(benchmark, LeapProfiler)
