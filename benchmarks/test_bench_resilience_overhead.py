"""No-fault overhead of the resilience layer.

The resilience machinery (chunk deadlines, retry bookkeeping, the
degraded-mode quarantine) must be dormant when nothing is failing: a
clean run pays for the *capability*, not the recovery.  This benchmark
times the fault-free paths against their pre-resilience equivalents and
records the dilation in ``extra_info`` so future PRs can watch it.
"""

import time

from repro.parallel import ParallelExecutor, fork_available
from repro.profilers.whomp import WhompProfiler
from repro.resilience import Quarantine
from repro.workloads.registry import create

#: Degraded mode adds one ``malformation()`` check per tuple; the pool
#: path adds one ``get(timeout)`` per chunk.  Both are per-item-cheap
#: but not free; they must stay well under the cost of the work itself.
MAX_DILATION = 2.0


def _micro_trace():
    return create("micro.array", scale=2.0).trace()


def _best_of(function, *args, rounds=3):
    timings = []
    for __ in range(rounds):
        start = time.perf_counter()
        function(*args)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_quarantine_overhead_on_clean_trace(benchmark):
    trace = _micro_trace()
    plain = WhompProfiler()

    def degraded():
        return WhompProfiler(quarantine=Quarantine()).profile(trace)

    plain.profile(trace)  # warm
    plain_seconds = _best_of(plain.profile, trace)
    benchmark.pedantic(degraded, rounds=3, iterations=1)
    degraded_seconds = _best_of(degraded)
    dilation = degraded_seconds / plain_seconds
    benchmark.extra_info["plain_seconds"] = plain_seconds
    benchmark.extra_info["degraded_seconds"] = degraded_seconds
    benchmark.extra_info["quarantine_dilation"] = dilation
    assert dilation < MAX_DILATION


def _busy(value):
    total = 0
    for i in range(20_000):
        total += (value * i) % 7
    return total


def test_pool_deadline_overhead(benchmark):
    if not fork_available():
        import pytest

        pytest.skip("platform lacks the fork start method")
    tasks = list(range(64))
    unbounded = ParallelExecutor(jobs=2, timeout=None)
    bounded = ParallelExecutor(jobs=2, timeout=120.0, retries=2)

    unbounded.map_outcomes(_busy, tasks)  # warm the fork machinery
    unbounded_seconds = _best_of(unbounded.map_outcomes, _busy, tasks)
    benchmark.pedantic(
        bounded.map_outcomes, args=(_busy, tasks), rounds=3, iterations=1
    )
    bounded_seconds = _best_of(bounded.map_outcomes, _busy, tasks)
    dilation = bounded_seconds / unbounded_seconds
    benchmark.extra_info["unbounded_seconds"] = unbounded_seconds
    benchmark.extra_info["bounded_seconds"] = bounded_seconds
    benchmark.extra_info["deadline_dilation"] = dilation
    assert dilation < MAX_DILATION
