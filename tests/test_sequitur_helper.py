"""WHOMP's forked Sequitur helper: the same grammars, the same work,
and no process left behind.

Two of the four dimension grammars are built in a helper process
forked at the first ``compress_streams``; these tests pin the Sequitur
work both processes do, and check that the helper is reaped after a
profile returns, after it raises, and after an unfrozen SCC is dropped.
"""

import gc
import os
import signal

import pytest

from repro.compression.sequitur import SequiturGrammar
from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.core.scc import HorizontalSequiturSCC, helper_dimensions
from repro.core.tuples import ObjectRelativeAccess
from repro.obs.spans import Telemetry
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import SPEC_BENCHMARKS, create

needs_helper = pytest.mark.skipif(
    not helper_dimensions(), reason="no second CPU or no fork: no helper"
)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def spec_traces():
    return [create(name, scale=0.04, seed=3).trace() for name in SPEC_BENCHMARKS]


def test_work_counts_pinned(spec_traces):
    """Rules made and inlined over the seven SPEC stand-ins at scale
    0.04, seed 3: the helper does exactly the one-process work."""
    telemetry = Telemetry()
    live = 0
    for trace in spec_traces:
        profile = WhompProfiler(telemetry=telemetry).profile(trace)
        live += sum(g.rule_count() - 1 for g in profile.grammars.values())
    registry = telemetry.registry
    made = registry.value("whomp.rules_made_total")
    inlined = registry.value("whomp.rules_inlined_total")
    assert (made, inlined, live) == (23407, 21520, 1887)
    assert_no_child()


def test_one_cpu_writes_the_same_bytes(monkeypatch, spec_traces):
    trace = spec_traces[0]
    split = dumps_bytes(WhompProfiler().profile(trace), "binary")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert helper_dimensions() == ()
    alone = dumps_bytes(WhompProfiler().profile(trace), "binary")
    assert alone == split


@needs_helper
def test_profile_waits_for_the_helper_under_its_span():
    telemetry = Telemetry()
    WhompProfiler(telemetry=telemetry).profile(create("micro.array", scale=0.2).trace())
    assert telemetry.find_span("whomp/helper").calls == 1
    assert_no_child()


TEST_PID = os.getpid()


class _Boom(SequiturGrammar):
    """Raises in the helper only, so the parent's error is the helper's."""

    error = ValueError("boom in feed_all")

    def feed_all(self, tokens):
        if os.getpid() != TEST_PID:
            raise self.error
        super().feed_all(tokens)


@needs_helper
def test_helper_exception_reraises_with_type_and_message():
    trace = create("micro.array", scale=0.2).trace()
    with pytest.raises(ValueError, match="boom in feed_all"):
        WhompProfiler(compressor=_Boom).profile(trace)
    assert_no_child()


class _Odd(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


class _OddBoom(_Boom):
    error = _Odd(7, "pickles, but does not load")


@needs_helper
def test_helper_exception_that_does_not_load_names_the_helper():
    trace = create("micro.array", scale=0.2).trace()
    with pytest.raises(RuntimeError, match="Sequitur helper process"):
        WhompProfiler(compressor=_OddBoom).profile(trace)
    assert_no_child()


STREAMS = {"instruction": [1, 2], "group": [0, 0], "object": [3, 4], "offset": [8, 16]}


def test_consume_after_compress_streams_raises():
    scc = HorizontalSequiturSCC()
    scc.compress_streams(STREAMS)
    with pytest.raises(RuntimeError, match="consume after compress_streams"):
        scc.consume(ObjectRelativeAccess(1, 0, 3, 8, 0, 8, AccessKind.LOAD))
    assert [len(g.expand()) for g in scc.freeze().values()] == [2, 2, 2, 2]
    assert_no_child()


@needs_helper
def test_dropped_scc_leaves_no_child():
    scc = HorizontalSequiturSCC()
    scc.compress_streams(STREAMS)
    del scc
    gc.collect()
    assert_no_child()


@needs_helper
def test_killed_helper_is_named(monkeypatch):
    """A helper SIGKILLed mid-profile makes ``profile`` raise an error
    naming it, not hang."""
    original = HorizontalSequiturSCC.compress_streams
    calls = []

    def kill_after_first(self, streams):
        original(self, streams)
        calls.append(1)
        if len(calls) == 1:
            os.kill(self._helper.pid, signal.SIGKILL)

    monkeypatch.setattr(HorizontalSequiturSCC, "compress_streams", kill_after_first)
    trace = create("micro.array", scale=2.0).trace()
    with pytest.raises(RuntimeError, match="Sequitur helper process"):
        WhompProfiler().profile(trace)
    assert_no_child()


@needs_helper
def test_profiling_process_loads_neither_pickle_nor_multiprocessing():
    """The helper's grammars come back marshalled: a profile with a
    helper adds no pickle (and no pool) to the profiling process."""
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "from repro.profilers.whomp import WhompProfiler\n"
        "from repro.workloads.registry import create\n"
        "WhompProfiler().profile(create('micro.array', scale=0.2).trace())\n"
        "print(sorted(m for m in ('pickle', 'multiprocessing') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr
