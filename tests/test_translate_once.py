"""Translate once: the CDC keeps a trace's (group, object, offset)
columns on the trace, so every later translation with a fresh OMC
replays them instead of resolving each address again."""

import pytest

from repro.core.cdc import translate_trace
from repro.core.events import AccessKind, Trace
from repro.core.omc import ObjectManager
from repro.core.profile_io import dumps_bytes
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.profilers.leap import LeapProfiler
from repro.profilers.pipeline import CHUNK
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import create


def omc_state(omc):
    return (
        omc.base_address_table(),
        omc.lifetime_table(),
        [group.label for group in omc.groups],
        omc.live_count(),
    )


def translated(trace, refine=False):
    omc = ObjectManager(refine_by_type=refine)
    return list(translate_trace(trace, omc)), omc_state(omc)


@pytest.fixture()
def resolve_calls(monkeypatch):
    """Count ObjectManager.resolve calls (the OMC's index lookups)."""
    calls = []
    original = ObjectManager.resolve

    def spy(omc, address):
        calls.append(address)
        return original(omc, address)

    monkeypatch.setattr(ObjectManager, "resolve", spy)
    return calls


def reuse_trace():
    """Free an object and allocate another at the same address between
    two accesses to that address."""
    trace = Trace()
    trace.record_alloc(0x1000, 32, "site.a", "node")
    trace.record_access(0, 0x1008, 8, AccessKind.STORE)
    trace.record_access(1, 0x1008, 8, AccessKind.LOAD)
    trace.record_free(0x1000)
    trace.record_alloc(0x1000, 32, "site.a", "node")
    trace.record_access(1, 0x1008, 8, AccessKind.LOAD)
    trace.record_free(0x1000)
    trace.record_access(1, 0x1008, 8, AccessKind.LOAD)
    return trace


class TestReplay:
    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("name", ["twolf", "vpr"])
    def test_second_call_equals_first(self, name, refine):
        trace = create(name, scale=0.02, seed=1).trace()
        first = translated(trace, refine)
        second = translated(trace, refine)
        assert second == first
        assert len(first[0]) == trace.access_count

    def test_both_refinements_kept_apart(self):
        trace = create("twolf", scale=0.02, seed=1).trace()
        plain = translated(trace, refine=False)
        refined = translated(trace, refine=True)
        assert translated(trace, refine=False) == plain
        assert translated(trace, refine=True) == refined

    def test_record_drops_the_memo(self, resolve_calls):
        trace = reuse_trace()
        translated(trace)
        resolved = len(resolve_calls)
        trace.record_access(2, 0x2000, 8, AccessKind.LOAD)
        stream, __ = translated(trace)
        assert len(stream) == trace.access_count
        assert stream[-1].wild and stream[-1].offset == 0x2000
        assert len(resolve_calls) > resolved
        trace.record_alloc(0x2000, 8, "site.b")
        trace.record_access(3, 0x2000, 8, AccessKind.LOAD)
        stream, __ = translated(trace)
        assert not stream[-1].wild

    def test_non_fresh_omc_bypasses_the_memo(self, resolve_calls):
        trace = reuse_trace()
        translated(trace)
        resolved = len(resolve_calls)
        omc = ObjectManager()
        omc.on_alloc(0x9000, 64, "elsewhere", None, 0)
        stream = list(translate_trace(trace, omc))
        assert len(resolve_calls) > resolved
        # the pre-registered object took group 0, so the trace's site is 1
        assert stream[0].group == 1
        assert omc.live_count() == 1


class TestAddressReuse:
    def test_reused_address_names_a_new_serial(self):
        trace = reuse_trace()
        for __ in range(2):
            stream, __state = translated(trace)
            assert [(a.group, a.object_serial, a.offset) for a in stream[:3]] == [
                (0, 0, 8),
                (0, 0, 8),
                (0, 1, 8),
            ]
            assert stream[3].wild and stream[3].offset == 0x1008

    def test_reuse_without_an_access_in_between(self):
        """The free and the new allocation happen at one clock, right
        after a hit on the old object."""
        trace = Trace()
        trace.record_alloc(0x1000, 16, "a")
        trace.record_access(0, 0x1000, 8, AccessKind.LOAD)
        trace.record_free(0x1000)
        trace.record_alloc(0x1000, 64, "b")
        trace.record_access(0, 0x1020, 8, AccessKind.LOAD)
        stream, __ = translated(trace)
        assert [(a.group, a.object_serial, a.offset) for a in stream] == [
            (0, 0, 0),
            (1, 0, 0x20),
        ]


class TestProfilersShareOneTranslation:
    def test_whomp_then_leap_resolves_each_address_once(self, resolve_calls):
        trace = create("twolf", scale=0.02, seed=2).trace()
        WhompProfiler().profile(trace)
        after_whomp = len(resolve_calls)
        assert 0 < after_whomp <= trace.access_count
        LeapProfiler().profile(trace)
        assert len(resolve_calls) == after_whomp

    def test_shared_translation_gives_the_same_profiles(self):
        shared = create("vpr", scale=0.02, seed=2).trace()
        whomp = WhompProfiler().profile(shared)
        leap = LeapProfiler().profile(shared)
        alone = create("vpr", scale=0.02, seed=2).trace()
        leap_alone = LeapProfiler().profile(alone)
        assert dumps_bytes(leap, "binary") == dumps_bytes(leap_alone, "binary")
        whomp_alone = WhompProfiler().profile(alone)
        assert dumps_bytes(whomp, "binary") == dumps_bytes(whomp_alone, "binary")


class TestBoundedBatches:
    def test_offline_stages_take_at_most_a_chunk(self, monkeypatch, resolve_calls):
        """A default offline profile translates the trace once, then
        decomposes it a chunk at a time: no stage ever holds more than
        CHUNK rows of decomposed streams."""
        trace = create("twolf", scale=0.08, seed=2).trace()
        assert trace.access_count > 2 * CHUNK
        batches = []
        for scc in (HorizontalSequiturSCC, VerticalLMADSCC):
            original = scc.decompose

            def spy(self, columns, original=original):
                batches.append(len(columns[0]))
                return original(self, columns)

            monkeypatch.setattr(scc, "decompose", spy)
        WhompProfiler().profile(trace)
        LeapProfiler().profile(trace)
        assert max(batches) <= CHUNK
        assert sum(batches) == 2 * trace.access_count
        assert len(resolve_calls) <= trace.access_count
