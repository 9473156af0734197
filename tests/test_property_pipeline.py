"""Property-based tests over the whole pipeline.

A hypothesis strategy generates random-but-valid process scripts
(allocations, frees, loads/stores into live blocks); every generated
trace must satisfy the library's global invariants: WHOMP losslessness,
online/offline agreement, translation consistency, LEAP accounting and
exactness, and byte-identical profiles from every path through the
profiler pipeline, wherever the chunk boundaries fall, all equal to a
reference built by feeding each access to a bare compressor.
"""

from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lmad import LMADCompressor
from repro.compression.sequitur import SequiturGrammar
from repro.core.cdc import OnlineCDC, translate_trace, translate_trace_list
from repro.core.events import AccessKind
from repro.core.omc import ObjectManager
from repro.core.profile_io import dumps_bytes
from repro.core.tuples import DIMENSIONS
from repro.obs.spans import Telemetry
from repro.profilers import pipeline
from repro.profilers.leap import LeapProfile, LeapProfiler
from repro.profilers.whomp import WhompProfile, WhompProfiler
from repro.resilience import Quarantine, quarantine_stream
from repro.runtime.process import Process


@st.composite
def process_script(draw, wild=False, sweeps=False):
    """A list of abstract operations over a bounded object population.

    ``wild`` adds loads from an untracked block, which translate to the
    wild group (and divert to the quarantine in degraded mode).
    ``sweeps`` adds strided runs of loads by one instruction over one
    block, which LEAP fits with descriptors longer than two.
    """
    operations = []
    live = 0
    for __ in range(draw(st.integers(1, 60))):
        choice = draw(st.integers(0, 9))
        if wild and choice == 9:
            operations.append(
                ("wild", draw(st.integers(0, 7)), draw(st.integers(0, 1)))
            )
        elif sweeps and choice == 8 and live:
            operations.append(
                (
                    "sweep",
                    draw(st.integers(0, live - 1)),
                    draw(st.integers(1, 16)),
                    draw(st.integers(0, 2)),
                    draw(st.integers(0, 1)),
                )
            )
        elif choice == 0 or live == 0:
            operations.append(("alloc", draw(st.integers(1, 4)), draw(st.integers(8, 256))))
            live += 1
        elif choice == 1 and live > 1:
            operations.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            operations.append(
                (
                    "access",
                    draw(st.integers(0, live - 1)),
                    draw(st.integers(0, 31)),
                    draw(st.booleans()),
                    draw(st.integers(0, 3)),
                )
            )
    return operations


def run_script(operations, process):
    """Interpret the abstract script against a process."""
    blocks = []  # (address, size)
    instructions = {}
    pool = None  # untracked block the "wild" loads read
    for operation in operations:
        if operation[0] == "wild":
            __, slot, instr_slot = operation
            if pool is None:
                pool = process.malloc("pool", 64, track=False)
            name = f"wld{instr_slot}"
            instr = instructions.get(name)
            if instr is None:
                instr = process.instruction(name, AccessKind.LOAD)
                instructions[name] = instr
            process.load(instr, pool + slot * 8)
        elif operation[0] == "sweep":
            __, index, count, stride_slot, instr_slot = operation
            address, size = blocks[index % len(blocks)]
            stride = stride_slot * 8
            if stride:
                count = min(count, (size - 8) // stride + 1)
            name = f"sw{instr_slot}"
            instr = instructions.get(name)
            if instr is None:
                instr = process.instruction(name, AccessKind.LOAD)
                instructions[name] = instr
            for step in range(count):
                process.load(instr, address + step * stride)
        elif operation[0] == "alloc":
            __, site, size = operation
            address = process.malloc(f"site{site}", size)
            blocks.append((address, size))
        elif operation[0] == "free":
            __, index = operation
            address, __size = blocks.pop(index % len(blocks))
            process.free(address)
        else:
            __, index, offset_slot, is_load, instr_slot = operation
            address, size = blocks[index % len(blocks)]
            offset = (offset_slot * 8) % max(size - 7, 1)
            kind = AccessKind.LOAD if is_load else AccessKind.STORE
            name = f"{'ld' if is_load else 'st'}{instr_slot}"
            instr = instructions.get(name)
            if instr is None:
                instr = process.instruction(name, kind)
                instructions[name] = instr
            if is_load:
                process.load(instr, address + offset)
            else:
                process.store(instr, address + offset)
    for address, __size in blocks:
        process.free(address)
    if pool is not None:
        process.free(pool)
    process.finish()


@settings(max_examples=60, deadline=None)
@given(process_script())
def test_whomp_lossless_on_random_scripts(operations):
    process = Process()
    run_script(operations, process)
    trace = process.trace
    profile = WhompProfiler().profile(trace)
    raw = [(e.instruction_id, e.address) for e in trace.accesses()]
    assert profile.reconstruct_accesses() == raw


@settings(max_examples=40, deadline=None)
@given(process_script())
def test_online_translation_matches_offline(operations):
    collected = []
    process = Process()
    process.bus.attach(OnlineCDC(collected.append))
    run_script(operations, process)
    assert collected == translate_trace_list(process.trace)


@settings(max_examples=40, deadline=None)
@given(process_script())
def test_translation_invariants(operations):
    process = Process()
    run_script(operations, process)
    translated = translate_trace_list(process.trace)
    times = [a.time for a in translated]
    assert times == list(range(len(times)))
    for access in translated:
        # scripts only touch live blocks, so nothing is wild, and the
        # offset always lies inside the object
        assert not access.wild
        assert access.offset >= 0


@settings(max_examples=30, deadline=None)
@given(process_script(), st.integers(1, 40))
def test_leap_accounting_on_random_scripts(operations, budget):
    process = Process()
    run_script(operations, process)
    trace = process.trace
    profile = LeapProfiler(budget=budget).profile(trace)
    assert sum(profile.exec_counts.values()) == trace.access_count
    captured = sum(e.captured_symbols for e in profile.entries.values())
    overflowed = sum(e.overflow.count for e in profile.entries.values())
    assert captured + overflowed == trace.access_count
    assert 0.0 <= profile.accesses_captured() <= 1.0
    for entry in profile.entries.values():
        assert len(entry.lmads) <= budget


def _reference_profile(profiler, trace):
    """What ``profiler`` must build from ``trace``, computed without the
    pipeline: ``translate_trace``'s accesses, filtered through the
    profiler's quarantine in degraded mode, fed one at a time into a
    bare compressor per WHOMP dimension or per LEAP ``(instruction,
    group)`` key."""
    omc = ObjectManager(refine_by_type=profiler.refine_by_type)
    accesses = translate_trace(trace, omc)
    quarantine = profiler.quarantine
    if quarantine is not None:
        accesses = quarantine_stream(accesses, quarantine)
    kept = 0
    if isinstance(profiler, WhompProfiler):
        grammars = {name: SequiturGrammar() for name in DIMENSIONS}
        for access in accesses:
            for name in DIMENSIONS:
                grammars[name].feed(access.dimension(name))
            kept += 1
    else:
        compressors, kinds, exec_counts = {}, {}, {}
        for access in accesses:
            key = (access.instruction_id, access.group)
            if key not in compressors:
                compressors[key] = LMADCompressor(
                    dims=3, budget=profiler.budget, overflow_cap=profiler.overflow_cap
                )
            compressors[key].feed((access.object_serial, access.offset, access.time))
            kinds.setdefault(access.instruction_id, access.kind)
            exec_counts[access.instruction_id] = exec_counts.get(access.instruction_id, 0) + 1
            kept += 1
    quarantined = quarantine.total if quarantine is not None else 0
    total = kept + quarantined
    common = dict(
        group_labels={group.group_id: group.label for group in omc.groups},
        lifetimes=omc.lifetime_table(),
        access_count=kept,
        capture_completeness=kept / total if total else 1.0,
        quarantined=quarantined,
    )
    if isinstance(profiler, WhompProfiler):
        return WhompProfile(
            grammars={name: grammar.freeze() for name, grammar in grammars.items()},
            base_addresses=omc.base_address_table(),
            **common,
        )
    return LeapProfile(
        entries={key: compressor.finish() for key, compressor in compressors.items()},
        kinds=kinds,
        exec_counts=exec_counts,
        budget=profiler.budget,
        **common,
    )


def _profiles_by_path(factory, operations, degraded):
    """The recorded trace of one script, and ``factory(**options)`` run
    down each pipeline path over it, next to the reference profile,
    each with its own quarantine in degraded mode."""

    def make(**options):
        return factory(quarantine=Quarantine() if degraded else None, **options)

    process = Process()
    session = make().attach(process.bus)
    run_script(operations, process)
    trace = process.trace
    profiles = {
        "reference": _reference_profile(make(), trace),
        "offline": make().profile(trace),
        "telemetry": make(telemetry=Telemetry()).profile(trace),
        "online": session.finish(),
    }
    return trace, profiles


def _assert_paths_agree(factory, operations, degraded):
    __, profiles = _profiles_by_path(factory, operations, degraded)
    documents = {
        path: dumps_bytes(profile, "binary") for path, profile in profiles.items()
    }
    reference = documents["reference"]
    for path, document in documents.items():
        assert document == reference, path
    wild = sum(1 for operation in operations if operation[0] == "wild")
    for path, profile in profiles.items():
        assert profile.quarantined == (wild if degraded else 0), path


@pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
@pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)
@settings(max_examples=15, deadline=None)
@given(operations=process_script(wild=True))
def test_every_pipeline_path_gives_identical_documents(
    factory, degraded, operations
):
    _assert_paths_agree(factory, operations, degraded)


def _chunk_edge_script(kept, degraded):
    """A script whose profile keeps exactly ``kept`` accesses to two
    live blocks, with a free and a new block halfway.  The first access
    is a store and the last is the first load of its instruction.  Every
    97th step also loads from an untracked block: in place of an
    access, or, in degraded mode, where the quarantine diverts it, next
    to one."""
    operations = [("alloc", 1, 256), ("alloc", 2, 64)]
    for step in range(kept - 1):
        if step == kept // 2:
            operations += [("free", 0), ("alloc", 3, 128)]
        if step % 97 == 96:
            operations.append(("wild", step % 8, step % 2))
            if not degraded:
                continue
        operations.append(("access", step % 2, step % 31, step % 3 != 0, step % 4))
    operations.append(("access", 0, 0, True, 5))
    return operations


@pytest.mark.parametrize(
    "kept", (pipeline.CHUNK - 1, pipeline.CHUNK, pipeline.CHUNK + 1)
)
@pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
@pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)
def test_paths_agree_at_the_chunk_boundary(factory, degraded, kept):
    _assert_paths_agree(factory, _chunk_edge_script(kept, degraded), degraded)


@settings(max_examples=40, deadline=None)
@given(
    operations=process_script(wild=True, sweeps=True),
    budget=st.integers(1, 30),
    overflow_cap=st.one_of(st.none(), st.integers(1, 5)),
)
def test_leap_descriptors_are_exact_where_they_claim_capture(
    operations, budget, overflow_cap
):
    # Section 4.1: descriptors keep each substream's initial linear
    # runs, so what an entry captures is exactly a prefix of its
    # (instruction, group) substream, on every pipeline path.
    trace, profiles = _profiles_by_path(
        partial(LeapProfiler, budget=budget, overflow_cap=overflow_cap),
        operations,
        degraded=False,
    )
    substreams = {}
    for access in translate_trace_list(trace):
        substreams.setdefault((access.instruction_id, access.group), []).append(
            (access.object_serial, access.offset, access.time)
        )
    for path, profile in profiles.items():
        assert profile.entries.keys() == substreams.keys(), path
        for key, entry in profile.entries.items():
            substream = substreams[key]
            assert entry.total_symbols == len(substream), (path, key)
            assert entry.expand() == substream[: entry.captured_symbols], (path, key)


def _online_and_offline_documents(factory, degraded, drive):
    """BINCAP of ``factory``'s online profile of ``drive(process)`` and
    of its offline profile of the recorded trace."""

    def make():
        return factory(quarantine=Quarantine() if degraded else None)

    process = Process()
    session = make().attach(process.bus)
    drive(process)
    online = session.finish()
    offline = make().profile(process.trace)
    return dumps_bytes(online, "binary"), dumps_bytes(offline, "binary")


CHUNKS = (1, 7, pipeline.CHUNK)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
@pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)
@settings(max_examples=15, deadline=None)
@given(operations=process_script(wild=True))
def test_online_equals_offline_at_any_chunk_size(
    factory, degraded, chunk, operations
):
    with mock.patch.object(pipeline, "CHUNK", chunk):
        online, offline = _online_and_offline_documents(
            factory, degraded, lambda process: run_script(operations, process)
        )
    assert online == offline


def _reuse_across_a_chunk_boundary(process):
    """Free a block, then malloc the same address again, with a chunk
    boundary (at sizes 2--4) between the free and the new block."""
    ld = process.instruction("ld", AccessKind.LOAD)
    st = process.instruction("st", AccessKind.STORE)
    first = process.malloc("site-a", 64)
    other = process.malloc("site-b", 32)
    process.load(ld, first)
    process.load(ld, first + 8)
    process.free(first)
    process.store(st, other)
    process.store(st, other + 8)
    second = process.malloc("site-c", 64)
    assert second == first
    for offset in range(0, 64, 8):
        process.load(ld, second + offset)
    process.free(second)
    process.free(other)
    process.finish()


@pytest.mark.parametrize("chunk", (1, 2, 3, 4, 5, 7, pipeline.CHUNK))
@pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
@pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)
def test_address_reuse_across_a_chunk_boundary(factory, degraded, chunk):
    with mock.patch.object(pipeline, "CHUNK", chunk):
        online, offline = _online_and_offline_documents(
            factory, degraded, _reuse_across_a_chunk_boundary
        )
    assert online == offline
