"""Property-based tests over the whole pipeline.

A hypothesis strategy generates random-but-valid process scripts
(allocations, frees, loads/stores into live blocks); every generated
trace must satisfy the library's global invariants: WHOMP losslessness,
online/offline agreement, translation consistency, LEAP accounting, and
byte-identical profiles from every path through the profiler pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdc import OnlineCDC, translate_trace_list
from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.parallel import fork_available
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.resilience import Quarantine
from repro.runtime.process import Process
from repro.telemetry import Telemetry


@st.composite
def process_script(draw, wild=False):
    """A list of abstract operations over a bounded object population.

    ``wild`` adds loads from an untracked block, which translate to the
    wild group (and divert to the quarantine in degraded mode).
    """
    operations = []
    live = 0
    for __ in range(draw(st.integers(1, 60))):
        choice = draw(st.integers(0, 9))
        if wild and choice == 9:
            operations.append(
                ("wild", draw(st.integers(0, 7)), draw(st.integers(0, 1)))
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


def _profiles_by_path(factory, operations, degraded):
    """``factory(**options)`` run down each pipeline path over one
    script, each with its own quarantine in degraded mode."""

    def make(**options):
        return factory(quarantine=Quarantine() if degraded else None, **options)

    process = Process()
    session = make().attach(process.bus)
    run_script(operations, process)
    trace = process.trace
    profiles = {
        "streaming": make().profile(trace),
        "staged": make(telemetry=Telemetry()).profile(trace),
        "online": session.finish(),
    }
    if fork_available():
        profiles["pool"] = make(jobs=2).profile(trace)
    return profiles


@pytest.mark.parametrize("degraded", (False, True), ids=("lossless", "degraded"))
@pytest.mark.parametrize(
    "factory", (WhompProfiler, LeapProfiler), ids=("whomp", "leap")
)
@settings(max_examples=15, deadline=None)
@given(operations=process_script(wild=True))
def test_every_pipeline_path_gives_identical_documents(
    factory, degraded, operations
):
    profiles = _profiles_by_path(factory, operations, degraded)
    documents = {
        path: dumps_bytes(profile, "binary") for path, profile in profiles.items()
    }
    reference = documents["streaming"]
    for path, document in documents.items():
        assert document == reference, path
    wild = sum(1 for operation in operations if operation[0] == "wild")
    assert profiles["streaming"].quarantined == (wild if degraded else 0)
