"""LEAP -- the Loss-Enhanced Access Profiler (Section 4).

LEAP trades completeness for compactness: the object-relative stream is
decomposed vertically by instruction-id and group, and each
``(object, offset, time)`` sub-stream is compressed into at most
*budget* (default 30) LMADs.  Streams too irregular for the budget are
sampled: descriptors keep the initial linear runs and the rest collapses
into min/max/granularity summaries.

The profile is indexed by load and store instructions, ready for the two
post-processors the paper targets: memory-dependence frequency
(:mod:`repro.postprocess.dependence`) and stride patterns
(:mod:`repro.postprocess.strides`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compression.lmad import DEFAULT_BUDGET, LMADProfileEntry
from repro.core.events import AccessKind
from repro.core.omc import ObjectManager
from repro.core.scc import VerticalLMADSCC
from repro.profilers.pipeline import ProfilerPipeline
from repro.telemetry.spans import Telemetry

#: bytes per serialized LMAD record: 3-d start + 3-d stride at 8 bytes
#: each, plus an 8-byte count.
LMAD_RECORD_BYTES = 7 * 8

#: bytes per entry header (instruction id, group id, totals) and per
#: overflow summary record.
ENTRY_HEADER_BYTES = 4 * 8
SUMMARY_RECORD_BYTES = 7 * 8


@dataclass
class LeapProfile:
    """LEAP's output: LMAD entries keyed by (instruction-id, group)."""

    entries: Dict[Tuple[int, int], LMADProfileEntry]
    #: instruction id -> load/store kind
    kinds: Dict[int, AccessKind]
    #: instruction id -> total dynamic executions (exact; kept as a
    #: plain counter even for lossy entries)
    exec_counts: Dict[int, int]
    #: group id -> human-readable label
    group_labels: Dict[int, str]
    #: total accesses profiled
    access_count: int
    #: descriptor budget the profile was collected with
    budget: int = DEFAULT_BUDGET
    #: (group, serial, alloc_time, free_time, size) auxiliary rows
    lifetimes: List[Tuple[int, int, int, Optional[int], int]] = field(
        default_factory=list
    )
    #: kept / (kept + quarantined); 1.0 outside degraded mode
    capture_completeness: float = 1.0
    #: tuples diverted to the quarantine sidecar instead of the entries
    quarantined: int = 0

    # -- indexing ------------------------------------------------------

    def instructions(self) -> List[int]:
        return sorted(self.exec_counts)

    def loads(self) -> List[int]:
        return [i for i in self.instructions() if self.kinds[i] is AccessKind.LOAD]

    def stores(self) -> List[int]:
        return [i for i in self.instructions() if self.kinds[i] is AccessKind.STORE]

    def entries_for_instruction(
        self, instruction_id: int
    ) -> Dict[int, LMADProfileEntry]:
        """group id -> entry, for one instruction."""
        return {
            group: entry
            for (instr, group), entry in self.entries.items()
            if instr == instruction_id
        }

    def groups_of(self, instruction_id: int) -> List[int]:
        return sorted(self.entries_for_instruction(instruction_id))

    # -- size & quality metrics (Table 1) ---------------------------------

    def size_bytes(self) -> int:
        total = 0
        for entry in self.entries.values():
            total += ENTRY_HEADER_BYTES
            total += len(entry.lmads) * LMAD_RECORD_BYTES
            if entry.overflow.count:
                total += SUMMARY_RECORD_BYTES
        return total

    def compression_ratio(self, trace_bytes: int) -> float:
        """Raw trace bytes over profile bytes (the paper's `3539x`)."""
        size = self.size_bytes()
        if size == 0:
            return float("inf")
        return trace_bytes / size

    def accesses_captured(self) -> float:
        """Fraction of all accesses captured inside LMADs (Table 1's
        "Accesses captured")."""
        if not self.access_count:
            return 1.0
        captured = sum(entry.captured_symbols for entry in self.entries.values())
        return captured / self.access_count

    def instructions_captured(self) -> float:
        """Fraction of instructions whose behaviour was completely
        captured by their LMADs (Table 1's "Instructions captured")."""
        instructions = self.instructions()
        if not instructions:
            return 1.0
        complete = 0
        for instruction in instructions:
            entries = self.entries_for_instruction(instruction)
            if entries and all(entry.complete for entry in entries.values()):
                complete += 1
        return complete / len(instructions)


class LeapProfiler(ProfilerPipeline):
    """Run LEAP over a recorded trace (offline) or attach it to a live
    process bus (online) via :meth:`attach`."""

    span_name = "leap"

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        refine_by_type: bool = False,
        telemetry: Optional[Telemetry] = None,
        jobs: int = 1,
        quarantine=None,
        overflow_cap: Optional[int] = None,
    ) -> None:
        super().__init__(refine_by_type, telemetry, jobs, quarantine)
        self.budget = budget
        #: overflow backstop per entry: past this many budget-spilled
        #: symbols an entry degrades to a pure summary descriptor (see
        #: :class:`~repro.compression.lmad.LMADCompressor`)
        self.overflow_cap = overflow_cap

    def _new_scc(self) -> VerticalLMADSCC:
        return VerticalLMADSCC(budget=self.budget, overflow_cap=self.overflow_cap)

    def _compress_in_pool(self, scc, substreams, executor) -> None:
        """The independent ``(instruction, group)`` substreams are dealt
        round-robin into shards, one pool worker per shard, and the
        closed entries merge back keyed exactly as serial
        :meth:`VerticalLMADSCC.finish` would produce them."""
        from repro.parallel.workers import compress_leap_shard, shard_round_robin

        shards = shard_round_robin(
            list(substreams.items()), executor.effective_jobs(len(substreams))
        )
        tasks = [(self.budget, self.overflow_cap, shard) for shard in shards]
        results = executor.map(compress_leap_shard, tasks, label="leap-substreams")
        merged = {key: entry for shard_out in results for key, entry in shard_out}
        scc.adopt_entries({key: merged[key] for key in substreams})

    def _build_profile(
        self, scc, omc: ObjectManager, access_count: int,
        capture_completeness: float, quarantined: int,
    ) -> LeapProfile:
        return LeapProfile(
            entries=scc.finish(),
            kinds=scc.kinds,
            exec_counts=scc.exec_counts,
            group_labels={g.group_id: g.label for g in omc.groups},
            access_count=access_count,
            budget=self.budget,
            lifetimes=omc.lifetime_table(),
            capture_completeness=capture_completeness,
            quarantined=quarantined,
        )

    def _record_metrics(self, profile: LeapProfile, telemetry: Telemetry) -> None:
        lmads_histogram = telemetry.histogram(
            "leap.lmads_per_entry", "descriptors per (instruction, group)"
        )
        total_lmads = 0
        overflow_symbols = 0
        overflowed_entries = 0
        for entry in profile.entries.values():
            lmads_histogram.observe(len(entry.lmads))
            total_lmads += len(entry.lmads)
            overflow_symbols += entry.overflow.count
            if entry.overflow.count:
                overflowed_entries += 1
        telemetry.gauge(
            "leap.entries", "(instruction, group) profile entries"
        ).set(len(profile.entries))
        telemetry.gauge(
            "leap.lmads", "LMAD descriptors fitted across all entries"
        ).set(total_lmads)
        telemetry.counter(
            "leap.overflow_symbols_total",
            "symbols discarded to the min/max/granularity summaries "
            "after the descriptor budget filled",
        ).inc(overflow_symbols)
        telemetry.gauge(
            "leap.overflowed_entries", "entries that hit the budget"
        ).set(overflowed_entries)
        telemetry.gauge(
            "leap.capture_rate", "fraction of accesses captured in LMADs"
        ).set(profile.accesses_captured())
        telemetry.gauge(
            "leap.profile_bytes", "serialized LEAP profile size"
        ).set(profile.size_bytes())
        telemetry.gauge("leap.budget", "descriptor budget per entry").set(
            self.budget
        )
