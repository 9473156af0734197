"""Phase-cognizant profiling (the paper's future-work extension).

Section 6: "Another avenue to explore is to make use of recent results
on phase detection and prediction to profile references in a phase
cognizant manner."  This module implements that avenue on top of the
object-relative stream:

* the access stream is cut into fixed-length intervals;
* each interval gets a signature -- the normalized histogram of its
  instruction dimension (the object-relative analogue of basic-block
  vectors from the phase-tracking literature);
* intervals whose signatures are within a Manhattan-distance threshold
  join the same *phase* (leader clustering, online);
* a per-phase LEAP profile is collected, so optimizations can consult
  the profile of the phase they are specializing for.

The ablation bench shows the payoff: a phase-split LEAP profile captures
more accesses than a single whole-run profile when the program's phases
have conflicting access patterns, at a modest size cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.lmad import DEFAULT_BUDGET
from repro.core.cdc import translate_columns
from repro.core.events import Trace
from repro.core.omc import ObjectManager
from repro.core.scc import VerticalLMADSCC
from repro.profilers.leap import LeapProfile, LeapProfiler

#: accesses per signature interval
DEFAULT_INTERVAL = 4096

#: Manhattan-distance threshold below which two interval signatures are
#: considered the same phase (signatures are L1-normalized, so the
#: distance ranges over [0, 2]).
DEFAULT_THRESHOLD = 0.35


Signature = Dict[int, float]


def _distance(a: Signature, b: Signature) -> float:
    keys = set(a) | set(b)
    return sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


@dataclass
class Phase:
    """One detected phase: a leader signature and its intervals."""

    phase_id: int
    leader: Signature
    intervals: List[int] = field(default_factory=list)


class PhaseDetector:
    """Online leader-clustering phase detector over interval signatures.

    The caller cuts the instruction column into ``interval``-long slices
    and hands each to :meth:`classify` in order; a trace's last slice
    is just shorter.
    """

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.threshold = threshold
        self.phases: List[Phase] = []
        #: phase id assigned to each classified interval, in order
        self.assignments: List[int] = []

    def classify(self, instructions: Sequence[int]) -> int:
        """Assign one interval, given its instruction ids, to a phase
        and return the phase id."""
        total = float(len(instructions))
        signature = {k: v / total for k, v in Counter(instructions).items()}
        phase = self._classify(signature)
        phase.intervals.append(len(self.assignments))
        self.assignments.append(phase.phase_id)
        return phase.phase_id

    def _classify(self, signature: Signature) -> Phase:
        best: Optional[Phase] = None
        best_distance = self.threshold
        for phase in self.phases:
            distance = _distance(signature, phase.leader)
            if distance <= best_distance:
                best = phase
                best_distance = distance
        if best is not None:
            return best
        phase = Phase(len(self.phases), signature)
        self.phases.append(phase)
        return phase


@dataclass
class PhasedLeapProfile:
    """Per-phase LEAP profiles plus the phase assignment sequence."""

    profiles: Dict[int, LeapProfile]
    phases: List[Phase]
    assignments: List[int]
    interval: int

    def phase_count(self) -> int:
        return len(self.phases)

    def accesses_captured(self) -> float:
        """Capture rate across all phases combined."""
        total = sum(p.access_count for p in self.profiles.values())
        if not total:
            return 1.0
        captured = sum(
            entry.captured_symbols
            for profile in self.profiles.values()
            for entry in profile.entries.values()
        )
        return captured / total

    def size_bytes(self) -> int:
        return sum(profile.size_bytes() for profile in self.profiles.values())


class PhasedLeapProfiler:
    """LEAP with phase-cognizant collection.

    Accesses are routed to a per-phase :class:`VerticalLMADSCC`, keyed by
    the phase of the interval they fall in.  Each phase thus gets its
    own descriptor budget, so a pattern change at a phase boundary no
    longer burns the whole-run budget.
    """

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        interval: int = DEFAULT_INTERVAL,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.budget = budget
        self.interval = interval
        self.threshold = threshold

    def profile(self, trace: Trace) -> PhasedLeapProfile:
        omc = ObjectManager()
        detector = PhaseDetector(self.interval, self.threshold)
        sccs: Dict[int, VerticalLMADSCC] = {}
        counts: Dict[int, int] = {}
        *rows, kinds = translate_columns(trace, omc)
        kinds = iter(kinds)  # read once, across every slice
        interval = self.interval
        # The phase of an interval is only known once its slice is
        # classified, so each slice is decomposed into its phase's SCC.
        for start in range(0, len(rows[0]), interval):
            chunk = [column[start:start + interval] for column in rows]
            chunk.append(islice(kinds, interval))
            phase_id = detector.classify(chunk[0])
            scc = sccs.get(phase_id)
            if scc is None:
                scc = sccs[phase_id] = VerticalLMADSCC(budget=self.budget)
            scc.compress_streams(scc.decompose(chunk))
            counts[phase_id] = counts.get(phase_id, 0) + len(chunk[0])

        group_labels = {g.group_id: g.label for g in omc.groups}
        profiles = {
            phase_id: LeapProfile(
                entries=scc.finish(),
                kinds=scc.kinds,
                exec_counts=scc.exec_counts,
                group_labels=group_labels,
                access_count=counts.get(phase_id, 0),
                budget=self.budget,
            )
            for phase_id, scc in sccs.items()
        }
        return PhasedLeapProfile(
            profiles=profiles,
            phases=detector.phases,
            assignments=detector.assignments,
            interval=self.interval,
        )


def compare_with_flat(
    trace: Trace,
    budget: int = DEFAULT_BUDGET,
    interval: int = DEFAULT_INTERVAL,
) -> Tuple[float, float]:
    """(flat capture rate, phased capture rate) for one trace -- the
    headline of the phase-cognizant ablation."""
    flat = LeapProfiler(budget=budget).profile(trace)
    phased = PhasedLeapProfiler(budget=budget, interval=interval).profile(trace)
    return flat.accesses_captured(), phased.accesses_captured()
