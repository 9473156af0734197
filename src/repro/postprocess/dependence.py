"""Memory-dependence frequency (MDF) post-processor for LEAP profiles.

Section 4.2.1: from the collected LMADs, compute for every (st, ld)
instruction pair the fraction of the load's executions that read a
location some earlier execution of the store wrote:

    MDF(st, ld) = # conflicts with st / total # of executions of ld

"Because of the linear structure of LMADs, the above computation can be
sped up using some omega-test-like linear programming algorithms" -- the
intersection of each (store LMAD, load LMAD) pair is solved in closed
form by :mod:`repro.analysis.omega` over the (object, offset) equality
dimensions with the strict time-order constraint.

Conflicting load executions are counted as a union of arithmetic
progressions per load descriptor, so one load execution conflicting with
many store descriptors is counted once, exactly as the ground-truth
profiler counts it.

Because the LMADs hold a *sample* of each stream (the initial linear
runs, Section 4.1), the frequency is normalized by the load's captured
execution count rather than its exact total: a representative sample
then yields a nearly unbiased ratio even at modest capture rates --
which is how the paper reports 75% of pairs within 10% while capturing
only ~47% of accesses.  Bias enters only when the store's captured time
range fails to cover the load's (the small +/- tails of Figure 6), or
when a stream is captured not at all (the residual miss mass).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.omega import intersect_lmads
from repro.baselines.dependence_lossless import DependenceProfile
from repro.compression.lmad import LMAD
from repro.core.events import AccessKind
from repro.profilers.leap import LeapProfile

#: (object, offset) are the location-equality dimensions of LEAP's
#: (object, offset, time) triples; time is dimension 2.
EQUAL_DIMS = (0, 1)
TIME_DIM = 2

#: Above this many candidate conflict indices per load descriptor the
#: union is approximated by a capped sum instead of materialized.
ENUMERATION_CAP = 1 << 18


def _union_size(
    progressions: List[Tuple[int, int, int]], universe: int, cap: int
) -> int:
    """Size of the union of arithmetic progressions within [0, universe).

    Exact via materialization when small; otherwise the capped-sum upper
    bound (the inexactness then shows up as profile error, which is the
    quantity the experiments measure anyway).
    """
    if not progressions:
        return 0
    if len(progressions) == 1:
        return min(progressions[0][2], universe)
    total = sum(n for __, __, n in progressions)
    if total <= cap:
        members: Set[int] = set()
        for first, step, n in progressions:
            if step == 0:
                members.add(first)
            else:
                members.update(range(first, first + step * n, step))
        return len(members)
    return min(total, universe)


#: per dimension of an LMAD, the (least, greatest) value it takes
Box = Tuple[Tuple[int, int], ...]
Boxed = Tuple[LMAD, Box]


def lmad_box(lmad: LMAD) -> Box:
    """The LMAD's bounding box: each dimension moves monotonically from
    its start to its last element."""
    return tuple(
        (start, start + (lmad.count - 1) * stride)
        if stride >= 0
        else (start + (lmad.count - 1) * stride, start)
        for start, stride in zip(lmad.start, lmad.stride)
    )


def box_disjoint(store_box: Box, load_box: Box) -> bool:
    """True when the boxes alone prove a store and a load LMAD cannot
    conflict: their object or offset ranges do not overlap, or no store
    time is earlier than any load time.  Most pairs are settled here
    without solving the intersection."""
    for dim in EQUAL_DIMS:
        store_low, store_high = store_box[dim]
        load_low, load_high = load_box[dim]
        if store_high < load_low or load_high < store_low:
            return True
    return store_box[TIME_DIM][0] >= load_box[TIME_DIM][1]


def _boxed(entry) -> List[Boxed]:
    return [(lmad, lmad_box(lmad)) for lmad in entry.lmads]


class LeapDependenceAnalyzer:
    """Compute the MDF table from a LEAP profile.

    The result reuses :class:`DependenceProfile`, so the error-
    distribution machinery compares LEAP, Connors, and the lossless
    ground truth uniformly.
    """

    def __init__(self, enumeration_cap: int = ENUMERATION_CAP) -> None:
        self.enumeration_cap = enumeration_cap

    def analyze(self, profile: LeapProfile) -> DependenceProfile:
        # Denominators are the *captured* execution counts: conflicts are
        # only visible inside the captured sample, so the sample's own
        # size is the consistent normalizer (see module docstring).
        captured: Dict[int, int] = {}
        for (instr, __), entry in profile.entries.items():
            captured[instr] = captured.get(instr, 0) + entry.captured_symbols
        result = DependenceProfile(
            load_counts={i: captured.get(i, 0) for i in profile.loads()},
            store_counts={i: captured.get(i, 0) for i in profile.stores()},
        )
        by_group = self._entries_by_group(profile)
        for group, members in by_group.items():
            stores = [
                (instr, _boxed(entry))
                for instr, entry in members
                if profile.kinds[instr] is AccessKind.STORE
            ]
            loads = [
                (instr, _boxed(entry))
                for instr, entry in members
                if profile.kinds[instr] is AccessKind.LOAD
            ]
            for load_id, load_lmads in loads:
                for store_id, store_lmads in stores:
                    conflicts = self._pair_conflicts(store_lmads, load_lmads)
                    if conflicts:
                        pair = (store_id, load_id)
                        result.conflicts[pair] = (
                            result.conflicts.get(pair, 0) + conflicts
                        )
        return result

    def _entries_by_group(
        self, profile: LeapProfile
    ) -> Dict[int, List[Tuple[int, object]]]:
        by_group: Dict[int, List[Tuple[int, object]]] = {}
        for (instr, group), entry in profile.entries.items():
            by_group.setdefault(group, []).append((instr, entry))
        return by_group

    def _pair_conflicts(
        self, store_lmads: List[Boxed], load_lmads: List[Boxed]
    ) -> int:
        """Conflicting load executions between two profile entries,
        each given as its boxed LMADs."""
        total = 0
        for load_lmad, load_box in load_lmads:
            progressions: List[Tuple[int, int, int]] = []
            for store_lmad, store_box in store_lmads:
                if box_disjoint(store_box, load_box):
                    continue
                solution = intersect_lmads(
                    store_lmad, load_lmad, EQUAL_DIMS, time_dim=TIME_DIM
                )
                if not solution.is_empty:
                    progressions.append(solution.k2_progression())
            total += _union_size(
                progressions, load_lmad.count, self.enumeration_cap
            )
        return total


def analyze_dependences(
    profile: LeapProfile, enumeration_cap: int = ENUMERATION_CAP
) -> DependenceProfile:
    """Convenience wrapper: MDF table for a LEAP profile."""
    return LeapDependenceAnalyzer(enumeration_cap).analyze(profile)


def format_pairs(
    table: DependenceProfile, instruction_names: Dict[int, str], limit: int = 20
) -> Iterable[str]:
    """Human-readable ``(st, ld, frequency)`` rows like the paper's
    ``(st2, ld1, 10%)`` example, most frequent first."""
    pairs = sorted(
        table.dependent_pairs().items(), key=lambda kv: kv[1], reverse=True
    )
    for (store_id, load_id), frequency in pairs[:limit]:
        store = instruction_names.get(store_id, f"st{store_id}")
        load = instruction_names.get(load_id, f"ld{load_id}")
        yield f"({store}, {load}, {frequency:.1%})"
