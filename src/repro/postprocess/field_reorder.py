"""Field reordering from the offset dimension of the profile.

Section 3.2: "the offset-level grammar can be used for optimizations
like field-reordering.  A frequently repeated offset sequence, say
(0, 36)*, along with the object lifetime information ... may reveal
field-reordering opportunity to the compiler to take advantage of
spatial locality."

For each group, the offsets accessed within its objects are ranked by
a combination of access frequency and pairwise temporal affinity; hot
fields are packed first so they share cache lines.  The proposed
per-group offset permutation is evaluated by replaying the trace's
address column, with remapped intra-object offsets, through the cache
simulator.

Only word-aligned offsets are permuted (the workloads' access
granularity); groups whose objects are smaller than a cache line are
skipped -- reordering inside one line cannot change miss counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

from repro.core.cdc import translate_columns
from repro.core.events import Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP
from repro.runtime.cache import CacheConfig, SimulationComparison, simulate

WORD = 8


@dataclass
class FieldOrder:
    """Proposed field layout for one group: old offset -> new offset."""

    group: int
    remap: Dict[int, int]

    def apply(self, offset: int) -> int:
        return self.remap.get(offset, offset)


def field_statistics(
    groups: Sequence[int],
    serials: Sequence[int],
    offsets: Sequence[int],
    window: int = 4,
) -> Tuple[Dict[int, Dict[int, int]], Dict[int, Dict[Tuple[int, int], int]]]:
    """Per-group offset frequencies and pairwise offset affinities, from
    a translation's group, object and offset columns; wild accesses are
    skipped."""
    frequency: Dict[int, Dict[int, int]] = {}
    affinity: Dict[int, Dict[Tuple[int, int], int]] = {}
    recent: Deque[Tuple[int, int, int]] = deque(maxlen=window)
    for group, serial, offset in zip(groups, serials, offsets):
        if group == WILD_GROUP:
            continue
        group_frequency = frequency.setdefault(group, {})
        group_frequency[offset] = group_frequency.get(offset, 0) + 1
        for other_group, other_serial, other_offset in recent:
            if (
                other_group == group
                and other_serial == serial
                and other_offset != offset
            ):
                pair = (min(offset, other_offset), max(offset, other_offset))
                group_affinity = affinity.setdefault(group, {})
                group_affinity[pair] = group_affinity.get(pair, 0) + 1
        recent.append((group, serial, offset))
    return frequency, affinity


def propose_orders(
    frequency: Dict[int, Dict[int, int]],
    affinity: Dict[int, Dict[Tuple[int, int], int]],
    object_sizes: Dict[int, int],
    line_bytes: int = 64,
) -> Dict[int, FieldOrder]:
    """Greedy layout per group: hottest field first, then repeatedly the
    field most affine to those already placed (frequency as the
    tie-breaker), packed at consecutive word offsets.

    Each remaining field's bond to the placed ones is kept as a running
    sum, so a step adds only the newly placed field's affinity."""
    orders: Dict[int, FieldOrder] = {}
    for group, group_frequency in frequency.items():
        if object_sizes.get(group, 0) <= line_bytes:
            continue  # already fits one line; reordering is a no-op
        offsets = sorted(group_frequency)
        if len(offsets) < 2:
            continue
        group_affinity = affinity.get(group, {})
        placed: List[int] = [max(offsets, key=lambda o: group_frequency[o])]
        remaining = set(offsets) - set(placed)
        bond = dict.fromkeys(remaining, 0)
        while remaining:
            last = placed[-1]
            for candidate in remaining:
                bond[candidate] += group_affinity.get(
                    (min(candidate, last), max(candidate, last)), 0
                )
            best = max(
                remaining, key=lambda c: (bond[c], group_frequency[c])
            )
            placed.append(best)
            remaining.discard(best)
        remap = {old: index * WORD for index, old in enumerate(placed)}
        if any(old != new for old, new in remap.items()):
            orders[group] = FieldOrder(group, remap)
    return orders


class FieldReorderer:
    """End-to-end field-reordering evaluation over one trace."""

    def __init__(self, window: int = 4, line_bytes: int = 64) -> None:
        self.window = window
        self.line_bytes = line_bytes

    def propose(self, trace: Trace) -> Dict[int, FieldOrder]:
        omc = ObjectManager()
        __, groups, serials, offsets, *__ = translate_columns(trace, omc)
        frequency, affinity = field_statistics(
            groups, serials, offsets, window=self.window
        )
        sizes: Dict[int, int] = {}
        for record in omc.objects():
            sizes[record.group_id] = max(
                sizes.get(record.group_id, 0), record.size
            )
        return propose_orders(frequency, affinity, sizes, self.line_bytes)

    def evaluate(
        self, trace: Trace, config: CacheConfig = CacheConfig()
    ) -> SimulationComparison:
        orders = self.propose(trace)
        # the trace keeps its translation, so this call resolves nothing
        __, groups, __, offsets, *__ = translate_columns(trace)
        __, addresses, __, __ = trace.access_columns()
        optimized: List[int] = []
        for group, offset, address in zip(groups, offsets, addresses):
            order = orders.get(group)  # None for a wild access's group
            if order is None:
                optimized.append(address)
            else:
                optimized.append(address - offset + order.apply(offset))
        return SimulationComparison(
            baseline=simulate(addresses, config),
            optimized=simulate(optimized, config),
            label="field reordering",
            extra={"groups_reordered": len(orders)},
        )
