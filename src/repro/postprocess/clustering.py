"""Cache-conscious object clustering from object-relative profiles.

One of the optimizations the paper's profiles exist to feed: "the use
of object-level grammar for object clustering or global variable
re-mapping" (Section 3.2, citing Rubin/Bodik/Chilimbi and Calder's
cache-conscious data placement).  Objects that are accessed together
should live together; the object dimension of the profile says exactly
which those are, *independently of where the allocator happened to put
them*.

The pipeline:

1. build a temporal co-access affinity graph over objects from the
   translated trace's (group, object) columns;
2. order objects by greedy affinity chaining (hottest first, repeatedly
   appending the unplaced object with the strongest affinity to the
   cluster tail);
3. assign packed addresses in that order -- the layout a
   cache-conscious allocator would have produced;
4. replay the trace's address column and its remapped twin through the
   cache simulator (:mod:`repro.runtime.cache`) and compare miss rates.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cdc import translate_columns
from repro.core.events import Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP
from repro.runtime.cache import CacheConfig, SimulationComparison, simulate
from repro.runtime.memory import align_up

ObjectRef = Tuple[int, int]  # (group, serial)


def affinity_graph(
    references: Iterable[ObjectRef], window: int = 8
) -> Dict[Tuple[ObjectRef, ObjectRef], int]:
    """Co-access affinity: how often two objects appear within
    ``window`` non-wild accesses of each other."""
    recent: Deque[ObjectRef] = deque(maxlen=window)
    edges: Dict[Tuple[ObjectRef, ObjectRef], int] = {}
    for reference in references:
        for other in recent:
            if other == reference:
                continue
            edge = (min(reference, other), max(reference, other))
            edges[edge] = edges.get(edge, 0) + 1
        recent.append(reference)
    return edges


def cluster_order(
    objects: Sequence[ObjectRef],
    edges: Dict[Tuple[ObjectRef, ObjectRef], int],
    heat: Optional[Dict[ObjectRef, int]] = None,
) -> List[ObjectRef]:
    """Greedy affinity chaining: seed with the hottest object, then keep
    appending the unplaced object most affine to the current tail (or
    the next hottest when the tail has no unplaced neighbours)."""
    heat = heat or {}
    neighbours: Dict[ObjectRef, Dict[ObjectRef, int]] = {}
    for (a, b), weight in edges.items():
        neighbours.setdefault(a, {})[b] = weight
        neighbours.setdefault(b, {})[a] = weight
    unplaced = set(objects)
    by_heat = sorted(objects, key=lambda o: heat.get(o, 0), reverse=True)
    order: List[ObjectRef] = []
    tail: Optional[ObjectRef] = None
    heat_cursor = 0
    while unplaced:
        candidate: Optional[ObjectRef] = None
        if tail is not None:
            options = [
                (weight, other)
                for other, weight in neighbours.get(tail, {}).items()
                if other in unplaced
            ]
            if options:
                candidate = max(options)[1]
        if candidate is None:
            while by_heat[heat_cursor] not in unplaced:
                heat_cursor += 1
            candidate = by_heat[heat_cursor]
        order.append(candidate)
        unplaced.discard(candidate)
        tail = candidate
    return order


@dataclass
class ClusteredLayout:
    """A proposed packed layout: object -> new base address."""

    bases: Dict[ObjectRef, int]
    order: List[ObjectRef]
    total_bytes: int

    def address_of(
        self, group: int, serial: int, offset: int, fallback: int
    ) -> int:
        """The access's address in the clustered layout; ``fallback``
        when the layout does not place its object (as for a wild one)."""
        base = self.bases.get((group, serial))
        if base is None:
            return fallback
        return base + offset


def build_layout(
    order: Sequence[ObjectRef],
    sizes: Dict[ObjectRef, int],
    base: int = 1 << 24,
    align: int = 16,
) -> ClusteredLayout:
    """Pack objects at ``align``-aligned addresses in cluster order."""
    bases: Dict[ObjectRef, int] = {}
    cursor = base
    for reference in order:
        bases[reference] = cursor
        cursor += align_up(sizes.get(reference, align), align)
    return ClusteredLayout(bases, list(order), cursor - base)


class ObjectClusterer:
    """End-to-end clustering evaluation over one trace."""

    def __init__(self, window: int = 8, align: int = 16) -> None:
        self.window = window
        self.align = align

    def propose(self, trace: Trace) -> Tuple[ClusteredLayout, ObjectManager]:
        """Derive a clustered layout from the trace's profile."""
        omc = ObjectManager()
        __, groups, serials, *__ = translate_columns(trace, omc)
        references = [r for r in zip(groups, serials) if r[0] != WILD_GROUP]
        edges = affinity_graph(references, window=self.window)
        sizes = {
            (record.group_id, record.serial): record.size
            for record in omc.objects()
        }
        order = cluster_order(list(sizes), edges, Counter(references))
        return build_layout(order, sizes, align=self.align), omc

    def evaluate(
        self, trace: Trace, config: CacheConfig = CacheConfig()
    ) -> SimulationComparison:
        """Miss rates before (allocator layout) and after (clustered)."""
        layout, __ = self.propose(trace)
        # the trace keeps its translation, so this call resolves nothing
        __, groups, serials, offsets, *__ = translate_columns(trace)
        __, addresses, __, __ = trace.access_columns()
        optimized = list(map(layout.address_of, groups, serials, offsets, addresses))
        return SimulationComparison(
            baseline=simulate(addresses, config),
            optimized=simulate(optimized, config),
            label="object clustering",
            extra={"layout_bytes": layout.total_bytes},
        )
