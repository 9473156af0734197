"""Object Management Component (OMC).

Figure 4's OMC: "records information about every object allocated in the
program: the time when it is allocated and de-allocated, the address
range used by the object, and the type of the object.  Additionally,
this component assigns an identifier to every group and object...  Given
an address, the OMC identifies the group and object, and translates the
raw address into a (group, object, offset) triple."

Groups follow the paper's policy: dynamic objects are grouped by static
allocation site, optionally refined by compiler-provided type
information; static objects are grouped by symbol.  Object serial
numbers count creation order *within* a group, so they are stable across
allocator and layout changes -- the whole point of object-relativity.

Section 3.1 speeds up address lookup with "an auxiliary B-tree-like
data structure which stores the range of addresses that each object
takes up".  Here that structure is three parallel lists of the live
objects sorted by start address, searched with :mod:`bisect`: resolving
an address is the same floor lookup plus range check a B-tree would do.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class TranslationError(Exception):
    """Raised on inconsistent object probe streams (double free etc.)."""


@dataclass
class ObjectRecord:
    """Everything the OMC remembers about one object instance."""

    group_id: int
    serial: int
    start: int
    size: int
    alloc_time: int
    free_time: Optional[int] = None

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def live(self) -> bool:
        return self.free_time is None

    def lifetime(self) -> Optional[int]:
        """Ticks between creation and destruction, if destroyed."""
        if self.free_time is None:
            return None
        return self.free_time - self.alloc_time


@dataclass
class GroupRecord:
    """One group: all objects sharing an allocation site (and type)."""

    group_id: int
    site: str
    type_name: Optional[str]
    objects: List[ObjectRecord] = field(default_factory=list)

    @property
    def label(self) -> str:
        if self.type_name:
            return f"{self.site}<{self.type_name}>"
        return self.site


class ObjectManager:
    """The OMC: group/object identity, lifetimes, and address translation.

    ``refine_by_type``
        When true, objects allocated at the same site with different
        compiler-provided types land in different groups (Section 3.1:
        "The compiler can provide type information to further refine
        this strategy").
    """

    def __init__(self, refine_by_type: bool = False) -> None:
        self.refine_by_type = refine_by_type
        self._groups: List[GroupRecord] = []
        self._group_ids: Dict[Tuple[str, Optional[str]], int] = {}
        # the live objects, sorted by start address; two live objects
        # never share a byte
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._records: List[ObjectRecord] = []

    # -- object probe input ------------------------------------------------

    def on_alloc(
        self,
        address: int,
        size: int,
        site: str,
        type_name: Optional[str],
        time: int,
    ) -> ObjectRecord:
        """Register a created object and assign its identifiers.

        An object of non-positive size, or one overlapping a live
        object, means the allocator substrate and the probe stream
        disagree: it raises :class:`TranslationError` and registers
        nothing.
        """
        end = address + size
        if size <= 0:
            raise TranslationError(f"object at {address:#x} has size {size}")
        # live objects are disjoint, so if any overlaps [address, end),
        # the last one starting before ``end`` does
        index = bisect_right(self._starts, end - 1)
        if index and self._ends[index - 1] > address:
            raise TranslationError(
                f"object [{address:#x}, {end:#x}) overlaps live "
                f"[{self._starts[index - 1]:#x}, {self._ends[index - 1]:#x})"
            )
        group = self._group_for(site, type_name)
        record = ObjectRecord(
            group_id=group.group_id,
            serial=len(group.objects),
            start=address,
            size=size,
            alloc_time=time,
        )
        group.objects.append(record)
        self._starts.insert(index, address)
        self._ends.insert(index, end)
        self._records.insert(index, record)
        return record

    def on_free(self, address: int, time: int) -> ObjectRecord:
        """Register object destruction; the address must be a live start."""
        index = bisect_left(self._starts, address)
        if index == len(self._starts) or self._starts[index] != address:
            raise TranslationError(f"free of untracked object {address:#x}")
        del self._starts[index], self._ends[index]
        record = self._records.pop(index)
        record.free_time = time
        return record

    def _group_for(self, site: str, type_name: Optional[str]) -> GroupRecord:
        key = (site, type_name if self.refine_by_type else None)
        group_id = self._group_ids.get(key)
        if group_id is None:
            group_id = len(self._groups)
            self._group_ids[key] = group_id
            self._groups.append(GroupRecord(group_id, site, key[1]))
        return self._groups[group_id]

    # -- translation -----------------------------------------------------

    def translate(self, address: int) -> Optional[Tuple[int, int, int]]:
        """Raw address -> ``(group, object, offset)``, or ``None`` if no
        live object contains the address."""
        hit = self.resolve(address)
        if hit is None:
            return None
        start, __, record = hit
        return record.group_id, record.serial, address - start

    def resolve(self, address: int) -> Optional[Tuple[int, int, ObjectRecord]]:
        """The live object containing ``address`` as ``(start, end,
        record)``, or ``None``."""
        index = bisect_right(self._starts, address) - 1
        if index >= 0 and address < self._ends[index]:
            return self._starts[index], self._ends[index], self._records[index]
        return None

    @property
    def fresh(self) -> bool:
        """True until the first object is registered."""
        return not self._groups

    # -- auxiliary outputs (the run/alloc-dependent side channel) -----------

    @property
    def groups(self) -> List[GroupRecord]:
        return list(self._groups)

    def group(self, group_id: int) -> GroupRecord:
        return self._groups[group_id]

    def group_id_of_site(
        self, site: str, type_name: Optional[str] = None
    ) -> Optional[int]:
        return self._group_ids.get((site, type_name if self.refine_by_type else None))

    def objects(self) -> List[ObjectRecord]:
        """All object records across groups, in group/serial order."""
        return [record for group in self._groups for record in group.objects]

    def object(self, group_id: int, serial: int) -> ObjectRecord:
        return self._groups[group_id].objects[serial]

    def live_count(self) -> int:
        return len(self._starts)

    def base_address_table(self) -> Dict[Tuple[int, int], int]:
        """(group, serial) -> start address for every object ever seen.

        This is the auxiliary information that, together with the
        object-relative stream, makes WHOMP lossless: raw addresses are
        ``table[(group, object)] + offset``.
        """
        return {
            (record.group_id, record.serial): record.start
            for group in self._groups
            for record in group.objects
        }

    def lifetime_table(self) -> List[Tuple[int, int, int, Optional[int], int]]:
        """Rows of (group, serial, alloc_time, free_time, size) -- the
        object lifetime output of Figure 4."""
        return [
            (r.group_id, r.serial, r.alloc_time, r.free_time, r.size)
            for group in self._groups
            for r in group.objects
        ]
