"""The object-relative access tuple.

Section 2.1 defines the translation of a raw ``(instruction-id, address)``
access into ``(instruction-id, group, object, offset)``, and Section 2.2
extends it with the time-stamp dimension:

    ``(instruction-id, group, object, offset, time-stamp)``

:class:`ObjectRelativeAccess` is that 5-tuple.  Two auxiliary fields --
access width and load/store kind -- ride along because the dependence
post-processor needs them; they are not part of the paper's tuple and are
never fed to the compressors.

Accesses that hit memory with no live tracked object (e.g. a read of a
freed block, or an untracked region) translate to the :data:`WILD_GROUP`
with the raw address preserved in ``offset`` so the stream stays
lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import AccessKind

#: Group id for accesses that resolve to no live object.
WILD_GROUP = -1

#: Object serial used together with :data:`WILD_GROUP`.
WILD_OBJECT = -1


@dataclass(frozen=True)
class ObjectRelativeAccess:
    """One translated memory access.

    ``group``
        Identifier of the object's group (allocation site, optionally
        refined by type).
    ``object_serial``
        Serial number of the object within its group, in creation order.
    ``offset``
        Byte offset of the access from the object's start -- or the raw
        address itself when ``group == WILD_GROUP``.
    """

    __slots__ = (
        "instruction_id",
        "group",
        "object_serial",
        "offset",
        "time",
        "size",
        "kind",
    )

    instruction_id: int
    group: int
    object_serial: int
    offset: int
    time: int
    size: int
    kind: AccessKind

    @property
    def wild(self) -> bool:
        """True when the access resolved to no live object."""
        return self.group == WILD_GROUP

    def malformation(self) -> "str | None":
        """Why this tuple cannot be trusted by the compressors, or
        ``None`` when it is well-formed.

        Corrupted probe events (bit-flipped addresses, damaged sizes or
        instruction ids) surface here as out-of-domain fields; degraded
        profiling quarantines such tuples instead of letting them crash
        or poison a compressor downstream.
        """
        if not isinstance(self.instruction_id, int) or self.instruction_id < 0:
            return "bad-instruction"
        if not isinstance(self.size, int) or self.size < 0:
            return "bad-size"
        if not isinstance(self.kind, AccessKind):
            return "bad-kind"
        if not isinstance(self.offset, int):
            return "bad-offset"
        if not isinstance(self.time, int) or self.time < 0:
            return "bad-time"
        if not isinstance(self.group, int) or not isinstance(
            self.object_serial, int
        ):
            return "bad-object"
        return None

    def dimension(self, name: str) -> int:
        """Fetch one of the paper's dimensions by name.

        Used by horizontal decomposition; ``name`` is one of
        ``instruction``, ``group``, ``object``, ``offset``, ``time``.
        """
        try:
            return {
                "instruction": self.instruction_id,
                "group": self.group,
                "object": self.object_serial,
                "offset": self.offset,
                "time": self.time,
            }[name]
        except KeyError:
            raise ValueError(f"unknown dimension {name!r}") from None


(
    _SET_INSTRUCTION, _SET_GROUP, _SET_OBJECT, _SET_OFFSET, _SET_TIME, _SET_SIZE, _SET_KIND
) = (vars(ObjectRelativeAccess)[name].__set__ for name in ObjectRelativeAccess.__slots__)
_new_access = ObjectRelativeAccess.__new__


def make_access(
    instruction_id: int,
    group: int,
    object_serial: int,
    offset: int,
    time: int,
    size: int,
    kind: AccessKind,
) -> ObjectRelativeAccess:
    """``ObjectRelativeAccess(...)`` for the translation hot path.

    It fills the slots directly instead of going through the frozen
    dataclass's ``__init__``, which routes every field through
    ``object.__setattr__``; that halves the cost of building a tuple.
    The result is an ordinary, equal, still-frozen instance.
    """
    access = _new_access(ObjectRelativeAccess)
    _SET_INSTRUCTION(access, instruction_id)
    _SET_GROUP(access, group)
    _SET_OBJECT(access, object_serial)
    _SET_OFFSET(access, offset)
    _SET_TIME(access, time)
    _SET_SIZE(access, size)
    _SET_KIND(access, kind)
    return access


#: The four dimensions of the paper's 4-tuple, in canonical order.  Time
#: is the fifth, added for vertical decomposition's re-indexing.
DIMENSIONS = ("instruction", "group", "object", "offset")
