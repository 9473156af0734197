"""The paper's core: object-relative tuples, translation, and the
OMC/CDC/SCC components of the Figure 4 framework (the SCCs carry the
horizontal and vertical decomposition)."""

from repro.core.cdc import OnlineCDC, translate_trace, translate_trace_list
from repro.core.events import AccessEvent, AccessKind, AllocEvent, FreeEvent, Trace
from repro.core.omc import GroupRecord, ObjectManager, ObjectRecord, TranslationError
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import DIMENSIONS, WILD_GROUP, WILD_OBJECT, ObjectRelativeAccess

__all__ = [
    "AccessEvent", "AccessKind", "AllocEvent", "DIMENSIONS", "FreeEvent",
    "GroupRecord", "HorizontalSequiturSCC", "ObjectManager", "ObjectRecord",
    "ObjectRelativeAccess", "OnlineCDC", "Trace", "TranslationError",
    "VerticalLMADSCC", "WILD_GROUP", "WILD_OBJECT", "translate_trace",
    "translate_trace_list",
]
