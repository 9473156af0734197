"""WHOMP -- the WHOle-stream Memory Profiler (Section 3).

WHOMP is the lossless object-relative profiler: it translates the full
access stream into object-relative form, decomposes it horizontally
along the four tuple dimensions, and compresses each dimension stream
with its own Sequitur instance.  The result is the paper's OMSG --
*object-relative multi-dimensional Sequitur grammar* -- plus the OMC's
auxiliary object table, which together losslessly encode the raw trace.

Losslessness is literal here: :meth:`WhompProfile.reconstruct_accesses`
re-derives the exact raw ``(instruction-id, address)`` stream, and the
test suite round-trips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compression.sequitur import FrozenGrammar, SequiturGrammar
from repro.core.omc import ObjectManager
from repro.core.scc import HorizontalSequiturSCC
from repro.core.tuples import DIMENSIONS, WILD_GROUP
from repro.obs.spans import Telemetry
from repro.profilers.pipeline import ProfilerPipeline


@dataclass
class WhompProfile:
    """WHOMP's output: the OMSG and the OMC's auxiliary tables."""

    #: one finished Sequitur grammar per tuple dimension (the OMSG)
    grammars: Dict[str, FrozenGrammar]
    #: (group, serial) -> object start address; run/alloc-dependent side
    #: information kept apart from the invariant object-relative tuples
    base_addresses: Dict[Tuple[int, int], int]
    #: (group, serial, alloc_time, free_time, size) rows
    lifetimes: List[Tuple[int, int, int, Optional[int], int]]
    #: group id -> human-readable label (site / type)
    group_labels: Dict[int, str]
    #: number of accesses profiled (degraded mode: accesses *kept*)
    access_count: int
    #: kept / (kept + quarantined); 1.0 outside degraded mode
    capture_completeness: float = 1.0
    #: tuples diverted to the quarantine sidecar instead of the OMSG
    quarantined: int = 0

    def size(self) -> int:
        """OMSG size: total grammar symbols across dimensions."""
        return sum(grammar.size() for grammar in self.grammars.values())

    def size_bytes(self, bytes_per_symbol: int = 4) -> int:
        return sum(
            g.size_bytes(bytes_per_symbol) for g in self.grammars.values()
        )

    def size_bytes_varint(self) -> int:
        """Serialized profile size with varint symbol coding -- the
        byte-level size Figure 5's comparison uses."""
        return sum(g.size_bytes_varint() for g in self.grammars.values())

    def dimension_sizes(self) -> Dict[str, int]:
        """Per-dimension grammar sizes -- the paper's point that each
        dimension's grammar serves a different optimization."""
        return {name: grammar.size() for name, grammar in self.grammars.items()}

    def expand_tuples(self) -> List[Tuple[int, int, int, int]]:
        """Decompress back to the (instruction, group, object, offset)
        tuple stream, in time order."""
        streams = {name: self.grammars[name].expand() for name in DIMENSIONS}
        length = self.access_count
        for name, stream in streams.items():
            if len(stream) != length:
                raise ValueError(
                    f"corrupt OMSG: {name} stream has {len(stream)} entries, "
                    f"expected {length}"
                )
        return list(
            zip(
                streams["instruction"],
                streams["group"],
                streams["object"],
                streams["offset"],
            )
        )

    def reconstruct_accesses(self) -> List[Tuple[int, int]]:
        """Losslessly rebuild the raw (instruction-id, address) stream
        from the OMSG plus the auxiliary base-address table."""
        out: List[Tuple[int, int]] = []
        for instruction, group, serial, offset in self.expand_tuples():
            if group == WILD_GROUP:
                out.append((instruction, offset))
            else:
                out.append((instruction, self.base_addresses[(group, serial)] + offset))
        return out


class WhompProfiler(ProfilerPipeline):
    """Run WHOMP over a recorded trace (offline) or attach it to a live
    process bus (online) via :meth:`attach`.

    >>> profiler = WhompProfiler()
    >>> profile = profiler.profile(trace)        # doctest: +SKIP
    """

    span_name = "whomp"

    def __init__(
        self,
        refine_by_type: bool = False,
        compressor=None,
        telemetry: Optional[Telemetry] = None,
        quarantine=None,
    ) -> None:
        super().__init__(refine_by_type, telemetry, quarantine)
        self.compressor = compressor if compressor is not None else SequiturGrammar

    def _new_scc(self) -> HorizontalSequiturSCC:
        return HorizontalSequiturSCC(compressor=self.compressor)

    def _build_profile(
        self, scc, omc: ObjectManager, access_count: int,
        capture_completeness: float, quarantined: int,
    ) -> WhompProfile:
        with self.telemetry.span("helper"):  # the wait for the helper's half
            grammars = scc.freeze()
        return WhompProfile(
            grammars=grammars,
            base_addresses=omc.base_address_table(),
            lifetimes=omc.lifetime_table(),
            group_labels={g.group_id: g.label for g in omc.groups},
            access_count=access_count,
            capture_completeness=capture_completeness,
            quarantined=quarantined,
        )

    @staticmethod
    def _record_metrics(profile: WhompProfile, telemetry: Telemetry) -> None:
        grammars = [
            g for g in profile.grammars.values() if isinstance(g, FrozenGrammar)
        ]
        rules = sum(g.rule_count() for g in grammars)
        made = sum(g.rules_made for g in grammars)
        telemetry.gauge(
            "whomp.grammar_rules", "Sequitur rules across the OMSG"
        ).set(rules)
        telemetry.counter(
            "whomp.rules_made_total", "Sequitur rules made, inlined ones too"
        ).inc(made)
        # a made rule that is not live (start rules aside) was inlined
        telemetry.counter(
            "whomp.rules_inlined_total", "Sequitur rules made, then inlined"
        ).inc(made - rules + len(grammars))
        telemetry.gauge(
            "whomp.profile_symbols", "total OMSG grammar symbols"
        ).set(profile.size())
        telemetry.gauge(
            "whomp.profile_bytes", "varint-coded OMSG size"
        ).set(profile.size_bytes_varint())
        telemetry.gauge(
            "whomp.groups", "object groups in the OMC tables"
        ).set(len(profile.group_labels))
