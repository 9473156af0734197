"""RASG -- the raw-address Sequitur grammar baseline (Section 3.2).

"To compare the performance of OMSG, we also generate the conventional
RASG using the raw address stream (similar to the grammars in [Rubin et
al.])."  The raw stream here is the (instruction-id, address) pairs as
recorded -- exactly what WHOMP sees before object-relative translation.

To be fair to the baseline, the stream is decomposed the same way WHOMP
decomposes (two dimensions: instruction-id and address), each compressed
with its own Sequitur grammar and kept frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.compression.sequitur import FrozenGrammar, compress
from repro.core.events import Trace


@dataclass
class RasgProfile:
    """The raw-address Sequitur profile."""

    #: the finished instruction-id and address grammars
    grammars: Dict[str, FrozenGrammar]
    access_count: int

    def size(self) -> int:
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
        return {name: grammar.size() for name, grammar in self.grammars.items()}


class RasgProfiler:
    """Lossless raw-address profiler: one Sequitur grammar for the
    instruction-id stream and one for the address stream -- the
    strongest fair baseline."""

    def profile(self, trace: Trace) -> RasgProfile:
        instructions, addresses, __, __ = trace.access_columns()
        grammars = {
            "instruction": compress(instructions).freeze(),
            "address": compress(addresses).freeze(),
        }
        return RasgProfile(grammars=grammars, access_count=trace.access_count)
