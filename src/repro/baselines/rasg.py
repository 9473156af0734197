"""RASG -- the raw-address Sequitur grammar baseline (Section 3.2).

"To compare the performance of OMSG, we also generate the conventional
RASG using the raw address stream (similar to the grammars in [Rubin et
al.])."  The raw stream here is the (instruction-id, address) pairs as
recorded -- exactly what WHOMP sees before object-relative translation.

To be fair to the baseline, the stream is decomposed the same way WHOMP
decomposes (two dimensions: instruction-id and address), each compressed
with its own Sequitur grammar; the conventional single-stream variant
(addresses interleaved) is also available for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.compression.sequitur import FrozenGrammar, SequiturGrammar, compress
from repro.core.events import Trace


@dataclass
class RasgProfile:
    """The raw-address Sequitur profile."""

    #: finished split-dimension grammars; the single interleaved
    #: stream's terminals are tuples, so that grammar stays live
    grammars: Dict[str, Union[FrozenGrammar, SequiturGrammar]]
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
    """Lossless raw-address profiler: Sequitur over the raw stream.

    ``split_dimensions``
        True (default): one grammar for the instruction-id stream and
        one for the address stream -- the strongest fair baseline.
        False: a single grammar over the interleaved
        ``instr, addr, instr, addr, ...`` stream.
    """

    def __init__(self, split_dimensions: bool = True) -> None:
        self.split_dimensions = split_dimensions

    def profile(self, trace: Trace) -> RasgProfile:
        instructions, addresses, __, __ = trace.access_columns()
        if self.split_dimensions:
            grammars = {
                "instruction": compress(instructions).freeze(),
                "address": compress(addresses).freeze(),
            }
        else:
            grammar = SequiturGrammar()
            grammar.feed_all(
                token
                for instruction, address in zip(instructions, addresses)
                for token in (("I", instruction), ("A", address))
            )
            grammars = {"stream": grammar}
        return RasgProfile(grammars=grammars, access_count=trace.access_count)
