"""Separation and Compression Component (SCC).

"The SCC first separates the stream into multiple substreams (by
horizontal decomposition, vertical decomposition, or both).  It then
sends the substreams into a stream compressor." (Section 2.3)

Two concrete SCCs are provided, one per profiler:

* :class:`HorizontalSequiturSCC` -- WHOMP's: horizontal decomposition
  along the four tuple dimensions, one Sequitur grammar per dimension.
* :class:`VerticalLMADSCC` -- LEAP's: vertical decomposition by
  instruction-id then group, one bounded LMAD compressor per
  ``(instruction, group)`` sub-stream over (object, offset, time)
  triples.

The profilers' stage loop, offline and online alike, hands each SCC
the translation's :data:`~repro.core.cdc.Columns` a chunk at a time:
:meth:`decompose` splits a chunk into sub-streams in one stage and
:meth:`compress_streams` compresses them in the next.  Phase
detection hands each interval to its phase's SCC the same way.
``consume`` takes one :class:`ObjectRelativeAccess` at a time instead,
for a caller that holds a stream of tuples (an
:class:`~repro.core.cdc.OnlineCDC`'s consumer); the profile is the same.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.compression.lmad import DEFAULT_BUDGET, LMADCompressor, LMADProfileEntry
from repro.compression.sequitur import SequiturGrammar
from repro.core.cdc import Columns
from repro.core.events import AccessKind
from repro.core.tuples import DIMENSIONS, ObjectRelativeAccess


class HorizontalSequiturSCC:
    """WHOMP's SCC: four dimension streams, four stream compressors.

    "The SCC first decomposes the object-relative stream horizontally
    along all four dimensions (instruction ID, group, object and
    offset).  Each of these streams is then fed into a separate Sequitur
    compressor." (Section 3.1)

    The compressor is pluggable (Section 2.3 lists Sequitur, linear
    compression "and others"); any factory producing objects with
    ``feed``/``feed_all``/``freeze``/``expand``/``size``/``size_bytes_varint``
    works --
    :class:`~repro.compression.rle.DeltaRleCodec` is the built-in
    alternative used by the compressor ablation.
    """

    def __init__(self, compressor=SequiturGrammar) -> None:
        self.grammars: Dict[str, object] = {
            name: compressor() for name in DIMENSIONS
        }

    def consume(self, access: ObjectRelativeAccess) -> None:
        self.grammars["instruction"].feed(access.instruction_id)
        self.grammars["group"].feed(access.group)
        self.grammars["object"].feed(access.object_serial)
        self.grammars["offset"].feed(access.offset)

    # -- staged interface ------------------------------------------------

    def decompose(self, columns: Columns) -> Dict[str, Sequence[int]]:
        """Horizontal decomposition: the four dimension streams are the
        translation's first four columns."""
        return dict(zip(DIMENSIONS, columns))

    def compress_streams(self, streams: Dict[str, Sequence[int]]) -> None:
        """Feed each decomposed dimension stream to its compressor, one
        ``feed_all`` call per stream."""
        for name, values in streams.items():
            self.grammars[name].feed_all(values)

    def total_size(self) -> int:
        """Combined grammar size across the four dimensions."""
        return sum(grammar.size() for grammar in self.grammars.values())

    def total_size_bytes(self, bytes_per_symbol: int = 4) -> int:
        return sum(
            grammar.size_bytes(bytes_per_symbol) for grammar in self.grammars.values()
        )


class VerticalLMADSCC:
    """LEAP's SCC: per-(instruction, group) LMAD compression.

    "the SCC decomposes the stream vertically by instruction id and then
    by group to get a number of (object, offset, time) streams.  These
    streams are then sent to a linear compressor" (Section 4.1).

    The compressor budget is the paper's 30 descriptors per sub-stream.
    Load/store kind and per-instruction execution counts are tracked on
    the side for the post-processors.
    """

    #: dimension order inside each compressed triple
    TRIPLE_DIMS = ("object", "offset", "time")

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        overflow_cap: "int | None" = None,
    ) -> None:
        self.budget = budget
        self.overflow_cap = overflow_cap
        self._compressors: Dict[Tuple[int, int], LMADCompressor] = {}
        self._kinds: Dict[int, AccessKind] = {}
        self._exec_counts: Dict[int, int] = {}

    def consume(self, access: ObjectRelativeAccess) -> None:
        key = (access.instruction_id, access.group)
        compressor = self._compressors.get(key)
        if compressor is None:
            compressor = LMADCompressor(
                dims=3, budget=self.budget, overflow_cap=self.overflow_cap
            )
            self._compressors[key] = compressor
        compressor.feed((access.object_serial, access.offset, access.time))
        self._kinds.setdefault(access.instruction_id, access.kind)
        self._exec_counts[access.instruction_id] = (
            self._exec_counts.get(access.instruction_id, 0) + 1
        )

    # -- staged interface ------------------------------------------------

    def decompose(
        self, columns: Columns
    ) -> Dict[Tuple[int, int], List[Tuple[int, int, int]]]:
        """Vertical decomposition: (instruction, group) -> triple stream,
        one group-by over the translation's columns.

        Also tracks the side tables (kinds, execution counts) exactly as
        per-access :meth:`consume` would, in first-occurrence order.
        """
        instructions, groups, serials, offsets, times, __, kinds = columns
        substreams: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        first_kinds = self._kinds
        for instruction, group, serial, offset, time, kind in zip(
            instructions, groups, serials, offsets, times, kinds
        ):
            key = (instruction, group)
            stream = substreams.get(key)
            if stream is None:
                stream = substreams[key] = []
                # an instruction first shows up in a new substream
                first_kinds.setdefault(instruction, kind)
            stream.append((serial, offset, time))
        exec_counts = self._exec_counts
        for instruction, count in Counter(instructions).items():
            exec_counts[instruction] = exec_counts.get(instruction, 0) + count
        return substreams

    def compress_streams(
        self, substreams: Dict[Tuple[int, int], List[Tuple[int, int, int]]]
    ) -> None:
        """Feed each decomposed sub-stream to its LMAD compressor."""
        for key, triples in substreams.items():
            compressor = self._compressors.get(key)
            if compressor is None:
                compressor = LMADCompressor(
                    dims=3, budget=self.budget, overflow_cap=self.overflow_cap
                )
                self._compressors[key] = compressor
            compressor.feed_all(triples)

    def finish(self) -> Dict[Tuple[int, int], LMADProfileEntry]:
        """Close all compressors and return the entries."""
        return {key: comp.finish() for key, comp in self._compressors.items()}

    @property
    def kinds(self) -> Dict[int, AccessKind]:
        return dict(self._kinds)

    @property
    def exec_counts(self) -> Dict[int, int]:
        return dict(self._exec_counts)
