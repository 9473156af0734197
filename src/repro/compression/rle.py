"""Delta + run-length codec: the cheap alternative stream compressor.

Section 2.3 notes the SCC's compressor is pluggable: "Examples of such
compression schemes include linear compression, Sequitur compression,
and others."  This module provides the "others": a classic delta + RLE
codec that encodes a stream as runs of equal successive deltas.

It is the natural foil for Sequitur in the compressor ablation: it
devours strided streams (a whole arithmetic sweep is one run) but,
unlike a grammar, cannot exploit *repetition of composite patterns* --
a repeated motif of mixed deltas costs full price every time.  The
ablation bench quantifies exactly that gap on the decomposed
object-relative streams.

The codec satisfies the same informal stream-compressor protocol as
:class:`~repro.compression.sequitur.SequiturGrammar` (``feed``,
``expand``, ``size``, ``size_bytes_varint``), so it can be dropped into
WHOMP via ``WhompProfiler(compressor=DeltaRleCodec)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional


@dataclass(frozen=True)
class Run:
    """``count`` successive symbols each ``delta`` apart, starting at
    ``first`` (``delta`` is meaningless when ``count == 1``)."""

    first: int
    delta: int
    count: int


def _varint_len(value: int) -> int:
    encoded = value * 2 if value >= 0 else -value * 2 - 1
    length = 1
    while encoded >= 0x80:
        encoded >>= 7
        length += 1
    return length


class DeltaRleCodec:
    """Online delta + run-length encoder for integer streams.

    >>> codec = DeltaRleCodec()
    >>> codec.feed_all([0, 8, 16, 24, 5, 5, 5])
    >>> codec.expand()
    [0, 8, 16, 24, 5, 5, 5]
    >>> codec.size()
    2
    """

    def __init__(self) -> None:
        self.runs: List[Run] = []
        self._open_first: Optional[int] = None
        self._open_delta: Optional[int] = None
        self._open_count = 0
        self._last: Optional[int] = None
        self._tokens_fed = 0

    # -- encoding --------------------------------------------------------

    def feed(self, token: int) -> None:
        if not isinstance(token, int) or isinstance(token, bool):
            raise TypeError("DeltaRleCodec compresses integer streams")
        self._tokens_fed += 1
        if self._open_first is None:
            self._open_first = token
            self._open_count = 1
        elif self._open_count == 1:
            self._open_delta = token - self._open_first
            self._open_count = 2
        elif token - self._last == self._open_delta:
            self._open_count += 1
        else:
            self._close()
            self._open_first = token
            self._open_count = 1
        self._last = token

    def feed_all(self, tokens: Iterable[int]) -> None:
        for token in tokens:
            self.feed(token)

    def _close(self) -> None:
        if self._open_first is None:
            return
        self.runs.append(
            Run(self._open_first, self._open_delta or 0, self._open_count)
        )
        self._open_first = None
        self._open_delta = None
        self._open_count = 0

    def _all_runs(self) -> List[Run]:
        if self._open_first is None:
            return self.runs
        open_run = Run(self._open_first, self._open_delta or 0, self._open_count)
        return self.runs + [open_run]

    # -- protocol --------------------------------------------------------

    @property
    def tokens_fed(self) -> int:
        return self._tokens_fed

    def size(self) -> int:
        """Number of runs (the codec's symbol count)."""
        return len(self._all_runs())

    def size_bytes(self, bytes_per_symbol: int = 4) -> int:
        """Fixed-width size: 3 fields per run."""
        return self.size() * 3 * bytes_per_symbol

    def size_bytes_varint(self) -> int:
        """Serialized size: first is delta-coded against the previous
        run's last value; delta and count are varints."""
        total = 0
        previous_end = 0
        for run in self._all_runs():
            total += _varint_len(run.first - previous_end)
            total += _varint_len(run.delta)
            total += _varint_len(run.count)
            previous_end = run.first + run.delta * (run.count - 1)
        return total

    def freeze(self) -> "DeltaRleCodec":
        """The finished codec: its runs are already compact and hold no
        reference cycle, so it is its own frozen form."""
        return self

    def expand(self) -> List[int]:
        out: List[int] = []
        for run in self._all_runs():
            out.extend(run.first + run.delta * k for k in range(run.count))
        return out


def compress(tokens: Iterable[int]) -> DeltaRleCodec:
    """One-shot convenience."""
    codec = DeltaRleCodec()
    codec.feed_all(tokens)
    return codec
