"""Linear Memory Access Descriptor (LMAD) compression.

LEAP "uses a simple linear compressor, which is based on the linear
memory access descriptor (LMAD) model in [Paek & Hoeflinger]"
(Section 4.1).  An LMAD is the triple ``[start, stride, count]`` where
``start`` and ``stride`` are n-vectors (n = dimensionality of the
compressed stream): it describes the arithmetic sequence

    start, start + stride, start + 2*stride, ..., start + (count-1)*stride

The compressor reads symbols and extends the open descriptor while they
fit its linear pattern, starting a new descriptor otherwise.  The
paper's example:  offsets ``0 4 8 12 44 40 36`` compress to
``[0, 4, 4]`` and ``[44, -4, 3]``.

The descriptor *budget* makes the scheme lossy: once the maximum number
of LMADs for a stream is reached (the paper fixes 30 per
(instruction-id, group) pair), further non-fitting symbols are
discarded and only summary statistics -- max, min, and granularity --
are kept (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import gcd
from operator import add, sub
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[int, ...]

#: LEAP's default descriptor budget per compressed stream (Section 4.1:
#: "we chose a maximum of 30 LMADs for a given (instruction-id, group)
#: pair").
DEFAULT_BUDGET = 30


@dataclass(frozen=True)
class LMAD:
    """One closed linear descriptor over an n-dimensional symbol stream."""

    start: Vector
    stride: Vector
    count: int

    def __post_init__(self) -> None:
        if len(self.start) != len(self.stride):
            raise ValueError("start/stride dimensionality mismatch")
        if self.count < 1:
            raise ValueError(f"LMAD count must be >= 1, got {self.count}")

    @property
    def dims(self) -> int:
        return len(self.start)

    @property
    def last(self) -> Vector:
        """The final element described."""
        return tuple(
            s + (self.count - 1) * d for s, d in zip(self.start, self.stride)
        )

    def element(self, index: int) -> Vector:
        """The ``index``-th element (0-based)."""
        if not 0 <= index < self.count:
            raise IndexError(index)
        return tuple(s + index * d for s, d in zip(self.start, self.stride))

    def expand(self) -> Iterable[Vector]:
        """All described elements in order."""
        for index in range(self.count):
            yield self.element(index)

    def component(self, dim: int) -> "LMAD":
        """Project onto one dimension (a 1-D LMAD)."""
        return LMAD((self.start[dim],), (self.stride[dim],), self.count)

    def __repr__(self) -> str:
        if self.dims == 1:
            return f"[{self.start[0]}, {self.stride[0]}, {self.count}]"
        return f"[{list(self.start)}, {list(self.stride)}, {self.count}]"


@dataclass
class OverflowSummary:
    """What the compressor keeps about symbols it had to discard.

    "The compressor will then discard the new symbols in the stream, and
    only record some overall information such as max, min, and
    granularity." (Section 4.1)  Granularity is tracked per dimension as
    the gcd of deltas from the first discarded symbol.
    """

    dims: int
    count: int = 0
    minimum: Optional[Vector] = None
    maximum: Optional[Vector] = None
    granularity: Optional[Vector] = None
    _anchor: Optional[Vector] = field(default=None, repr=False)

    def add(self, symbol: Vector) -> None:
        self.count += 1
        if self.minimum is None:
            self.minimum = symbol
            self.maximum = symbol
            self.granularity = tuple(0 for __ in symbol)
            self._anchor = symbol
            return
        self.minimum = tuple(map(min, self.minimum, symbol))
        self.maximum = tuple(map(max, self.maximum, symbol))
        self.granularity = tuple(
            map(gcd, self.granularity, map(sub, symbol, self._anchor))
        )

    def add_all(self, symbols: Sequence[Sequence[int]]) -> None:
        """:meth:`add` each of ``symbols`` in turn, one pass per
        dimension: min, max and gcd do not depend on the order."""
        if not symbols:
            return
        if self.minimum is None:
            self.add(tuple(symbols[0]))
            symbols = symbols[1:]
            if not symbols:
                return
        self.count += len(symbols)
        columns = list(zip(*symbols))
        self.minimum = tuple(map(min, self.minimum, map(min, columns)))
        self.maximum = tuple(map(max, self.maximum, map(max, columns)))
        self.granularity = tuple(
            gcd(g, *map(sub, column, repeat(a)))
            for g, column, a in zip(self.granularity, columns, self._anchor)
        )


class LMADCompressor:
    """Online bounded-budget LMAD compressor for one symbol stream.

    Feed n-dimensional integer vectors with :meth:`feed`; read the
    closed descriptors from :attr:`lmads` after :meth:`finish`.

    The matching rule is the natural greedy one: an open descriptor with
    one element accepts any second element (fixing the stride); an open
    descriptor with a stride accepts exactly the next arithmetic term.
    A non-fitting symbol closes the descriptor and opens a new one if
    the budget allows, otherwise the symbol goes to the overflow
    summary.

    ``overflow_cap`` is the degraded-mode backstop: when more than that
    many symbols have spilled past the budget, the stream is evidently
    too irregular for descriptors to matter, so the compressor *folds
    its own descriptors into the overflow summary* and degrades to a
    pure summary descriptor (min/max/granularity over everything).
    That keeps the entry O(1) no matter how hostile the stream, at the
    price of marking it :attr:`LMADProfileEntry.summarized`.  ``None``
    (the default) disables the fallback and reproduces the paper's
    behaviour exactly.
    """

    def __init__(
        self,
        dims: int,
        budget: int = DEFAULT_BUDGET,
        overflow_cap: Optional[int] = None,
    ) -> None:
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if overflow_cap is not None and overflow_cap < 1:
            raise ValueError("overflow_cap must be >= 1 or None")
        self.dims = dims
        self.budget = budget
        self.overflow_cap = overflow_cap
        self.lmads: List[LMAD] = []
        self.overflow = OverflowSummary(dims)
        self._open_start: Optional[Vector] = None
        self._open_stride: Optional[Vector] = None
        self._open_count = 0
        #: the term that would extend the open descriptor (None until
        #: its stride is fixed)
        self._next: Optional[Vector] = None
        self._fed = 0
        self._finished = False
        self._summarized = False

    # -- feeding ---------------------------------------------------------

    def feed(self, symbol: Sequence[int]) -> None:
        if self._finished:
            raise RuntimeError("compressor already finished")
        vector = tuple(symbol)
        if len(vector) != self.dims:
            raise ValueError(
                f"expected {self.dims}-dimensional symbol, got {len(vector)}"
            )
        self._fed += 1
        if vector == self._next:
            self._open_count += 1
            self._next = tuple(map(add, vector, self._open_stride))
            return
        if self._summarized:
            self.overflow.add(vector)
            return
        if self._open_start is None:
            self._open(vector)
            return
        if self._open_count == 1:
            # Second element fixes the stride.
            stride = tuple(map(sub, vector, self._open_start))
            self._open_stride = stride
            self._open_count = 2
            self._next = tuple(map(add, vector, stride))
            return
        self._close_open()
        self._open(vector)

    def feed_all(self, symbols: Iterable[Sequence[int]]) -> None:
        """:meth:`feed` each symbol, with the same result.

        Symbols that extend the open descriptor are taken inline.  Once
        the budget is full and no descriptor is open, every remaining
        symbol spills, so the rest of the stream goes to the overflow
        summary in one pass.
        """
        if self._finished:
            raise RuntimeError("compressor already finished")
        symbols = iter(symbols)
        budget = self.budget
        for symbol in symbols:
            if self._summarized or (
                self._open_start is None and len(self.lmads) >= budget
            ):
                self._spill([symbol, *symbols])
                return
            vector = tuple(symbol)
            if vector == self._next:
                self._fed += 1
                self._open_count += 1
                self._next = tuple(map(add, vector, self._open_stride))
            else:
                self.feed(vector)

    def _spill(self, symbols: List[Sequence[int]]) -> None:
        """Send ``symbols`` to the overflow summary, as :meth:`feed`
        would once nothing can open a descriptor."""
        dims = self.dims
        bad = None
        if any(map(dims.__ne__, map(len, symbols))):
            bad = next(i for i, symbol in enumerate(symbols) if len(symbol) != dims)
            symbols, rejected = symbols[:bad], symbols[bad]
        self._fed += len(symbols)
        self.overflow.add_all(symbols)
        if (
            not self._summarized
            and self.overflow_cap is not None
            and self.overflow.count > self.overflow_cap
        ):
            self._summarize()
        if bad is not None:
            raise ValueError(
                f"expected {dims}-dimensional symbol, got {len(rejected)}"
            )

    def _open(self, vector: Vector) -> None:
        self._next = None
        if len(self.lmads) >= self.budget:
            # Budget exhausted: lossy path.
            self.overflow.add(vector)
            self._open_start = None
            self._open_stride = None
            self._open_count = 0
            if (
                self.overflow_cap is not None
                and self.overflow.count > self.overflow_cap
            ):
                self._summarize()
            return
        self._open_start = vector
        self._open_stride = None
        self._open_count = 1

    def _summarize(self) -> None:
        """Degrade to a pure summary: fold every closed descriptor into
        the overflow summary and drop the descriptor list.

        Each LMAD's elements form an arithmetic sequence, so feeding the
        summary its endpoints and folding ``|stride|`` into the per-
        dimension gcd yields the same min/max and a granularity no finer
        than the elementwise one -- without expanding the sequence.
        """
        for lmad in self.lmads:
            self.overflow.add(lmad.start)
            extra = lmad.count - 1
            if extra > 0:
                self.overflow.add(lmad.last)
                self.overflow.count += extra - 1
                assert self.overflow.granularity is not None
                self.overflow.granularity = tuple(
                    gcd(g, abs(d))
                    for g, d in zip(self.overflow.granularity, lmad.stride)
                )
        self.lmads = []
        self._summarized = True

    def _close_open(self) -> None:
        if self._open_start is None:
            return
        stride = (
            self._open_stride
            if self._open_stride is not None
            else tuple(0 for __ in range(self.dims))
        )
        self.lmads.append(LMAD(self._open_start, stride, self._open_count))
        self._open_start = None
        self._open_stride = None
        self._open_count = 0
        self._next = None

    def finish(self) -> "LMADProfileEntry":
        """Close the open descriptor and return the packaged result."""
        if not self._finished:
            self._close_open()
            self._finished = True
        return LMADProfileEntry(
            lmads=tuple(self.lmads),
            overflow=self.overflow,
            total_symbols=self._fed,
            summarized=self._summarized,
        )

    # -- metrics -------------------------------------------------------------

    @property
    def symbols_fed(self) -> int:
        return self._fed


@dataclass(frozen=True)
class LMADProfileEntry:
    """The compressed form of one sub-stream: descriptors + summary."""

    lmads: Tuple[LMAD, ...]
    overflow: OverflowSummary
    total_symbols: int
    #: True when the compressor gave up on descriptors entirely and the
    #: whole stream lives in the overflow summary (overflow-cap fallback)
    summarized: bool = False

    @property
    def captured_symbols(self) -> int:
        return self.total_symbols - self.overflow.count

    @property
    def sample_quality(self) -> float:
        """Fraction of the stream captured in descriptors (Section 4.1's
        *sample quality*); 1.0 for an empty stream."""
        if not self.total_symbols:
            return 1.0
        return self.captured_symbols / self.total_symbols

    @property
    def complete(self) -> bool:
        """True when nothing was discarded."""
        return self.overflow.count == 0

    def expand(self) -> List[Vector]:
        """All captured elements, in stream order."""
        out: List[Vector] = []
        for lmad in self.lmads:
            out.extend(lmad.expand())
        return out

    def size_records(self) -> int:
        """Profile size in fixed-width records: one per descriptor plus
        one for the overflow summary when present."""
        return len(self.lmads) + (1 if self.overflow.count else 0)


def compress(
    symbols: Iterable[Sequence[int]], dims: int, budget: int = DEFAULT_BUDGET
) -> LMADProfileEntry:
    """One-shot convenience wrapper around :class:`LMADCompressor`."""
    compressor = LMADCompressor(dims, budget)
    compressor.feed_all(symbols)
    return compressor.finish()
