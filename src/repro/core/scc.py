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
``consume`` takes one :class:`ObjectRelativeAccess` at a time instead
and builds the same profile; no profiler calls it, and it stays for
perfbench's traced mode, which times it.
"""

from __future__ import annotations

import gc
import marshal
import os
import signal
import weakref
from array import array
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.lmad import DEFAULT_BUDGET, LMADCompressor, LMADProfileEntry
from repro.compression.sequitur import FrozenGrammar, SequiturGrammar
from repro.core.cdc import Columns
from repro.core.events import AccessKind
from repro.core.tuples import DIMENSIONS, ObjectRelativeAccess


class HorizontalSequiturSCC:
    """WHOMP's SCC: four dimension streams, four stream compressors.

    "The SCC first decomposes the object-relative stream horizontally
    along all four dimensions (instruction ID, group, object and
    offset).  Each of these streams is then fed into a separate Sequitur
    compressor." (Section 3.1)

    The four grammars never read each other, so a forked helper process
    builds those of :func:`helper_dimensions` while this process builds
    the rest; :meth:`freeze` brings the helper's back.

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
        self._helper: Optional[_Helper] = None
        #: this process's dimensions, split off at the first compress_streams
        self._own: Optional[Tuple[str, ...]] = None

    def consume(self, access: ObjectRelativeAccess) -> None:
        """Feed one access to the four grammars; not after
        :meth:`compress_streams`, which may have sent two of them away."""
        if self._own is not None:
            raise RuntimeError("consume after compress_streams on one SCC")
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
        """Send the helper its streams (forking it on the first call),
        then feed each of this process's streams to its compressor."""
        helper = self._helper
        if self._own is None:
            # the helper sends back FrozenGrammar fields, so Sequitur only
            sequitur = isinstance(self.grammars["instruction"], SequiturGrammar)
            remote = helper_dimensions() if sequitur else ()
            self._own = tuple(name for name in DIMENSIONS if name not in remote)
            if remote:
                helper = self._helper = _Helper(self.grammars, remote)
        try:
            if helper is not None:
                helper.send(streams)
            for name in self._own:
                self.grammars[name].feed_all(streams[name])
        except BaseException:
            if helper is not None:
                helper.reap()
            raise

    def freeze(self) -> Dict[str, object]:
        """Every frozen grammar, the helper's too, in :data:`DIMENSIONS`
        order."""
        own = self._own or DIMENSIONS
        frozen = {name: self.grammars[name].freeze() for name in own}
        if self._helper is not None:
            frozen.update(self._helper.join())
        return {name: frozen[name] for name in DIMENSIONS}


def helper_dimensions() -> Tuple[str, ...]:
    """The grammars a helper builds, the most even split of the Sequitur
    work over the SPEC stand-ins; none where one process cannot use two
    CPUs (no ``fork``, or an affinity of one CPU)."""
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    return ("instruction", "object") if hasattr(os, "fork") and len(affinity(0)) > 1 else ()


class _Helper:
    """A forked process that builds the grammars of ``dimensions``.

    Each chunk goes down one pipe as its lengths and packed
    ``array('q')`` columns.  At end-of-file on it (:meth:`join`, or the
    parent's death) the helper sends back its frozen grammars' fields
    (``marshal``, so the profiling process never loads ``pickle``), or
    the pickled exception that stopped it, and exits.  Dropped
    unjoined, it is killed and reaped.
    """

    def __init__(self, grammars: Dict[str, object], dimensions: Tuple[str, ...]) -> None:
        self.dimensions = dimensions
        inbox, to_helper = os.pipe()
        from_helper, outbox = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            _serve(grammars, dimensions, inbox, outbox)
        os.close(inbox)
        os.close(outbox)
        # a pipe, not a file: nothing on disk to keep whole
        self._to_helper = os.fdopen(to_helper, "wb")  # repro: allow(RL131)
        self._from_helper = os.fdopen(from_helper, "rb")
        self.reap = weakref.finalize(
            self, _reap, self.pid, self._to_helper, self._from_helper
        )

    def send(self, streams: Dict[str, Sequence[int]]) -> None:
        columns = [array("q", streams[name]) for name in self.dimensions]
        try:
            self._to_helper.write(array("q", map(len, columns)))
            for column in columns:
                self._to_helper.write(column)
            self._to_helper.flush()
        except BrokenPipeError:
            self.join()  # raises what stopped the helper

    def join(self) -> Dict[str, object]:
        """The helper's frozen grammars; or raise its exception, or an
        error naming it if it died."""
        self.reap.detach()
        try:
            self._to_helper.close()
        except BrokenPipeError:
            pass
        with self._from_helper as pipe:
            reply = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        try:
            if reply[:1] == b"G":
                fields = marshal.loads(reply[1:])
                return {name: FrozenGrammar(*f) for name, f in zip(self.dimensions, fields)}
            import pickle  # only an exception needs it

            error = pickle.loads(reply[1:])
        except Exception as exc:  # nothing, a cut-off reply, or unloadable
            raise RuntimeError(
                f"Sequitur helper process {self.pid} exited with status "
                f"{status} without sending readable grammars"
            ) from exc
        raise error


def _reap(pid: int, *pipes) -> None:
    os.kill(pid, signal.SIGKILL)  # first, so that no flush waits on it
    for pipe in pipes:
        try:
            pipe.close()
        except OSError:  # the flush of a half-sent chunk
            pass
    os.waitpid(pid, 0)


def _serve(grammars, dimensions, inbox: int, outbox: int) -> None:
    """The helper process's body; it never returns."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
        gc.freeze()  # never collect, and so never copy, the parent's heap
        # hold no other pipe's end, so its reader sees end-of-file
        low, high = sorted((inbox, outbox))
        os.closerange(3, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        source = os.fdopen(inbox, "rb")
        with source, os.fdopen(outbox, "wb") as sink:  # repro: allow(RL131)
            try:
                while True:
                    header = source.read(8 * len(dimensions))
                    if not header:
                        break
                    for name, length in zip(dimensions, array("q", header)):
                        grammars[name].feed_all(array("q", source.read(8 * length)))
                frozen = [grammars[name].freeze() for name in dimensions]
                reply = b"G" + marshal.dumps(
                    [(g.start, g.productions, g.tokens_fed, g.rules_made) for g in frozen]
                )
            except Exception as exc:  # noqa: BLE001 - reported as data
                import pickle

                reply = b"E" + pickle.dumps(exc)
            sink.write(reply)  # whole, or nothing if pickling failed
        status = 0
    finally:
        os._exit(status)


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
