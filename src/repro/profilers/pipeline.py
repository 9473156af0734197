"""The one profiler pipeline under WHOMP and LEAP (Figure 4).

The paper's framework is one pipeline: the CDC consults the OMC to make
each access object-relative, and a pluggable SCC decomposes and
compresses the translated stream.  WHOMP and LEAP differ only in the
SCC they plug in, so everything else lives here, once:

* the one stage loop: translation, then the quarantine filter,
  decomposition and compression over slices of :data:`CHUNK` rows,
  each stage under its own span (a few span entries per chunk: cheap
  enough to leave on).  An offline profile runs it once over the whole
  trace; an online session runs it once per chunk of probe firings;
* degraded mode: the quarantine filter and the completeness
  accounting;
* the counts, published once at a stage boundary rather than per
  event;
* the online session that attaches the same pipeline to a live
  :class:`~repro.runtime.probes.ProbeBus`.  It buffers probe firings
  into a chunk and runs each chunk through the stage loop: probes ->
  chunk -> :func:`~repro.core.cdc.translate_columns` -> decompose ->
  compress.

A profiler supplies its SCC and the profile it builds; this module
never asks which profiler it serves.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Tuple

from repro.core.cdc import Columns, translate_columns
from repro.core.events import AccessKind, Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP, make_access
from repro.obs.spans import Telemetry

#: rows the stage loop decomposes and compresses at a time, and the
#: accesses an online session buffers before it runs the loop
CHUNK = 4096


class ProfilerPipeline:
    """Translate -> decompose -> compress -> package, around one SCC.

    Subclasses set :attr:`span_name` and implement :meth:`_new_scc`,
    :meth:`_build_profile` and :meth:`_record_metrics`.
    """

    #: the span an offline profile opens around its three stage spans
    span_name: str

    def __init__(
        self,
        refine_by_type: bool = False,
        telemetry: Optional[Telemetry] = None,
        quarantine=None,
    ) -> None:
        self.refine_by_type = refine_by_type
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: a :class:`~repro.resilience.degraded.Quarantine` enables
        #: degraded mode: untrustworthy tuples are diverted to it and
        #: the profile reports its ``capture_completeness``
        self.quarantine = quarantine

    # -- what each profiler supplies ------------------------------------

    def _new_scc(self):
        """A fresh SCC with ``decompose`` and ``compress_streams``."""
        raise NotImplementedError

    def _build_profile(
        self, scc, omc: ObjectManager, access_count: int,
        capture_completeness: float, quarantined: int,
    ):
        raise NotImplementedError

    def _record_metrics(self, profile, telemetry: Telemetry) -> None:
        """Publish the profile's quality gauges."""
        raise NotImplementedError

    # -- offline --------------------------------------------------------

    def profile(self, trace: Trace):
        """Profile a recorded trace: one pass of the stage loop, then
        the counts and the quality gauges."""
        omc = ObjectManager(refine_by_type=self.refine_by_type)
        scc = self._new_scc()
        mark = self._quarantine_mark()
        telemetry = self.telemetry
        with telemetry.span(self.span_name) as whole:
            translated, wild, kept = self._run_stages(trace, omc, scc)
            whole.add_items(kept, "accesses")
            profile = self._package(scc, omc, kept, mark)
        self._count_translation(translated, wild)
        self._record_metrics(profile, telemetry)
        return profile

    def _run_stages(
        self, trace: Trace, omc: ObjectManager, scc
    ) -> Tuple[int, int, int]:
        """Translate ``trace`` against ``omc``, then, one slice of
        :data:`CHUNK` rows at a time, drop what the quarantine takes,
        decompose and compress into ``scc``, so no stage holds more than
        a chunk of rows or decomposed streams.  Each stage runs under
        its own span.  Returns the accesses translated, the wild ones
        among them, and the accesses kept."""
        telemetry = self.telemetry
        with telemetry.span("translation") as span:
            *rows, kinds = translate_columns(trace, omc)
            translated = len(rows[0])
            wild = rows[1].count(WILD_GROUP)
            span.add_items(translated, "accesses")
        kinds = iter(kinds)  # read once, across every slice
        kept = 0
        # at least one slice, so an empty trace still opens each span
        for start in range(0, max(translated, 1), CHUNK):
            chunk = [column[start:start + CHUNK] for column in rows]
            chunk.append(islice(kinds, CHUNK))
            with telemetry.span("decomposition") as span:
                if self.quarantine is not None:
                    chunk = self._kept_columns(chunk)
                streams = scc.decompose(chunk)
                span.add_items(len(chunk[0]), "accesses")
            kept += len(chunk[0])
            with telemetry.span("compression") as span:
                scc.compress_streams(streams)
                span.add_items(sum(map(len, streams.values())), "symbols")
        return translated, wild, kept

    # -- shared plumbing --------------------------------------------------

    def _kept_columns(self, columns: Columns) -> Columns:
        """``columns`` filtered through the quarantine, as accesses and
        back (degraded mode only)."""
        from repro.resilience.degraded import quarantine_stream

        kept = [
            (a.instruction_id, a.group, a.object_serial, a.offset, a.time, a.size, a.kind)
            for a in quarantine_stream(map(make_access, *columns), self.quarantine)
        ]
        return tuple(map(list, zip(*kept))) if kept else tuple([] for __ in columns)

    def _quarantine_mark(self) -> int:
        return self.quarantine.total if self.quarantine is not None else 0

    def _quarantined_since(self, mark: int) -> int:
        return self.quarantine.total - mark if self.quarantine is not None else 0

    def _count_translation(self, translated: int, wild: int) -> None:
        """The CDC's counts: every access it translated, and those that
        resolved to no live object (counted before the quarantine)."""
        telemetry = self.telemetry
        telemetry.counter(
            "cdc.translated_total", "accesses made object-relative"
        ).inc(translated)
        telemetry.counter(
            "cdc.wild_total", "accesses resolving to no live object"
        ).inc(wild)

    def _package(self, scc, omc: ObjectManager, kept: int, mark: int):
        """Build the profile from ``kept`` accesses plus whatever the
        quarantine took since ``mark``."""
        quarantined = self._quarantined_since(mark)
        if quarantined:
            self.telemetry.counter(
                "resilience.quarantined",
                "tuples diverted to the quarantine sidecar",
            ).inc(quarantined)
        total = kept + quarantined
        return self._build_profile(
            scc,
            omc,
            access_count=kept,
            capture_completeness=(kept / total) if total else 1.0,
            quarantined=quarantined,
        )

    # -- online -----------------------------------------------------------

    def attach(self, bus) -> "OnlineSession":
        """Attach the pipeline to a live probe bus (the paper's
        instrumented-program configuration: probes feed the CDC/OMC
        while the program runs; Table 1's dilation is timed this way)."""
        return OnlineSession(self, bus)


class OnlineSession:
    """A live pipeline: probes -> chunk -> the profiler's stages.

    Probe firings are buffered into a chunk :class:`Trace`, and every
    :data:`CHUNK` accesses (and at :meth:`finish`) the chunk is
    translated against the session's OMC, decomposed and compressed by
    the stage loop an offline profile runs.  Object events keep their
    places inside the chunk, so translation stays exact under address
    reuse.  A free of an untracked address raises
    :class:`~repro.core.omc.TranslationError` at the flush that applies
    it, not at the probe.

    Detach (or just call :meth:`finish`) when the program completes.
    """

    def __init__(self, profiler: ProfilerPipeline, bus) -> None:
        self._profiler = profiler
        self._bus = bus
        self._mark = profiler._quarantine_mark()
        self._sink = _ChunkSink(
            profiler,
            profiler._new_scc(),
            ObjectManager(refine_by_type=profiler.refine_by_type),
        )
        self._profile = None
        bus.attach(self._sink)

    def finish(self):
        """Detach, flush, publish the CDC counts and return the
        profile.  Later calls return the same profile and publish
        nothing."""
        if self._profile is None:
            self._bus.detach(self._sink)
            sink = self._sink
            sink.flush()
            profiler = self._profiler
            profiler._count_translation(sink.translated, sink.wild)
            self._profile = profiler._package(
                sink.scc, sink.omc, sink.kept, self._mark
            )
        return self._profile


class _ChunkSink:
    """The session's probe sink: appends each firing to a chunk trace
    whose clock continues the run's, and flushes it through the
    profiler's stages.  It holds the OMC and the SCC, not the session,
    so the two do not form a reference cycle."""

    def __init__(self, profiler: ProfilerPipeline, scc, omc: ObjectManager) -> None:
        self.profiler = profiler
        self.scc = scc
        self.omc = omc
        #: accesses flushed so far, the wild ones among them, and those
        #: the quarantine let through
        self.translated = self.wild = self.kept = 0
        self._chunk = Trace()

    def on_access(
        self, instruction_id: int, address: int, size: int, kind: AccessKind
    ) -> None:
        chunk = self._chunk
        chunk.record_access(instruction_id, address, size, kind)
        if chunk.access_count >= CHUNK:
            self.flush()

    def on_alloc(
        self, address: int, size: int, site: str, type_name: Optional[str]
    ) -> None:
        self._chunk.record_alloc(address, size, site, type_name)

    def on_free(self, address: int) -> None:
        self._chunk.record_free(address)

    def flush(self) -> None:
        """Translate, decompose and compress the buffered chunk."""
        chunk = self._chunk
        self._chunk = Trace(clock=self.translated + chunk.access_count)
        translated, wild, kept = self.profiler._run_stages(chunk, self.omc, self.scc)
        self.translated += translated
        self.wild += wild
        self.kept += kept
