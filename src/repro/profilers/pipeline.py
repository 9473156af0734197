"""The one profiler pipeline under WHOMP and LEAP (Figure 4).

The paper's framework is one pipeline: the CDC consults the OMC to make
each access object-relative, and a pluggable SCC decomposes and
compresses the translated stream.  WHOMP and LEAP differ only in the
SCC they plug in, so everything else lives here, once:

* the drivers -- a streaming loop that feeds the SCC one access at a
  time, and a staged run (translation, decomposition, compression, each
  under its own span) that compresses inline or in a process pool;
* degraded mode: the quarantine filter and the completeness
  accounting;
* the counts, published once at a stage boundary rather than per
  event;
* the online session that attaches the same pipeline to a live
  :class:`~repro.runtime.probes.ProbeBus`.

A profiler supplies its SCC, its pool fan-out, and the profile it
builds; this module never asks which profiler it serves.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cdc import OnlineCDC, translate_trace
from repro.core.events import Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import WILD_GROUP
from repro.telemetry.spans import Telemetry, coalesce


class ProfilerPipeline:
    """Translate -> decompose -> compress -> package, around one SCC.

    Subclasses set :attr:`span_name` and implement :meth:`_new_scc`,
    :meth:`_compress_in_pool`, :meth:`_build_profile` and
    :meth:`_record_metrics`.
    """

    #: the span the staged run opens around its three stage spans
    span_name: str

    def __init__(
        self,
        refine_by_type: bool = False,
        telemetry: Optional[Telemetry] = None,
        jobs: int = 1,
        quarantine=None,
    ) -> None:
        self.refine_by_type = refine_by_type
        self.telemetry = coalesce(telemetry)
        self.jobs = jobs
        #: a :class:`~repro.resilience.degraded.Quarantine` enables
        #: degraded mode: untrustworthy tuples are diverted to it and
        #: the profile reports its ``capture_completeness``
        self.quarantine = quarantine

    # -- what each profiler supplies ------------------------------------

    def _new_scc(self):
        """A fresh SCC with ``consume``, ``decompose`` and
        ``compress_streams``."""
        raise NotImplementedError

    def _compress_in_pool(self, scc, streams, executor) -> None:
        """Compress the decomposed ``streams`` in ``executor``'s pool
        workers and install the results into ``scc``."""
        raise NotImplementedError

    def _build_profile(
        self, scc, omc: ObjectManager, access_count: int,
        capture_completeness: float, quarantined: int,
    ):
        raise NotImplementedError

    def _record_metrics(self, profile, telemetry: Telemetry) -> None:
        """Publish the profile's quality gauges (staged runs only)."""
        raise NotImplementedError

    # -- offline --------------------------------------------------------

    def profile(self, trace: Trace):
        """Profile a recorded trace.

        Serial runs under null telemetry stream each translated access
        straight into the SCC.  Otherwise the run is staged, so each
        stage can be timed, and compression fans out to a pool when
        ``jobs`` resolves to more than one worker.  Every path yields
        the same profile.
        """
        omc = ObjectManager(refine_by_type=self.refine_by_type)
        scc = self._new_scc()
        mark = self._quarantine_mark()
        pool = False
        if self.jobs != 1:
            from repro.parallel import resolve_jobs

            pool = resolve_jobs(self.jobs) > 1
        if pool or self.telemetry.enabled:
            return self._profile_staged(trace, omc, scc, mark, pool)
        count = 0
        for access in self._kept(translate_trace(trace, omc)):
            scc.consume(access)
            count += 1
        return self._package(scc, omc, count, mark)

    def _profile_staged(
        self, trace: Trace, omc: ObjectManager, scc, mark: int, pool: bool
    ):
        """Each paper stage under its own span.  Staging materializes
        the translated and the decomposed streams; the profile is
        identical to the streaming loop's."""
        telemetry = self.telemetry
        with telemetry.span(self.span_name) as whole:
            with telemetry.span("translation") as span:
                translated = list(translate_trace(trace, omc))
                accesses = list(self._kept(translated))
                span.add_items(len(accesses), "accesses")
            with telemetry.span("decomposition") as span:
                streams = scc.decompose(accesses)
                span.add_items(len(accesses), "accesses")
            with telemetry.span("compression") as span:
                if pool:
                    from repro.parallel import ParallelExecutor

                    executor = ParallelExecutor(jobs=self.jobs, telemetry=telemetry)
                    self._compress_in_pool(scc, streams, executor)
                else:
                    scc.compress_streams(streams)
                span.add_items(sum(len(s) for s in streams.values()), "symbols")
            whole.add_items(len(accesses), "accesses")
        if telemetry.enabled:
            self._count_translation(
                len(translated),
                sum(1 for access in translated if access.group == WILD_GROUP),
            )
        profile = self._package(scc, omc, len(accesses), mark)
        if telemetry.enabled:
            self._record_metrics(profile, telemetry)
        return profile

    # -- shared plumbing --------------------------------------------------

    def _kept(self, stream):
        """``stream`` filtered through the quarantine in degraded mode."""
        if self.quarantine is None:
            return stream
        from repro.resilience.degraded import quarantine_stream

        return quarantine_stream(stream, self.quarantine)

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
    """A live pipeline: OnlineCDC -> the profiler's SCC.

    Detach (or just call :meth:`finish`) when the program completes.
    """

    def __init__(self, profiler: ProfilerPipeline, bus) -> None:
        self._profiler = profiler
        self._bus = bus
        self._scc = profiler._new_scc()
        self._mark = profiler._quarantine_mark()
        consumer = self._scc.consume
        if profiler.quarantine is not None:
            from repro.resilience.degraded import quarantine_consumer

            consumer = quarantine_consumer(consumer, profiler.quarantine)
        self._cdc = OnlineCDC(
            consumer, ObjectManager(refine_by_type=profiler.refine_by_type)
        )
        self._profile = None
        bus.attach(self._cdc)

    def finish(self):
        """Detach, publish the CDC counts and return the profile.  Later
        calls return the same profile and publish nothing."""
        if self._profile is None:
            self._bus.detach(self._cdc)
            profiler, cdc = self._profiler, self._cdc
            profiler._count_translation(cdc.clock, cdc.wild)
            kept = cdc.clock - profiler._quarantined_since(self._mark)
            self._profile = profiler._package(self._scc, cdc.omc, kept, self._mark)
        return self._profile
