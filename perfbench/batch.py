"""The two batch workloads: ``profile-both`` and ``profile-leap``.

Each runs whole passes over the seven SPEC stand-ins until the window
is spent, then checks every document it produced (outside the window).

Untraced passes call the public profiler entry points exactly as
``repro-profile run`` does.  Traced passes make the same calls with a
span around each, and split the profilers' per-access pipelines into
their layers with call timers patched over the names the profilers
look up (``translate_trace``, the SCCs' ``consume``, the compressors'
``feed``, the online probe sink).  The gate proves a traced pass
produced documents byte-identical to the untraced path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.compression.lmad import LMADCompressor
from repro.compression.sequitur import SequiturGrammar
from repro.core.cdc import OnlineCDC, translate_trace
from repro.core.profile_io import ProfileFormatError, dumps_bytes, loads_bytes
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import WILD_GROUP
from repro.postprocess.dependence import analyze_dependences
from repro.postprocess.strides import LeapStrideAnalyzer
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.runtime.process import Process
from repro.workloads.registry import SPEC_BENCHMARKS, create

from common import BENCH_DIR, SRC, Run, is_layer, median_of, peak_rss_mb_self, time_setup_probe
from spans import CallTimer, SpanRecorder
from stats import median, percentile

PROGRAMS = SPEC_BENCHMARKS

#: fixed input size per workload; pins.json holds digests at these scales
SCALES = {"profile-both": 0.04, "profile-leap": 0.1}

SETUP_REPEATS = 7

Docs = Dict[str, Dict[str, bytes]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins(workload: str, scale: float, seed: int) -> Optional[Dict[str, Dict[str, str]]]:
    """Pinned document digests for this workload, scale and seed, or
    None when the benchmark ships none for them."""
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        pins = json.load(handle)
    entry = pins.get(workload, {})
    if entry.get("scale") != scale:
        return None
    return entry.get("seeds", {}).get(str(seed))


def native_seconds(name: str, scale: float, seed: int) -> float:
    """Wall time of the uninstrumented run (Table 1's denominator)."""
    workload = create(name, scale=scale, seed=seed)
    start = time.perf_counter()
    process = Process(record_trace=False)
    workload.run(process)
    process.finish()
    return time.perf_counter() - start


# -- profile-both ----------------------------------------------------------


def both_untraced(name: str, scale: float, seed: int):
    """The ``repro-profile run --profiler both`` path plus the MDF and
    stride post-processors and BINCAP encoding of every document."""
    trace = create(name, scale=scale, seed=seed).trace()
    whomp = WhompProfiler().profile(trace)
    leap = LeapProfiler().profile(trace)
    dependence = analyze_dependences(leap)
    LeapStrideAnalyzer().analyze(leap)
    docs = {
        "whomp": dumps_bytes(whomp, "binary"),
        "leap": dumps_bytes(leap, "binary"),
        "dependence": dumps_bytes(dependence, "binary"),
    }
    return trace, (whomp, leap, dependence), docs


class _StageTimers:
    """Call timers patched over the names the public profilers look up
    for every access, so that a traced run times the program's own
    pipeline and not a copy of it:

    * ``translate_trace`` wherever a ``repro`` module imported it (each
      call is counted; each ``next()`` of the stream it returns is timed);
    * ``OnlineCDC.on_access``, the probe sink of an online run;
    * ``HorizontalSequiturSCC.consume`` and ``SequiturGrammar.feed``;
    * ``VerticalLMADSCC.consume`` and ``LMADCompressor.feed``.

    A consume's time minus the compressor feeds inside it is the
    decomposition's self time.  Installed for one profiler call, then
    turned into rollup spans under that call's span.
    """

    def __init__(self) -> None:
        self.translate = CallTimer()
        self.translate_calls = 0
        self.online = CallTimer()
        self.horizontal = CallTimer()
        self.sequitur = CallTimer()
        self.vertical = CallTimer()
        self.lmad = CallTimer()
        self.wild = 0
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        timers = self
        original = translate_trace

        def translate_timed(*args, **kwargs):
            timers.translate_calls += 1
            step = timers.translate.wrap(iter(original(*args, **kwargs)).__next__)
            while True:
                try:
                    access = step()
                except StopIteration:
                    return
                yield access

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and vars(module).get("translate_trace") is original:
                self._patch(module, "translate_trace", translate_timed)

        vertical_consume = VerticalLMADSCC.__dict__["consume"]

        def consume_counted(scc, access):
            if access.group == WILD_GROUP:
                timers.wild += 1
            return vertical_consume(scc, access)

        for cls, attr, timer, inner in (
            (OnlineCDC, "on_access", self.online, None),
            (HorizontalSequiturSCC, "consume", self.horizontal, None),
            (SequiturGrammar, "feed", self.sequitur, None),
            (VerticalLMADSCC, "consume", self.vertical, consume_counted),
            (LMADCompressor, "feed", self.lmad, None),
        ):
            self._patch(cls, attr, timer.wrap(inner or cls.__dict__[attr]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def record(self, rec, parent: int, counters: Dict[str, int]) -> None:
        """Rollup spans under ``parent``.  Offline, the profiler calls
        consume after each translated access; online, the probe sink
        calls it, so the SCCs nest under the online CDC."""
        calls = self.translate_calls + (1 if self.online.calls else 0)
        counters["translate_calls"] = counters.get("translate_calls", 0) + calls
        counters["wild"] = counters.get("wild", 0) + self.wild
        if self.translate.calls:
            rec.rollup("core.cdc.translate", self.translate.busy, self.translate.calls, parent=parent)
        if self.online.calls:
            parent = rec.rollup("core.cdc.online", self.online.busy, self.online.calls, parent=parent)
        for name, consume, compressor, feed in (
            ("horizontal", self.horizontal, "compression.sequitur", self.sequitur),
            ("vertical", self.vertical, "compression.lmad", self.lmad),
        ):
            if consume.calls:
                sid = rec.rollup(f"core.decomposition.{name}", consume.busy, consume.calls, parent=parent)
                rec.rollup(compressor, feed.busy, feed.calls, parent=sid)


def _timed_profile(rec, name: str, counters: Dict[str, int], call):
    """``call()`` inside a span ``name`` with the stage timers on."""
    timers = _StageTimers()
    with rec.span(name) as span:
        timers.install()
        try:
            result = call()
        finally:
            timers.restore()
    timers.record(rec, span.sid, counters)
    return result, span


def both_traced(rec, name: str, scale: float, seed: int, counters: Dict[str, int]):
    """``both_untraced`` with a span around each public call."""
    with rec.span("runtime.trace"):
        trace = create(name, scale=scale, seed=seed).trace()
    whomp, __ = _timed_profile(rec, "profilers.whomp", counters, lambda: WhompProfiler().profile(trace))
    leap, __ = _timed_profile(rec, "profilers.leap", counters, lambda: LeapProfiler().profile(trace))
    with rec.span("postprocess.dependence"):
        dependence = analyze_dependences(leap)
    with rec.span("postprocess.strides"):
        LeapStrideAnalyzer().analyze(leap)
    docs = {}
    for kind, profile in (("whomp", whomp), ("leap", leap), ("dependence", dependence)):
        with rec.span("core.binformat.encode"):
            docs[kind] = dumps_bytes(profile, "binary")
    return trace, (whomp, leap, dependence), docs

# -- profile-leap ------------------------------------------------------------


def leap_untraced(name: str, scale: float, seed: int):
    """Table 1's configuration: LEAP attached online to a running
    process, then MDF, strides and BINCAP on the online profile."""
    workload = create(name, scale=scale, seed=seed)
    start = time.perf_counter()
    process = Process(record_trace=False)
    session = LeapProfiler().attach(process.bus)
    workload.run(process)
    process.finish()
    leap = session.finish()
    online = time.perf_counter() - start
    dependence = analyze_dependences(leap)
    LeapStrideAnalyzer().analyze(leap)
    docs = {
        "leap": dumps_bytes(leap, "binary"),
        "dependence": dumps_bytes(dependence, "binary"),
    }
    return online, (leap, dependence), docs


def leap_traced(rec, name: str, scale: float, seed: int, counters: Dict[str, int]):
    """``leap_untraced`` with a span around each public call."""
    workload = create(name, scale=scale, seed=seed)

    def online_run():
        process = Process(record_trace=False)
        session = LeapProfiler().attach(process.bus)
        workload.run(process)
        process.finish()
        with rec.span("profilers.leap"):
            return session.finish()

    leap, span = _timed_profile(rec, "runtime.online_leap", counters, online_run)
    online = span.seconds
    with rec.span("postprocess.dependence"):
        dependence = analyze_dependences(leap)
    with rec.span("postprocess.strides"):
        LeapStrideAnalyzer().analyze(leap)
    docs = {}
    for kind, profile in (("leap", leap), ("dependence", dependence)):
        with rec.span("core.binformat.encode"):
            docs[kind] = dumps_bytes(profile, "binary")
    return online, (leap, dependence), docs

# -- passes ------------------------------------------------------------------


class Pass:
    """One pass over the seven programs."""

    def __init__(self) -> None:
        self.docs: Docs = {}
        self.profiles: Dict[str, tuple] = {}
        self.traces: Dict[str, object] = {}
        self.accesses = 0
        self.native = 0.0
        self.work = 0.0  # capture-to-last-encoded-byte wall
        self.online = 0.0
        self.latencies: List[float] = []
        self.wall = 0.0


def run_pass(run: Run, rec: SpanRecorder, keep: bool = False) -> Pass:
    """One pass; spans go to ``rec`` (a disabled recorder records none)."""
    out = Pass()
    started = time.perf_counter()
    for name in PROGRAMS:
        with rec.span("program"):
            with rec.span("runtime.native"):
                native = native_seconds(name, run.scale, run.seed)
            start = time.perf_counter()
            if run.workload == "profile-both":
                if rec.enabled:
                    trace, profiles, docs = both_traced(rec, name, run.scale, run.seed, run.counters)
                else:
                    trace, profiles, docs = both_untraced(name, run.scale, run.seed)
                accesses = trace.access_count
                online = 0.0
            else:
                if rec.enabled:
                    online, profiles, docs = leap_traced(rec, name, run.scale, run.seed, run.counters)
                else:
                    online, profiles, docs = leap_untraced(name, run.scale, run.seed)
                trace = None
                accesses = profiles[0].access_count
            elapsed = time.perf_counter() - start
        out.docs[name] = docs
        out.accesses += accesses
        out.native += native
        out.online += online
        out.work += elapsed
        out.latencies.append(elapsed)
        if keep:
            out.profiles[name] = profiles
            if trace is not None:
                out.traces[name] = trace
    out.wall = time.perf_counter() - started
    return out


def run_window(run: Run) -> List[Pass]:
    """Whole passes until the window is spent: a new pass starts only
    while the previous pass's duration still fits."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        with run.rec.span("pass"):
            passes.append(run_pass(run, run.rec, keep=not passes))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > run.seconds:
            return passes


# -- the output gate -----------------------------------------------------------


def raw_stream(trace) -> List[Tuple[int, int]]:
    return [(event.instruction_id, event.address) for event in trace.accesses()]


def _reconstruct(streams: Dict[str, object]) -> List[Tuple[int, int]]:
    """The raw (instruction, address) stream from a decoded WHOMP
    document: the paper's losslessness claim, checked off the wire."""
    bases = streams["base_addresses"]
    dims = streams["streams"]
    out = []
    for instruction, group, serial, offset in zip(
        dims["instruction"], dims["group"], dims["object"], dims["offset"]
    ):
        if group == WILD_GROUP:
            out.append((instruction, offset))
        else:
            out.append((instruction, bases[(group, serial)] + offset))
    return out


def check_document(rec, kind: str, data: bytes, raw=None) -> Optional[str]:
    """None when the document decodes and round-trips; else why not."""
    try:
        with rec.span("core.binformat.decode"):
            decoded = loads_bytes(data)
        if kind == "whomp":
            if raw is not None and _reconstruct(decoded) != raw:
                return "WHOMP document does not reconstruct the raw trace"
        elif dumps_bytes(decoded, "binary") != data:
            return f"{kind} document does not re-encode to its own bytes"
    except (ProfileFormatError, ValueError, KeyError, TypeError) as exc:
        return f"{kind} document does not decode: {exc}"
    return None


def gate(run: Run, passes: List[Pass], reference: Optional[Docs]) -> None:
    """Check every document of every pass; each failure counts once."""
    pins = load_pins(run.workload, run.scale, run.seed)
    run.context["pinned"] = pins is not None
    first = passes[0]
    good: Dict[Tuple[str, str], Optional[str]] = {}
    for name, docs in first.docs.items():
        raw = raw_stream(first.traces[name]) if name in first.traces else None
        for kind, data in docs.items():
            digest = sha256(data)
            why = check_document(run.rec, kind, data, raw)
            if why is None and pins is not None and pins.get(name, {}).get(kind) != digest:
                why = f"{name} {kind} digest {digest[:12]} differs from the pinned one"
            if why is None and reference is not None and reference[name][kind] != data:
                why = f"{name} {kind} differs from the reference path's document"
            if why is not None:
                run.fail(f"{name}: {why}")
                good[(name, kind)] = None
            else:
                good[(name, kind)] = digest
    for index, one in enumerate(passes):
        for name, docs in one.docs.items():
            for kind, data in docs.items():
                run.attempted += 1
                if index == 0:
                    continue  # counted above
                if good[(name, kind)] is None or sha256(data) != good[(name, kind)]:
                    run.fail(f"pass {index} {name} {kind} differs from pass 0")


def reference_docs(run: Run) -> Tuple[Docs, float]:
    """Documents from the public, untraced path, and its pass wall.

    profile-both: the profilers' offline ``profile``.  profile-leap:
    offline LEAP on a recorded trace, which must equal the online
    profile byte for byte."""
    untraced = run_pass(run, SpanRecorder("reference", enabled=False))
    if run.workload == "profile-both":
        return untraced.docs, untraced.wall
    docs: Docs = {}
    for name in PROGRAMS:
        trace = create(name, scale=run.scale, seed=run.seed).trace()
        leap = LeapProfiler().profile(trace)
        docs[name] = {
            "leap": dumps_bytes(leap, "binary"),
            "dependence": dumps_bytes(analyze_dependences(leap), "binary"),
        }
    return docs, untraced.wall


def flip_one_byte(passes: List[Pass]) -> None:
    """Fault drill: corrupt one byte of the first document."""
    docs = passes[0].docs[PROGRAMS[0]]
    kind = next(iter(docs))
    data = bytearray(docs[kind])
    data[len(data) // 2] ^= 0x01
    docs[kind] = bytes(data)


# -- metrics -------------------------------------------------------------------


def setup_probe_code(run: Run) -> str:
    return (
        f"import sys; sys.path[:0] = [{SRC!r}]\n"
        "from repro.workloads.registry import create, SPEC_BENCHMARKS\n"
        "from repro.profilers.whomp import WhompProfiler\n"
        "from repro.profilers.leap import LeapProfiler\n"
        "from repro.postprocess.dependence import analyze_dependences\n"
        "from repro.postprocess.strides import LeapStrideAnalyzer\n"
        "from repro.core.profile_io import dumps_bytes\n"
        f"[create(n, scale={run.scale!r}, seed={run.seed!r}) for n in SPEC_BENCHMARKS]\n"
        "print('ready', flush=True)\n"
    )


def end_to_end(run: Run, passes: List[Pass], setup: List[float]) -> Dict[str, tuple]:
    # per-program latency percentiles within each pass, median over passes
    p50 = median([percentile(p.latencies, 50) for p in passes]) * 1000.0
    p95 = median([percentile(p.latencies, 95) for p in passes]) * 1000.0
    count = sum(len(p.latencies) for p in passes)
    # totals over the window: the native runs are short, so one slow
    # native run would swing a per-pass ratio
    native = sum(p.native for p in passes)
    if run.workload == "profile-both":
        dilation = sum(p.work for p in passes) / native
    else:
        dilation = sum(p.online for p in passes) / native
    return {
        "setup_s": (median(setup), "s", len(setup)),
        "throughput_per_s": (median([p.accesses / p.work for p in passes]), "1/s", len(passes)),
        "p50_ms": (p50, "ms", count),
        "p95_ms": (p95, "ms", count),
        "dilation": (dilation, "ratio", len(passes)),
        "output_bytes": (sum(len(d) for docs in passes[0].docs.values() for d in docs.values()), "B", 1),
        "peak_rss_mb": (peak_rss_mb_self(), "MB", 1),
    }


def per_layer(run: Run, passes: List[Pass], reference_wall: float) -> Dict[str, float]:
    rec = run.rec
    per_pass = rec.self_times_by_root("pass")
    first = passes[0]
    programs = len(PROGRAMS)

    def layer(name: str) -> float:
        return median_of(per_pass, name)

    accesses = first.accesses
    out: Dict[str, float] = {}
    out["accesses_per_s"] = median([p.accesses / p.work for p in passes])
    out["runtime.trace_s"] = layer("runtime.trace")
    out["runtime.accesses"] = accesses
    out["runtime.native_s"] = layer("runtime.native")
    out["runtime.online_leap_s"] = median([p.online for p in passes])
    out["core.cdc.translate_s"] = layer("core.cdc.translate") + layer("core.cdc.online")
    out["core.cdc.translate_calls"] = run.counters["translate_calls"] / (programs * len(passes))
    out["core.decomposition.horizontal_s"] = layer("core.decomposition.horizontal")
    out["core.decomposition.vertical_s"] = layer("core.decomposition.vertical")
    sequitur_s = layer("compression.sequitur")
    rules = symbols = fed = 0
    descriptors = captured = overflow = pairs = 0
    for profiles in first.profiles.values():
        if run.workload == "profile-both":
            whomp, leap, dependence = profiles
            for grammar in whomp.grammars.values():
                rules += grammar.rule_count()
                symbols += grammar.size()
                fed += grammar.tokens_fed
        else:
            leap, dependence = profiles
        for entry in leap.entries.values():
            descriptors += len(entry.lmads)
            captured += entry.captured_symbols
            overflow += entry.overflow.count
        pairs += len(dependence.conflicts)
    out["compression.sequitur.s"] = sequitur_s
    out["compression.sequitur.symbols_per_s"] = fed / sequitur_s if sequitur_s else 0.0
    out["compression.sequitur.rules"] = rules
    out["compression.sequitur.grammar_symbols"] = symbols
    out["compression.lmad.s"] = layer("compression.lmad")
    out["compression.lmad.descriptors"] = descriptors
    out["compression.lmad.capture_ratio"] = captured / accesses if accesses else 0.0
    out["compression.lmad.overflow_symbols"] = overflow
    out["postprocess.dependence_s"] = layer("postprocess.dependence")
    out["postprocess.dependence_pairs"] = pairs
    out["postprocess.strides_s"] = layer("postprocess.strides")
    out["core.binformat.encode_s"] = layer("core.binformat.encode")
    out["core.binformat.decode_s"] = rec.totals("core.binformat.decode")
    out["core.binformat.bytes"] = sum(len(d) for docs in first.docs.values() for d in docs.values())
    out["core.profile_io.json_decode_s"] = 0.0
    out["core.profile_io.json_bytes"] = 0
    wild = run.counters["wild"] / len(passes)
    out["core.cdc.wild_ratio"] = wild / accesses if accesses else 0.0
    walls = [p.wall for p in passes]
    out["obs.tracing_overhead"] = median(walls) / reference_wall if reference_wall else 0.0
    out["unattributed_s"] = median(
        [sum(v for k, v in row.items() if not is_layer(k)) for row in per_pass]
    )
    return out


def run_batch(run: Run):
    """Returns (end_to_end metrics, per-layer metrics or None)."""
    run.scale = run.scale or SCALES[run.workload]
    setup = time_setup_probe(setup_probe_code(run), SETUP_REPEATS)
    reference = None
    reference_wall = 0.0
    if run.traced:
        reference, reference_wall = reference_docs(run)
    passes = run_window(run)
    if run.fault == "flip":
        flip_one_byte(passes)
    with run.rec.span("gate"):
        gate(run, passes, reference)
    run.context["passes"] = len(passes)
    run.context["access_counts"] = {
        name: profiles[0].access_count for name, profiles in passes[0].profiles.items()
    }
    run.context["document_sha256"] = {
        name: {kind: sha256(data) for kind, data in docs.items()}
        for name, docs in passes[0].docs.items()
    }
    e2e = end_to_end(run, passes, setup)
    layers = per_layer(run, passes, reference_wall) if run.traced else None
    return e2e, layers
