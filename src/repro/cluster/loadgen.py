"""Load generation against a PROFSTORE daemon or cluster router.

Drives a deterministic mixed workload -- JSON ingest, BINCAP binary
ingest, stream ingest, run/entry queries, document gets,
structural diffs -- from ``concurrency`` threads (each on its own
keep-alive connection of the shared client,
:mod:`repro.store.client`), recording per-kind latency into
:class:`~repro.obs.quantiles.QuantileDigest` and counting failures by
class: transport errors, 5xx (server faults -- the cluster fault drill
asserts this stays **zero** while a shard dies), and 4xx.

``jobs > 1`` forks whole generator processes through
:class:`~repro.parallel.ParallelExecutor` so the client side scales
past one GIL when benchmarking; per-process reports merge losslessly
(counts sum, digests merge).

The op plan is seeded: the same (seed, requests, mix) drives the same
byte-identical sequence of operations at any concurrency.
"""

from __future__ import annotations

import functools
import json
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.binformat import StreamWriter
from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.obs.quantiles import QuantileDigest
from repro.profilers.leap import LeapProfiler
from repro.runtime.process import Process
from repro.store.blobs import sha256_hex
from repro.store.client import http_request

#: default op mix (weights, normalized); ingest-heavy because ingest is
#: the cluster's replicated (most expensive) path
DEFAULT_MIX: Dict[str, float] = {
    "ingest-json": 0.30,
    "ingest-binary": 0.20,
    "ingest-stream": 0.10,
    "query-runs": 0.15,
    "query-entries": 0.10,
    "get": 0.10,
    "diff": 0.05,
}

OP_KINDS = tuple(DEFAULT_MIX)


def synthetic_documents(
    count: int = 6,
    seed: int = 0,
    accesses: int = 96,
    instructions: int = 1,
    blocks: int = 1,
) -> List[Tuple[str, str, bytes]]:
    """``count`` distinct (workload, fmt, serialized bytes) documents.

    LEAP profiles of synthetic access traces, alternating JSON and
    BINCAP binary serialization; distinct strides make every document's
    digest distinct.  ``instructions`` x ``blocks`` scales the profile's
    *structure* (one entry per instruction-block pair), which is what
    grows the serialized document and its decode cost -- raising
    ``accesses`` alone just grows per-LMAD counts.  The defaults yield
    ~1 KiB documents; the throughput bench uses heavyweight ones.
    """
    out: List[Tuple[str, str, bytes]] = []
    for index in range(count):
        process = Process()
        loads = [
            process.instruction(f"ld{i}", AccessKind.LOAD)
            for i in range(max(1, instructions))
        ]
        sites = [
            process.malloc(f"loadgen{b}", 4096, type_name="long[]")
            for b in range(max(1, blocks))
        ]
        for i, load in enumerate(loads):
            for b, block in enumerate(sites):
                stride = 1 + (seed + index + i + b) % 7
                for step in range(accesses):
                    process.load(load, block + (step * stride % 512) * 8)
        for block in sites:
            process.free(block)
        process.finish()
        profile = LeapProfiler().profile(process.trace)
        fmt = "json" if index % 2 == 0 else "binary"
        data = dumps_bytes(profile, fmt=fmt)
        out.append((f"loadgen.w{index}", fmt, data))
    return out


def build_plan(
    requests: int, seed: int, mix: Optional[Dict[str, float]] = None
) -> List[str]:
    """The deterministic op sequence for one generator."""
    weights = dict(DEFAULT_MIX)
    if mix:
        unknown = set(mix) - set(DEFAULT_MIX)
        if unknown:
            raise ValueError(f"unknown op kinds: {sorted(unknown)}")
        weights.update(mix)
    kinds = [kind for kind in OP_KINDS if weights.get(kind, 0) > 0]
    rng = random.Random(seed)
    return rng.choices(
        kinds, weights=[weights[kind] for kind in kinds], k=requests
    )


class LoadReport:
    """Counts + latency digests for one load run (mergeable)."""

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.failures = 0  # transport-level (connect/read errors)
        self.server_errors = 0  # HTTP 5xx
        self.client_errors = 0  # HTTP 4xx
        self.seconds = 0.0
        self.by_kind: Dict[str, Dict[str, int]] = {}
        self.digests: Dict[str, QuantileDigest] = {}

    def record(self, kind: str, seconds: float, status: Optional[int]) -> None:
        self.requests += 1
        row = self.by_kind.setdefault(
            kind, {"count": 0, "errors": 0}
        )
        row["count"] += 1
        if status is None:
            self.failures += 1
            row["errors"] += 1
        elif status >= 500:
            self.server_errors += 1
            row["errors"] += 1
        elif status >= 400:
            self.client_errors += 1
            row["errors"] += 1
        else:
            self.completed += 1
        for key in (kind, "*"):
            digest = self.digests.get(key)
            if digest is None:
                digest = self.digests[key] = QuantileDigest()
            digest.observe(seconds)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def merge(self, other: "LoadReport") -> None:
        self.requests += other.requests
        self.completed += other.completed
        self.failures += other.failures
        self.server_errors += other.server_errors
        self.client_errors += other.client_errors
        self.seconds = max(self.seconds, other.seconds)
        for kind, row in other.by_kind.items():
            mine = self.by_kind.setdefault(kind, {"count": 0, "errors": 0})
            mine["count"] += row["count"]
            mine["errors"] += row["errors"]
        for key, digest in other.digests.items():
            mine_digest = self.digests.get(key)
            if mine_digest is None:
                self.digests[key] = QuantileDigest.from_plain(
                    digest.to_plain()
                )
            else:
                mine_digest.merge(digest)

    def to_json(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failures": self.failures,
            "server_errors": self.server_errors,
            "client_errors": self.client_errors,
            "seconds": self.seconds,
            "throughput_rps": self.throughput_rps,
            "by_kind": self.by_kind,
            "latency": {
                key: digest.summary()
                for key, digest in self.digests.items()
                if digest.count
            },
        }

    def to_plain(self) -> Dict[str, object]:
        """Wire form for cross-process merge (jobs > 1)."""
        out = self.to_json()
        out["digest_plains"] = {
            key: digest.to_plain() for key, digest in self.digests.items()
        }
        return out

    @classmethod
    def from_plain(cls, plain: Dict[str, object]) -> "LoadReport":
        report = cls()
        report.requests = int(plain["requests"])  # type: ignore[arg-type]
        report.completed = int(plain["completed"])  # type: ignore[arg-type]
        report.failures = int(plain["failures"])  # type: ignore[arg-type]
        report.server_errors = int(plain["server_errors"])  # type: ignore
        report.client_errors = int(plain["client_errors"])  # type: ignore
        report.seconds = float(plain["seconds"])  # type: ignore[arg-type]
        report.by_kind = {
            kind: dict(row)
            for kind, row in plain.get("by_kind", {}).items()  # type: ignore
        }
        report.digests = {
            key: QuantileDigest.from_plain(value)
            for key, value in plain.get("digest_plains", {}).items()  # type: ignore
        }
        return report


class _Generator:
    """One load run: shared plan, N worker threads, one report."""

    def __init__(
        self,
        url: str,
        plan: List[str],
        documents: List[Tuple[str, str, bytes]],
        concurrency: int,
        timeout: float,
        unique_ingest: bool = False,
    ) -> None:
        #: (method, path, params, body) -> Response, on the calling
        #: thread's keep-alive connection
        self._send = functools.partial(http_request, url, timeout=timeout)
        self.plan = plan
        self.documents = documents
        self.concurrency = max(1, concurrency)
        self.unique_ingest = unique_ingest
        self._next = 0
        self._plan_lock = threading.Lock()
        self._digest_lock = threading.Lock()
        self._known: List[Tuple[str, str]] = []  # (digest, workload)
        self._reports: List[LoadReport] = []
        self._report_lock = threading.Lock()

    # -- plumbing ------------------------------------------------------

    def _take(self) -> Optional[Tuple[int, str]]:
        with self._plan_lock:
            if self._next >= len(self.plan):
                return None
            index = self._next
            self._next += 1
        return index, self.plan[index]

    def _note_digest(self, digest: str, workload: str) -> None:
        with self._digest_lock:
            self._known.append((digest, workload))

    def _pick_digests(self, rng: random.Random, count: int) -> List[str]:
        with self._digest_lock:
            if not self._known:
                return []
            return [rng.choice(self._known)[0] for __ in range(count)]

    # -- ops -----------------------------------------------------------

    def _run_op(
        self, kind: str, index: int, rng: random.Random
    ) -> Optional[int]:
        if kind in ("ingest-json", "ingest-binary"):
            wanted = "json" if kind == "ingest-json" else "binary"
            pool = [d for d in self.documents if d[1] == wanted]
            workload, __, data = pool[index % len(pool)]
            if self.unique_ingest and wanted == "json":
                # per-op trailing padding makes every digest distinct,
                # so each op exercises the full validate + compress +
                # write path instead of the content-addressed dedup
                # short-circuit (binary documents cannot be padded:
                # BINCAP rejects trailing bytes as a torn frame)
                data = data + b" " * (1 + index)
            status, __, body = self._send(
                "POST", "/ingest", {"workload": workload}, data
            )
            if status in (200, 201):
                try:
                    digest = json.loads(body.decode("utf-8")).get("digest")
                except ValueError:
                    digest = None
                if isinstance(digest, str):
                    self._note_digest(digest, workload)
            return status
        if kind == "ingest-stream":
            # the framed stream goes out as bytes, so the client's one
            # retry on a fresh socket covers it like any other write
            workload, __, data = self.documents[index % len(self.documents)]
            pending: List[bytes] = []
            writer = StreamWriter(pending.append)
            writer.begin()
            writer.send_document(workload, data)
            writer.close()
            status = self._send(
                "POST", "/ingest/stream", body=b"".join(pending)
            ).status
            if status in (200, 201):
                self._note_digest(sha256_hex(data), workload)
            return status
        if kind == "query-runs":
            workload = self.documents[index % len(self.documents)][0]
            return self._send(
                "GET", "/query/runs", {"workload": workload}
            ).status
        if kind == "query-entries":
            picked = self._pick_digests(rng, 1)
            if not picked:
                return self._send("GET", "/query/runs").status
            # run= restricts the scan to one blob: the op stays cheap
            # at any store size, which keeps the mix stationary
            return self._send(
                "GET", "/query/entries", {"run": picked[0]}
            ).status
        if kind == "get":
            picked = self._pick_digests(rng, 1)
            if not picked:
                return self._send("GET", "/healthz").status
            return self._send("GET", "/get", {"run": picked[0]}).status
        if kind == "diff":
            picked = self._pick_digests(rng, 2)
            if len(picked) < 2:
                return self._send("GET", "/healthz").status
            return self._send(
                "GET", "/diff", {"a": picked[0], "b": picked[1]}
            ).status
        raise ValueError(f"unknown op kind {kind!r}")

    # -- workers -------------------------------------------------------

    def _worker(self, worker_index: int) -> None:
        rng = random.Random(worker_index * 7919 + 17)
        report = LoadReport()
        try:
            while True:
                taken = self._take()
                if taken is None:
                    break
                index, kind = taken
                start = time.perf_counter()
                # every op's body is replayable, so the client retries
                # a failed exchange once on a fresh socket: a shard
                # dying mid-exchange costs that op a retry, not the run
                try:
                    status: Optional[int] = self._run_op(kind, index, rng)
                except (OSError, ValueError):
                    status = None
                report.record(kind, time.perf_counter() - start, status)
        finally:
            with self._report_lock:
                self._reports.append(report)

    def run(self) -> LoadReport:
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(index,), daemon=True)
            for index in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = LoadReport()
        with self._report_lock:
            for report in self._reports:
                merged.merge(report)
        merged.seconds = time.perf_counter() - started
        return merged


def run_load(
    url: str,
    requests: int = 200,
    concurrency: int = 8,
    seed: int = 0,
    mix: Optional[Dict[str, float]] = None,
    documents: Optional[List[Tuple[str, str, bytes]]] = None,
    warmup_ingests: int = 4,
    timeout: float = 30.0,
    unique_ingest: bool = False,
) -> LoadReport:
    """One in-process load run against ``url``; returns the report.

    ``warmup_ingests`` seeds the store with a few documents first so
    get/diff/entry ops have digests to chase from the first request
    (warmup is outside the timed window and the report).
    ``unique_ingest`` pads every JSON ingest body distinctly so each op
    is a genuinely new blob (the throughput bench's honest-ingest mode).
    """
    docs = documents if documents is not None else synthetic_documents(
        seed=seed
    )
    plan = build_plan(requests, seed, mix)
    generator = _Generator(
        url, plan, docs, concurrency, timeout, unique_ingest=unique_ingest
    )
    for workload, __, data in docs[:max(0, warmup_ingests)]:
        status = generator._send(
            "POST", "/ingest", {"workload": workload}, data
        ).status
        if status in (200, 201):
            generator._note_digest(sha256_hex(data), workload)
    return generator.run()


def _load_worker(task: Tuple[str, int, int, int, Optional[Dict[str, float]]]):
    """Module-level worker for ParallelExecutor (fork-safe dispatch):
    one whole load generator per process."""
    url, requests, concurrency, seed, mix = task
    report = run_load(
        url, requests=requests, concurrency=concurrency, seed=seed, mix=mix
    )
    return report.to_plain()


def run_load_parallel(
    url: str,
    requests: int = 200,
    concurrency: int = 8,
    jobs: int = 1,
    seed: int = 0,
    mix: Optional[Dict[str, float]] = None,
) -> LoadReport:
    """Scale the client side across ``jobs`` processes.

    Each job runs ``requests // jobs`` ops with its own derived seed;
    reports merge counts and QuantileDigests, and ``seconds`` is the
    slowest job's wall clock (they run concurrently).  A job that
    raises fails the whole run, as it does at ``jobs=1``: the first
    such job's :class:`~repro.parallel.WorkerCrashError` propagates.
    """
    if jobs <= 1:
        return run_load(
            url, requests=requests, concurrency=concurrency, seed=seed,
            mix=mix,
        )
    from repro.parallel import ParallelExecutor

    share = max(1, requests // jobs)
    tasks = [
        (url, share, concurrency, seed + index * 1009, mix)
        for index in range(jobs)
    ]
    executor = ParallelExecutor(jobs=jobs)
    outcomes = executor.map_outcomes(_load_worker, tasks, label="loadgen")
    merged = LoadReport()
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        merged.merge(LoadReport.from_plain(outcome.value))
    return merged
