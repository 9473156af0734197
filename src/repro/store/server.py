"""The PROFSTORE serving daemon: a concurrent JSON API over one store.

Stdlib-only (``http.server``, through :mod:`repro.store.service`),
because the repo has no dependencies and the workload -- a profile
registry queried by build bots and developers -- fits comfortably in
threaded Python: requests are I/O plus cached decodes, and the
decoded-profile LRU keeps the hot runs resident.

Endpoints (all JSON unless noted)::

    GET  /healthz                     liveness + store snapshot
    GET  /metricsz                    telemetry counters/gauges + cache stats
                                      (+ p50/p95/p99 per endpoint;
                                      ``?format=prom`` for scrape text)
    GET  /tracez                      traces seen by the access log
                                      (``?trace=ID`` for one trace's
                                      records + stored documents)
    POST /ingest?workload=NAME        body = profile document (JSON or
                                      BINCAP binary); 400 on corrupt,
                                      413 over the body cap
    POST /ingest/stream?workload=NAME body = BINCAP document stream;
                                      each document lands as its CRC
                                      verifies, torn tails degrade
    GET  /get?run=SELECTOR            the stored document (either
                                      encoding, served as JSON)
    GET  /query/runs?workload=&kind=  manifest rows
    GET  /query/entries?...           per-(instruction, group) LEAP rows
    GET  /query/shapes?run=SELECTOR   LMAD stride fingerprint of one run
    GET  /diff?a=SEL&b=SEL            structural diff + regression verdicts
    POST /gc                          drop unreferenced blobs
    GET  /blob?digest=D|run=SEL       the exact ingested bytes
                                      (octet-stream; ``X-Repro-Digest``
                                      / ``-Workload`` / ``-Kind``
                                      headers carry the provenance)
    POST /repair?digest=D&workload=W  body = blob bytes; force-rewrites
                                      a corrupted or missing replica
                                      after digest + decode validation
                                      (SCALE-OUT read-repair)

Run selectors are what :meth:`repro.store.store.ProfileStore.resolve`
accepts (run ids, digest prefixes, ``workload@kind[~N]``).

Concurrency is bounded: a semaphore of ``max_concurrent`` gates the
request bodies, so a stampede queues in the accept backlog instead of
oversubscribing the process.  The HTTP shell -- handler, lifecycle,
trace join, per-endpoint latency digests, request counters, and the
``request`` access-log record -- is
:class:`~repro.store.service.HttpService`, shared with the cluster
router.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple

from repro.obs.events import EventLog
from repro.obs.quantiles import SUMMARY_QUANTILES
from repro.store.diff import detect_regressions, diff_blobs
from repro.store.httpbody import RequestError
from repro.store.query import QueryEngine
from repro.store.service import DEFAULT_MAX_BODY_BYTES, HttpService, RawBody
from repro.store.store import ProfileStore
from repro.telemetry import Telemetry
from repro.telemetry.export import render_prometheus

#: default cap on concurrently served request bodies
DEFAULT_MAX_CONCURRENT = 8


class StoreServer(HttpService):
    """The daemon: the store's endpoints over the shared HTTP core."""

    metric_prefix = "store.http"

    def __init__(
        self,
        store: ProfileStore,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[Telemetry] = None,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        trace_out: Optional[str] = None,
        events: Optional[EventLog] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.store = store
        self.query = QueryEngine(store)
        self.max_concurrent = max(1, max_concurrent)
        self._gate = threading.BoundedSemaphore(self.max_concurrent)
        super().__init__(
            host, port, telemetry, trace_out, events, max_body_bytes
        )

    def route(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: Dict[str, str],
    ) -> Tuple[int, object]:
        waited = time.perf_counter()
        with self._gate:
            self._gate_waited(time.perf_counter() - waited)
            return self._endpoint(request, method, path, params)

    def _gate_waited(self, seconds: float) -> None:
        if not self.telemetry.enabled:
            return
        with self._metrics_lock:
            self.telemetry.gauge(
                "store.http.gate_wait_seconds_max",
                "longest wait on the concurrency semaphore",
            ).set_max(seconds)
            self.telemetry.gauge(
                "store.http.gate_wait_seconds_last",
                "latest wait on the concurrency semaphore",
            ).set(seconds)

    def _endpoint(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: Dict[str, str],
    ) -> Tuple[int, object]:
        if path == "/healthz" and method == "GET":
            snapshot = self.store.stats()
            host, port = self.address
            snapshot.update(
                status="ok",
                host=host,
                port=port,
                uptime_seconds=time.time() - self.started,
                max_concurrent=self.max_concurrent,
            )
            return 200, snapshot
        if path == "/metricsz" and method == "GET":
            if params.get("format") == "prom":
                return 200, self._metricsz_prom()
            return 200, self._metricsz(include_digests="digests" in params)
        if path == "/tracez" and method == "GET":
            return 200, self._tracez(params.get("trace"))
        if path == "/ingest/stream" and method == "POST":
            return self._ingest_stream(
                request,
                params,
                lambda workload, meta, blob: self._store_document(
                    workload, dict(meta, source="http-stream"), blob
                ),
                log_event=True,
            )
        if path == "/ingest" and method == "POST":
            return self._ingest(request, params)
        if path == "/get" and method == "GET":
            # get_document decodes either encoding to the JSON document
            # shape, so binary-encoded runs are served like JSON ones.
            return 200, self.store.get_document(self._required(params, "run"))
        if path == "/query/runs" and method == "GET":
            return 200, {
                "runs": self.query.find_runs(
                    workload=params.get("workload"), kind=params.get("kind")
                )
            }
        if path == "/query/entries" and method == "GET":
            return 200, {
                "entries": self.query.find_entries(
                    workload=params.get("workload"),
                    instruction=self._int(params, "instruction"),
                    group=self._int(params, "group"),
                    stride=self._stride(params),
                    min_count=self._int(params, "min_count") or 0,
                    run=params.get("run"),
                )
            }
        if path == "/query/shapes" and method == "GET":
            return 200, {
                "shapes": self.query.lmad_shapes(self._required(params, "run"))
            }
        if path == "/diff" and method == "GET":
            return 200, self._diff(params)
        if path == "/blob" and method == "GET":
            return 200, self._blob(params)
        if path == "/repair" and method == "POST":
            return 200, self._repair(request, params)
        if path == "/gc" and method == "POST":
            stats = self.store.gc()
            return 200, {
                "scanned": stats.scanned,
                "removed": stats.removed,
                "freed_bytes": stats.freed_bytes,
            }
        return 404, {"error": f"no such endpoint: {method} {path}"}

    # -- endpoint bodies -----------------------------------------------

    def _metricsz(self, include_digests: bool = False) -> Dict[str, object]:
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        with self._metrics_lock:
            for metric in self.telemetry.registry:
                kind = getattr(metric, "kind", None)
                if kind == "counter":
                    counters[metric.name] = metric.value
                elif kind == "gauge":
                    gauges[metric.name] = metric.value
            latency = self.telemetry.registry.get("store.http.latency_seconds")
            latency_summary = None
            if latency is not None and getattr(latency, "count", 0):
                latency_summary = {
                    "count": latency.count,
                    "mean_seconds": latency.mean,
                    "max_seconds": latency.maximum,
                }
        hits, misses, evictions = self.store.cache.stats()
        out: Dict[str, object] = {
            "counters": counters,
            "gauges": gauges,
            "latency": latency_summary,
            "endpoints": self.latency.summaries(),
            "cache": {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "hit_rate": self.store.cache.hit_rate,
            },
        }
        if include_digests:
            # the mergeable wire form: the cluster router folds these
            # into its cluster-level /metricsz with QuantileDigest.merge
            out["latency_digests"] = self.latency.plains()
        return out

    def _metricsz_prom(self) -> str:
        """The scrape view: the telemetry registry in Prometheus text
        format plus the store-level gauges a scraper wants alongside it
        (cache effectiveness, semaphore pressure, latency quantiles)."""
        hits, misses, evictions = self.store.cache.stats()
        with self._metrics_lock:
            if self.telemetry.enabled:
                # Surface cache state as gauges so the exporter carries
                # them; they are cheap to refresh per scrape.
                self.telemetry.gauge(
                    "store.cache.hits", "decoded-profile cache hits"
                ).set(hits)
                self.telemetry.gauge(
                    "store.cache.misses", "decoded-profile cache misses"
                ).set(misses)
                self.telemetry.gauge(
                    "store.cache.evictions", "decoded-profile cache evictions"
                ).set(evictions)
            text = render_prometheus(self.telemetry)
        lines = [text.rstrip("\n")] if text.strip() else []
        lines.append("# TYPE repro_store_http_latency_quantile_seconds gauge")
        for key, summary in sorted(self.latency.summaries().items()):
            endpoint = "all" if key == "*" else key
            for quantile in SUMMARY_QUANTILES:
                value = summary[f"p{int(quantile * 100)}_seconds"]
                lines.append(
                    "repro_store_http_latency_quantile_seconds"
                    f'{{endpoint="{endpoint}",quantile="{quantile}"}} '
                    f"{value:.9g}"
                )
        return "\n".join(lines) + "\n"

    def _tracez(self, trace_id: Optional[str]) -> Dict[str, object]:
        """Traces the daemon has seen: the access-log view.

        Without ``trace``: one summary row per distinct trace id in the
        event ring.  With ``trace``: that trace's records plus any
        stored trace *documents* carrying the id (ingested via
        ``/ingest``), so a client can recover the full span tree from
        the daemon alone.
        """
        if trace_id is None:
            return {"traces": self._trace_summaries()}
        records = self.events.records_for_trace(trace_id)
        documents = []
        for row in self.query.find_runs(kind="trace"):
            run_id = str(row.get("run_id"))
            try:
                document = json.loads(self.store.get_text(run_id))
            except (KeyError, ValueError):
                continue
            if document.get("trace_id") == trace_id:
                documents.append({"run_id": run_id, "document": document})
        if not records and not documents:
            raise KeyError(f"no such trace: {trace_id}")
        return {
            "trace_id": trace_id,
            "records": records,
            "documents": documents,
        }

    # -- ingest --------------------------------------------------------

    def _ingest(
        self, request: BaseHTTPRequestHandler, params: Dict[str, str]
    ) -> Tuple[int, object]:
        workload = self._required(params, "workload")
        data = self._read_body(request)
        if not data:
            raise RequestError(400, "ingest requires a profile document body")
        return 201, self._store_document(workload, {"source": "http"}, data)

    def _store_document(
        self, workload: str, meta: Dict[str, object], data: bytes
    ) -> Dict[str, object]:
        """Validate and store one document; its ``ingested`` row.

        ``/ingest/stream`` calls this as each document's CRC verifies,
        so the store never holds a torn blob.
        """
        record = self.store.ingest_bytes(data, workload, meta=meta)
        self._count_ingest(len(data))
        return {
            "run_id": record.run_id,
            "digest": record.digest,
            "kind": record.kind,
            "size_bytes": record.size_bytes,
        }

    def _count_ingest(self, size: int) -> None:
        if not self.telemetry.enabled:
            return
        with self._metrics_lock:
            self.telemetry.counter(
                "store.ingested_total", "profiles ingested"
            ).inc()
            self.telemetry.counter(
                "store.ingested_bytes_total", "profile bytes ingested"
            ).inc(size)

    def _blob(self, params: Dict[str, str]) -> RawBody:
        """The exact ingested bytes of one run, with provenance headers.

        The cluster router's replication primitive: it fetches raw
        bytes here (re-hashed by the blob layer on the way out, so a
        corrupted replica answers 400 instead of serving wrong bytes),
        verifies the digest itself, and pushes repairs back through
        ``/repair``.
        """
        selector = params.get("digest") or params.get("run")
        if not selector:
            raise RequestError(400, "blob requires 'digest' or 'run'")
        record = self.store.resolve(selector)
        data = self.store.get_bytes(record.run_id)
        return RawBody(
            data,
            {
                "X-Repro-Digest": record.digest,
                "X-Repro-Workload": record.workload,
                "X-Repro-Kind": record.kind,
            },
        )

    def _repair(
        self, request: BaseHTTPRequestHandler, params: Dict[str, str]
    ) -> Dict[str, object]:
        """Force-install one validated blob (the read-repair sink).

        Unlike ``/ingest``, the payload must hash to the digest the
        caller names, and an existing (possibly corrupt) blob file is
        *replaced* -- the idempotent ingest path would skip it.  A
        manifest run is created only when no run references the digest
        yet (a replica that lost the run entirely).
        """
        digest = self._required(params, "digest")
        workload = params.get("workload") or "unknown"
        data = self._read_body(request)
        if not data:
            raise RequestError(400, "repair requires the blob bytes as body")
        result = self.store.repair_blob(digest, data, workload=workload)
        self._count_ingest(len(data))
        out: Dict[str, object] = {"digest": digest}
        out.update(result)
        return out

    def _diff(self, params: Dict[str, str]) -> Dict[str, object]:
        selector_a = self._required(params, "a")
        selector_b = self._required(params, "b")
        record_a = self.store.resolve(selector_a)
        record_b = self.store.resolve(selector_b)
        diff = diff_blobs(
            self.store.get_bytes(record_a.run_id),
            self.store.get_bytes(record_b.run_id),
            label_a=record_a.run_id,
            label_b=record_b.run_id,
        )
        regressions = detect_regressions(diff)
        payload = diff.to_json()
        payload["regressions"] = [r.to_json() for r in regressions]
        return payload

    # -- parameter helpers ---------------------------------------------

    @staticmethod
    def _int(params: Dict[str, str], name: str) -> Optional[int]:
        value = params.get(name)
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer") from None

    @staticmethod
    def _stride(params: Dict[str, str]) -> Optional[Tuple[int, ...]]:
        value = params.get("stride")
        if value is None:
            return None
        try:
            return tuple(int(part) for part in value.split(",") if part != "")
        except ValueError:
            raise ValueError(
                "parameter 'stride' must be comma-separated integers"
            ) from None
