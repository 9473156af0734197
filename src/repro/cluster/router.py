"""The cluster router: one HTTP daemon fronting N PROFSTORE shards.

The router owns no profile data.  It places blobs on a consistent-hash
ring (:class:`~repro.cluster.health.RingState`), writes each ingest to
``replicas`` shards, and reads quorum-less: any intact replica answers,
the router re-verifies the sha256 itself, and a replica that is
missing, corrupt, or freshly restarted is healed in-band by
**read-repair** (the good bytes are force-written back through the
shard's ``/repair`` endpoint).  Degraded answers reuse the capture
vocabulary: ``capture_completeness`` = written/wanted replicas, never a
silent partial success.

Endpoints (all JSON unless noted)::

    GET  /healthz            router liveness + alive/total shards
    GET  /clusterz           ring layout, shard health, replication
    GET  /metricsz           router latencies + cluster-merged shard
                             digests (QuantileDigest.merge) + per-shard
    GET  /tracez             merged trace view (router + shards)
    POST /ingest?workload=   place + write to `replicas` shards
    POST /ingest/stream      BINCAP stream; each document placed as its
                             CRC verifies
    GET  /get?run=SELECTOR   decoded document (digest selectors verify
                             + read-repair; others broadcast)
    GET  /blob?digest=D      verified raw bytes (read-repair path)
    GET  /query/runs         broadcast + dedupe by (digest, workload,
                             kind)
    GET  /query/entries      broadcast + dedupe by (digest,
                             instruction, group)
    GET  /diff?a=&b=         resolve both selectors cluster-wide, diff
                             in the router
    POST /gc                 broadcast, summed
    POST /rebalance          re-place every digest, copy missing
                             replicas
    POST /drain?shard=NAME   remove from ring, rebalance its data away

The HTTP shell (handler, lifecycle, drain, trace join, latency
digests, access log) is :class:`~repro.store.service.HttpService`,
shared with the shard daemon; every shard call goes out through the
shared client, :mod:`repro.store.client` (per-thread keep-alive, the
call's own timeout, one retry for a replayable body), and
:meth:`ClusterRouter._try_shard` adds only the health marking.  Trace
propagation: an inbound ``X-Repro-Trace`` runs the request under a
child context, and the client puts the child's header on every shard
call, so one trace id links the client, the router, and every shard
touched.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from typing import Dict, List, Optional, Tuple

from repro.cluster.health import RingState, ShardHealthTable
from repro.cluster.ring import DEFAULT_VNODES
from repro.core.profile_io import stored_document
from repro.obs.context import TRACE_HEADER, current_header
from repro.obs.events import EventLog
from repro.obs.quantiles import DigestMerger
from repro.obs.spans import Telemetry
from repro.store.blobs import sha256_hex
from repro.store.client import Response, http_request, json_object
from repro.store.diff import detect_regressions, diff_blobs
from repro.store.httpbody import RequestError
from repro.store.service import DEFAULT_MAX_BODY_BYTES, HttpService, RawBody, Unrouted

#: seconds between background health probes of every shard
DEFAULT_PROBE_INTERVAL = 1.0

#: is this a full sha256 hex digest (vs a run id / prefix / pattern)?
_HEX = frozenset("0123456789abcdef")


def is_digest(selector: str) -> bool:
    return len(selector) == 64 and set(selector) <= _HEX


class ClusterRouter(HttpService):
    """The routing daemon; shards are attached by name + URL."""

    metric_prefix = "router.http"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 2,
        vnodes: int = DEFAULT_VNODES,
        telemetry: Optional[Telemetry] = None,
        trace_out: Optional[str] = None,
        events: Optional[EventLog] = None,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        shard_timeout: float = 30.0,
    ) -> None:
        self.ring = RingState(replicas=replicas, vnodes=vnodes)
        self.health = ShardHealthTable()
        self.shard_timeout = shard_timeout
        self.probe_interval = probe_interval
        #: optional ShardSupervisor, wired by the CLI so /drain and
        #: /clusterz can reach the shard processes
        self.supervisor = None
        self._repairs = 0
        # replica writes fan out concurrently; a persistent pool keeps
        # each worker's per-thread keep-alive connections warm
        self._write_pool = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="replica-write"
        )
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        super().__init__(
            host, port, telemetry, trace_out, events, max_body_bytes
        )

    # -- lifecycle -----------------------------------------------------

    def attach_shard(
        self,
        name: str,
        url: str,
        pid: Optional[int] = None,
        restarts: int = 0,
        boot_seconds: Optional[float] = None,
    ) -> None:
        """(Re)announce one shard.  Safe to call from the supervisor's
        restart path: the name keeps its ring position, only the
        address changes."""
        self.health.set_address(name, url, pid, restarts, boot_seconds)
        if not self.health.snapshot()[name]["draining"]:
            self.ring.add(name)

    def start(self) -> "ClusterRouter":
        super().start()
        self._start_probe()
        return self

    def serve_forever(self) -> None:
        self._start_probe()
        super().serve_forever()

    def _start_probe(self) -> None:
        with self._lifecycle_lock:
            if self._probe_thread is not None or self.probe_interval <= 0:
                return
            self._probe_thread = threading.Thread(
                target=self._probe_loop, daemon=True
            )
        self._probe_thread.start()

    def stop(self) -> None:
        self._probe_stop.set()
        super().stop()
        with self._lifecycle_lock:
            probe, self._probe_thread = self._probe_thread, None
        if probe is not None:
            probe.join(timeout=5.0)
        self._write_pool.shutdown(wait=False)

    def _probe_loop(self) -> None:
        """Poll every shard's /healthz, keeping the health table live.

        Recovery detection rides on the same loop: a shard the table
        believes dead answers again after the supervisor restarts it,
        and the probe flips it back to alive (with its run count, which
        feeds the replication-lag gauge).
        """
        while not self._probe_stop.wait(self.probe_interval):
            for name in self.health.names():
                answer = self._try_shard(name, "GET", "/healthz", timeout=2.0)
                if answer is None:
                    continue
                status, __, body = answer
                if status != 200:
                    self.health.mark_failed(name, f"healthz answered {status}")
                    continue
                runs = json_object(body).get("runs")
                self.health.mark_ok(
                    name, runs=runs if isinstance(runs, int) else None
                )

    # -- shard client --------------------------------------------------

    def _try_shard(
        self,
        shard: str,
        method: str,
        path: str,
        params: Optional[Dict[str, str]] = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Optional[Response]:
        """One exchange with a shard through the keep-alive client; an
        unreachable shard marks the health table and yields None."""
        url = self.health.url(shard)
        error = f"shard {shard!r} has no known address"
        if url:
            try:
                return http_request(
                    url, method, path, params=params, body=body,
                    headers=headers, timeout=timeout or self.shard_timeout,
                )
            except OSError as exc:
                error = f"shard {shard!r} unreachable: {exc}"
        self.health.mark_failed(shard, error)
        return None

    # -- dispatch ------------------------------------------------------

    def route(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: Dict[str, str],
    ) -> Tuple[int, object]:
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/clusterz" and method == "GET":
            return 200, self._clusterz()
        if path == "/metricsz" and method == "GET":
            return 200, self._metricsz()
        if path == "/tracez" and method == "GET":
            return 200, self._tracez(params.get("trace"))
        if path == "/ingest/stream" and method == "POST":
            status, payload = self._ingest_stream(
                request, params, self._place_document
            )
            payload["degraded"] = status != 201
            return status, payload
        if path == "/ingest" and method == "POST":
            return self._ingest(request, params)
        if path == "/get" and method == "GET":
            return 200, self._get(params)
        if path == "/blob" and method == "GET":
            return 200, self._blob(params)
        if path in ("/query/runs", "/query/entries") and method == "GET":
            return 200, self._query(path, params)
        if path == "/diff" and method == "GET":
            return 200, self._diff(params)
        if path == "/gc" and method == "POST":
            return 200, self._gc()
        if path == "/rebalance" and method == "POST":
            return 200, self._rebalance()
        if path == "/drain" and method == "POST":
            return 200, self._drain(self._required(params, "shard"))
        raise Unrouted(method, path)

    # -- observability endpoints ---------------------------------------

    def _healthz(self) -> Dict[str, object]:
        alive = self.health.alive_shards()
        total = self.health.names()
        host, port = self.address
        completeness = (len(alive) / len(total)) if total else 0.0
        return {
            "status": "ok" if alive and len(alive) == len(total) else (
                "degraded" if alive else "down"
            ),
            "role": "cluster-router",
            "host": host,
            "port": port,
            "shards_alive": len(alive),
            "shards_total": len(total),
            "capture_completeness": completeness,
            "replicas": self.ring.replicas,
            "uptime_seconds": time.time() - self.started,
        }

    def _clusterz(self) -> Dict[str, object]:
        with self._metrics_lock:
            repairs = self._repairs
            requests = self._requests
            errors = self._errors
        return {
            "ring": self.ring.layout(),
            "shards": self.health.snapshot(),
            "replication": {
                "replicas": self.ring.replicas,
                "read_repairs": repairs,
                "lag_runs": self.health.lag_runs(),
            },
            "router": {
                "requests": requests,
                "errors": errors,
                "uptime_seconds": time.time() - self.started,
            },
        }

    def _metricsz(self) -> Dict[str, object]:
        """Router latencies, plus the cluster-level merge.

        Each shard exports its per-endpoint QuantileDigests in wire
        form (``/metricsz?digests=1``); the router folds them together
        with :meth:`QuantileDigest.merge`, so cluster p50/p99 reflect
        every shard's samples, not an average of averages.  A shard
        whose digests fail validation is left out of the merge, and its
        ``shards`` row says ``"digests": "rejected: <reason>"``.
        """
        cluster = DigestMerger()
        shards: Dict[str, object] = {}
        for name in self.health.alive_shards():
            answer = self._try_shard(
                name, "GET", "/metricsz", params={"digests": "1"}, timeout=5.0
            )
            if answer is None or answer[0] != 200:
                continue
            payload = json_object(answer[2])
            row: Dict[str, object] = {
                "endpoints": payload.get("endpoints"),
                "cache": payload.get("cache"),
            }
            digests = payload.get("latency_digests")
            if digests is not None:
                # a bad shard digest is the shard's fault: skip it and
                # say so, never fail the client's scrape
                try:
                    cluster.absorb(digests)
                except ValueError as exc:
                    row["digests"] = f"rejected: {exc}"
            shards[name] = row
        with self._metrics_lock:
            requests = self._requests
            errors = self._errors
            repairs = self._repairs
        return {
            "router": {
                "requests": requests,
                "errors": errors,
                "read_repairs": repairs,
                "endpoints": self.latency.summaries(),
            },
            "cluster": {"endpoints": cluster.summaries()},
            "shards": shards,
        }

    def _tracez(self, trace_id: Optional[str]) -> Dict[str, object]:
        if trace_id is None:
            merged: Dict[str, Dict[str, object]] = {}

            def fold(row: Dict[str, object]) -> None:
                tid = str(row.get("trace_id"))
                into = merged.setdefault(
                    tid, {"trace_id": tid, "records": 0, "kinds": []}
                )
                into["records"] += int(row.get("records") or 0)
                kinds = set(into["kinds"])  # type: ignore[arg-type]
                kinds.update(str(k) for k in row.get("kinds") or ())
                into["kinds"] = sorted(kinds)

            for row in self._trace_summaries():
                fold(row)
            for name in self.health.alive_shards():
                answer = self._try_shard(name, "GET", "/tracez", timeout=5.0)
                if answer is None or answer[0] != 200:
                    continue
                for row in json_object(answer[2]).get("traces") or ():
                    if isinstance(row, dict):
                        fold(row)
            return {"traces": sorted(merged.values(), key=lambda r: r["trace_id"])}
        records = self.events.records_for_trace(trace_id)
        documents: List[object] = []
        shard_records: List[object] = []
        for name in self.health.alive_shards():
            answer = self._try_shard(
                name, "GET", "/tracez", params={"trace": trace_id}, timeout=5.0
            )
            if answer is None or answer[0] != 200:
                continue
            payload = json_object(answer[2])
            for record in payload.get("records") or ():
                if isinstance(record, dict):
                    record = dict(record)
                    record["shard"] = name
                    shard_records.append(record)
            documents.extend(payload.get("documents") or ())
        if not records and not shard_records and not documents:
            raise KeyError(f"no such trace: {trace_id}")
        return {
            "trace_id": trace_id,
            "records": records + sorted(
                shard_records, key=lambda r: r.get("ts") or 0
            ),
            "documents": documents,
        }

    # -- writes --------------------------------------------------------

    def _ingest(
        self, request: BaseHTTPRequestHandler, params: Dict[str, str]
    ) -> Tuple[int, object]:
        workload = self._required(params, "workload")
        data = self._read_body(request)
        if not data:
            raise RequestError(400, "ingest requires a profile document body")
        digest = sha256_hex(data)
        status, payload = self._write_replicas(digest, data, workload)
        return status, payload

    def _write_replicas(
        self, digest: str, data: bytes, workload: str
    ) -> Tuple[int, Dict[str, object]]:
        """Write one blob to its placed replicas, concurrently.

        All replicas written -> 201.  Some (shard down) -> 200 with
        ``capture_completeness`` < 1 -- the cluster stays writable
        through a shard outage and heals by read-repair later.  A shard
        *rejecting* the payload (4xx: corrupt document) is propagated
        as-is: validation verdicts are unanimous, retrying elsewhere
        cannot help.  Nothing written -> 503.

        The replica writes fan out over the write pool so a 2-way
        ingest costs one shard round-trip, not two -- this is where the
        cluster's aggregate ingest throughput comes from.  The trace
        header is captured here (the handler thread owns the active
        context; pool threads have none).
        """
        placed = self.ring.place(digest)
        if not placed:
            raise RequestError(503, "no shards attached to the ring")
        trace = current_header()
        headers = {TRACE_HEADER: trace} if trace is not None else None
        params = {"workload": workload}

        if len(placed) == 1:
            answers = [
                self._try_shard(
                    placed[0], "POST", "/ingest", params=params, body=data,
                    headers=headers,
                )
            ]
        else:
            futures = [
                self._write_pool.submit(
                    self._try_shard, shard, "POST", "/ingest",
                    params=params, body=data, headers=headers,
                )
                for shard in placed
            ]
            answers = [future.result() for future in futures]
        written: List[str] = []
        missed: List[str] = []
        first: Optional[Dict[str, object]] = None
        for shard, answer in zip(placed, answers):
            if answer is None:
                missed.append(shard)
                continue
            status, __, body = answer
            if status in (200, 201):
                written.append(shard)
                if first is None:
                    first = json_object(body)
            elif 400 <= status < 500:
                payload = json_object(body)
                payload.setdefault("error", f"shard answered {status}")
                payload["shard"] = shard
                return status, payload
            else:
                missed.append(shard)
        if not written:
            raise RequestError(
                503, f"no replica accepted {digest[:12]} "
                f"({len(placed)} placed, all unavailable)"
            )
        payload = dict(first or {})
        payload.update(
            digest=digest,
            workload=workload,
            replicas=written,
            wanted=placed,
            written=len(written),
            capture_completeness=len(written) / len(placed),
            degraded=bool(missed),
        )
        return (201 if not missed else 200), payload

    def _place_document(
        self, workload: str, meta: Dict[str, object], blob: bytes
    ) -> Dict[str, object]:
        """Place and replicate one streamed document the moment its CRC
        verifies: a torn tail loses only the torn document, and the row
        carries the replica-level completeness next to the stream's."""
        digest = sha256_hex(blob)
        status, payload = self._write_replicas(digest, blob, workload)
        if status >= 400:
            raise RequestError(status, str(payload.get("error")))
        return {
            "run_id": payload.get("run_id"),
            "digest": digest,
            "kind": payload.get("kind"),
            "size_bytes": len(blob),
            "replicas": payload.get("replicas"),
            "capture_completeness": payload.get("capture_completeness"),
        }

    # -- reads + read-repair -------------------------------------------

    def _read_digest(self, digest: str) -> Tuple[bytes, Dict[str, str]]:
        """Fetch one blob by digest from any intact replica, verifying
        and repairing.

        Placed replicas are tried first, then every other live shard
        (the ring may have changed since the blob was written).  The
        router re-hashes whatever it receives -- a corrupt replica can
        never answer a client -- and any placed, reachable replica that
        failed to serve the good bytes is repaired in-band.
        """
        placed = self.ring.place(digest)
        candidates = list(placed)
        for name in self.health.alive_shards():
            if name not in candidates:
                candidates.append(name)
        if not candidates:
            raise RequestError(503, "no shards attached to the ring")
        good: Optional[bytes] = None
        headers: Dict[str, str] = {}
        saw_corrupt = False
        needs_repair: List[str] = []
        for shard in candidates:
            answer = self._try_shard(
                shard, "GET", "/blob", params={"digest": digest}, timeout=10.0
            )
            if answer is None:
                continue
            status, shard_headers, body = answer
            if status == 200 and sha256_hex(body) == digest:
                if good is None:
                    good = body
                    headers = {
                        "X-Repro-Digest": digest,
                        "X-Repro-Workload": shard_headers.get(
                            "X-Repro-Workload", "unknown"
                        ),
                        "X-Repro-Kind": shard_headers.get(
                            "X-Repro-Kind", "?"
                        ),
                        "X-Repro-Served-By": shard,
                    }
                continue
            if status == 200 or status == 400:
                # served bytes that do not hash to the digest, or the
                # shard's own blob layer caught the corruption first
                saw_corrupt = True
            if shard in placed:
                needs_repair.append(shard)
        if good is None:
            if saw_corrupt:
                raise RequestError(
                    502, f"every replica of {digest[:12]} is corrupt"
                )
            raise KeyError(f"no replica holds digest {digest[:12]}")
        for shard in needs_repair:
            self._repair_replica(shard, digest, good, headers)
        return good, headers

    def _repair_replica(
        self,
        shard: str,
        digest: str,
        data: bytes,
        headers: Dict[str, str],
    ) -> None:
        """Push the verified bytes back onto one broken replica."""
        workload = headers.get("X-Repro-Workload", "unknown")
        answer = self._try_shard(
            shard, "POST", "/repair",
            params={"digest": digest, "workload": workload}, body=data,
        )
        repaired = answer is not None and answer[0] == 200
        error = None
        if answer is None:
            error = "shard unreachable"
        elif answer[0] != 200:
            error = f"repair answered {answer[0]}"
        self.events.emit(
            "read_repair",
            digest=digest,
            shard=shard,
            repaired=repaired,
            error=error,
            workload=workload,
        )
        if repaired:
            with self._metrics_lock:
                self._repairs += 1
                self.telemetry.counter(
                    "router.read_repairs_total",
                    "replicas healed by read-repair",
                ).inc()

    def _blob(self, params: Dict[str, str]) -> RawBody:
        selector = params.get("digest") or params.get("run")
        if not selector:
            raise RequestError(400, "blob requires 'digest' or 'run'")
        data, headers = self._resolve_bytes(selector)
        return RawBody(data, headers)

    def _resolve_bytes(self, selector: str) -> Tuple[bytes, Dict[str, str]]:
        """Any run selector to verified bytes, cluster-wide."""
        if is_digest(selector):
            return self._read_digest(selector)
        # run ids / prefixes / workload@kind patterns are shard-local
        # vocabulary: ask everyone, first shard that resolves it wins,
        # then fetch by the digest it names (verified + repaired).
        for shard in self.health.alive_shards():
            answer = self._try_shard(
                shard, "GET", "/blob", params={"run": selector}, timeout=10.0
            )
            if answer is None or answer[0] != 200:
                continue
            status, headers, body = answer
            digest = headers.get("X-Repro-Digest")
            if digest and sha256_hex(body) == digest:
                return body, {
                    "X-Repro-Digest": digest,
                    "X-Repro-Workload": headers.get(
                        "X-Repro-Workload", "unknown"
                    ),
                    "X-Repro-Kind": headers.get("X-Repro-Kind", "?"),
                    "X-Repro-Served-By": shard,
                }
        raise KeyError(f"no shard resolves selector {selector!r}")

    def _get(self, params: Dict[str, str]) -> Dict[str, object]:
        # the bytes hash to the digest of a blob its shard validated at
        # ingest, so they are decoded without validating them again
        selector = self._required(params, "run")
        data, __ = self._resolve_bytes(selector)
        return stored_document(data)

    # -- broadcast reads -----------------------------------------------

    def _broadcast(
        self,
        path: str,
        method: str = "GET",
        params: Optional[Dict[str, str]] = None,
        timeout: float = 15.0,
    ) -> Tuple[Dict[str, Dict[str, object]], int, int]:
        """One request to every live shard; (answers, responded, total)."""
        answers: Dict[str, Dict[str, object]] = {}
        shards = self.health.alive_shards()
        responded = 0
        for name in shards:
            answer = self._try_shard(
                name, method, path, params=params, timeout=timeout
            )
            if answer is None or answer[0] != 200:
                continue
            responded += 1
            answers[name] = json_object(answer[2])
        return answers, responded, len(shards)

    def _query(self, path: str, params: Dict[str, str]) -> Dict[str, object]:
        """Broadcast a query and dedupe replicated rows.

        Replication stores the same blob on two shards, so the same
        logical run (and its entries) answers twice; the digest in each
        row keys the merge.  ``capture_completeness`` = shards that
        answered / live shards, with ``degraded`` set when anyone was
        missing -- mirroring the capture vocabulary end to end.
        """
        answers, responded, total = self._broadcast(path, params=params)
        key_name = "runs" if path == "/query/runs" else "entries"
        merged: List[Dict[str, object]] = []
        seen = set()
        for name in sorted(answers):
            for row in answers[name].get(key_name) or ():
                if not isinstance(row, dict):
                    continue
                if key_name == "runs":
                    key = (row.get("digest"), row.get("workload"),
                           row.get("kind"))
                else:
                    key = (row.get("digest"), row.get("instruction"),
                           row.get("group"))
                if key in seen:
                    continue
                seen.add(key)
                merged.append(row)
        return {
            key_name: merged,
            "shards_responded": responded,
            "shards_total": total,
            "capture_completeness": (responded / total) if total else 0.0,
            "degraded": responded < total,
        }

    def _diff(self, params: Dict[str, str]) -> Dict[str, object]:
        selector_a = self._required(params, "a")
        selector_b = self._required(params, "b")
        bytes_a, headers_a = self._resolve_bytes(selector_a)
        bytes_b, headers_b = self._resolve_bytes(selector_b)
        diff = diff_blobs(
            bytes_a,
            bytes_b,
            label_a=headers_a.get("X-Repro-Digest", selector_a)[:12],
            label_b=headers_b.get("X-Repro-Digest", selector_b)[:12],
        )
        regressions = detect_regressions(diff)
        payload = diff.to_json()
        payload["regressions"] = [r.to_json() for r in regressions]
        return payload

    def _gc(self) -> Dict[str, object]:
        answers, responded, total = self._broadcast("/gc", method="POST")
        summed = {"scanned": 0, "removed": 0, "freed_bytes": 0}
        for payload in answers.values():
            for key in summed:
                value = payload.get(key)
                if isinstance(value, int):
                    summed[key] += value
        summed.update(shards_responded=responded, shards_total=total)
        return summed

    # -- rebalance + drain ---------------------------------------------

    def _catalog(self) -> Dict[str, Tuple[str, List[str]]]:
        """digest -> (workload, shards currently holding it)."""
        answers, __, __total = self._broadcast("/query/runs")
        catalog: Dict[str, Tuple[str, List[str]]] = {}
        for name in sorted(answers):
            for row in answers[name].get("runs") or ():
                if not isinstance(row, dict):
                    continue
                digest = row.get("digest")
                if not isinstance(digest, str):
                    continue
                workload, holders = catalog.get(
                    digest, (str(row.get("workload") or "unknown"), [])
                )
                if name not in holders:
                    holders.append(name)
                catalog[digest] = (workload, holders)
        return catalog

    def _rebalance(self) -> Dict[str, object]:
        """Re-place every known digest and copy missing replicas.

        The repair transport is the read-repair one: fetch verified
        bytes from a holder, force-write through ``/repair``.  Used
        after membership changes and by ``/drain``.
        """
        catalog = self._catalog()
        checked = 0
        copied = 0
        failed = 0
        for digest, (workload, holders) in sorted(catalog.items()):
            checked += 1
            placed = self.ring.place(digest)
            missing = [
                shard
                for shard in placed
                if shard not in holders and self.health.is_alive(shard)
            ]
            if not missing:
                continue
            try:
                data, headers = self._read_digest(digest)
            except (KeyError, RequestError):
                failed += 1
                continue
            for shard in missing:
                before = self._repair_count()
                self._repair_replica(shard, digest, data, headers)
                if self._repair_count() > before:
                    copied += 1
                else:
                    failed += 1
        return {
            "checked": checked,
            "copied": copied,
            "failed": failed,
            "ring_version": self.ring.layout()["version"],
        }

    def _repair_count(self) -> int:
        with self._metrics_lock:
            return self._repairs

    def _drain(self, shard: str) -> Dict[str, object]:
        """Take one shard out of the ring and move its data away.

        The shard keeps serving reads while its blobs are copied to
        their new placements (the rebalance fetch path may read from
        it); only then is its process stopped, when a supervisor is
        wired.
        """
        if shard not in self.health.names():
            raise KeyError(f"no such shard: {shard}")
        self.health.set_draining(shard, True)
        self.ring.remove(shard)
        error: Optional[str] = None
        copied = 0
        try:
            outcome = self._rebalance()
            copied = int(outcome.get("copied") or 0)
            if outcome.get("failed"):
                error = f"{outcome['failed']} digest(s) failed to copy"
        except Exception as exc:  # noqa: BLE001 - report, don't die
            error = f"{type(exc).__name__}: {exc}"
        self.events.emit("shard_drain", shard=shard, copied=copied,
                         error=error)
        stopped = False
        if self.supervisor is not None and error is None:
            self.supervisor.stop_shard(shard)
            stopped = True
        out: Dict[str, object] = {
            "shard": shard,
            "copied": copied,
            "stopped": stopped,
            "ring": self.ring.layout(),
        }
        if error is not None:
            out["error"] = error
        return out
