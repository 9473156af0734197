"""The HTTP service core under both serving daemons.

:class:`~repro.store.server.StoreServer` (one store) and
:class:`~repro.cluster.router.ClusterRouter` (N shards) differ only in
their endpoints.  Everything else lives here, once:

* the stdlib ``ThreadingHTTPServer`` and its handler (HTTP/1.1
  keep-alive, Nagle off, no per-request stderr lines), the bound
  address, and the ``start`` / ``serve_forever`` / ``stop`` / ``drain``
  lifecycle with its in-flight request count;
* the dispatch around each subclass's :meth:`HttpService.route`: URL
  and parameter parsing, the ``X-Repro-Trace`` child context, errors
  mapped to status codes, the per-endpoint latency digests, request
  counters, one ``request`` record in the event log (the access log),
  and the response encoding;
* the BINCAP stream-ingest loop, which hands each CRC-verified
  document to a per-service callback;
* :func:`serve_until_terminated`, the SIGTERM -> drain -> stop
  foreground loop both CLIs run.

TRACELINK: a request carrying an ``X-Repro-Trace`` header runs under a
*child* of the sender's context; its records carry the sender's trace
id, and the child is echoed in the response's own ``X-Repro-Trace``
header so clients can confirm the linkage.

Error mapping: :class:`~repro.store.httpbody.RequestError` answers its
own status (400 malformed, 413 oversized, 503 ...), ``KeyError`` is a
404, ``ProfileFormatError`` and other ``ValueError``\\ s are 400, and
anything else is a 500 -- the daemon survives every request.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.binformat import StreamReader
from repro.core.profile_io import ProfileFormatError
from repro.obs.context import TRACE_HEADER, TraceContext, activate
from repro.obs.events import EventLog
from repro.obs.quantiles import DigestMerger
from repro.store.httpbody import RequestError, iter_body, read_body
from repro.telemetry import Telemetry, coalesce

#: default cap on one request body / streamed document (64 MiB); a
#: profile document larger than this is a client bug, not a workload
DEFAULT_MAX_BODY_BYTES = 64 << 20

#: request-latency histogram buckets (seconds)
LATENCY_BUCKETS = tuple(0.0001 * (4 ** p) for p in range(8))


class RawBody:
    """A non-JSON response payload: raw bytes plus extra headers."""

    __slots__ = ("data", "headers")

    def __init__(self, data: bytes, headers: Optional[Dict[str, str]] = None):
        self.data = data
        self.headers = dict(headers or {})


class _Handler(BaseHTTPRequestHandler):
    # keep-alive: every response carries Content-Length, so HTTP/1.1 is
    # safe and the cluster router can reuse one connection per shard
    protocol_version = "HTTP/1.1"

    # Nagle off: response bodies follow headers in a second send() and
    # would otherwise stall on the peer's delayed ACK
    disable_nagle_algorithm = True

    # quiet: the service's own telemetry and access log replace the
    # per-request stderr lines
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        self.server.service.handle(self, "GET")

    def do_POST(self):  # noqa: N802
        self.server.service.handle(self, "POST")


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: "HttpService"):
        self.service = service
        super().__init__(address, _Handler)


class HttpService:
    """Lifecycle, dispatch, and accounting shared by both daemons.

    Subclasses implement :meth:`route` and set :attr:`metric_prefix`.
    """

    #: telemetry namespace of the request counters and histogram
    metric_prefix = "service.http"

    def __init__(
        self,
        host: str,
        port: int,
        telemetry: Optional[Telemetry],
        trace_out: Optional[str],
        events: Optional[EventLog],
        max_body_bytes: int,
    ) -> None:
        self.telemetry = coalesce(telemetry)
        #: the access log: one ``request`` record per served request,
        #: mirrored to ``trace_out`` (JSONL) when given
        self.events = events if events is not None else EventLog(path=trace_out)
        #: per-endpoint latency digests ("*" aggregates all endpoints)
        self.latency = DigestMerger()
        self.max_body_bytes = max_body_bytes
        self.started = time.time()
        # guards the request counters and the telemetry registry, which
        # is single-threaded by design
        self._metrics_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        # guards the serving-thread handle and whether a serve loop is
        # running: start() may race stop() when embedding code drives
        # the lifecycle from more than one thread
        self._lifecycle_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        # in-flight requests, for drain()
        self._inflight_cond = threading.Condition()
        self._inflight = 0
        self.httpd = _Server((host, port), self)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HttpService":
        """Serve in a background thread (tests, embedded use).

        Starting an already-started service raises rather than leaking
        the first serving thread's handle.
        """
        with self._lifecycle_lock:
            if self._thread is not None:
                raise RuntimeError("service is already started")
            thread = threading.Thread(
                target=self.httpd.serve_forever, daemon=True
            )
            self._thread = thread
            self._serving = True
        thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        try:
            with self._lifecycle_lock:
                self._serving = True
            self.httpd.serve_forever()
        finally:
            with self._lifecycle_lock:
                self._serving = False

    def stop(self) -> None:
        """Stop serving and close the socket.  Idempotent, and safe on
        a service that never served: ``shutdown()`` waits for a serve
        loop to acknowledge, so it is only called when one runs."""
        with self._lifecycle_lock:
            serving, self._serving = self._serving, False
            thread, self._thread = self._thread, None
        if serving:
            self.httpd.shutdown()
        if thread is not None:
            thread.join()
        self.httpd.server_close()
        self.events.flush()

    def drain(self, deadline_seconds: float = 5.0) -> bool:
        """Wait (bounded) for in-flight requests, then log the shutdown.

        The graceful-shutdown half of SIGTERM handling: the serve loop
        has already exited, and drain() waits until every handler
        thread finishes or the deadline passes.  Either way one
        ``server_shutdown`` event lands in the log -- the shard
        supervisor's restart path keys off it -- and the sink is
        flushed.  Returns True when the service drained fully.
        """
        deadline = time.monotonic() + max(0.0, deadline_seconds)
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
            leftover = self._inflight
        self.events.emit(
            "server_shutdown",
            drained=leftover == 0,
            in_flight=leftover,
            deadline_seconds=deadline_seconds,
        )
        self.events.flush()
        return leftover == 0

    # -- dispatch ------------------------------------------------------

    def route(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: Dict[str, str],
    ) -> Tuple[int, object]:
        """One request's (status, payload); payload is JSON-able, a
        ``str`` (text/plain), or :class:`RawBody`."""
        raise NotImplementedError

    def handle(self, request: BaseHTTPRequestHandler, method: str) -> None:
        with self._inflight_cond:
            self._inflight += 1
        try:
            self._handle(request, method)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _handle(self, request: BaseHTTPRequestHandler, method: str) -> None:
        parsed = urlparse(request.path)
        endpoint = parsed.path.strip("/").replace("/", "_") or "root"
        params = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        inbound = TraceContext.from_header(request.headers.get(TRACE_HEADER))
        context = inbound.child() if inbound is not None else None
        scope = (
            activate(context) if context is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        try:
            with scope:
                status, payload = self.route(
                    request, method, parsed.path, params
                )
        except RequestError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except (KeyError, ProfileFormatError, ValueError) as exc:
            kind = 404 if isinstance(exc, KeyError) else 400
            status, payload = kind, {"error": str(exc).strip("'\"")}
        except Exception as exc:  # noqa: BLE001 - the service survives
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        self._record(endpoint, status, elapsed)
        self.events.emit(
            "request",
            trace=context.trace_id if context is not None else None,
            span=context.span_id if context is not None else None,
            endpoint=endpoint,
            method=method,
            status=status,
            seconds=elapsed,
        )
        headers: Dict[str, str] = {}
        if isinstance(payload, RawBody):
            headers["Content-Type"] = "application/octet-stream"
            body = payload.data
            headers.update(payload.headers)
        elif isinstance(payload, str):
            headers["Content-Type"] = "text/plain; charset=utf-8"
            body = payload.encode("utf-8")
        else:
            headers["Content-Type"] = "application/json"
            body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        headers["Content-Length"] = str(len(body))
        if context is not None:
            headers[TRACE_HEADER] = context.to_header()
        # a failed POST may not have consumed its body; keeping the
        # connection alive would desync the next request's framing
        # (send_header('Connection', 'close') also flags
        # close_connection for the serving loop)
        if method == "POST" and status >= 400:
            headers["Connection"] = "close"
        try:
            request.send_response(status)
            for name, value in headers.items():
                request.send_header(name, value)
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _record(self, endpoint: str, status: int, seconds: float) -> None:
        """Fold one request into the digests, counters, and telemetry."""
        self.latency.observe(endpoint, seconds)
        self.latency.observe("*", seconds)
        with self._metrics_lock:
            self._requests += 1
            if status >= 400:
                self._errors += 1
            if not self.telemetry.enabled:
                return
            prefix = self.metric_prefix
            self.telemetry.counter(
                f"{prefix}.requests_total", "requests served"
            ).inc()
            self.telemetry.counter(
                f"{prefix}.{endpoint}_total", f"requests to {endpoint}"
            ).inc()
            if status >= 400:
                self.telemetry.counter(
                    f"{prefix}.errors_total", "requests answered >= 400"
                ).inc()
            self.telemetry.histogram(
                f"{prefix}.latency_seconds",
                "request wall time",
                bounds=LATENCY_BUCKETS,
            ).observe(seconds)
            # Span accumulation without the (thread-hostile) context
            # stack: one child per endpoint under serve/.
            span = self.telemetry.root.child("serve").child(endpoint)
            span.calls += 1
            span.seconds += seconds
            span.add_items(1, "requests")

    # -- request bodies ------------------------------------------------

    def _read_body(self, request: BaseHTTPRequestHandler) -> bytes:
        return read_body(request, self.max_body_bytes)

    def _ingest_stream(
        self,
        request: BaseHTTPRequestHandler,
        params: Dict[str, str],
        ingest_one: Callable[
            [str, Dict[str, object], bytes], Dict[str, object]
        ],
        log_event: bool = False,
    ) -> Tuple[int, Dict[str, object]]:
        """Ingest a BINCAP document stream while it is still arriving.

        ``ingest_one(workload, meta, blob)`` stores one CRC-verified
        document the moment its DOC_END verifies and returns its
        ``ingested`` row; raising ``ProfileFormatError`` or
        ``RequestError`` rejects just that document.  A producer dying
        mid-stream degrades instead of failing: documents already
        stored stay stored, the torn tail is counted, and the answer is
        200 (201 only when everything landed complete, with every row's
        ``capture_completeness`` at 1) -- or 400 when nothing did.
        ``log_event`` adds one ``stream_ingest`` record to the log.
        """
        default_workload = params.get("workload")
        reader = StreamReader(max_document_bytes=self.max_body_bytes)
        ingested: List[Dict[str, object]] = []
        rejected: List[Dict[str, object]] = []
        error: Optional[str] = None
        try:
            for piece in iter_body(request, self.max_body_bytes):
                for event in reader.feed(piece):
                    if event[0] == "torn":
                        rejected.append(
                            {"workload": event[1], "error": event[2]}
                        )
                    elif event[0] == "doc":
                        __, workload, meta, blob = event
                        name = workload or default_workload or "unknown"
                        try:
                            ingested.append(ingest_one(name, meta, blob))
                        except (ProfileFormatError, RequestError) as exc:
                            rejected.append(
                                {"workload": name, "error": str(exc)}
                            )
        except (ValueError, OSError) as exc:
            # Framing died mid-stream (truncated chunk, connection
            # cut): keep what verified, report the wreck as degraded.
            error = str(exc) or type(exc).__name__
        summary = reader.summary()
        degraded = (
            bool(error)
            or not summary["complete"]
            or bool(rejected)
            or any(
                row.get("capture_completeness", 1.0) < 1.0 for row in ingested
            )
        )
        if log_event:
            self.events.emit(
                "stream_ingest",
                workload=default_workload,
                documents=summary["documents"],
                torn=summary["torn"],
                ingested=len(ingested),
                rejected=len(rejected),
                complete=summary["complete"],
                capture_completeness=summary["capture_completeness"],
                error=error,
            )
        if not ingested and degraded:
            raise RequestError(
                400, error or "stream carried no ingestible documents"
            )
        payload: Dict[str, object] = {
            "ingested": ingested,
            "rejected": rejected,
            "documents": summary["documents"],
            "complete": summary["complete"] and not rejected,
            "capture_completeness": summary["capture_completeness"],
        }
        if error:
            payload["error"] = error
        return (201 if not degraded else 200), payload

    def _trace_summaries(self) -> List[Dict[str, object]]:
        """The ``/tracez`` index: one row per trace id in the event
        ring."""
        rows = []
        for trace_id in self.events.trace_ids():
            records = self.events.records_for_trace(trace_id)
            rows.append(
                {
                    "trace_id": trace_id,
                    "records": len(records),
                    "kinds": sorted({str(r.get("kind")) for r in records}),
                    "first_ts": records[0].get("ts"),
                    "last_ts": records[-1].get("ts"),
                }
            )
        return rows

    # -- parameter helpers ---------------------------------------------

    @staticmethod
    def _required(params: Dict[str, str], name: str) -> str:
        value = params.get(name)
        if not value:
            raise ValueError(f"missing required parameter {name!r}")
        return value


class _Terminated(Exception):
    """Raised out of the serve loop by the SIGTERM handler."""


def _on_sigterm(signum, frame):
    raise _Terminated()


def serve_until_terminated(service: HttpService, drain_deadline: float) -> None:
    """Serve on this thread until SIGTERM or Ctrl-C, then drain and stop.

    The handler is installed before the ``listening host:port`` line is
    printed, so a supervisor that signals as soon as it parses the line
    still gets a clean exit.  With ``--port 0`` the kernel picks the
    port, and supervisors (and CI) learn it from that line.
    """
    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        host, port = service.address
        print(f"listening {host}:{port}", flush=True)
        service.serve_forever()
    except (KeyboardInterrupt, _Terminated):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        # the serve loop already exited; drain in-flight handlers first,
        # then stop() closes the socket and flushes events
        service.drain(drain_deadline)
        service.stop()
