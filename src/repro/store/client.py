"""The one outbound HTTP client: every request ``repro`` sends.

The router's shard calls, the load generator, and the ``--url`` paths
of ``repro-serve``, ``repro-cluster`` and ``repro-obs`` all go through
:func:`http_request`, the client-side twin of the one server core
(:class:`~repro.store.service.HttpService`).  Its policy, stated once:

* one keep-alive ``http.client`` connection per (thread, host:port),
  with Nagle off -- a POST body goes out in a second ``send()``, which
  would otherwise stall ~40ms on the peer's delayed ACK;
* the ambient ``X-Repro-Trace`` header rides on every request, under
  any header the caller sets itself, so one trace id links the client,
  the router, and every shard it touches;
* the call's timeout applies to the socket on every request, a reused
  connection included;
* query parameters are always built with ``urlencode``;
* an iterable body is sent chunked;
* a transport failure is retried once on a fresh socket when the body
  can be sent again (``None`` or ``bytes``), and never otherwise --
  safe for the store's POSTs, whose writes are content-addressed.

Transport failures surface as :class:`OSError`; :func:`http_json` folds
them, and any non-2xx answer, into one :class:`ValueError` message.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Union
from urllib.parse import urlencode, urlsplit

from repro.obs.context import TRACE_HEADER, current_header

Body = Union[None, bytes, Iterable[bytes]]

_CONNECTIONS = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: this thread's keep-alive connections, keyed by (scheme, host:port)
_local = threading.local()
# a forked child (the load generator's ``jobs``) opens its own sockets
os.register_at_fork(after_in_child=lambda: _local.__dict__.clear())


class Response(NamedTuple):
    status: int
    headers: Dict[str, str]
    body: bytes


def http_request(
    url: str,
    method: str,
    path: str,
    params: Optional[Mapping[str, object]] = None,
    body: Body = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float = 30.0,
) -> Response:
    """One exchange with the server at base ``url``; OSError when it
    cannot be reached (after the one retry a replayable body earns)."""
    split = urlsplit(url)
    if split.scheme not in _CONNECTIONS or not split.netloc:
        raise ValueError(f"not an http(s) URL: {url!r}")
    target = split.path.rstrip("/") + path
    if params:
        target += "?" + urlencode(params)
    send: Dict[str, str] = {}
    trace = current_header()
    if trace is not None:
        send[TRACE_HEADER] = trace
    send.update(headers or {})
    conns = _local.__dict__.setdefault("conns", {})
    key = (split.scheme, split.netloc)
    retry = body is None or isinstance(body, bytes)
    while True:
        connection = conns.pop(key, None)
        try:
            if connection is None:
                connection = _CONNECTIONS[split.scheme](
                    split.netloc, timeout=timeout
                )
                connection.connect()
                connection.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            else:
                connection.sock.settimeout(timeout)
            connection.request(method, target, body=body, headers=send)
            response = connection.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError) as exc:
            if connection is not None:
                connection.close()
            if not retry:
                raise OSError(str(exc)) from exc
            retry = False
            continue
        # a closing answer has already closed the connection itself
        if not response.will_close:
            conns[key] = connection
        return Response(response.status, dict(response.getheaders()), data)


def http_json(
    url: str,
    method: str,
    path: str,
    params: Optional[Mapping[str, object]] = None,
    body: Body = None,
    timeout: float = 30.0,
) -> Dict[str, object]:
    """:func:`http_request` for a JSON endpoint: the decoded answer, or
    one ``ValueError`` for an unreachable host or a non-2xx answer."""
    where = urlsplit(url).netloc
    try:
        answer = http_request(
            url, method, path, params=params, body=body, timeout=timeout
        )
    except OSError as exc:
        raise ValueError(f"{where} unreachable: {exc}") from None
    if not 200 <= answer.status < 300:
        detail = answer.body.decode("utf-8", errors="replace").strip()
        raise ValueError(f"{where} answered {answer.status}: {detail}")
    return json.loads(answer.body.decode("utf-8"))


def json_object(body: bytes) -> Dict[str, object]:
    """A body decoded as a JSON object, or ``{}`` for anything else --
    for answers whose absence of data is not an error."""
    try:
        decoded = json.loads(body.decode("utf-8"))
    except ValueError:
        return {}
    return decoded if isinstance(decoded, dict) else {}
