"""Trace context: the ids that stitch one run's telemetry together.

The paper's thesis is that the right frame of reference exposes
regularity; a distributed pipeline's frame of reference is the *trace*.
A :class:`TraceContext` names one logical operation -- a profiling run,
a batch ingest, a daemon request -- with a 128-bit trace id shared by
every participant and a 64-bit span id per participant.  The context
crosses process boundaries two ways:

* **fork pools** -- the executor captures the ambient context at chunk
  submission and re-activates a child of it inside the worker (see
  :mod:`repro.parallel.executor`), so worker span trees carry the same
  trace id as the parent's;
* **HTTP** -- the ``X-Repro-Trace`` header carries
  ``<trace_id>-<span_id>`` (32 + 16 lowercase hex characters, dash
  separated).  The daemon honors an inbound header, tags its access-log
  records with it, and echoes its own child context back in the
  response, so a client can follow its request into the server's logs.

The *ambient* context is a per-thread stack with a process-wide
fallback: CLIs install one context for the whole invocation
(:func:`set_current`), request handlers push and pop around one request
(:func:`activate`).  Everything here is stdlib-only and imports nothing
from the rest of the repo, so any layer may depend on it.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Optional

#: HTTP header carrying the trace context across the client/daemon hop.
TRACE_HEADER = "X-Repro-Trace"

_HEADER_PATTERN = re.compile(r"^([0-9a-f]{32})-([0-9a-f]{16})$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


class TraceContext:
    """One participant's position in a trace: (trace id, span id).

    Immutable by convention: derive, never mutate.  ``child()`` is the
    only way to extend a trace -- it keeps the trace id, allocates a
    fresh span id, and remembers the parent's span id so a tree can be
    reassembled from the records alone.

    >>> parent = TraceContext.new()
    >>> child = parent.child()
    >>> child.trace_id == parent.trace_id
    True
    >>> child.parent_id == parent.span_id
    True
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id

    @classmethod
    def new(cls) -> "TraceContext":
        """A root context: fresh trace id, fresh span id, no parent."""
        return cls(new_trace_id())

    def child(self) -> "TraceContext":
        """A new participant under this one, in the same trace."""
        return TraceContext(
            self.trace_id, new_span_id(), parent_id=self.span_id
        )

    # -- header protocol ----------------------------------------------

    def to_header(self) -> str:
        """The ``X-Repro-Trace`` header value: ``trace_id-span_id``."""
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["TraceContext"]:
        """Parse a header value; ``None`` for anything malformed.

        Tolerant on purpose: a foreign or corrupted header must degrade
        to "untraced request", never to a 500.
        """
        if not value:
            return None
        match = _HEADER_PATTERN.match(value.strip().lower())
        if match is None:
            return None
        return cls(match.group(1), match.group(2))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id}, span={self.span_id})"


# -- ambient context ---------------------------------------------------------

_local = threading.local()
_process_context: Optional[TraceContext] = None


def set_current(context: Optional[TraceContext]) -> None:
    """Install ``context`` as this process's ambient trace context.

    The process-wide slot, not the thread stack: this is what a CLI
    calls once at startup so everything downstream -- including fork
    workers, which inherit it through the executor -- agrees on the
    trace id.  Pass ``None`` to clear.
    """
    global _process_context
    _process_context = context


def current() -> Optional[TraceContext]:
    """The innermost active context: thread stack first, then process."""
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return _process_context


def activate(context: TraceContext) -> "_Activation":
    """Context manager pushing ``context`` on this thread's stack.

    For scoped participants -- one daemon request, one worker chunk --
    where the context must not leak to the next unit of work on the
    same thread.

    >>> with activate(TraceContext.new()) as context:
    ...     current() is context
    True
    """
    return _Activation(context)


class _Activation:
    __slots__ = ("_context",)

    def __init__(self, context: TraceContext) -> None:
        self._context = context

    def __enter__(self) -> TraceContext:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(self._context)
        return self._context

    def __exit__(self, *exc_info) -> bool:
        _local.stack.pop()
        return False


def current_header() -> Optional[str]:
    """The ambient context as a header value, or ``None``."""
    context = current()
    return context.to_header() if context is not None else None
