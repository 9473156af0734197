"""The benchmark's own span recorder.

A span is ``(name, start, end, parent, run_id)``; spans live in memory
and are written out once, when the run ends.  Two kinds exist:

* *timed* spans, opened with :meth:`SpanRecorder.span` around one call
  into a layer;
* *rollup* spans, added with :meth:`SpanRecorder.rollup` for calls too
  frequent to record one by one (a probe firing per simulated access):
  the span's duration is the summed busy time of ``calls`` calls made
  inside its parent, and ``end - start`` equals that sum.

A span's self time is its duration minus the time its children cover.
A disabled recorder hands out one shared no-op context, so the untraced
run pays one attribute lookup per stage and nothing per access.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "calls")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int]):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.calls = 1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class SpanRecorder:
    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Span] = []
        # each thread nests its own spans
        self._local = threading.local()
        # span ids are list indexes, so allocation and append go together
        self._ids = threading.Lock()

    @property
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[int]:
        stack = self._stack
        return stack[-1] if stack else None

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._timed(name)

    @contextmanager
    def _timed(self, name: str) -> Iterator[Span]:
        with self._ids:
            record = Span(len(self.spans), name, time.perf_counter(), self.current)
            self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def rollup(
        self, name: str, busy: float, calls: int, parent: Optional[int] = None
    ) -> Optional[int]:
        """Record ``calls`` short calls totalling ``busy`` seconds as one
        span under ``parent`` (default: the open span); returns its id."""
        if not self.enabled:
            return None
        parent = self.current if parent is None else parent
        base = self.spans[parent].start if parent is not None else 0.0
        with self._ids:
            record = Span(len(self.spans), name, base, parent)
            self.spans.append(record)
        record.end = base + busy
        record.calls = calls
        return record.sid

    # -- reading -------------------------------------------------------

    def self_times_by_root(self, root: str) -> List[Dict[str, float]]:
        """Self time per span name, one dict per ``root``-named span,
        summed over that span's subtree (the root's own self time is
        under its name)."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        out: List[Dict[str, float]] = []
        slot: List[Optional[int]] = [None] * len(self.spans)
        for record in self.spans:
            if record.name == root:
                slot[record.sid] = len(out)
                out.append({})
            elif record.parent is not None:
                slot[record.sid] = slot[record.parent]
            index = slot[record.sid]
            if index is None:
                continue
            own = max(0.0, record.seconds - covered[record.sid])
            bucket = out[index]
            bucket[record.name] = bucket.get(record.name, 0.0) + own
        return out

    def totals(self, name: str) -> float:
        return sum(r.seconds for r in self.spans if r.name == name)

    def dump(self, path: str) -> None:
        rows = [
            {
                "id": r.sid,
                "name": r.name,
                "start": r.start,
                "end": r.end,
                "parent": r.parent,
                "run_id": self.run_id,
                "calls": r.calls,
            }
            for r in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)


class CallTimer:
    """Accumulates busy time and call count of one wrapped callable;
    the traced run turns the totals into a rollup span."""

    __slots__ = ("busy", "calls")

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0

    def wrap(self, func):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.busy += clock() - start
                self.calls += 1

        return timed
