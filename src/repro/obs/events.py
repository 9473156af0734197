"""The structured event log: a bounded ring plus an optional JSONL sink.

Every notable moment of a run -- a pipeline stage closing, a forked
task being retried, a fault landing, a tuple being quarantined, a daemon
request completing -- becomes one flat, schema-versioned JSON record::

    {"v": 1, "ts": 1723108721.4, "kind": "stage",
     "trace": "<32 hex>", "span": "<16 hex>",
     "path": "whomp/compression", "seconds": 0.0183, ...}

``v`` is :data:`EVENT_SCHEMA_VERSION`; readers skip records from a
*newer* schema rather than misread them (the manifest idiom).  ``kind``
names the record family; everything else is kind-specific but flat, so
the log greps and tails cleanly.

Two retention tiers:

* an in-memory **ring** (``collections.deque`` with ``maxlen``) that
  always exists -- the daemon's ``/tracez`` endpoint and ``repro-obs
  tail`` read it -- and evicts oldest-first;
* an optional **file sink**: the full record stream as JSON Lines,
  rewritten atomically through
  :func:`repro.resilience.atomic_write_text` every ``flush_every``
  records and on :meth:`close`, so a crash leaves the previous
  consistent snapshot, never a torn line.  (:func:`read_events` still
  skips unparseable lines defensively, for logs written by other
  tools.)

The log is thread-safe: daemon handler threads and the main thread
share one instance behind a lock.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.fsutil import atomic_write_text

#: bumped when the record envelope changes shape; readers skip newer
EVENT_SCHEMA_VERSION = 1

#: declared field schema per event kind, checked statically by
#: REPROLINT (RL143/RL144): every literal ``emit("<kind>", ...)`` call
#: site must name a declared kind and pass only declared fields, with
#: every ``required`` field present.  ``trace``/``span`` are envelope
#: fields and always legal; ``"open": True`` kinds (fault records,
#: whose payload mirrors the injected fault) tolerate extra fields.
#: Kept as a pure literal so the analyzer can read it without
#: importing this module.
EVENT_SCHEMAS = {
    "stage": {
        "required": ["path", "seconds"],
        "optional": ["items", "unit"],
    },
    "trace": {"required": ["spans"], "optional": ["meta"]},
    "request": {
        "required": ["endpoint", "method", "status", "seconds"],
        "optional": [],
    },
    "ingest": {
        "required": ["workload", "ok", "bytes"],
        "optional": ["streamed"],
    },
    "stream_ingest": {
        "required": [
            "workload",
            "documents",
            "torn",
            "ingested",
            "rejected",
            "complete",
            "capture_completeness",
        ],
        "optional": ["error"],
    },
    "quarantine": {"required": ["reason", "total"], "optional": []},
    "server_shutdown": {
        "required": ["drained", "in_flight", "deadline_seconds"],
        "optional": [],
    },
    "shard_restart": {
        "required": ["shard", "restarts", "backoff_seconds"],
        "optional": ["exit_code"],
    },
    "read_repair": {
        "required": ["digest", "shard", "repaired"],
        "optional": ["error", "workload"],
    },
    "shard_drain": {
        "required": ["shard", "copied"],
        "optional": ["error"],
    },
    "fault": {"required": ["fault"], "optional": [], "open": True},
    # executor records: "chunk" carries the task index; the name stays
    # so that logs already written keep one schema
    "timeout": {
        "required": ["label", "chunk", "attempt", "timeout_seconds"],
        "optional": [],
    },
    "worker-crash": {
        "required": ["label", "chunk", "attempt"],
        "optional": [],
    },
    "retry": {"required": ["label", "chunk", "attempt"], "optional": []},
    "fallback": {"required": ["label", "chunk", "attempts"], "optional": []},
}

#: default ring capacity (records; oldest evicted first)
DEFAULT_CAPACITY = 4096

#: default records between atomic file-sink flushes
DEFAULT_FLUSH_EVERY = 64


class EventLog:
    """Append-only structured event stream with bounded memory.

    >>> log = EventLog(capacity=2)
    >>> log.emit("stage", path="whomp", seconds=0.5)
    >>> log.emit("stage", path="leap", seconds=0.25)
    >>> log.emit("request", endpoint="ingest", status=201)
    >>> [record["kind"] for record in log.tail()]
    ['stage', 'request']
    >>> log.emitted
    3
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: Optional[str] = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self.path = path
        self.flush_every = max(1, flush_every)
        self._clock = clock
        self._ring: "collections.deque[Dict[str, object]]" = collections.deque(
            maxlen=capacity
        )
        self._lock = threading.Lock()
        # serializes sink writes WITHOUT blocking emitters: the state
        # lock is only held long enough to snapshot the lines, never
        # across the disk write (ordering: _sink_lock before _lock)
        self._sink_lock = threading.Lock()
        self._file_lines: List[str] = []
        self._unflushed = 0
        self.emitted = 0

    # -- writing -------------------------------------------------------

    def emit(
        self,
        kind: str,
        trace: Optional[str] = None,
        span: Optional[str] = None,
        **fields: object,
    ) -> Dict[str, object]:
        """Record one event; returns the record that was stored."""
        record: Dict[str, object] = {
            "v": EVENT_SCHEMA_VERSION,
            "ts": self._clock(),
            "kind": kind,
        }
        if trace is not None:
            record["trace"] = trace
        if span is not None:
            record["span"] = span
        record.update(fields)
        flush_now = False
        with self._lock:
            self._ring.append(record)
            self.emitted += 1
            if self.path is not None:
                self._file_lines.append(json.dumps(record, sort_keys=True))
                self._unflushed += 1
                flush_now = self._unflushed >= self.flush_every
        if flush_now:
            # outside the state lock: a slow disk must not stall other
            # emitters (they keep appending; flush() snapshots whatever
            # has accumulated by the time it runs)
            self.flush()
        return record

    def flush(self) -> None:
        """Atomically persist everything emitted so far to the sink.

        The state lock is held only to snapshot the pending lines; the
        disk write happens under the dedicated sink lock, so concurrent
        flushers serialize on the file while emitters stay unblocked.
        The snapshot-then-write order means the writer holding the sink
        lock always writes the newest snapshot it took, and a crash
        leaves the previous consistent file.
        """
        with self._sink_lock:
            with self._lock:
                if self.path is None or not self._unflushed:
                    return
                text = "".join(
                    line + "\n" for line in self._file_lines
                )
                self._unflushed = 0
            atomic_write_text(self.path, text)

    def close(self) -> None:
        """Final flush; the log stays usable (close is just a flush)."""
        self.flush()

    # -- reading -------------------------------------------------------

    def tail(self, count: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent ``count`` records (all, by default), oldest
        first -- copies, safe to mutate."""
        with self._lock:
            records = list(self._ring)
        if count is not None:
            records = records[-max(0, count):] if count else []
        return [dict(record) for record in records]

    def records_for_trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Ring records carrying the given trace id, oldest first."""
        with self._lock:
            return [
                dict(record)
                for record in self._ring
                if record.get("trace") == trace_id
            ]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids present in the ring, in first-seen order."""
        seen: Dict[str, None] = {}
        with self._lock:
            for record in self._ring:
                trace = record.get("trace")
                if isinstance(trace, str) and trace not in seen:
                    seen[trace] = None
        return list(seen)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self)} ringed / {self.emitted} emitted, "
            f"capacity={self.capacity}, sink={self.path!r})"
        )


def read_events(path: str) -> List[Dict[str, object]]:
    """Load a JSONL event log from disk, defensively.

    Torn, foreign, or newer-schema lines are skipped (counted against
    nobody): a log written by a crashed process or a future version
    yields every record this version can still trust.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return []
    records: List[Dict[str, object]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        version = record.get("v")
        if not isinstance(version, int) or version > EVENT_SCHEMA_VERSION:
            continue
        if not isinstance(record.get("kind"), str):
            continue
        records.append(record)
    return records


def filter_events(
    records: Iterable[Dict[str, object]],
    kind: Optional[str] = None,
    trace: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Records matching every given criterion."""
    out = []
    for record in records:
        if kind is not None and record.get("kind") != kind:
            continue
        if trace is not None and record.get("trace") != trace:
            continue
        out.append(record)
    return out
