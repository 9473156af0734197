"""The profile store: content-addressed blobs plus a run manifest.

A *run* is one profiling execution's artifact: the serialized profile
document (stored once per distinct content in the
:class:`~repro.store.blobs.BlobStore`) plus the metadata that makes it
queryable and comparable -- workload, profiler kind, scale/seed config,
ingest timestamp, and an optional telemetry summary.  The manifest is
an append-only JSONL file rewritten atomically through
:func:`~repro.core.fsutil.atomic_write_text` on every append, so a crash
at any instant leaves either the previous manifest or the new one,
never a torn line.

Ingest **validates before it stores**: the document must pass
:func:`~repro.core.profile_io.validate_bytes`, which refuses exactly
what :mod:`repro.core.profile_io`'s hardened loaders refuse, so a
corrupted payload (a fault drill's bit-flips, a truncated upload) is
rejected with :class:`~repro.core.profile_io.ProfileFormatError` and
the store never serves bytes it could not itself decode.  Each distinct
document is validated once: bytes whose sha256 the store has already
validated are not checked again.  Retrieval returns the exact ingested
bytes -- the round-trip is bit-identical by construction, and the blob
layer re-hashes on every read, so reads need not re-validate.

Garbage collection removes blobs no manifest entry references (after
runs are dropped), mirroring ``git gc``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Dict, List, Optional

# ``sniff_format``, ``loads_bytes`` and ``atomic_write_text`` stay
# module-level names: perfbench's traced replay patches them here
from repro.core.fsutil import atomic_write_text
from repro.core.profile_io import (
    ProfileFormatError,
    dumps_bytes,
    loads_bytes,
    sniff_format,
    stored_document,
    validate_bytes,
)
from repro.store.blobs import BlobStore, sha256_hex
from repro.store.cache import LRUCache

#: bumped when the manifest record shape changes; newer-versioned lines
#: are skipped rather than misread
MANIFEST_VERSION = 1


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One manifest line: a profile artifact and its provenance."""

    run_id: str
    digest: str
    workload: str
    kind: str
    created: float
    #: profile document bytes before compression
    size_bytes: int
    #: free-form provenance: scale, seed, allocator, telemetry summary
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["manifest_version"] = MANIFEST_VERSION
        return out

    @classmethod
    def from_json(cls, document: Dict[str, object]) -> "RunRecord":
        return cls(
            run_id=str(document["run_id"]),
            digest=str(document["digest"]),
            workload=str(document["workload"]),
            kind=str(document["kind"]),
            created=float(document["created"]),
            size_bytes=int(document["size_bytes"]),
            meta=dict(document.get("meta") or {}),
        )


@dataclasses.dataclass
class GCStats:
    """What one :meth:`ProfileStore.gc` pass removed."""

    scanned: int = 0
    removed: int = 0
    freed_bytes: int = 0


class ProfileStore:
    """Content-addressed profile repository under one root directory.

    Layout::

        root/
          objects/ab/cdef...   zlib blobs, sha256-of-content keyed
          manifest.jsonl       one RunRecord JSON object per line

    Thread-safe: concurrent ingests serialize on an internal lock for
    the manifest append (blob writes are independently atomic and
    idempotent), and reads go through a thread-safe LRU cache of
    decoded profiles.
    """

    def __init__(self, root: str, cache_size: int = 32) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.blobs = BlobStore(os.path.join(root, "objects"))
        self.manifest_path = os.path.join(root, "manifest.jsonl")
        self.cache = LRUCache(cache_size)
        self._lock = threading.RLock()
        # serializes manifest-file writes; never held while mutating
        # in-memory state, never acquired under `_lock` held across a
        # write (ordering: _sink_lock before _lock)
        self._sink_lock = threading.Lock()
        self._records: List[RunRecord] = []
        self._by_id: Dict[str, RunRecord] = {}
        #: digest -> kind of every document this store has validated
        #: (all manifest records' digests among them); guarded by _lock
        self._validated: Dict[str, str] = {}
        self._manifest_text = ""
        self._load_manifest()

    # -- manifest ------------------------------------------------------

    def _load_manifest(self) -> None:
        try:
            with open(self.manifest_path) as handle:
                text = handle.read()
        except OSError:
            return
        kept_lines: List[str] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                document = json.loads(line)
                if document.get("manifest_version") != MANIFEST_VERSION:
                    continue
                record = RunRecord.from_json(document)
            except (ValueError, KeyError, TypeError):
                # A torn or foreign line (hand-edited file, older crash
                # without atomic writes): skip it -- the runs it named
                # can be re-ingested, the rest of the manifest survives.
                continue
            self._records.append(record)
            self._by_id[record.run_id] = record
            self._validated[record.digest] = record.kind
            kept_lines.append(line)
        self._manifest_text = "".join(line + "\n" for line in kept_lines)

    def _append_record(self, record: RunRecord) -> None:
        """Append one manifest line to the in-memory state (only);
        callers persist with :meth:`_flush_manifest` after releasing
        the state lock."""
        line = json.dumps(record.to_json(), sort_keys=True)
        self._manifest_text += line + "\n"
        self._records.append(record)
        self._by_id[record.run_id] = record

    def _flush_manifest(self) -> None:
        """Atomically rewrite the manifest file from current state.

        Runs the disk write under the dedicated sink lock, holding the
        state lock only long enough to snapshot the text: concurrent
        ingests keep appending while a slow disk write is in flight,
        and the writer holding the sink lock always writes the newest
        snapshot it took, so the file never goes backwards.
        """
        with self._sink_lock:
            with self._lock:
                text = self._manifest_text
            atomic_write_text(self.manifest_path, text)

    def _next_run_id(self) -> str:
        return f"r{len(self._records) + 1:06d}"

    # -- ingest --------------------------------------------------------

    def ingest_bytes(
        self,
        data: bytes,
        workload: str,
        meta: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """Validate, store, and record one serialized profile document.

        The profiler kind and encoding (JSON or BINCAP binary) come from
        the document itself; the encoding lands in ``meta["encoding"]``.
        The body is hashed once.  Bytes whose digest this store has not
        validated yet go through :func:`validate_bytes`, which raises
        :class:`ProfileFormatError` before anything touches disk when a
        load would refuse them; bytes it has validated (every manifest
        record's digest among them) are those same bytes, so they are
        not checked again.
        """
        digest = sha256_hex(data)
        with self._lock:
            kind = self._validated.get(digest)
        if kind is None:
            kind = validate_bytes(data)
        meta = dict(meta or {})
        meta.setdefault(
            "encoding", "binary" if data[:1] == b"\x89" else "json"
        )
        with self._lock:
            self.blobs.put(data, digest=digest)
            self._validated[digest] = kind
            record = RunRecord(
                run_id=self._next_run_id(),
                digest=digest,
                workload=workload,
                kind=kind,
                created=time.time(),
                size_bytes=len(data),
                meta=meta,
            )
            self._append_record(record)
        # durable before the record is returned, but written outside
        # the state lock so parallel ingests don't stall on the disk
        self._flush_manifest()
        return record

    def ingest_text(
        self,
        text: str,
        workload: str,
        meta: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        return self.ingest_bytes(text.encode("utf-8"), workload, meta)

    def ingest_profile(
        self,
        profile: object,
        workload: str,
        meta: Optional[Dict[str, object]] = None,
        fmt: str = "json",
    ) -> RunRecord:
        """Serialize a live profile object and ingest the document."""
        return self.ingest_bytes(dumps_bytes(profile, fmt), workload, meta)

    def ingest_file(
        self,
        path: str,
        workload: Optional[str] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """Ingest an on-disk ``*.whomp.json`` / ``*.leap.json`` file.

        The workload defaults to the filename stem (``gzip.leap.json``
        -> ``gzip``), which is what the profiling CLIs name outputs.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ProfileFormatError(f"cannot read {path!r}: {exc}") from exc
        if workload is None:
            workload = os.path.basename(path).split(".")[0]
        return self.ingest_bytes(data, workload, meta)

    # -- retrieval -----------------------------------------------------

    def runs(
        self,
        workload: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[RunRecord]:
        """Manifest records in ingest order, optionally filtered."""
        with self._lock:
            records = list(self._records)
        if workload is not None:
            records = [r for r in records if r.workload == workload]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return records

    def run(self, run_id: str) -> RunRecord:
        with self._lock:
            record = self._by_id.get(run_id)
        if record is None:
            raise KeyError(f"no run {run_id!r} in the store")
        return record

    def resolve(self, selector: str) -> RunRecord:
        """Resolve a run selector to a record.

        Accepted forms:

        * a run id (``r000007``);
        * a digest prefix of at least 6 hex characters;
        * ``workload@kind`` -- the latest matching run -- optionally
          with a git-style ``~N`` suffix for the N-th previous one
          (``gzip@leap~1`` is the run before the latest).
        """
        with self._lock:
            if selector in self._by_id:
                return self._by_id[selector]
            records = list(self._records)
        if "@" in selector:
            workload, __, rest = selector.partition("@")
            kind, __, back_text = rest.partition("~")
            try:
                back = int(back_text) if back_text else 0
            except ValueError:
                raise KeyError(f"bad run selector {selector!r}") from None
            matches = [
                r for r in records if r.workload == workload and r.kind == kind
            ]
            if back < 0 or back >= len(matches):
                raise KeyError(
                    f"no run matches {selector!r} "
                    f"({len(matches)} {workload}@{kind} run(s) in the store)"
                )
            return matches[-1 - back]
        if len(selector) >= 6 and all(c in "0123456789abcdef" for c in selector):
            matches = [r for r in records if r.digest.startswith(selector)]
            if len(matches) == 1:
                return matches[0]
            if matches:
                # Same blob ingested as several runs: latest wins, like
                # the workload@kind selector.
                return matches[-1]
        raise KeyError(f"no run matches selector {selector!r}")

    def get_bytes(self, selector: str) -> bytes:
        """The exact ingested document bytes for a run (bit-identical)."""
        return self.blobs.get(self.resolve(selector).digest)

    def get_text(self, selector: str) -> str:
        """The ingested document as text (JSON-encoded runs only)."""
        data = self.get_bytes(selector)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProfileFormatError(
                "run is binary-encoded; use get_bytes/get_document"
            ) from exc

    def get_document(self, selector: str) -> Dict[str, object]:
        """The run's JSON-shape document dict, whatever its encoding.
        The blob validated at ingest and :meth:`get_bytes` re-checks
        its sha256, so it is not validated again."""
        return stored_document(self.get_bytes(selector))

    def get(self, selector: str) -> object:
        """The decoded profile for a run, through the LRU cache.

        Returns what :func:`repro.core.profile_io.loads_bytes` returns
        for the run's format (a stream dict for WHOMP, a profile object
        for LEAP / dependence) -- the JSON and binary encodings decode
        to identical profiles.
        """
        digest = self.resolve(selector).digest
        return self.cache.get_or_load(
            digest, lambda: loads_bytes(self.blobs.get(digest))
        )

    # -- maintenance ---------------------------------------------------

    def repair_blob(
        self, digest: str, data: bytes, workload: str = "unknown"
    ) -> Dict[str, object]:
        """Force-install one blob after validation (read-repair).

        The payload must hash to ``digest`` and pass
        :func:`validate_bytes`; then
        the blob file is atomically rewritten even if a (corrupt) copy
        already exists.  When no manifest run references the digest, a
        run is created too, so a replica that lost both the blob and
        its run row heals to a queryable state.  Returns
        ``{"replaced": bool, "created_run": run_id | None}``.
        """
        if sha256_hex(data) != digest:
            raise ProfileFormatError(
                f"repair payload does not hash to {digest[:12]}"
            )
        kind = validate_bytes(data)  # reject anything we could not serve
        replaced = self.blobs.contains(digest)
        self.blobs.put(data, force=True, digest=digest)
        self.cache.invalidate(digest)
        with self._lock:
            self._validated[digest] = kind
            referenced = any(r.digest == digest for r in self._records)
        created = None
        if not referenced:
            record = self.ingest_bytes(
                data, workload, meta={"source": "read-repair"}
            )
            created = record.run_id
        return {"replaced": replaced, "created_run": created}

    def drop_run(self, run_id: str) -> None:
        """Remove one run from the manifest (its blob stays until gc)."""
        with self._lock:
            if run_id not in self._by_id:
                raise KeyError(f"no run {run_id!r} in the store")
            del self._by_id[run_id]
            self._records = [r for r in self._records if r.run_id != run_id]
            self._manifest_text = "".join(
                json.dumps(r.to_json(), sort_keys=True) + "\n"
                for r in self._records
            )
        self._flush_manifest()

    def gc(self) -> GCStats:
        """Delete blobs no manifest record references."""
        stats = GCStats()
        with self._lock:
            referenced = {r.digest for r in self._records}
            for digest in list(self.blobs.digests()):
                stats.scanned += 1
                if digest in referenced:
                    continue
                try:
                    stats.freed_bytes += os.path.getsize(self.blobs.path(digest))
                except OSError:
                    pass
                if self.blobs.delete(digest):
                    stats.removed += 1
                    self.cache.invalidate(digest)
        return stats

    def stats(self) -> Dict[str, object]:
        """A health snapshot: run/blob counts, sizes, cache behaviour."""
        with self._lock:
            records = list(self._records)
        workloads = sorted({r.workload for r in records})
        kinds = sorted({r.kind for r in records})
        hits, misses, evictions = self.cache.stats()
        return {
            "runs": len(records),
            "workloads": workloads,
            "kinds": kinds,
            "blobs": len(self.blobs),
            "stored_bytes": self.blobs.stored_bytes(),
            "profile_bytes": sum(r.size_bytes for r in records),
            "cache": {
                "capacity": self.cache.capacity,
                "entries": len(self.cache),
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "hit_rate": self.cache.hit_rate,
            },
        }
