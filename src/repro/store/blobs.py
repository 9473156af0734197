"""Content-addressed blob storage (the bottom layer of PROFSTORE).

A blob is an immutable byte string keyed by the sha256 hex digest of
its *uncompressed* content and stored zlib-compressed under a git-style
fan-out directory (``objects/ab/cdef...``).  Content addressing gives
three properties the profile store builds on:

* **Deduplication** -- ingesting the same profile twice stores one
  blob; the manifest may reference it from many runs.
* **Integrity** -- every read decompresses and re-hashes; a flipped
  bit anywhere in the file surfaces as
  :class:`~repro.core.profile_io.ProfileFormatError`, never as silently
  wrong profile data.
* **Crash safety** -- blobs are compressed in one shot and written by
  :func:`~repro.core.fsutil.atomic_write_bytes` (temp file, fsync,
  ``os.replace``); a temp file left by a crash never parses as a digest,
  so readers never see it.  Writing an already-present digest is a
  no-op.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from typing import Iterator, Optional

from repro.core.fsutil import atomic_write_bytes
from repro.core.profile_io import ProfileFormatError

_HEX = frozenset("0123456789abcdef")


def sha256_hex(data: bytes) -> str:
    """The content address of ``data``."""
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """sha256-keyed, zlib-compressed blobs under one directory."""

    def __init__(self, directory: str, compress_level: int = 6) -> None:
        self.directory = directory
        self.compress_level = compress_level
        os.makedirs(directory, exist_ok=True)

    def path(self, digest: str) -> str:
        if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            raise ValueError(f"not a sha256 hex digest: {digest!r}")
        return os.path.join(self.directory, digest[:2], digest[2:])

    def put(
        self, data: bytes, force: bool = False, digest: Optional[str] = None
    ) -> str:
        """Store ``data``, returning its digest (idempotent).

        ``force=True`` rewrites an already-present blob file (the
        atomic replace makes that safe) -- the read-repair path uses it
        to heal a replica whose on-disk bytes no longer hash to their
        key, which the idempotent fast path would otherwise skip.
        ``digest`` is ``sha256_hex(data)`` when the caller already has
        it, so the bytes are hashed once.
        """
        if digest is None:
            digest = sha256_hex(data)
        target = self.path(digest)
        if not force and os.path.exists(target):
            return digest
        atomic_write_bytes(target, zlib.compress(data, self.compress_level))
        return digest

    def get(self, digest: str) -> bytes:
        """The exact bytes stored under ``digest``.

        Decompression failures and digest mismatches both raise
        :class:`ProfileFormatError`: whatever corrupted the file, the
        caller never receives bytes that do not hash to their key.
        """
        try:
            with open(self.path(digest), "rb") as handle:
                compressed = handle.read()
        except OSError as exc:
            raise ProfileFormatError(
                f"blob {digest[:12]} unreadable: {exc}"
            ) from exc
        try:
            data = zlib.decompress(compressed)
        except zlib.error as exc:
            raise ProfileFormatError(
                f"blob {digest[:12]} corrupt: {exc}"
            ) from exc
        if sha256_hex(data) != digest:
            raise ProfileFormatError(
                f"blob {digest[:12]} corrupt: content does not match digest"
            )
        return data

    def contains(self, digest: str) -> bool:
        try:
            return os.path.exists(self.path(digest))
        except ValueError:
            return False

    def delete(self, digest: str) -> bool:
        """Remove one blob; True when a file was actually deleted."""
        try:
            os.unlink(self.path(digest))
        except FileNotFoundError:
            return False
        return True

    def digests(self) -> Iterator[str]:
        """Every digest present on disk (unordered).

        Only names that actually form a sha256 hex digest are yielded:
        a stray file in a fan dir (an editor backup, a foreign temp
        file) must not surface as a digest that :meth:`path` would then
        reject mid-iteration in ``stored_bytes()`` / ``gc()``.
        """
        try:
            fans = os.listdir(self.directory)
        except OSError:
            return
        for fan in fans:
            fan_dir = os.path.join(self.directory, fan)
            if len(fan) != 2 or not set(fan) <= _HEX or not os.path.isdir(fan_dir):
                continue
            for rest in os.listdir(fan_dir):
                if len(rest) == 62 and set(rest) <= _HEX:
                    yield fan + rest

    def stored_bytes(self) -> int:
        """Total compressed bytes on disk across all blobs."""
        total = 0
        for digest in self.digests():
            try:
                total += os.path.getsize(self.path(digest))
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        return sum(1 for __ in self.digests())
