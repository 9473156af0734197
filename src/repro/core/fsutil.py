"""Crash-safe filesystem helpers.

A profile or checkpoint interrupted mid-write must never be left
truncated on disk: a later run would load garbage (or worse, half a
JSON document that happens to parse).  The pattern used everywhere is
the standard one -- write the full content to a temporary file *in the
same directory* (so the rename cannot cross filesystems) and
``os.replace`` it into place, which POSIX guarantees is atomic.
"""

# repro: durable-primitive  (this module IS the atomic-write
# implementation REPROLINT RL131/RL132 steer everything else toward)

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, content: bytes) -> None:
    """Write ``content`` to ``path`` atomically (temp file + rename).

    Either the old file survives untouched or the new content is fully
    in place; a crash between the two leaves at worst a stray
    ``<name>.<random>.tmp`` file next to the target, never a truncated
    target.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, content: str) -> None:
    """Text form of :func:`atomic_write_bytes` (UTF-8)."""
    atomic_write_bytes(path, content.encode("utf-8"))
