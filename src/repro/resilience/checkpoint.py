"""Checkpoint--resume for the experiments runner.

A multi-hour sweep interrupted at experiment five should not redo
experiments one through four.  Each completed experiment is persisted
as one JSON file, written atomically (temp file + ``os.replace`` via
:func:`~repro.core.fsutil.atomic_write_text`), so an interrupt -- real
or injected -- can land at any instant without ever leaving a
truncated checkpoint.  On resume, completed experiments are loaded,
their saved span trees grafted back under the live telemetry root, and
only the remainder runs.

A checkpoint that fails to parse (a stray file, a different format
version) is treated as absent: the experiment simply reruns, which is
always safe because experiment results are deterministic functions of
(name, scale, seed).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.core.fsutil import atomic_write_text

#: bumped when the checkpoint payload shape changes; mismatched files
#: are rerun rather than trusted
CHECKPOINT_VERSION = 1


class CheckpointStore:
    """Atomic per-experiment result files under one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.json")

    def save(self, name: str, payload: Dict[str, object]) -> None:
        """Persist one experiment's outcome (atomic)."""
        document = dict(payload)
        document["checkpoint_version"] = CHECKPOINT_VERSION
        atomic_write_text(self.path(name), json.dumps(document, indent=2))

    def load(self, name: str) -> Optional[Dict[str, object]]:
        """The saved outcome, or ``None`` when absent or unusable."""
        path = self.path(name)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("checkpoint_version") != CHECKPOINT_VERSION:
            return None
        return document
