"""Shared cluster state: ring membership, shard health, merged metrics.

Two small thread-safe classes, each one lock around one concern, both
registered in REPROLINT's shared-class seed set (daemon handler
threads, the health-probe thread, and the supervisor callback all
touch them):

* :class:`RingState` -- the locked facade over one
  :class:`~repro.cluster.ring.HashRing` (which is marked
  synchronized-externally and never escapes the lock);
* :class:`ShardHealthTable` -- what the router believes about each
  shard: address, pid, liveness, drain state, restart count, run
  count, last error.

The router's latency accounting and the cluster-level merge of
per-shard digests is :class:`~repro.obs.quantiles.DigestMerger`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.ring import DEFAULT_VNODES, HashRing


class RingState:
    """The cluster's placement authority, safe to share across threads.

    Every mutation bumps ``version`` so ``/clusterz`` readers (and the
    rebalancer) can tell whether the layout changed under them.
    """

    def __init__(
        self, replicas: int = 2, vnodes: int = DEFAULT_VNODES
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._lock = threading.Lock()
        self._ring = HashRing(vnodes)
        self.version = 0

    def add(self, shard: str) -> None:
        with self._lock:
            if shard not in self._ring:
                self._ring.add(shard)
                self.version += 1

    def remove(self, shard: str) -> None:
        with self._lock:
            if shard in self._ring:
                self._ring.remove(shard)
                self.version += 1

    def __contains__(self, shard: str) -> bool:
        with self._lock:
            return shard in self._ring

    def shards(self) -> Tuple[str, ...]:
        with self._lock:
            return self._ring.shards()

    def place(self, key: str) -> List[str]:
        """The replica set for one key under the current membership."""
        with self._lock:
            return self._ring.place(key, self.replicas)

    def layout(self) -> Dict[str, object]:
        with self._lock:
            layout = self._ring.layout()
            layout["replicas"] = self.replicas
            layout["version"] = self.version
        return layout


class ShardHealthTable:
    """What the router currently believes about each shard.

    Rows are plain dicts (snapshot() deep-copies them out), keyed by
    the shard's stable *name* -- the name is what the ring places on,
    so a shard that restarts on a new port keeps its identity and its
    data placement.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: Dict[str, Dict[str, object]] = {}

    def _row(self, name: str) -> Dict[str, object]:
        # caller holds the lock
        row = self._shards.get(name)
        if row is None:
            row = self._shards[name] = {
                "url": None,
                "pid": None,
                "alive": False,
                "draining": False,
                "restarts": 0,
                "boot_seconds": None,
                "runs": None,
                "last_error": None,
                "checked_ts": None,
            }
        return row

    def set_address(
        self,
        name: str,
        url: str,
        pid: Optional[int] = None,
        restarts: int = 0,
        boot_seconds: Optional[float] = None,
    ) -> None:
        """(Re)announce a shard -- initial spawn and every restart."""
        with self._lock:
            row = self._row(name)
            row["url"] = url
            row["pid"] = pid
            row["restarts"] = restarts
            row["boot_seconds"] = boot_seconds
            row["alive"] = True
            row["last_error"] = None

    def mark_ok(self, name: str, runs: Optional[int] = None) -> None:
        with self._lock:
            row = self._row(name)
            row["alive"] = True
            row["last_error"] = None
            row["checked_ts"] = time.time()
            if runs is not None:
                row["runs"] = runs

    def mark_failed(self, name: str, error: str) -> None:
        with self._lock:
            row = self._row(name)
            row["alive"] = False
            row["last_error"] = error
            row["checked_ts"] = time.time()

    def set_draining(self, name: str, draining: bool = True) -> None:
        with self._lock:
            self._row(name)["draining"] = draining

    def forget(self, name: str) -> None:
        with self._lock:
            self._shards.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._shards)

    def url(self, name: str) -> Optional[str]:
        with self._lock:
            row = self._shards.get(name)
            return None if row is None else row["url"]  # type: ignore

    def pid(self, name: str) -> Optional[int]:
        with self._lock:
            row = self._shards.get(name)
            return None if row is None else row["pid"]  # type: ignore

    def is_alive(self, name: str) -> bool:
        with self._lock:
            row = self._shards.get(name)
            return bool(row and row["alive"])

    def alive_shards(self) -> List[str]:
        with self._lock:
            return [
                name
                for name, row in self._shards.items()
                if row["alive"] and not row["draining"]
            ]

    def lag_runs(self) -> Optional[int]:
        """Replication lag proxy: max - min run count across live,
        non-draining shards (None until two shards have reported)."""
        with self._lock:
            counts = [
                row["runs"]
                for row in self._shards.values()
                if row["alive"]
                and not row["draining"]
                and isinstance(row["runs"], int)
            ]
        if len(counts) < 2:
            return None
        return max(counts) - min(counts)  # type: ignore[type-var]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {name: dict(row) for name, row in self._shards.items()}
