# repro: fixture
"""Seeded lockset defects: every RL10x race checker must fire here.

``SharedCounter`` mutates outside its lock (RL101), snapshots two
guarded attributes unlocked (RL102), and writes to disk or the network
while holding the state lock (RL103).  ``NoLockRegistry`` is shared
but owns no lock at all (RL105).  ``Owner`` calls into an
externally-guarded object without holding anything (RL104).
"""

import threading

from repro.core.fsutil import atomic_write_text
from repro.store.client import http_request


class SharedCounter:  # repro: shared
    """A counter several threads bump."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.peak = 0

    def bump(self):
        self.count += 1  # repro: expect(RL101)
        with self._lock:
            self.peak = max(self.peak, self.count)

    def snapshot(self):
        return (self.count, self.peak)  # repro: expect(RL102)

    def persist(self, path):
        with self._lock:
            atomic_write_text(path, str(self.count))  # repro: expect(RL103)

    def publish(self, url):
        with self._lock:
            http_request(url, "POST", "/count")  # repro: expect(RL103)


class NoLockRegistry:  # repro: shared  # repro: expect(RL105)
    """Shared, mutated, and entirely unguarded."""

    def __init__(self):
        self.entries = {}

    def put(self, key, value):
        self.entries[key] = value


class ExternallyGuarded:  # repro: synchronized-externally
    """Guarded by its owner's lock, by contract."""

    def __init__(self):
        self.observations = 0

    def observe(self):
        self.observations += 1


class Owner:  # repro: shared
    """Holds an externally-guarded object but forgets the contract."""

    def __init__(self):
        self._lock = threading.Lock()
        self.digest = ExternallyGuarded()

    def record_wrong(self):
        self.digest.observe()  # repro: expect(RL104)

    def record_right(self):
        with self._lock:
            self.digest.observe()
