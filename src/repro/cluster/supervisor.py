"""Shard process supervision: spawn, watch, restart with backoff.

Each shard is one ``repro-serve serve`` process over its own store
root (``<root>/shard0``, ``<root>/shard1``, ...), bound to an
ephemeral port; the child prints ``listening <host>:<port>`` on stdout
(the satellite contract of ``--port 0``) and the supervisor parses it.

:meth:`ShardSupervisor.start` launches every shard at once, waits for
all their announcements together, then adopts the shards in name
order, so the cluster boots in about the time of its slowest shard and
``on_address_change`` fires in the same order on every boot.  If any shard exits or stays silent past
``boot_timeout``, every process of that boot is killed and reaped and
the error, naming the shard, propagates.  Each shard's launch to
``listening`` time is its ``boot_seconds`` in :meth:`snapshot`.

A monitor thread restarts (boots alone) any shard that exits while
still desired, with per-shard exponential backoff (a crash-looping
shard cannot spin the CPU), emits a schema-checked ``shard_restart``
event with the new ``boot_seconds``, and invokes
``on_address_change`` so the router's health table learns the new
port -- the ring is keyed by shard *name*, so placement never moves on
restart.

Shard roots persist across restarts: a restarted shard comes back with
every blob it held, and anything it missed while down arrives later by
read-repair or ``/rebalance``.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.obs.events import EventLog

#: first restart delay; doubles per consecutive restart up to the cap
DEFAULT_BACKOFF = 0.2
DEFAULT_MAX_BACKOFF = 2.0

#: seconds a freshly spawned shard gets to print its listening line
DEFAULT_BOOT_TIMEOUT = 30.0

_LISTENING = re.compile(r"^listening\s+(\S+):(\d+)\s*$", re.MULTILINE)

#: one booted shard: its process, host, port and boot seconds
Booted = Tuple[subprocess.Popen, str, int, float]


def _drain_pipe(pipe) -> None:
    """Swallow a child's stdout so the pipe never fills and blocks it."""
    try:
        while pipe.read(4096):
            pass
    except (OSError, ValueError):
        pass


class ShardSupervisor:
    """Owns N shard processes and keeps them alive."""

    def __init__(
        self,
        root: str,
        shards: int = 3,
        host: str = "127.0.0.1",
        events: Optional[EventLog] = None,
        backoff: float = DEFAULT_BACKOFF,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
        poll_interval: float = 0.1,
        boot_timeout: float = DEFAULT_BOOT_TIMEOUT,
        drain_deadline: float = 3.0,
        on_address_change: Optional[
            Callable[[str, str, int, int, float], None]
        ] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.root = root
        self.host = host
        self.events = events if events is not None else EventLog()
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.poll_interval = poll_interval
        self.boot_timeout = boot_timeout
        self.drain_deadline = drain_deadline
        self.on_address_change = on_address_change
        self._lock = threading.Lock()
        self._shards: Dict[str, Dict[str, object]] = {
            f"shard{index}": {
                "proc": None,
                "url": None,
                "pid": None,
                "restarts": 0,
                "desired": True,
                "backoff": backoff,
                "boot_seconds": None,
            }
            for index in range(shards)
        }
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- spawning ------------------------------------------------------

    def _command(self, name: str) -> List[str]:
        shard_root = os.path.join(self.root, name)
        return [
            sys.executable,
            "-m",
            "repro.store.serve_cli",
            "serve",
            "--root", shard_root,
            "--host", self.host,
            "--port", "0",
            "--trace-out", os.path.join(shard_root, "events.jsonl"),
            "--drain-deadline", str(self.drain_deadline),
        ]

    def _launch(self, name: str) -> subprocess.Popen:
        os.makedirs(os.path.join(self.root, name), exist_ok=True)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
        return subprocess.Popen(
            self._command(name),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            bufsize=0,
        )

    def _boot(self, names: List[str]) -> Dict[str, Booted]:
        """Launch ``names`` side by side and wait for each ``listening``
        line: name -> (proc, host, port, seconds from launch to announce).

        If any shard fails to announce, every process launched here is
        killed and reaped before the error propagates.
        """
        procs: Dict[str, subprocess.Popen] = {}
        booted: Dict[str, Tuple[str, int, float]] = {}
        began = time.monotonic()
        try:
            for name in names:
                procs[name] = self._launch(name)
            # select() + manual buffering, never readline(): a buffered
            # reader can slurp the announce line into its private buffer
            # while this loop keeps select()ing on the (now drained) fd
            pending = {name: bytearray() for name in names}
            deadline = began + self.boot_timeout
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"{', '.join(pending)} did not announce a port "
                        f"within {self.boot_timeout}s"
                    )
                ready = select.select(
                    [procs[name].stdout for name in pending], [], [],
                    min(remaining, 0.25),
                )[0]
                for name in list(pending):
                    proc = procs[name]
                    if proc.stdout not in ready:
                        if proc.poll() is not None:
                            raise RuntimeError(
                                f"{name} exited with {proc.returncode} "
                                "before announcing a port"
                            )
                        continue
                    piece = proc.stdout.read(4096)
                    if not piece:
                        raise RuntimeError(
                            f"{name} closed stdout before announcing a port"
                        )
                    pending[name] += piece
                    lines = pending[name].rpartition(b"\n")[0]
                    match = _LISTENING.search(lines.decode("utf-8", "replace"))
                    if match:
                        booted[name] = (
                            match.group(1), int(match.group(2)),
                            round(time.monotonic() - began, 3),
                        )
                        del pending[name]
        except BaseException:
            for proc in procs.values():
                proc.kill()
                proc.wait()
            raise
        for proc in procs.values():
            # keep draining stdout forever so the child never blocks on it
            threading.Thread(
                target=_drain_pipe, args=(proc.stdout,), daemon=True
            ).start()
        return {name: (procs[name],) + booted[name] for name in names}

    def start(self) -> "ShardSupervisor":
        """Boot every shard concurrently, announce them in name order,
        then start the monitor thread."""
        self._adopt(self._boot(self.names()))
        with self._lock:
            if self._monitor is None:
                self._monitor = threading.Thread(
                    target=self._monitor_loop, daemon=True
                )
        self._monitor.start()
        return self

    def _adopt(self, booted: Dict[str, Booted]) -> None:
        for name, (proc, host, port, seconds) in booted.items():
            url = f"http://{host}:{port}"
            with self._lock:
                record = self._shards[name]
                record["proc"] = proc
                record["url"] = url
                record["pid"] = proc.pid
                record["desired"] = True
                record["boot_seconds"] = seconds
                restarts = int(record["restarts"])  # type: ignore[arg-type]
            if self.on_address_change is not None:
                self.on_address_change(name, url, proc.pid, restarts, seconds)

    # -- monitoring ----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            dead: List[Tuple[str, Optional[int], float]] = []
            with self._lock:
                for name, record in self._shards.items():
                    proc = record["proc"]
                    if proc is None or not record["desired"]:
                        continue
                    code = proc.poll()  # type: ignore[union-attr]
                    if code is None:
                        continue
                    record["proc"] = None
                    record["restarts"] = int(record["restarts"]) + 1
                    wait = float(record["backoff"])  # type: ignore[arg-type]
                    record["backoff"] = min(wait * 2, self.max_backoff)
                    dead.append((name, code, wait))
            for name, code, wait in dead:
                # the sleep is deliberately outside the lock: a crash
                # loop must not block status queries or stop()
                time.sleep(wait)
                if self._stop.is_set():
                    return
                with self._lock:
                    if not self._shards[name]["desired"]:
                        continue
                    restarts = int(self._shards[name]["restarts"])
                try:
                    booted = self._boot([name])
                except (OSError, RuntimeError) as exc:
                    self.events.emit(
                        "shard_restart",
                        shard=name,
                        restarts=restarts,
                        backoff_seconds=wait,
                        exit_code=f"respawn failed: {exc}",
                    )
                    continue
                self._adopt(booted)
                self.events.emit(
                    "shard_restart",
                    shard=name,
                    restarts=restarts,
                    backoff_seconds=wait,
                    exit_code=code,
                    boot_seconds=booted[name][3],
                )
                self.events.flush()

    # -- control -------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return list(self._shards)

    def addresses(self) -> Dict[str, Optional[str]]:
        with self._lock:
            return {
                name: record["url"]  # type: ignore[misc]
                for name, record in self._shards.items()
            }

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            out = {}
            for name, record in self._shards.items():
                proc = record["proc"]
                out[name] = {
                    "url": record["url"],
                    "pid": record["pid"],
                    "restarts": record["restarts"],
                    "desired": record["desired"],
                    "boot_seconds": record["boot_seconds"],
                    "running": proc is not None
                    and proc.poll() is None,  # type: ignore[union-attr]
                }
            return out

    def kill_shard(self, name: str) -> Optional[int]:
        """SIGKILL one shard *without* clearing its desired flag -- the
        fault-drill primitive; the monitor will restart it."""
        with self._lock:
            record = self._shards[name]
            proc = record["proc"]
            pid = record["pid"]
        if proc is None:
            return None
        try:
            proc.kill()  # type: ignore[union-attr]
        except OSError:
            return None
        return pid  # type: ignore[return-value]

    def stop_shard(self, name: str, graceful: bool = True) -> None:
        """Stop one shard for good (drain path): SIGTERM first, so the
        daemon drains in-flight requests and logs ``server_shutdown``,
        escalating to SIGKILL past the deadline."""
        with self._lock:
            record = self._shards.get(name)
            if record is None:
                raise KeyError(f"no such shard: {name}")
            record["desired"] = False
            proc = record["proc"]
            record["proc"] = None
        if proc is None:
            return
        if graceful:
            try:
                proc.send_signal(signal.SIGTERM)  # type: ignore[union-attr]
                proc.wait(timeout=self.drain_deadline + 5.0)
                return
            except subprocess.TimeoutExpired:
                pass
            except OSError:
                return
        try:
            proc.kill()  # type: ignore[union-attr]
            proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass

    def stop(self) -> None:
        """Stop the monitor, then every shard (graceful, parallel-ish:
        one SIGTERM pass, then one wait pass)."""
        self._stop.set()
        with self._lock:
            monitor, self._monitor = self._monitor, None
            procs = []
            for record in self._shards.values():
                record["desired"] = False
                if record["proc"] is not None:
                    procs.append(record["proc"])
                    record["proc"] = None
        if monitor is not None:
            monitor.join(timeout=5.0)
        for proc in procs:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        for proc in procs:
            try:
                proc.wait(timeout=self.drain_deadline + 5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        self.events.flush()
