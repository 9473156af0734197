"""Run context shared by the batch and serving workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from spans import SpanRecorder
from stats import median

#: the checkout root: the directory holding ``perfbench/``
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: everything a run writes lands under here (listed in .gitignore)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: span-name prefixes that name a layer of the program; any other span
#: ("pass", "program", "op") is the benchmark's own bookkeeping
LAYER_PREFIXES = (
    "runtime.", "core.", "compression.", "postprocess.", "profilers.",
    "store", "cluster.",
)


def is_layer(name: str) -> bool:
    return name.startswith(LAYER_PREFIXES)


@dataclass
class Run:
    """One invocation: workload, seed, window, tracing, fault drill."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    scale: float
    fault: Optional[str] = None
    rec: SpanRecorder = field(init=False)
    #: operations attempted / failed (documents or requests)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    context: Dict[str, object] = field(default_factory=dict)
    #: event counts gathered while tracing (e.g. wild accesses online)
    counters: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rec = SpanRecorder(
            f"{self.workload}-s{self.seed}-{os.getpid()}", enabled=self.traced
        )

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def scratch(self, name: str) -> str:
        path = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
        os.makedirs(path, exist_ok=True)
        return path


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """VmHWM of a live process, in MB; 0.0 when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else f"{SRC}{os.pathsep}{existing}"
    return env


def time_setup_probe(code: str, repeats: int) -> List[float]:
    """Spawn ``repeats`` fresh interpreters running ``code`` and time each
    from spawn until it prints ``ready``."""
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe printed {line!r}")
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
    return samples


def source_digest() -> str:
    """sha256 over the program's source tree (the checkout may not be a
    git repository, so this stands in for the revision)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev() -> Optional[str]:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # a parent directory's repository, not this checkout
    return lines[1]


def base_context(run: Run) -> Dict[str, object]:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "scale": run.scale,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


def median_of(rows: List[Dict[str, float]], key: str) -> float:
    values = [row.get(key, 0.0) for row in rows]
    return median(values) if values else 0.0
