"""The benchmark's own tests: its statistics, its span arithmetic, and
proof that the output gate bites.

    python3 -m pytest perfbench/tests -q

Each workload runs once at a tiny scale and must pass with no failed
operation; then once with one byte of one document flipped, and (the
serving workloads) once with the daemon killed mid-run, and must then
report failed operations and exit non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import SpanRecorder  # noqa: E402
from stats import median, percentile  # noqa: E402

WORKLOADS = ("profile-both", "profile-leap", "serve-mixed", "serve-cluster")
TINY = ["--scale", "0.01", "--seconds", "1.5"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, *extra, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), *TINY, *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result, proc.stdout


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile([5.0], 99) == 5.0
    assert percentile([1.0, float("inf")], 99) == float("inf")


def test_median_of_even_count_is_the_middle_mean():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_self_time_subtracts_children_and_rollups():
    rec = SpanRecorder("t")
    with rec.span("pass"):
        with rec.span("outer") as outer:
            rec.rollup("inner", 0.0, calls=3)
    rows = rec.self_times_by_root("pass")
    assert len(rows) == 1
    assert abs(sum(rows[0].values()) - rec.totals("pass")) < 1e-9
    assert rec.spans[-1].calls == 3
    assert rows[0]["outer"] == pytest.approx(outer.seconds)


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder("t", enabled=False)
    with rec.span("pass"):
        pass
    assert rec.rollup("x", 1.0, 1) is None
    assert rec.spans == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes_with_every_metric(workload):
    code, result, out = _run(workload)
    assert code == 0, out
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in _spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    for name in names:
        assert result["metrics"][name]["value"] > 0, name
    assert "metric error_rate = 0 ratio" in out


@pytest.mark.parametrize("workload", ("profile-both", "serve-mixed"))
def test_traced_run_emits_every_per_layer_metric(workload):
    code, result, out = _run(workload, trace=1)
    assert code == 0, out
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    if workload == "profile-both":
        # counted at the profilers' own translate_trace calls
        assert metrics["core.cdc.translate_calls"]["value"] == 2.0
        assert metrics["compression.sequitur.s"]["value"] > 0
    else:
        assert metrics["store.manifest_bytes_written"]["value"] > 0
        assert metrics["store.ingest_growth"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_byte_fails_the_run(workload):
    code, result, __ = _run(workload, "--fault", "flip")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", ("serve-mixed", "serve-cluster"))
def test_killed_daemon_fails_the_run(workload):
    code, result, __ = _run(workload, "--fault", "kill")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
