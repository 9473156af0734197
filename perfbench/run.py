"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: profile-both, profile-leap (batch profiling), serve-mixed
(one ``repro-serve`` daemon) and serve-cluster (``repro-cluster``:
router plus two shards).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs the same work with the benchmark's
span recorder on and reports the per-layer metrics instead.

Every line but the last is for people: each metric under the name the
issue tracker uses, with unit and sample count, and the run's context.
The last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The process exits 1 when any output check failed.

``--scale`` overrides the workload's fixed input size and ``--fault``
(``flip``: corrupt one byte of one document; ``kill``: SIGKILL the
daemon mid-run) exercises the output gate; both exist for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from common import OUT_DIR, SRC, Run, base_context  # noqa: E402

sys.path.insert(0, SRC)

from stats import finite_or_none  # noqa: E402

WORKLOADS = ("profile-both", "profile-leap", "serve-mixed", "serve-cluster")

#: the bounded end-to-end metrics every workload reports, in
#: BENCHMARK.json order.  Absolute speeds (throughput, latency) are
#: printed on the human lines and reported per layer, not bounded: on a
#: shared machine whose speed drifts by a third between minutes they
#: cannot hold a 25% bound, while ratios measured side by side can.
END_TO_END = ("setup_s", "dilation", "output_bytes", "peak_rss_mb")

#: the per-layer metrics (traced run) and their units; a layer a
#: workload never enters reports 0
PER_LAYER = {
    "accesses_per_s": "1/s",
    "serve_rps": "1/s",
    "runtime.trace_s": "s",
    "runtime.accesses": "count",
    "runtime.native_s": "s",
    "runtime.online_leap_s": "s",
    "core.cdc.translate_s": "s",
    "core.cdc.translate_calls": "count",
    "core.cdc.wild_ratio": "ratio",
    "core.decomposition.horizontal_s": "s",
    "core.decomposition.vertical_s": "s",
    "compression.sequitur.s": "s",
    "compression.sequitur.symbols_per_s": "1/s",
    "compression.sequitur.rules": "count",
    "compression.sequitur.grammar_symbols": "count",
    "compression.lmad.s": "s",
    "compression.lmad.descriptors": "count",
    "compression.lmad.capture_ratio": "ratio",
    "compression.lmad.overflow_symbols": "count",
    "postprocess.dependence_s": "s",
    "postprocess.dependence_pairs": "count",
    "postprocess.strides_s": "s",
    "core.binformat.encode_s": "s",
    "core.binformat.decode_s": "s",
    "core.binformat.bytes": "B",
    "core.profile_io.json_decode_s": "s",
    "core.profile_io.json_bytes": "B",
    "store.validate_s": "s",
    "store.blobs.put_s": "s",
    "store.blobs.stored_per_input_byte": "ratio",
    "store.ingest_s": "s",
    "store.ingest_growth": "ratio",
    "store.manifest_bytes_written": "B",
    "store.manifest_s": "s",
    "store.cache.hit_ratio": "ratio",
    "store.query_s": "s",
    "store.diff_s": "s",
    "store.server.http_overhead_ms": "ms",
    "store.server.ingest_p50_ms": "ms",
    "store.server.ingest_p99_ms": "ms",
    "store.server.read_p50_ms": "ms",
    "store.server.read_p99_ms": "ms",
    "cluster.router.overhead_ms": "ms",
    "cluster.replica_writes": "count",
    "cluster.read_repairs": "count",
    "cluster.shard_rss_mb": "MB",
    "obs.tracing_overhead": "ratio",
    "unattributed_s": "s",
}

#: the issue's metric names, per workload, as aliases of the above
NAMED = {
    "profile-both": {
        "accesses_per_s": "throughput_per_s",
        "profile_bytes": "output_bytes",
    },
    "profile-leap": {
        "accesses_per_s": "throughput_per_s",
        "leap_dilation": "dilation",
        "profile_bytes": "output_bytes",
    },
    "serve-mixed": {"serve_rps": "throughput_per_s"},
    "serve-cluster": {"serve_rps": "throughput_per_s"},
}


def _human(name: str, value, unit: str, count: int) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"metric {name} = {shown} {unit} (n={count})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--fault", choices=("flip", "kill"), default=None)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        scale=args.scale or 0.0,
        fault=args.fault,
    )
    if args.workload.startswith("profile-"):
        from batch import run_batch

        e2e, layers = run_batch(run)
    else:
        from serve import run_serve

        e2e, layers = run_serve(run)
    context = base_context(run)
    context.update(run.context)

    error_rate = run.failed / run.attempted if run.attempted else 1.0
    lines = []
    for name, alias in NAMED[args.workload].items():
        value, unit, count = e2e[alias]
        lines.append(_human(name, value, unit, count))
    for name, (value, unit, count) in e2e.items():
        lines.append(_human(name, value, unit, count))
    lines.append(_human("error_rate", error_rate, "ratio", run.attempted))
    for line in lines:
        print(line)
    for reason in run.failures:
        print(f"FAILED {reason}")
    print("context " + json.dumps(context, sort_keys=True))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.traced:
        run.rec.dump(os.path.join(OUT_DIR, f"spans-{stem}.json"))
    correct = run.failed == 0 and run.attempted > 0
    if run.traced:
        metrics = {
            name: {"value": finite_or_none(layers.get(name, 0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": finite_or_none(e2e[name][0]), "unit": e2e[name][1]}
            for name in END_TO_END
        }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as handle:
        json.dump(
            {"result": result, "context": context, "failures": run.failures,
             "end_to_end": {k: list(v) for k, v in e2e.items()}},
            handle, indent=1, sort_keys=True,
        )
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
