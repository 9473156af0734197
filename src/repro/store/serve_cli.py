"""``repro-serve``: the profile store's command-line front-end.

Subcommands::

    repro-serve ingest --root DIR [--workloads W1,W2|all] [--jobs N]
        Profile workloads (in up to N worker processes) and ingest the
        documents; or ingest existing files with --profiles.
        ``--format binary`` serializes BINCAP binary documents;
        ``--stream --url URL`` profiles serially and streams each
        document to the daemon's ``/ingest/stream`` over one chunked
        request as soon as it is captured.

    repro-serve query --root DIR [--workload W] [--kind K] [...]
        List matching runs, or per-(instruction, group) entries with
        --entries.

    repro-serve diff --root DIR A B [--json]
        Structurally diff two runs; exit 1 when regressions are
        detected.

    repro-serve gc --root DIR
        Drop blobs no manifest entry references.

    repro-serve serve --root DIR [--port N] [...]
        Run the HTTP daemon in the foreground.

Run selectors (``A``/``B`` above) are run ids, digest prefixes, or
``workload@kind[~N]`` (``gzip@leap~1`` = the run before the latest).
``--workloads all`` means the paper's seven SPEC stand-ins plus
``micro.array`` -- the suite's eight bundled workloads.

``ingest --url`` posts through the shared client
(:mod:`repro.store.client`): the workload name travels urlencoded, the
run's trace id rides along as ``X-Repro-Trace``, and an unreachable or
refusing daemon is one ``REJECTED`` line, exit 1.

``ingest --inject-faults SPEC`` is the store's fault drill: each
serialized document is bit-flipped per the plan's ``flip-profile``
clause *before* ingest, demonstrating that corrupted payloads are
rejected at the door (exit 1) instead of poisoning the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.profile_io import SERIALIZATIONS, ProfileFormatError
from repro.obs.export import MODES, emit
from repro.obs.spans import NULL_TELEMETRY, Telemetry
from repro.store.client import http_json, http_request
from repro.store.diff import detect_regressions, diff_blobs, render_diff
from repro.store.query import QueryEngine
from repro.store.store import ProfileStore
from repro.workloads.registry import SPEC_BENCHMARKS

#: the bundled "eight workloads": the SPEC suite plus the micro kernel
DEFAULT_WORKLOADS = SPEC_BENCHMARKS + ("micro.array",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Content-addressed profile store: ingest, query, "
        "diff, and serve object-relative profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_root(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root", required=True, metavar="DIR",
            help="store root directory (created if absent)",
        )

    ingest = sub.add_parser("ingest", help="profile workloads into the store")
    ingest.add_argument(
        "--root", metavar="DIR",
        help="store root directory (created if absent); optional when "
        "--url posts to a daemon instead",
    )
    ingest.add_argument(
        "--url", metavar="URL",
        help="POST documents to a running daemon (http://host:port) "
        "instead of / in addition to the local store",
    )
    ingest.add_argument(
        "--trace-out", metavar="PATH",
        help="mirror this run's structured events (JSONL) to PATH",
    )
    ingest.add_argument(
        "--workloads", default="all", metavar="W1,W2",
        help="comma-separated workload names, or 'all' for the bundled "
        "eight (default)",
    )
    ingest.add_argument(
        "--profiles", nargs="*", metavar="PATH",
        help="ingest existing profile files instead of running workloads",
    )
    ingest.add_argument("--scale", type=float, default=1.0)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--profiler", choices=("whomp", "leap", "both"), default="both"
    )
    ingest.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="profile up to N workloads in worker processes "
        "(0 = all CPUs; 1 = serial)",
    )
    ingest.add_argument(
        "--inject-faults", metavar="SPEC",
        help="fault drill: bit-flip each document per the plan's "
        "flip-profile clause before ingest",
    )
    ingest.add_argument(
        "--format", choices=SERIALIZATIONS, default="json", dest="fmt",
        help="profile document serialization (default: json)",
    )
    ingest.add_argument(
        "--stream", action="store_true",
        help="stream documents to --url over one chunked "
        "/ingest/stream request as each workload finishes (serial)",
    )

    query = sub.add_parser("query", help="list runs or entries")
    add_root(query)
    query.add_argument("--workload", help="filter by workload name")
    query.add_argument("--kind", help="filter by profile kind (whomp/leap)")
    query.add_argument(
        "--entries", action="store_true",
        help="list per-(instruction, group) LEAP entries instead of runs",
    )
    query.add_argument("--instruction", type=int, help="entry filter")
    query.add_argument("--group", type=int, help="entry filter")
    query.add_argument(
        "--stride", metavar="S1,S2,...",
        help="keep entries with an LMAD of exactly this stride vector",
    )
    query.add_argument(
        "--min-count", type=int, default=0,
        help="drop entries below this dynamic access total",
    )
    query.add_argument("--json", action="store_true", dest="as_json")

    diff = sub.add_parser("diff", help="structurally diff two runs")
    add_root(diff)
    diff.add_argument("a", help="baseline run selector")
    diff.add_argument("b", help="candidate run selector")
    diff.add_argument("--json", action="store_true", dest="as_json")

    gc = sub.add_parser("gc", help="drop unreferenced blobs")
    add_root(gc)

    serve = sub.add_parser("serve", help="run the HTTP daemon")
    add_root(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8340)
    serve.add_argument(
        "--cache-size", type=int, default=32, metavar="N",
        help="decoded-profile LRU capacity",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=8, metavar="N",
        help="bound on concurrently served requests",
    )
    serve.add_argument(
        "--telemetry", choices=MODES,
        help="print spans/metrics in the chosen format on shutdown",
    )
    serve.add_argument("--telemetry-out", metavar="PATH")
    serve.add_argument(
        "--trace-out", metavar="PATH",
        help="mirror the access log (structured JSONL events) to PATH",
    )
    serve.add_argument(
        "--drain-deadline", type=float, default=5.0, metavar="SECS",
        help="on shutdown, wait up to SECS for in-flight requests "
        "before closing the socket",
    )
    return parser


def _run_ingest(args: argparse.Namespace) -> int:
    from repro.obs.trace import start_tracing

    if not args.root and not args.url:
        print("ingest requires --root and/or --url", file=sys.stderr)
        return 2
    store = ProfileStore(args.root) if args.root else None
    injector = None
    if args.inject_faults:
        from repro.resilience import FaultInjector, parse_fault_spec

        injector = FaultInjector(parse_fault_spec(args.inject_faults))

    # Every ingest run is traced: the context rides into the forked
    # workers and (as X-Repro-Trace) to the daemon, and the run closes
    # with a trace document tying all of it together.
    telemetry = Telemetry()
    context, events = start_tracing(telemetry, trace_out=args.trace_out)
    if injector is not None:
        injector.events = events

    def ingest_document(data: bytes, workload: str, meta) -> bool:
        if injector is not None:
            data = injector.corrupt_bytes(data)
        ok = True
        if store is not None:
            try:
                record = store.ingest_bytes(data, workload, meta=meta)
            except ProfileFormatError as exc:
                print(f"REJECTED {workload}: {exc}", file=sys.stderr)
                ok = False
            else:
                print(
                    f"ingested {record.run_id} {workload} ({record.kind}, "
                    f"{record.size_bytes} bytes, {record.digest[:12]})"
                )
        if args.url:
            with telemetry.span("post"):
                try:
                    answer = http_json(
                        args.url, "POST", "/ingest",
                        params={"workload": workload}, body=data,
                        timeout=60.0,
                    )
                except ValueError as exc:
                    print(f"REJECTED {workload}: {exc}", file=sys.stderr)
                    ok = False
                else:
                    print(
                        f"posted {answer.get('run_id')} {workload} "
                        f"({answer.get('kind')}, "
                        f"{answer.get('size_bytes')} bytes)"
                    )
        events.emit(
            "ingest",
            trace=context.trace_id,
            span=context.span_id,
            workload=workload,
            ok=ok,
            bytes=len(data),
        )
        return ok

    rejected = 0
    if args.profiles:
        for path in args.profiles:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                print(f"REJECTED {path}: {exc}", file=sys.stderr)
                rejected += 1
                continue
            import os

            workload = os.path.basename(path).split(".")[0]
            if not ingest_document(data, workload, {"source": path}):
                rejected += 1
        _close_ingest_trace(args, telemetry, context, events, store)
        return 1 if rejected else 0

    names = (
        list(DEFAULT_WORKLOADS)
        if args.workloads == "all"
        else [n for n in args.workloads.split(",") if n]
    )
    if args.stream:
        if not args.url:
            print("--stream requires --url", file=sys.stderr)
            return 2
        code = _stream_ingest(args, names, telemetry, context, events, injector)
        _close_ingest_trace(args, telemetry, context, events, store)
        return code
    from repro.parallel import ParallelExecutor
    from repro.parallel.workers import workload_documents

    executor = ParallelExecutor(jobs=args.jobs, telemetry=telemetry)
    tasks = [
        (name, args.scale, args.seed, args.profiler, args.fmt)
        for name in names
    ]
    outcomes = executor.map_outcomes(
        workload_documents, tasks, label="store-ingest"
    )
    for name, outcome in zip(names, outcomes):
        if outcome.error is not None:
            print(f"REJECTED {name}: {outcome.error}", file=sys.stderr)
            rejected += 1
            continue
        __, documents, meta = outcome.value
        span_data = meta.pop("span", None)
        if span_data is not None:
            telemetry.root.absorb_plain(span_data)
        for __, data in documents:
            if not ingest_document(data, name, meta):
                rejected += 1
    if store is not None:
        print(
            f"store now holds {store.stats()['runs']} run(s), "
            f"{store.stats()['blobs']} blob(s)"
        )
    _close_ingest_trace(args, telemetry, context, events, store)
    return 1 if rejected else 0


def _stream_ingest(args, names, telemetry, context, events, injector) -> int:
    """Profile serially, streaming each document as soon as it exists.

    One chunked ``POST /ingest/stream`` carries the whole session: the
    daemon validates and stores every document the moment its CRC
    verifies, so runs appear while later workloads are still being
    profiled -- the capture never sits complete on this side first.
    """
    from repro.core.binformat import StreamWriter
    from repro.parallel.workers import workload_documents

    sent = 0

    def body():
        nonlocal sent
        pending = []
        writer = StreamWriter(pending.append)
        writer.begin()
        for name in names:
            with telemetry.span(f"profile/{name}"):
                __, documents, meta = workload_documents(
                    (name, args.scale, args.seed, args.profiler, args.fmt)
                )
            span_data = meta.pop("span", None)
            if span_data is not None:
                telemetry.root.absorb_plain(span_data)
            for __, data in documents:
                if injector is not None:
                    data = injector.corrupt_bytes(data)
                writer.send_document(name, data, meta=meta)
                sent += 1
                events.emit(
                    "ingest",
                    trace=context.trace_id,
                    span=context.span_id,
                    workload=name,
                    ok=True,
                    bytes=len(data),
                    streamed=True,
                )
            yield b"".join(pending)
            pending.clear()
        writer.close()
        yield b"".join(pending)

    try:
        status, __, data = http_request(
            args.url, "POST", "/ingest/stream",
            params={"workload": names[0]} if len(names) == 1 else None,
            body=body(), timeout=120.0,
        )
        answer = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 1
    for row in answer.get("ingested", ()):
        print(
            f"streamed {row.get('run_id')} ({row.get('kind')}, "
            f"{row.get('size_bytes')} bytes)"
        )
    for row in answer.get("rejected", ()):
        print(
            f"REJECTED {row.get('workload')}: {row.get('error')}",
            file=sys.stderr,
        )
    completeness = answer.get("capture_completeness")
    print(
        f"stream: sent {sent}, ingested {len(answer.get('ingested', ()))}, "
        f"rejected {len(answer.get('rejected', ()))}, "
        f"completeness {completeness}"
    )
    degraded = (
        status >= 400
        or answer.get("rejected")
        or not answer.get("complete", False)
    )
    return 1 if degraded else 0


def _close_ingest_trace(args, telemetry, context, events, store) -> None:
    """Finish the ingest run's trace and persist the document.

    Persistence follows the ``--trace-out`` opt-in: only runs the user
    asked to trace land a document in the local store (when one is
    open) and/or the daemon, under the reserved workload name
    ``trace`` -- a plain ingest must not grow the store beyond the
    profiles it was asked to ingest.  The trace id is printed either
    way so scripts can chase it through ``repro-obs`` and ``/tracez``.
    """
    from repro.core.profile_io import dumps
    from repro.obs.trace import finish_tracing

    document = finish_tracing(
        telemetry, context, events, meta={"command": "ingest"}
    )
    if args.trace_out:
        text = dumps(document)
        if store is not None:
            store.ingest_text(text, "trace", meta={"source": "repro-serve"})
        if args.url:
            try:
                http_json(
                    args.url, "POST", "/ingest", params={"workload": "trace"},
                    body=text.encode("utf-8"), timeout=60.0,
                )
            except ValueError as exc:
                print(f"trace document not posted: {exc}", file=sys.stderr)
    print(f"trace {context.trace_id}")


def _run_query(args: argparse.Namespace) -> int:
    engine = QueryEngine(ProfileStore(args.root))
    if args.entries:
        stride = None
        if args.stride:
            try:
                stride = tuple(int(p) for p in args.stride.split(","))
            except ValueError:
                print(f"bad --stride {args.stride!r}", file=sys.stderr)
                return 2
        rows = engine.find_entries(
            workload=args.workload,
            instruction=args.instruction,
            group=args.group,
            stride=stride,
            min_count=args.min_count,
        )
        if args.as_json:
            print(json.dumps({"entries": rows}, indent=2, sort_keys=True))
        else:
            for row in rows:
                print(
                    f"{row['run_id']} {row['workload']:<14} "
                    f"instr {row['instruction']:>4} ({row['kind']:<5}) "
                    f"group {row['group']:>3} [{row['group_label']}]: "
                    f"{row['lmads']} LMADs, "
                    f"{row['captured']}/{row['total']} captured"
                )
            print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}")
        return 0
    rows = engine.find_runs(workload=args.workload, kind=args.kind)
    if args.as_json:
        print(json.dumps({"runs": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(
                f"{row['run_id']} {row['workload']:<14} {row['kind']:<6} "
                f"{row['size_bytes']:>10} bytes  {row['digest'][:12]}"
            )
        print(f"{len(rows)} run(s)")
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    store = ProfileStore(args.root)
    try:
        record_a = store.resolve(args.a)
        record_b = store.resolve(args.b)
        diff = diff_blobs(
            store.get_bytes(record_a.run_id),
            store.get_bytes(record_b.run_id),
            label_a=f"{record_a.run_id} ({record_a.workload})",
            label_b=f"{record_b.run_id} ({record_b.workload})",
        )
    except (KeyError, ProfileFormatError) as exc:
        print(str(exc).strip("'\""), file=sys.stderr)
        return 2
    regressions = detect_regressions(diff)
    if args.as_json:
        payload = diff.to_json()
        payload["regressions"] = [r.to_json() for r in regressions]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, regressions))
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "ingest":
        return _run_ingest(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "diff":
        return _run_diff(args)
    if args.command == "gc":
        store = ProfileStore(args.root)
        stats = store.gc()
        print(
            f"gc: scanned {stats.scanned} blob(s), removed {stats.removed}, "
            f"freed {stats.freed_bytes} bytes"
        )
        return 0
    if args.command == "serve":
        from repro.store.server import StoreServer
        from repro.store.service import serve_until_terminated

        telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
        store = ProfileStore(args.root, cache_size=args.cache_size)
        server = StoreServer(
            store,
            host=args.host,
            port=args.port,
            telemetry=telemetry,
            max_concurrent=args.max_concurrent,
            trace_out=args.trace_out,
        )
        print(f"serving profile store {args.root} on {server.url}", flush=True)
        try:
            serve_until_terminated(server, args.drain_deadline)
        finally:
            emit(telemetry, args.telemetry, args.telemetry_out)
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
