"""``repro-obs``: the TRACELINK command-line front-end.

Subcommands::

    repro-obs tail --events PATH [--kind K] [--trace ID] [--count N]
        Print the most recent structured event records (JSONL in,
        one-line summaries or --json out).

    repro-obs trace list (--events PATH | --url URL)
        List the trace ids present in an event log or a daemon's ring.

    repro-obs trace show ID (--events PATH | --url URL)
        Render one trace's span tree as ASCII.  ID may be a unique
        prefix.

    repro-obs top --events PATH [--limit N]
        The hottest span paths by accumulated wall time.

    repro-obs flame --events PATH [--trace ID] [-o PATH]
        Folded-stack lines (``parent;child <microseconds>``) for
        flamegraph tools.

    repro-obs slo check --slo FILE --events PATH [--json]
        Evaluate declarative latency/dilation SLOs against an event
        log; exit 1 on any breach.

Event logs are what ``--trace-out`` writes (``repro-profile``,
``repro-serve``, ``repro-experiments``) and what the daemon's
``/tracez`` serves; ``--url`` points at a live ``repro-serve serve``
daemon (or cluster router) instead of a file, read through the shared
client (:mod:`repro.store.client`): an unreachable daemon is one line
on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.obs.events import filter_events, read_events
from repro.obs.slo import (
    SloError,
    evaluate_slos,
    load_slo_file,
    render_slo_results,
)
from repro.obs.trace import (
    folded_stacks,
    render_top,
    render_trace_tree,
    top_from_spans,
    top_spans,
)
from repro.store.client import http_json


def _load_events(args) -> List[Dict[str, object]]:
    if getattr(args, "events", None):
        return read_events(args.events)
    return []


def _resolve_trace_id(
    wanted: str, candidates: List[str]
) -> Optional[str]:
    """Exact id, else a unique prefix; None when ambiguous/absent."""
    if wanted in candidates:
        return wanted
    prefixed = [tid for tid in candidates if tid.startswith(wanted)]
    return prefixed[0] if len(prefixed) == 1 else None


def _trace_ids_from_events(records: List[Dict[str, object]]) -> List[str]:
    seen: Dict[str, None] = {}
    for record in records:
        trace = record.get("trace")
        if isinstance(trace, str) and trace not in seen:
            seen[trace] = None
    return list(seen)


def _summarize_event(record: Dict[str, object]) -> str:
    ts = record.get("ts")
    stamp = f"{float(ts):.3f}" if isinstance(ts, (int, float)) else "-"
    trace = record.get("trace")
    tag = f" [{str(trace)[:12]}]" if isinstance(trace, str) else ""
    skip = {"v", "ts", "kind", "trace", "span", "spans"}
    detail = " ".join(
        f"{key}={record[key]}"
        for key in record
        if key not in skip and not isinstance(record[key], (dict, list))
    )
    return f"{stamp} {str(record.get('kind')):<12}{tag} {detail}".rstrip()


def _run_tail(args) -> int:
    records = _load_events(args)
    records = filter_events(records, kind=args.kind, trace=args.trace)
    if args.count:
        records = records[-args.count:]
    if args.as_json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        for record in records:
            print(_summarize_event(record))
        print(f"{len(records)} event record(s)")
    return 0


def _document_for_trace(
    args, trace_id: str
) -> Optional[Dict[str, object]]:
    """The trace document for one id, from a file or a daemon.

    A JSONL log carries the span trees in its final ``trace`` record;
    the daemon carries whole stored documents under ``/tracez``.
    Either way the caller gets the canonical document shape.
    """
    if args.url:
        payload = http_json(
            args.url, "GET", "/tracez", params={"trace": trace_id}
        )
        documents = payload.get("documents") or []
        if documents:
            return documents[0].get("document")
        records = payload.get("records") or []
        return {"trace_id": trace_id, "spans": [], "events": records}
    records = _load_events(args)
    spans: List[Dict[str, object]] = []
    for record in records:
        if record.get("kind") == "trace" and record.get("trace") == trace_id:
            spans = [s for s in record.get("spans", ()) if isinstance(s, dict)]
    trace_records = filter_events(records, trace=trace_id)
    if not spans and not trace_records:
        return None
    return {"trace_id": trace_id, "spans": spans, "events": trace_records}


def _run_trace(args) -> int:
    if args.url:
        try:
            rows = http_json(args.url, "GET", "/tracez").get("traces", ())
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.action == "list":
            for row in rows:
                print(
                    f"{row.get('trace_id')}  {row.get('records')} "
                    f"record(s)  kinds={','.join(row.get('kinds', ()))}"
                )
            return 0
        candidates = [str(row.get("trace_id")) for row in rows]
    else:
        if not args.events:
            print("trace: need --events PATH or --url URL", file=sys.stderr)
            return 2
        records = _load_events(args)
        candidates = _trace_ids_from_events(records)
        if args.action == "list":
            for tid in candidates:
                count = len(filter_events(records, trace=tid))
                print(f"{tid}  {count} record(s)")
            return 0
    trace_id = _resolve_trace_id(args.trace_id, candidates)
    if trace_id is None:
        print(
            f"no unique trace matching {args.trace_id!r} "
            f"({len(candidates)} trace(s) known)",
            file=sys.stderr,
        )
        return 2
    try:
        document = _document_for_trace(args, trace_id)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if document is None:
        print(f"no data for trace {trace_id}", file=sys.stderr)
        return 2
    print(render_trace_tree(document))
    return 0


def _run_top(args) -> int:
    records = _load_events(args)
    # Two sources, merged: live ``stage`` emissions (the parent's own
    # spans) and the span trees carried by ``trace`` records (pool
    # workers' spans, which never emit events in the parent).  Stage
    # rows win on a path collision -- they are the same spans, counted
    # at exit time.
    spans: List[Dict[str, object]] = []
    for record in records:
        if record.get("kind") == "trace":
            spans.extend(
                s for s in record.get("spans", ()) if isinstance(s, dict)
            )
    merged = {row["path"]: row for row in top_from_spans(spans, limit=0)}
    merged.update(
        (row["path"], row) for row in top_spans(records, limit=0)
    )
    rows = sorted(
        merged.values(), key=lambda row: float(row["seconds"]), reverse=True
    )[: max(0, args.limit)]
    print(render_top(rows))
    return 0


def _run_flame(args) -> int:
    records = _load_events(args)
    lines: List[str] = []
    for record in records:
        if record.get("kind") != "trace":
            continue
        if args.trace and record.get("trace") != args.trace:
            continue
        lines.extend(
            folded_stacks(
                [s for s in record.get("spans", ()) if isinstance(s, dict)]
            )
        )
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        from repro.core.fsutil import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"{len(lines)} folded stack(s) -> {args.out}")
    else:
        sys.stdout.write(text)
        if not lines:
            print("(no trace records with spans)", file=sys.stderr)
    return 0


def _run_slo_check(args) -> int:
    try:
        rules = load_slo_file(args.slo)
    except SloError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    records = _load_events(args)
    results = evaluate_slos(rules, records)
    if args.as_json:
        print(
            json.dumps(
                {"results": [result.to_json() for result in results]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(render_slo_results(results))
    return 1 if any(not result.ok for result in results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="TRACELINK: inspect traces, structured events, and "
        "latency SLOs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_events(p, required=True):
        p.add_argument(
            "--events", metavar="PATH", required=required,
            help="a JSONL event log (what --trace-out writes)",
        )

    tail = sub.add_parser("tail", help="print recent event records")
    add_events(tail)
    tail.add_argument("--kind", help="only records of this kind")
    tail.add_argument("--trace", help="only records of this trace id")
    tail.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="only the last N matching records (0 = all)",
    )
    tail.add_argument("--json", action="store_true", dest="as_json")

    trace = sub.add_parser("trace", help="list or render traces")
    trace.add_argument("action", choices=("list", "show"))
    trace.add_argument(
        "trace_id", nargs="?", default="",
        help="trace id (or unique prefix) for 'show'",
    )
    add_events(trace, required=False)
    trace.add_argument(
        "--url", metavar="URL",
        help="read from a running daemon's /tracez instead of a file",
    )

    top = sub.add_parser("top", help="hottest span paths")
    add_events(top)
    top.add_argument("--limit", type=int, default=10, metavar="N")

    flame = sub.add_parser("flame", help="folded stacks for flamegraphs")
    add_events(flame)
    flame.add_argument("--trace", help="only this trace id's spans")
    flame.add_argument("-o", "--out", metavar="PATH")

    slo = sub.add_parser("slo", help="evaluate declarative SLOs")
    slo.add_argument("action", choices=("check",))
    slo.add_argument(
        "--slo", required=True, metavar="FILE",
        help="the SLO threshold file (JSON, version 1)",
    )
    add_events(slo)
    slo.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tail":
            return _run_tail(args)
        if args.command == "trace":
            if args.action == "show" and not args.trace_id:
                parser.error("trace show requires a trace id")
            return _run_trace(args)
        if args.command == "top":
            return _run_top(args)
        if args.command == "flame":
            return _run_flame(args)
        if args.command == "slo":
            return _run_slo_check(args)
    except BrokenPipeError:
        # Downstream pager/grep closed the pipe; that is not an error.
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
