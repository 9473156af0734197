"""``repro-cluster``: boot, inspect, rebalance, drain, and load-test.

Subcommands::

    repro-cluster serve --root DIR [--shards N] [--replicas 2] [...]
        Spawn N supervised shard processes and front them with the
        consistent-hash router (foreground; SIGTERM/Ctrl-C drains the
        router and the shards and exits 0).

    repro-cluster status --url URL
        Pretty-print the router's /clusterz.

    repro-cluster rebalance --url URL
        Re-place every digest after membership changes; copy missing
        replicas.

    repro-cluster drain SHARD --url URL
        Move SHARD's data to its new placements, then stop it.

    repro-cluster bench --url URL [--requests N] [--concurrency C]
        [--jobs J] [--mix ingest-json=0.5,...] [--kill-shard-after S]
        Drive the mixed load harness; --kill-shard-after S SIGKILLs
        one live shard mid-run (the fault drill).  Exits 1 on any
        transport failure or 5xx.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.obs.events import EventLog


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Sharded PROFSTORE: consistent-hash router, "
        "replicated shards, load harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="boot a supervised cluster")
    serve.add_argument("--root", required=True, metavar="DIR")
    serve.add_argument("--shards", type=int, default=3, metavar="N")
    serve.add_argument("--replicas", type=int, default=2, metavar="R")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8350,
        help="router port (0 = ephemeral; the bound address is printed "
        "as 'listening host:port')",
    )
    serve.add_argument("--vnodes", type=int, default=64)
    serve.add_argument(
        "--probe-interval", type=float, default=1.0, metavar="SECS"
    )
    serve.add_argument(
        "--drain-deadline", type=float, default=3.0, metavar="SECS",
        help="graceful-shutdown deadline of the router and each shard",
    )
    serve.add_argument(
        "--trace-out", metavar="PATH",
        help="mirror the router's structured events (JSONL) to PATH",
    )

    def add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", required=True, metavar="URL",
            help="router base URL (http://host:port)",
        )

    status = sub.add_parser("status", help="show /clusterz")
    add_url(status)
    status.add_argument("--json", action="store_true", dest="as_json")

    rebalance = sub.add_parser("rebalance", help="re-place every digest")
    add_url(rebalance)

    drain = sub.add_parser("drain", help="move a shard's data away")
    drain.add_argument("shard", help="shard name, e.g. shard1")
    add_url(drain)

    bench = sub.add_parser("bench", help="run the load harness")
    add_url(bench)
    bench.add_argument("--requests", type=int, default=300)
    bench.add_argument("--concurrency", type=int, default=8)
    bench.add_argument(
        "--jobs", type=int, default=1,
        help="client processes (each runs requests/jobs ops)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--mix", metavar="K=W,K=W",
        help="op-mix overrides, e.g. ingest-json=0.5,get=0.3",
    )
    bench.add_argument(
        "--kill-shard-after", type=float, metavar="SECS",
        help="fault drill: SIGKILL one live shard SECS into the run",
    )
    bench.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _http_json(url: str, method: str = "GET", timeout: float = 30.0):
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(
                response.read().decode("utf-8")
            )
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace").strip()
        raise ValueError(f"router answered {exc.code}: {detail}") from None
    except urllib.error.URLError as exc:
        raise ValueError(f"router unreachable: {exc.reason}") from None


def _run_serve(args: argparse.Namespace) -> int:
    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import ShardSupervisor
    from repro.store.service import serve_until_terminated

    events = EventLog(path=args.trace_out)
    router = ClusterRouter(
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        vnodes=args.vnodes,
        probe_interval=args.probe_interval,
        events=events,
    )
    supervisor = ShardSupervisor(
        args.root,
        shards=args.shards,
        host=args.host,
        events=events,
        drain_deadline=args.drain_deadline,
        on_address_change=router.attach_shard,
    )
    router.supervisor = supervisor
    print(
        f"cluster router for {args.root} on {router.url} "
        f"({args.shards} shards, {args.replicas} replicas)",
        flush=True,
    )
    try:
        supervisor.start()
    except (OSError, RuntimeError) as exc:
        print(f"shard boot failed: {exc}", file=sys.stderr)
        supervisor.stop()
        router.stop()
        return 1
    for name, url in sorted(supervisor.addresses().items()):
        print(f"shard {name} at {url}", flush=True)
    try:
        serve_until_terminated(router, args.drain_deadline)
    finally:
        supervisor.stop()
    return 0


def _run_status(args: argparse.Namespace) -> int:
    __, payload = _http_json(f"{args.url.rstrip('/')}/clusterz")
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    ring = payload.get("ring", {})
    print(
        f"ring: {len(ring.get('shards', []))} shard(s), "
        f"{ring.get('replicas')} replica(s), "
        f"version {ring.get('version')}"
    )
    for name, row in sorted(payload.get("shards", {}).items()):
        state = "alive" if row.get("alive") else "DOWN"
        if row.get("draining"):
            state = "draining"
        share = ring.get("keyspace_share", {}).get(name)
        print(
            f"  {name:<8} {state:<8} {row.get('url') or '-':<28} "
            f"pid {row.get('pid') or '-':<8} "
            f"restarts {row.get('restarts', 0):<3} "
            f"runs {row.get('runs') if row.get('runs') is not None else '-':<5} "
            f"share {share if share is not None else '-'}"
        )
    replication = payload.get("replication", {})
    print(
        f"replication: {replication.get('read_repairs', 0)} read-repair(s), "
        f"lag {replication.get('lag_runs')} run(s)"
    )
    return 0


def _parse_mix(text: Optional[str]) -> Optional[Dict[str, float]]:
    if not text:
        return None
    mix: Dict[str, float] = {}
    for part in text.split(","):
        if not part:
            continue
        key, __, value = part.partition("=")
        try:
            mix[key.strip()] = float(value)
        except ValueError:
            raise ValueError(f"bad mix clause {part!r}") from None
    return mix


def _live_shard_pid(url: str) -> Optional[int]:
    """A (pid, any) of one alive shard, for the kill drill."""
    try:
        __, payload = _http_json(f"{url.rstrip('/')}/clusterz", timeout=5.0)
    except ValueError:
        return None
    for __name, row in sorted(payload.get("shards", {}).items()):
        if row.get("alive") and isinstance(row.get("pid"), int):
            return row["pid"]
    return None


def _kill_one_shard_later(url: str, delay: float) -> threading.Thread:
    def killer() -> None:
        time.sleep(delay)
        pid = _live_shard_pid(url)
        if pid is None:
            print("fault drill: no live shard pid found", file=sys.stderr)
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError as exc:
            print(f"fault drill: kill failed: {exc}", file=sys.stderr)
            return
        print(f"fault drill: SIGKILLed shard pid {pid}", flush=True)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    return thread


def _run_bench(args: argparse.Namespace) -> int:
    from repro.cluster.loadgen import run_load_parallel

    mix = _parse_mix(args.mix)
    killer: Optional[threading.Thread] = None
    if args.kill_shard_after is not None:
        killer = _kill_one_shard_later(args.url, args.kill_shard_after)
    report = run_load_parallel(
        args.url,
        requests=args.requests,
        concurrency=args.concurrency,
        jobs=args.jobs,
        seed=args.seed,
        mix=mix,
    )
    if killer is not None:
        killer.join(timeout=10.0)
    payload = report.to_json()
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        latency = payload["latency"].get("*", {})
        print(
            f"{payload['requests']} requests in "
            f"{payload['seconds']:.2f}s = "
            f"{payload['throughput_rps']:.1f} req/s; "
            f"{payload['completed']} ok, "
            f"{payload['failures']} transport failure(s), "
            f"{payload['server_errors']} 5xx, "
            f"{payload['client_errors']} 4xx"
        )
        if latency:
            print(
                f"latency p50 {latency.get('p50_seconds', 0) * 1000:.1f}ms "
                f"p95 {latency.get('p95_seconds', 0) * 1000:.1f}ms "
                f"p99 {latency.get('p99_seconds', 0) * 1000:.1f}ms"
            )
        for kind, row in sorted(payload["by_kind"].items()):
            print(f"  {kind:<14} {row['count']:>6} ops, {row['errors']} error(s)")
    return 1 if (report.failures or report.server_errors) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "status":
            return _run_status(args)
        if args.command == "rebalance":
            __, payload = _http_json(
                f"{args.url.rstrip('/')}/rebalance", method="POST",
                timeout=120.0,
            )
            print(
                f"rebalance: checked {payload.get('checked')}, "
                f"copied {payload.get('copied')}, "
                f"failed {payload.get('failed')}"
            )
            return 1 if payload.get("failed") else 0
        if args.command == "drain":
            __, payload = _http_json(
                f"{args.url.rstrip('/')}/drain?shard={args.shard}",
                method="POST", timeout=120.0,
            )
            print(
                f"drained {payload.get('shard')}: copied "
                f"{payload.get('copied')} digest(s), "
                f"stopped={payload.get('stopped')}"
            )
            return 1 if payload.get("error") else 0
        if args.command == "bench":
            return _run_bench(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
