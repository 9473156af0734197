"""``repro-profile``: the command-line profiler front-end.

Subcommands::

    repro-profile run <workload> [--profiler whomp|leap|both] [-o DIR]
        Run a registered workload and collect profiles to files.

    repro-profile lang <source.mir> [--profiler ...] [-o DIR]
        Interpret a mini-IR source file under instrumentation.

    repro-profile check <source.mir>... [--json]
        Statically analyze mini-IR sources (MIRCHECK): lint diagnostics
        plus static LMAD classification.  Exit 0 when clean, 1 when any
        diagnostic fired, 2 on a parse/lex error.

    repro-profile diff <a> <b> [--json]
        Structurally diff two saved profiles of the same format and
        detect regressions (compression-ratio or capture degradation).
        Exit 0 when clean, 1 when regressions are detected, 2 on a
        bad input.

    repro-profile stats <workload> [--json]
        Print trace statistics (instruction mix, footprint, reuse).

    repro-profile list
        List registered workloads.

``run`` and ``lang`` accept ``--degraded`` to quarantine untrustworthy
tuples instead of failing (profiles then report a capture-completeness
ratio; see README's "Resilience" section).  Every profiling subcommand
records into one :class:`~repro.obs.spans.Telemetry`, and ``--telemetry
[report|json|prom]`` (optionally with ``--telemetry-out PATH``) prints
it: a span tree timing trace collection, translation, decomposition,
and compression, plus the metric registry described in README's
"Observability" section.

Profiles are written in the versioned JSON formats of
:mod:`repro.core.profile_io` and can be reloaded for post-processing.
``run`` and ``lang`` also accept ``--format binary`` to write the
compact BINCAP binary encoding (``*.whomp.bin`` / ``*.leap.bin``);
``dump`` and ``diff`` read either encoding transparently.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import List, Optional

from repro.analysis.tracestats import characterize, format_statistics
from repro.core.events import Trace
from repro.core.profile_io import SERIALIZATIONS, save
from repro.obs.export import MODES, emit
from repro.obs.spans import Telemetry
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import all_names, create


def _collect_workload_trace(
    name: str, scale: float, seed: int, allocator: str, telemetry: Telemetry
) -> Trace:
    with telemetry.span("trace-collection") as span:
        trace = create(name, scale=scale, seed=seed).trace(
            allocator=allocator, telemetry=telemetry
        )
        span.add_items(trace.access_count, "accesses")
    return trace


def _collect_lang_trace(path: str, telemetry: Telemetry) -> Trace:
    from repro.lang.interp import run_source

    with open(path) as handle:
        source = handle.read()
    with telemetry.span("trace-collection") as span:
        result, interpreter = run_source(source)
        trace = interpreter.process.trace
        span.add_items(trace.access_count, "accesses")
    print(f"program returned {result}")
    return trace


def _write_profiles(
    trace: Trace, profiler: str, out_dir: str, stem: str, telemetry: Telemetry,
    degraded: bool = False, fmt: str = "json",
) -> None:
    """Profile ``trace`` and write each profile atomically (a crash
    mid-write leaves the previous file, never a truncated one).

    ``degraded`` runs the profilers behind a shared quarantine: tuples
    the compressors cannot be trusted with are diverted instead of
    raising, and each profile reports its capture-completeness ratio.
    """
    quarantine = None
    if degraded:
        from repro.resilience import Quarantine

        quarantine = Quarantine()
        if telemetry.events is not None:
            quarantine.events = telemetry.events
    suffix = "json" if fmt == "json" else "bin"
    if profiler in ("whomp", "both"):
        profile = WhompProfiler(
            telemetry=telemetry, quarantine=quarantine
        ).profile(trace)
        path = os.path.join(out_dir, f"{stem}.whomp.{suffix}")
        save(profile, path, fmt=fmt)
        completeness = (
            f", {profile.capture_completeness:.1%} capture completeness"
            if degraded
            else ""
        )
        print(
            f"WHOMP: {profile.size_bytes_varint()} bytes "
            f"({profile.size()} symbols){completeness} -> {path}"
        )
    if profiler in ("leap", "both"):
        profile = LeapProfiler(
            telemetry=telemetry, quarantine=quarantine
        ).profile(trace)
        path = os.path.join(out_dir, f"{stem}.leap.{suffix}")
        save(profile, path, fmt=fmt)
        completeness = (
            f", {profile.capture_completeness:.1%} capture completeness"
            if degraded
            else ""
        )
        print(
            f"LEAP:  {profile.size_bytes()} bytes, "
            f"{profile.accesses_captured():.1%} of accesses captured"
            f"{completeness} -> {path}"
        )
    if quarantine is not None and quarantine.total:
        print(
            f"quarantined {quarantine.total} tuple(s): "
            + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(quarantine.reasons.items())
            )
        )


def _dump_profile(path: str, limit: int, parser) -> int:
    """Pretty-print a saved WHOMP or LEAP profile (either encoding)."""
    from repro.core.profile_io import ProfileFormatError, load, sniff_format

    if not os.path.exists(path):
        parser.error(f"no such file: {path}")
    try:
        with open(path, "rb") as handle:
            kind = sniff_format(handle.read())
    except (OSError, ProfileFormatError):
        kind = None
    if kind == "whomp":
        try:
            data = load(path)
        except ProfileFormatError as exc:
            parser.error(f"corrupt profile {path}: {exc}")
        print(f"WHOMP profile: {data['access_count']} accesses")
        print("groups:")
        for group_id, label in sorted(data["group_labels"].items())[:limit]:
            print(f"  {group_id:4d}  {label}")
        for name, stream in data["streams"].items():
            head = " ".join(str(v) for v in stream[: min(12, limit)])
            print(f"{name} stream ({len(stream)} values): {head} ...")
        return 0
    if kind == "leap":
        try:
            profile = load(path)
        except ProfileFormatError as exc:
            parser.error(f"corrupt profile {path}: {exc}")
        print(
            f"LEAP profile: {profile.access_count} accesses, "
            f"{len(profile.entries)} (instruction, group) entries, "
            f"{profile.accesses_captured():.1%} captured"
        )
        for (instruction, group), entry in sorted(profile.entries.items())[:limit]:
            kind_name = profile.kinds[instruction].value
            print(
                f"  instr {instruction:4d} ({kind_name:5s}) group {group:3d}: "
                f"{len(entry.lmads)} LMADs, "
                f"{entry.captured_symbols}/{entry.total_symbols} captured"
            )
            for lmad in entry.lmads[: min(3, limit)]:
                print(f"      {lmad}")
        return 0
    parser.error(f"unrecognized profile format {kind!r}")
    return 2


def _run_diff(path_a: str, path_b: str, as_json: bool, parser) -> int:
    """Diff two saved profiles; exit 1 when regressions are detected.

    A thin wrapper over :mod:`repro.store.diff`: the same differ the
    profile store's daemon and ``repro-serve diff`` use, pointed at two
    loose files.
    """
    import json as json_module

    from repro.core.profile_io import ProfileFormatError
    from repro.store.diff import detect_regressions, diff_blobs, render_diff

    for path in (path_a, path_b):
        if not os.path.exists(path):
            parser.error(f"no such file: {path}")
    try:
        with open(path_a, "rb") as handle:
            data_a = handle.read()
        with open(path_b, "rb") as handle:
            data_b = handle.read()
        diff = diff_blobs(
            data_a, data_b,
            label_a=os.path.basename(path_a),
            label_b=os.path.basename(path_b),
        )
    except (OSError, ProfileFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    regressions = detect_regressions(diff)
    if as_json:
        payload = diff.to_json()
        payload["regressions"] = [r.to_json() for r in regressions]
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, regressions))
    return 1 if regressions else 0


def _run_check(
    paths: List[str], as_json: bool, static: bool, as_sarif: bool = False
) -> int:
    """MIRCHECK driver: lint every source, optionally classify accesses.

    Exit codes: 0 all clean, 1 diagnostics reported, 2 parse/lex error.
    """
    import json as json_module

    from repro.lang import LangError, parse
    from repro.lang.analysis import StaticLmadAnalyzer, lint_program

    reports = []
    had_diagnostics = False
    for path in paths:
        try:
            with open(path) as handle:
                source = handle.read()
            program = parse(source)
        except LangError as exc:
            print(
                f"{path}:{exc.line}:{exc.column}: {exc.message}",
                file=sys.stderr,
            )
            return 2
        diagnostics = lint_program(program, source)
        classes = {}
        if static and any(f.name == "main" for f in program.functions):
            result = StaticLmadAnalyzer(program).run()
            classes = {
                instr.name: instr.classification
                for instr in result.instructions.values()
            }
        if diagnostics:
            had_diagnostics = True
        reports.append((path, diagnostics, classes))

    if as_sarif:
        # shared reporter with repro-lint: one SARIF emitter, two tools
        from repro.lang.analysis.diagnostics import CODES as MIR_CODES
        from repro.selfcheck.reporting import render_sarif

        records = [
            {
                "code": diagnostic.code,
                "severity": diagnostic.severity,
                "path": path,
                "line": diagnostic.line,
                "column": diagnostic.column,
                "message": diagnostic.message,
            }
            for path, diagnostics, __ in reports
            for diagnostic in diagnostics
        ]
        print(render_sarif(records, "mircheck", MIR_CODES))
        return 1 if had_diagnostics else 0

    if as_json:
        payload = {
            "files": [
                {
                    "path": path,
                    "diagnostics": [d.to_dict() for d in diagnostics],
                    "classifications": dict(sorted(classes.items())),
                }
                for path, diagnostics, classes in reports
            ],
            "total_diagnostics": sum(
                len(diagnostics) for __, diagnostics, __ in reports
            ),
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        for path, diagnostics, classes in reports:
            for diagnostic in diagnostics:
                print(diagnostic.render(path))
            if classes:
                regular = sum(
                    1 for value in classes.values()
                    if value == "proved-regular"
                )
                print(
                    f"{path}: {len(diagnostics)} diagnostic(s), "
                    f"{regular}/{len(classes)} instructions proved regular"
                )
            else:
                print(f"{path}: {len(diagnostics)} diagnostic(s)")
    return 1 if had_diagnostics else 0


def _add_telemetry_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--telemetry",
        choices=MODES,
        help="self-profile the pipeline and print spans/metrics in the "
        "chosen format",
    )
    subparser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write the telemetry output to PATH instead of stdout",
    )
    subparser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="trace the run (TRACELINK) and write its structured "
        "events as JSONL to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Object-relative memory profiling front-end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="profile a registered workload")
    run.add_argument("workload", help="workload name (see `list`)")
    run.add_argument("--profiler", choices=("whomp", "leap", "both"), default="both")
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--allocator", default="first-fit")
    run.add_argument("-o", "--out", default=".", help="output directory")
    run.add_argument(
        "--degraded",
        action="store_true",
        help="quarantine untrustworthy tuples instead of failing; "
        "profiles report capture completeness",
    )
    run.add_argument(
        "--format", choices=SERIALIZATIONS, default="json", dest="fmt",
        help="profile file encoding: json (readable) or binary (compact "
        "BINCAP, *.whomp.bin / *.leap.bin)",
    )
    _add_telemetry_arguments(run)

    lang = sub.add_parser("lang", help="profile a mini-IR source file")
    lang.add_argument("source", help="path to the .mir source")
    lang.add_argument("--profiler", choices=("whomp", "leap", "both"), default="both")
    lang.add_argument("-o", "--out", default=".", help="output directory")
    lang.add_argument(
        "--degraded",
        action="store_true",
        help="quarantine untrustworthy tuples instead of failing; "
        "profiles report capture completeness",
    )
    lang.add_argument(
        "--format", choices=SERIALIZATIONS, default="json", dest="fmt",
        help="profile file encoding: json (readable) or binary (compact "
        "BINCAP, *.whomp.bin / *.leap.bin)",
    )
    _add_telemetry_arguments(lang)

    check = sub.add_parser(
        "check", help="statically analyze mini-IR sources (MIRCHECK)"
    )
    check.add_argument(
        "sources", nargs="+", help="paths to .mir sources to analyze"
    )
    check.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout",
    )
    check.add_argument(
        "--sarif", action="store_true",
        help="SARIF 2.1.0 report on stdout (same reporter as repro-lint)",
    )
    check.add_argument(
        "--no-static", action="store_true",
        help="skip static LMAD classification (lint only)",
    )

    diff = sub.add_parser(
        "diff", help="structurally diff two saved profiles"
    )
    diff.add_argument("a", help="baseline profile file")
    diff.add_argument("b", help="candidate profile file")
    diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable diff (with regression verdicts) on stdout",
    )

    stats = sub.add_parser("stats", help="print trace statistics")
    stats.add_argument("workload", help="workload name (see `list`)")
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--allocator", default="first-fit")
    stats.add_argument(
        "--no-reuse", action="store_true", help="skip the reuse-distance pass"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the statistics as JSON instead of text",
    )
    _add_telemetry_arguments(stats)

    sub.add_parser("list", help="list registered workloads")

    dump = sub.add_parser("dump", help="inspect a saved profile file")
    dump.add_argument(
        "path", help="a saved profile file (JSON or BINCAP binary)"
    )
    dump.add_argument(
        "--limit", type=int, default=20, help="max rows to print per section"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in all_names():
            workload = create(name, scale=0.01)
            print(f"{name:<14} {workload.description}")
        return 0

    telemetry_mode = getattr(args, "telemetry", None)
    trace_out = getattr(args, "trace_out", None)
    telemetry = Telemetry()
    obs_state = None
    if trace_out:
        from repro.obs.trace import start_tracing

        obs_state = start_tracing(telemetry, trace_out=trace_out)

    def finish_trace() -> None:
        if obs_state is None:
            return
        from repro.obs.trace import finish_tracing

        context, events = obs_state
        finish_tracing(
            telemetry, context, events,
            meta={"command": f"repro-profile {args.command}"},
        )
        print(f"trace {context.trace_id}")

    if args.command == "run":
        try:
            trace = _collect_workload_trace(
                args.workload, args.scale, args.seed, args.allocator,
                telemetry=telemetry,
            )
        except KeyError as exc:
            parser.error(str(exc))
        print(f"trace: {trace.access_count} accesses")
        _write_profiles(
            trace, args.profiler, args.out, args.workload, telemetry=telemetry,
            degraded=args.degraded, fmt=args.fmt,
        )
        finish_trace()
        emit(telemetry, telemetry_mode, args.telemetry_out)
        return 0

    if args.command == "diff":
        return _run_diff(args.a, args.b, args.as_json, parser)

    if args.command == "check":
        for path in args.sources:
            if not os.path.exists(path):
                parser.error(f"no such file: {path}")
        return _run_check(
            args.sources, args.as_json, not args.no_static, args.sarif
        )

    if args.command == "lang":
        if not os.path.exists(args.source):
            parser.error(f"no such file: {args.source}")
        from repro.lang import LangError

        try:
            trace = _collect_lang_trace(args.source, telemetry=telemetry)
        except LangError as exc:
            print(
                f"{args.source}:{exc.line}:{exc.column}: {exc.message}",
                file=sys.stderr,
            )
            return 2
        print(f"trace: {trace.access_count} accesses")
        stem = os.path.splitext(os.path.basename(args.source))[0]
        _write_profiles(
            trace, args.profiler, args.out, stem, telemetry=telemetry,
            degraded=args.degraded, fmt=args.fmt,
        )
        finish_trace()
        emit(telemetry, telemetry_mode, args.telemetry_out)
        return 0

    if args.command == "dump":
        return _dump_profile(args.path, args.limit, parser)

    if args.command == "stats":
        try:
            trace = _collect_workload_trace(
                args.workload, args.scale, args.seed, args.allocator,
                telemetry=telemetry,
            )
        except KeyError as exc:
            parser.error(str(exc))
        with telemetry.span("characterization") as span:
            statistics = characterize(trace, with_reuse=not args.no_reuse)
            span.add_items(statistics.accesses, "accesses")
        if args.json:
            import json as json_module

            payload = asdict(statistics)
            payload["load_fraction"] = statistics.load_fraction
            print(json_module.dumps(payload, indent=2))
        else:
            print(format_statistics(statistics))
        finish_trace()
        emit(telemetry, telemetry_mode, args.telemetry_out)
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
