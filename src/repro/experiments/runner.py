"""Experiment runner CLI.

Regenerates every figure and table of the paper's evaluation::

    repro-experiments --all
    repro-experiments fig5 fig8 --scale 0.5
    python -m repro.experiments.runner table1

Results print as paper-style text tables and histograms; ``--json``
writes the structured results (plus per-experiment elapsed seconds and
a ``status`` of ``ok`` / ``retried`` / ``degraded`` / ``failed``) to a
file as well -- a partially failed sweep still produces valid JSON
instead of dying on the first failure.  The suite always records its
own self-profile, one span per experiment, and ``--telemetry
[report|json|prom]`` prints it; ``--heartbeat SECS`` emits a progress
line to stderr while a long experiment runs, and ``--jobs N`` fans
whole experiments out to worker processes (results identical to the
serial run).

Resilience switches: ``--checkpoint-dir DIR`` persists each completed
experiment atomically and resumes an interrupted sweep from where it
stopped; ``--inject-faults SPEC`` runs the whole sweep under the fault
harness (see :mod:`repro.resilience.faults` for the clause grammar).
An interrupted run -- real Ctrl-C or an injected ``abort-after=N`` --
exits with code 130, the checkpoints already on disk.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.experiments import (
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    staticvs,
    storereg,
    table1,
)
from repro.experiments.context import SuiteContext
from repro.obs.export import MODES, emit
from repro.obs.spans import Telemetry

EXPERIMENTS = {
    "fig3": (fig3.run, fig3.render),
    "fig5": (fig5.run, fig5.render),
    "fig6": (fig6.run, fig6.render),
    "fig7": (fig7.run, fig7.render),
    "fig8": (fig8.run, fig8.render),
    "fig9": (fig9.run, fig9.render),
    "table1": (table1.run, table1.render),
    "staticvs": (staticvs.run, staticvs.render),
    "storereg": (storereg.run, storereg.render),
}


def _jsonable(value: object) -> object:
    """Strip non-serializable objects (profiles, distributions) down to
    plain data for --json output."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        # json.dump would emit bare NaN/Infinity literals, which are not
        # JSON; null is the honest portable encoding.
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    fractions = getattr(value, "fractions", None)
    if callable(fractions):
        return {
            "fractions": _jsonable(fractions()),
            "total_pairs": _jsonable(getattr(value, "total_pairs", None)),
        }
    return repr(value)


class _Heartbeat:
    """Background progress line for long-running experiments.

    Prints ``[heartbeat] <name> running (12s)`` to stderr every
    ``interval`` seconds until the guarded block exits.  A zero or
    negative interval disables it entirely.
    """

    def __init__(self, name: str, interval: float) -> None:
        self._name = name
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_Heartbeat":
        if self._interval > 0:
            self._thread = threading.Thread(target=self._beat, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        return False

    def _beat(self) -> None:
        started = time.perf_counter()
        while not self._stop.wait(self._interval):
            elapsed = time.perf_counter() - started
            print(
                f"[heartbeat] {self._name} running ({elapsed:.0f}s)",
                file=sys.stderr,
                flush=True,
            )


class _SimulatedInterrupt(Exception):
    """An injected ``abort-after=N`` fired mid-sweep: stop exactly as a
    Ctrl-C would, with checkpoints for everything already completed."""


class _Sweep:
    """Book-keeping shared by the serial and parallel sweep paths:
    per-experiment status records, checkpoint persistence and restore,
    and the simulated-interrupt countdown.

    A record is ``{status, elapsed_seconds, results[, error]}`` with
    ``status`` one of ``ok`` (clean), ``retried`` (clean results, but
    the task needed resubmissions or a serial fallback), ``degraded``
    (faults landed in the data; results reflect a reduced capture) or
    ``failed`` (the experiment raised; ``error`` has the text).  The
    records dict is exactly what ``--json`` serializes.
    """

    def __init__(self, store, abort_after: Optional[int], telemetry) -> None:
        self.store = store
        self.abort_after = abort_after
        self.telemetry = telemetry
        self.records: Dict[str, Dict[str, object]] = {}
        self._newly_completed = 0

    def restore(self, name: str) -> bool:
        """Adopt ``name``'s checkpoint if one is loadable: record
        restored, saved span tree grafted back under the live root."""
        if self.store is None:
            return False
        saved = self.store.load(name)
        if saved is None:
            return False
        record: Dict[str, object] = {
            "status": saved.get("status", "ok"),
            "elapsed_seconds": saved.get("elapsed_seconds", 0.0),
            "results": saved.get("results"),
        }
        if saved.get("error"):
            record["error"] = saved["error"]
        self.records[name] = record
        span_data = saved.get("span")
        if span_data:
            self.telemetry.root.absorb_plain(span_data)
        return True

    def record(
        self,
        name: str,
        status: str,
        elapsed: float,
        results: object,
        error: Optional[str] = None,
        span_data=None,
    ) -> None:
        """Record one completed experiment (checkpointing it if a store
        is attached), then fire the simulated interrupt when the
        ``abort-after`` countdown hits zero."""
        record: Dict[str, object] = {
            "status": status,
            "elapsed_seconds": elapsed,
            "results": _jsonable(results) if results is not None else None,
        }
        if error:
            record["error"] = error
        self.records[name] = record
        if self.store is not None:
            payload = dict(record)
            if span_data is not None:
                payload["span"] = span_data
            self.store.save(name, payload)
        self._newly_completed += 1
        if (
            self.abort_after is not None
            and self._newly_completed >= self.abort_after
        ):
            raise _SimulatedInterrupt(name)

    @property
    def any_failed(self) -> bool:
        return any(
            record["status"] == "failed" for record in self.records.values()
        )


def _run_parallel(
    names: List[str],
    args: argparse.Namespace,
    telemetry,
    sweep: _Sweep,
    ledger_dir: Optional[str],
) -> None:
    """Fan whole experiments out to worker processes.

    Each worker builds its own :class:`SuiteContext` (traces are cheap
    relative to the experiments and cannot be shared across processes),
    runs one experiment, and reports its status, results, wall-clock,
    and span tree back; the parent grafts each worker's spans under its
    own root so ``--telemetry`` still shows one span per experiment.
    Results print in request order as they complete, and each is
    checkpointed the moment it exists -- an interrupt mid-sweep loses
    only the experiments still in flight.
    """
    from repro.parallel import ParallelExecutor
    from repro.parallel.workers import run_experiment

    injector = None
    if args.inject_faults:
        from repro.resilience import FaultInjector, parse_fault_spec

        injector = FaultInjector(parse_fault_spec(args.inject_faults), ledger_dir)
    executor = ParallelExecutor(
        jobs=args.jobs, telemetry=telemetry, fault_injector=injector
    )
    workers = executor.effective_jobs(len(names))
    print(
        f"running {len(names)} experiments in up to {workers} workers ...",
        flush=True,
    )
    tasks = [
        (
            name,
            args.scale,
            args.seed,
            not args.no_speed,
            args.inject_faults,
            ledger_dir,
        )
        for name in names
    ]

    def progress(index: int, outcome) -> None:
        name = names[index]
        if outcome.error is not None:
            # The worker function itself crashed (not the experiment's
            # own guarded failure path) -- still just one failed row.
            print(f"[{name} FAILED: {outcome.error}]\n")
            sweep.record(name, "failed", 0.0, None, error=str(outcome.error))
            return
        name, status, results, elapsed, span_data, error = outcome.value
        if status == "ok" and (outcome.attempts > 1 or outcome.fallback):
            status = "retried"
        telemetry.root.absorb_plain(span_data)
        if status == "failed":
            headline = (error or "unknown error").splitlines()[0]
            print(f"[{name} FAILED: {headline}]\n")
        else:
            __, render = EXPERIMENTS[name]
            print(render(results))
            print(f"[{name} completed in {elapsed:.1f}s, status {status}]\n")
        sweep.record(
            name, status, elapsed, results, error=error, span_data=span_data
        )

    with _Heartbeat("experiments", args.heartbeat):
        executor.map_outcomes(
            run_experiment, tasks, label="experiments", progress=progress
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which experiments to run: {', '.join(EXPERIMENTS)}, all "
        "(default: all)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (default 1.0 = paper-shape calibration)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--no-speed",
        action="store_true",
        help="skip the wall-clock dilation measurement in table1",
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    parser.add_argument(
        "--telemetry",
        choices=MODES,
        help="self-profile the suite (one span per experiment) and print "
        "spans/metrics in the chosen format",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write the telemetry output to PATH instead of stdout",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="trace the sweep (TRACELINK) and write its structured "
        "events as JSONL to PATH",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SECS",
        help="print a progress line to stderr every SECS seconds while an "
        "experiment runs (0 disables)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N whole experiments concurrently in worker "
        "processes (0 = all CPUs; 1 = serial; falls back to serial "
        "when the platform lacks fork)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="run the sweep under the fault harness; SPEC is a "
        "';'-joined clause list, e.g. "
        "'seed=7;corrupt-events=0.01;kill-task=2;timeout=30'",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist each completed experiment atomically under DIR "
        "and resume an interrupted sweep from what is already there",
    )
    args = parser.parse_args(argv)

    names = list(args.experiments)
    unknown = [n for n in names if n not in EXPERIMENTS and n != "all"]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)} or all"
        )
    if args.all or "all" in names or not names:
        names = list(EXPERIMENTS)

    plan = None
    if args.inject_faults:
        from repro.resilience import parse_fault_spec

        try:
            plan = parse_fault_spec(args.inject_faults)
        except ValueError as exc:
            parser.error(str(exc))

    store = None
    ledger_dir = None
    if args.checkpoint_dir:
        from repro.resilience import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
        # Kill-fault at-most-once state shares the checkpoint directory
        # so a resumed drill remembers which faults already fired.
        ledger_dir = os.path.join(args.checkpoint_dir, "fault-ledger")

    telemetry = Telemetry()
    obs_state = None
    if args.trace_out:
        from repro.obs.trace import start_tracing

        obs_state = start_tracing(telemetry, trace_out=args.trace_out)
    sweep = _Sweep(
        store, plan.abort_after if plan is not None else None, telemetry
    )
    pending: List[str] = []
    for name in names:
        if sweep.restore(name):
            print(
                f"[resume] {name} restored from checkpoint "
                f"(status {sweep.records[name]['status']})",
                flush=True,
            )
        else:
            pending.append(name)

    from repro.parallel import resolve_jobs

    interrupted = False
    try:
        if resolve_jobs(args.jobs) > 1 and len(pending) > 1:
            _run_parallel(pending, args, telemetry, sweep, ledger_dir)
        else:
            _run_serial(pending, args, telemetry, sweep, plan, ledger_dir)
    except (_SimulatedInterrupt, KeyboardInterrupt) as exc:
        interrupted = True
        cause = (
            f"abort-after fired at {exc}"
            if isinstance(exc, _SimulatedInterrupt)
            else "keyboard interrupt"
        )
        print(
            f"[sweep interrupted ({cause}); "
            f"{len(sweep.records)} checkpointed result(s) preserved]",
            file=sys.stderr,
            flush=True,
        )

    if args.json:
        from repro.core.fsutil import atomic_write_text

        atomic_write_text(args.json, json.dumps(sweep.records, indent=2))
        print(f"JSON results written to {args.json}")
    if obs_state is not None:
        from repro.obs.trace import finish_tracing

        context, events = obs_state
        finish_tracing(
            telemetry, context, events,
            meta={"command": "repro-experiments", "experiments": names},
        )
        print(f"trace {context.trace_id}")
    emit(telemetry, args.telemetry, args.telemetry_out)
    if interrupted:
        return 130
    return 1 if sweep.any_failed else 0


def _run_serial(
    names: List[str],
    args: argparse.Namespace,
    telemetry,
    sweep: _Sweep,
    plan,
    ledger_dir: Optional[str],
) -> None:
    """The in-process sweep: one shared :class:`SuiteContext`, each
    experiment guarded so a failure becomes a ``failed`` record instead
    of aborting the remainder."""
    import traceback

    injector = None
    if plan is not None:
        from repro.resilience import FaultInjector

        injector = FaultInjector(plan, ledger_dir)
    context = SuiteContext(
        scale=args.scale,
        seed=args.seed,
        telemetry=telemetry,
        fault_injector=injector,
    )
    for index, name in enumerate(names, start=1):
        run, render = EXPERIMENTS[name]
        print(f"[{index}/{len(names)}] running {name} ...", flush=True)
        start = time.perf_counter()
        results = None
        error = None
        with _Heartbeat(name, args.heartbeat), telemetry.span(name) as span:
            try:
                if name == "table1":
                    results = run(context, measure_speed=not args.no_speed)
                else:
                    results = run(context)
                status = "degraded" if context.fault_activity() else "ok"
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - contain, report
                status = "failed"
                error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        if status == "failed":
            assert error is not None
            print(f"[{name} FAILED: {error.splitlines()[0]}]\n")
        else:
            print(render(results))
            print(f"[{name} completed in {elapsed:.1f}s, status {status}]\n")
        sweep.record(
            name,
            status,
            elapsed,
            results,
            error=error,
            span_data=span.to_plain(),
        )


if __name__ == "__main__":
    sys.exit(main())
