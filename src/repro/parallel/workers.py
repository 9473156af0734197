"""Top-level worker functions for the whole-job fan-outs: one workload
per store-ingest task, one experiment per runner task.

The executor forks one process per task, so the function and its task
reach the worker as a copy-on-write snapshot; only the result crosses
back, pickled, over the worker's pipe.  Workers stay module-level
functions all the same (no closures), and each is a pure function of
its task tuple so parallel output is deterministic and mergeable.

The module is marked ``# repro: workers`` so REPROLINT holds every
function here to the fork-safety rules (RL121-RL125): no captured
locks, files, or sockets; no module-global mutation; no leaked trace
activations.
"""

# repro: workers

from __future__ import annotations


def workload_documents(task):
    """Store-ingest worker: trace one workload and serialize its
    profiles.

    Task: ``(name, scale, seed, profiler)`` or ``(name, scale, seed,
    profiler, fmt)`` with ``profiler`` one of ``whomp`` / ``leap`` /
    ``both`` and ``fmt`` a :data:`repro.core.profile_io.SERIALIZATIONS`
    name (default ``"json"``).  Returns ``(name, [(kind, payload),
    ...], meta)`` where each ``payload`` is the serialized profile
    document bytes (see :func:`repro.core.profile_io.dumps_bytes`)
    ready for ``ProfileStore.ingest_bytes`` in the parent, and ``meta``
    carries the run configuration for the manifest.  Documents cross
    back serialized rather than as profile objects: they are
    smaller, and the parent needs the exact bytes anyway for content
    addressing.

    When an ambient :class:`~repro.obs.context.TraceContext` is active
    (the executor re-activates the submitter's, see
    :func:`repro.parallel.executor._worker`), the workload runs
    under a traced :class:`~repro.obs.spans.Telemetry` and
    ``meta["span"]`` carries the worker's span tree -- stamped with the
    shared trace id -- back to the parent for ``absorb_plain``.
    """
    import time

    from repro.core.profile_io import dumps_bytes
    from repro.obs.context import current
    from repro.obs.spans import Telemetry
    from repro.profilers.leap import LeapProfiler
    from repro.profilers.whomp import WhompProfiler
    from repro.workloads.registry import create

    name, scale, seed, profiler = task[:4]
    fmt = task[4] if len(task) > 4 else "json"
    context = current()
    telemetry = Telemetry()
    if context is not None:
        telemetry.trace_id = context.trace_id
    start = time.perf_counter()
    with telemetry.span(f"worker:{name}") as span:
        with telemetry.span("trace-collection") as stage:
            trace = create(name, scale=scale, seed=seed).trace()
            stage.add_items(trace.access_count, "accesses")
        documents = []
        if profiler in ("whomp", "both"):
            with telemetry.span("whomp"):
                documents.append(
                    ("whomp", dumps_bytes(WhompProfiler().profile(trace), fmt))
                )
        if profiler in ("leap", "both"):
            with telemetry.span("leap"):
                documents.append(
                    ("leap", dumps_bytes(LeapProfiler().profile(trace), fmt))
                )
    meta = {
        "scale": scale,
        "seed": seed,
        "accesses": trace.access_count,
        "profiling_seconds": time.perf_counter() - start,
    }
    if context is not None:
        meta["span"] = span.to_plain()
    return name, documents, meta


def run_experiment(task):
    """Experiment-runner worker: run one whole experiment in-process.

    Task: ``(name, scale, seed, measure_speed, fault_spec,
    ledger_dir)`` where ``fault_spec`` is an
    ``--inject-faults`` clause string (or ``None``) applied to this
    worker's own context, and ``ledger_dir`` the shared at-most-once
    ledger for kill faults.

    Returns ``(name, status, results, elapsed_seconds, span_data,
    error)``: ``status`` is ``"ok"``, ``"degraded"`` (faults actually
    landed in the data) or ``"failed"`` (the experiment raised --
    contained here, as data, so one failed experiment cannot void a
    sweep); ``error`` is the failure text or ``None``; ``span_data`` is
    the worker's span tree as plain data (see
    :meth:`repro.obs.spans.Span.to_plain`).
    """
    import time
    import traceback

    from repro.experiments.context import SuiteContext
    from repro.experiments.runner import EXPERIMENTS
    from repro.obs.context import current
    from repro.obs.spans import Telemetry

    name, scale, seed, measure_speed, fault_spec, ledger_dir = task
    injector = None
    if fault_spec:
        from repro.resilience import FaultInjector, parse_fault_spec

        injector = FaultInjector(parse_fault_spec(fault_spec), ledger_dir)
    telemetry = Telemetry()
    ambient = current()
    if ambient is not None:
        telemetry.trace_id = ambient.trace_id
    context = SuiteContext(
        scale=scale,
        seed=seed,
        telemetry=telemetry,
        fault_injector=injector,
    )
    run, __ = EXPERIMENTS[name]
    results = None
    error = None
    start = time.perf_counter()
    with telemetry.span(name) as span:
        try:
            if name == "table1":
                results = run(context, measure_speed=measure_speed)
            else:
                results = run(context)
            status = "degraded" if context.fault_activity() else "ok"
        except Exception as exc:  # noqa: BLE001 - contain, report
            status = "failed"
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    elapsed = time.perf_counter() - start
    return name, status, results, elapsed, span.to_plain(), error
