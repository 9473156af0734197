"""Observability: spans, metrics, trace ids, events, and SLOs.

The paper's Table 1 measures the profilers themselves -- dilation
factors, profile sizes, capture rates.  This package is the repo's own
measurement substrate, one model for a CLI run, a daemon request, and
a cluster request that crosses processes:

* :mod:`repro.obs.spans` -- :class:`~repro.obs.spans.Telemetry`, the
  facade threaded through the pipeline: a nestable span tree timing
  each stage plus a metric :class:`~repro.obs.registry.Registry`.
  Every instrumented component records into the one it is given or
  makes its own; counts are published once per stage boundary, never
  per event;
* :mod:`repro.obs.registry` -- counters, gauges, and distributions,
  the last being :class:`~repro.obs.quantiles.QuantileDigest`, the
  same mergeable p50/p95/p99 estimator behind the daemons'
  ``/metricsz`` and the SLO checker;
* :mod:`repro.obs.export` -- the report / JSON / Prometheus exporters
  behind ``--telemetry`` and the one span-tree renderer;
* :mod:`repro.obs.context` -- the 128-bit trace id, propagated into
  forked workers by the executor and across HTTP by the
  ``X-Repro-Trace`` header;
* :mod:`repro.obs.events` -- a bounded ring plus an optional
  crash-safe JSONL sink, one schema-versioned record per stage exit,
  worker retry, fault, quarantine, and daemon request;
* :mod:`repro.obs.trace` -- ``start_tracing`` / ``finish_tracing`` and
  the durable trace document stored in the profile store and rendered
  by the ``repro-obs`` CLI (:mod:`repro.obs.cli`; SLOs in
  :mod:`repro.obs.slo`).

This ``__init__`` imports no submodule, so the profilers, which need
only spans and metrics, never load the trace, event, or SLO layers.
"""
