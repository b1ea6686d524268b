"""``repro.obs`` — the end-to-end tracing & metrics layer (ISSUE 1).

A simulation-time-aware observability subsystem threaded through the
whole stack:

* the **instrument kernel** — counters, gauges, histograms, sim-time
  spans, the decision log, time-series sampling and tenant attribution —
  lives in the bottom-layer :mod:`repro.telemetry` package (DESIGN.md
  §12) and is re-exported here;
* :mod:`repro.obs.spans` — the request-span taxonomy and per-phase
  latency breakdown queries;
* :mod:`repro.obs.slo` — per-workload SLO targets with windowed
  burn-rate evaluation and structured violations (ISSUE 2);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, flat metrics
  dumps, Prometheus text exposition, CSV series dumps and the per-run
  summary table;
* :mod:`repro.obs.report` — the self-contained static HTML run report
  (sparklines, attribution table, SLO summary, run-comparison card);
* :mod:`repro.obs.analysis` — offline analysis (ISSUE 4): the
  critical-path profiler (per-request blame vectors, per-phase/GPU/tenant
  aggregates, top-k slowest digest, reconciliation against engine
  accounting), run diffing between exported metrics documents, and the
  tolerance-spec grammar shared with ``benchmarks/perf_gate.py``;
* :mod:`repro.obs.stream` — streaming mode (ISSUE 6): the bounded-memory
  span shard store (JSONL shards + watermark batches), whose batches the
  critical-path profiler reads in one pass, and the offline profile of a
  shard directory;
* :mod:`repro.obs.console` — the live run console and heartbeat JSONL
  stream driven by the sampler tick (ISSUE 6);
* wall-clock self-profiling — the off-thread stack sampler
  (:class:`~repro.telemetry.profiler.SamplingProfiler`), which bills
  each sample to the layer of its innermost ``repro`` frame; it lives
  in the bottom-layer :mod:`repro.telemetry` package and is re-exported
  here.

The **default registry** is a process-wide slot consulted by
:class:`~repro.sim.core.Environment` when no registry is passed
explicitly: :func:`install` a real :class:`Telemetry` and every
simulation constructed afterwards — any figure harness included — is
traced; :func:`reset` restores the null registry.
"""

from repro.obs.analysis import (
    RequestBlame,
    RunProfile,
    analyze,
    check_tolerances,
    diff_runs,
    parse_tolerance_spec,
    profile_dict,
    profile_requests,
    render_analysis,
    render_diff,
    top_slowest,
)
from repro.obs.console import LiveConsole
from repro.obs.stream import (
    SpanShardStore,
    attach_store,
    iter_disk_batches,
    profile_shard_dir,
)
from repro.telemetry.profiler import DEFAULT_HZ, SamplingProfiler
from repro.obs.export import (
    metrics_dict,
    series_csv,
    summary_table,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_metrics,
    write_prometheus,
    write_series_csv,
)
from repro.obs.report import html_report, write_html_report
from repro.obs.slo import SloMonitor, SloTarget, SloViolation, parse_slo_spec
from repro.telemetry import (
    NULL_ATTRIBUTION,
    NULL_SERIES,
    NULL_TELEMETRY,
    AttributionTable,
    Counter,
    DecisionLog,
    Gauge,
    Histogram,
    LogEvent,
    NullAttributionTable,
    NullDecisionLog,
    NullTelemetry,
    PlacementDecision,
    PolicySwitch,
    Sampler,
    SamplingTelemetry,
    Series,
    Span,
    Stopwatch,
    Telemetry,
    TenantUsage,
    current,
    install,
    merged_quantile,
    reset,
)


__all__ = [
    "AttributionTable",
    "Counter",
    "DEFAULT_HZ",
    "DecisionLog",
    "Gauge",
    "Histogram",
    "LiveConsole",
    "LogEvent",
    "NULL_ATTRIBUTION",
    "NULL_SERIES",
    "NULL_TELEMETRY",
    "NullAttributionTable",
    "NullDecisionLog",
    "NullTelemetry",
    "SamplingTelemetry",
    "PlacementDecision",
    "PolicySwitch",
    "RequestBlame",
    "RunProfile",
    "Sampler",
    "SamplingProfiler",
    "Series",
    "SloMonitor",
    "SloTarget",
    "SloViolation",
    "Span",
    "SpanShardStore",
    "Stopwatch",
    "Telemetry",
    "TenantUsage",
    "analyze",
    "attach_store",
    "check_tolerances",
    "current",
    "diff_runs",
    "html_report",
    "install",
    "iter_disk_batches",
    "merged_quantile",
    "metrics_dict",
    "parse_slo_spec",
    "parse_tolerance_spec",
    "profile_dict",
    "profile_requests",
    "profile_shard_dir",
    "render_analysis",
    "render_diff",
    "reset",
    "series_csv",
    "summary_table",
    "top_slowest",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_html_report",
    "write_metrics",
    "write_prometheus",
    "write_series_csv",
]
