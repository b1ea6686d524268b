"""``repro.telemetry`` — the instrument kernel at the bottom of the stack.

This package is the *lowest* layer of the codebase (see DESIGN.md §12 and
``tools/check_layering.py``): stdlib-only data structures that every other
layer may import without creating upward dependencies.  It holds

* :mod:`repro.telemetry.instruments` — counters, gauges, mergeable
  relative-error histograms, sim-time spans and the per-run
  :class:`Telemetry` registry (with the no-op :data:`NULL_TELEMETRY`
  default);
* :mod:`repro.telemetry.categories` — the span-category taxonomy shared
  by the session pipeline and the critical-path profiler;
* :mod:`repro.telemetry.decisions` — the structured scheduler decision
  log;
* :mod:`repro.telemetry.attribution` — per-(tenant, GPU) usage
  accounting;
* :mod:`repro.telemetry.timeseries` — ring-buffered series + the
  sim-time :class:`Sampler`;
* :mod:`repro.telemetry.profiler` — the background stack sampler, the
  simulator's self-profiler, billed by layer;
* :mod:`repro.telemetry.perf` — nesting-aware zone timing for the
  external layer tracer in ``perfbench/``.

The high-level observability package :mod:`repro.obs` (exporters,
reports, SLOs, the critical-path profiler) builds *on top of* this kernel
and re-exports its public names, so user-facing code keeps importing
``repro.obs``.

The **default registry** lives here as a process-wide slot consulted by
:class:`~repro.sim.core.Environment` when no registry is passed
explicitly; :func:`repro.obs.install` and :func:`repro.obs.reset`
delegate to :func:`install` / :func:`reset` below.
"""

from repro.telemetry.attribution import (
    NULL_ATTRIBUTION,
    AttributionTable,
    NullAttributionTable,
    TenantUsage,
)
from repro.telemetry.categories import (
    CAT_BIND,
    CAT_CPU,
    CAT_DEFAULT,
    CAT_GATE,
    CAT_KERNEL,
    CAT_COPY,
    CAT_QUEUE,
    CAT_REQUEST,
    CAT_STAGING,
    PHASE_CATEGORY,
    REQUEST_PHASES,
)
from repro.telemetry.decisions import (
    DecisionLog,
    LogEvent,
    NullDecisionLog,
    PlacementDecision,
    PolicySwitch,
)
from repro.telemetry.instruments import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    SamplingTelemetry,
    Span,
    Stopwatch,
    Telemetry,
    format_series_name,
    merged_quantile,
)
from repro.telemetry.profiler import DEFAULT_HZ, SamplingProfiler
from repro.telemetry.timeseries import NULL_SERIES, Sampler, Series

_default: Telemetry = NULL_TELEMETRY


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the process-wide default registry."""
    global _default
    _default = telemetry
    return telemetry


def current() -> Telemetry:
    """The installed default registry (the null registry unless installed)."""
    return _default


def reset() -> None:
    """Restore the null default registry."""
    install(NULL_TELEMETRY)


__all__ = [
    "AttributionTable",
    "CAT_BIND",
    "CAT_CPU",
    "CAT_DEFAULT",
    "CAT_GATE",
    "CAT_KERNEL",
    "CAT_COPY",
    "CAT_QUEUE",
    "CAT_REQUEST",
    "CAT_STAGING",
    "Counter",
    "DEFAULT_HZ",
    "DecisionLog",
    "Gauge",
    "Histogram",
    "LogEvent",
    "NULL_ATTRIBUTION",
    "NULL_SERIES",
    "NULL_TELEMETRY",
    "NullAttributionTable",
    "NullDecisionLog",
    "NullTelemetry",
    "PHASE_CATEGORY",
    "PlacementDecision",
    "PolicySwitch",
    "REQUEST_PHASES",
    "Sampler",
    "SamplingProfiler",
    "SamplingTelemetry",
    "Series",
    "Span",
    "Stopwatch",
    "Telemetry",
    "TenantUsage",
    "current",
    "format_series_name",
    "install",
    "merged_quantile",
    "reset",
]
