"""Exporters: Chrome trace_event JSON, metrics dumps, text expositions.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (the JSON array flavour wrapped in an object),
  loadable in Perfetto or ``chrome://tracing``.  Each experiment run
  becomes one *process* (pid) and each span track (one per GPU engine +
  one per app) becomes a named *thread* (tid); scheduler decisions and
  SLO violations are instant events on a dedicated ``scheduler`` track.
* :func:`metrics_dict` / :func:`write_metrics` — every counter, gauge and
  histogram as one flat JSON document.
* :func:`to_prometheus` / :func:`write_prometheus` — Prometheus text
  exposition (``# TYPE`` lines, cumulative ``_bucket{le=...}``) of the
  same instruments, for scrape-style tooling (ISSUE 2).
* :func:`series_csv` / :func:`write_series_csv` — long-format CSV dump of
  every sampled time series (ISSUE 2).
* :func:`summary_table` — the human-readable per-run digest the harness
  prints after an instrumented run.

Timestamps: trace_event ``ts`` is in microseconds; simulated seconds are
scaled by 1e6, so one trace-viewer second equals one simulated second.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.analysis import analyze
from repro.telemetry.instruments import Counter, Gauge, Histogram, Telemetry
from repro.obs.spans import CAT_REQUEST, mean_phase_latency, phase_breakdown, request_spans

_US = 1e6  # simulated seconds -> trace microseconds

#: Track used for scheduler decision instant events.
SCHEDULER_TRACK = "scheduler"


class _TrackIds:
    """Stable pid/tid assignment: pid per run, tid per track within it."""

    def __init__(self) -> None:
        self._pids: Dict[Tuple[int, str], int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.meta: List[dict] = []

    def pid(self, run_id: int, run_label: str) -> int:
        key = (run_id, run_label)
        pid = self._pids.get(key)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[key] = pid
            name = run_label or "run"
            self.meta.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"{name} [run {run_id}]"},
                }
            )
        return pid

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for (p, _t) in self._tids if p == pid) + 1
            self._tids[key] = tid
            self.meta.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid


def to_chrome_trace(telemetry: Telemetry) -> Dict[str, Any]:
    """Render the registry's spans + decisions as a trace_event document."""
    ids = _TrackIds()
    events: List[dict] = []

    for s in telemetry.spans:
        if not s.finished:
            continue
        pid = ids.pid(s.run_id, s.run_label)
        tid = ids.tid(pid, s.track or "main")
        ev = {
            "name": s.name,
            "cat": s.cat or "span",
            "ph": "X",
            "ts": round(s.start * _US, 3),
            "dur": round(s.duration * _US, 3),
            "pid": pid,
            "tid": tid,
        }
        if s.args:
            ev["args"] = s.args
        events.append(ev)

    for p in telemetry.decisions.placements:
        pid = ids.pid(p.run_id, p.run_label)
        tid = ids.tid(pid, SCHEDULER_TRACK)
        events.append(
            {
                "name": f"place {p.app_name} -> GPU{p.chosen_gid}",
                "cat": "decision",
                "ph": "i",
                "s": "t",
                "ts": round(p.t * _US, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "policy": p.policy,
                    "chosen_gid": p.chosen_gid,
                    "frontend_host": p.frontend_host,
                    "scores": {str(g): v for g, v in p.scores.items()},
                    "est_runtime_s": p.est_runtime_s,
                    "sft_known": p.sft_known,
                },
            }
        )

    for sw in telemetry.decisions.switches:
        pid = ids.pid(sw.run_id, sw.run_label)
        tid = ids.tid(pid, SCHEDULER_TRACK)
        events.append(
            {
                "name": f"policy switch {sw.from_policy} -> {sw.to_policy}",
                "cat": "decision",
                "ph": "i",
                "s": "p",
                "ts": round(sw.t * _US, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "profiles_seen": sw.profiles_seen,
                    "distinct_apps": sw.distinct_apps,
                },
            }
        )

    for ev in telemetry.decisions.events:
        pid = ids.pid(ev.run_id, ev.run_label)
        tid = ids.tid(pid, SCHEDULER_TRACK)
        events.append(
            {
                "name": ev.name,
                "cat": ev.kind,
                "ph": "i",
                "s": "t",
                "ts": round(ev.t * _US, 3),
                "pid": pid,
                "tid": tid,
                "args": dict(ev.args),
            }
        )

    # Byte-deterministic output (ISSUE 4): metadata ordered by (pid, tid)
    # and events by (ts, pid, tid, name) — the sort is stable, so equal
    # keys keep their (deterministic) recording order.  Two identical
    # runs therefore export byte-identical documents, which run diffing
    # and the perf gate rely on.
    ids.meta.sort(key=lambda m: (m["pid"], m["tid"]))
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return {"traceEvents": ids.meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write the Chrome trace JSON to ``path`` (byte-deterministic)."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(telemetry), fh, sort_keys=True)


def metrics_dict(telemetry: Telemetry) -> Dict[str, Any]:
    """Every instrument as one flat JSON-serialisable document.

    Instruments sharing a series name (e.g. adopted per-gate counters
    from successive runs) are merged: counters sum, gauges keep the last
    value and the global extremes.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}

    for inst in telemetry.instruments():
        key = inst.series
        if isinstance(inst, Histogram):
            h = histograms.get(key)
            if h is None:
                histograms[key] = h = {
                    "count": 0, "sum": 0.0, "min": None, "max": None,
                    "p50": inst.quantile(0.5), "p99": inst.quantile(0.99),
                    "buckets": [],
                }
            h["count"] += inst.count
            h["sum"] += inst.sum
            if inst.count:
                h["min"] = inst.min if h["min"] is None else min(h["min"], inst.min)
                h["max"] = inst.max if h["max"] is None else max(h["max"], inst.max)
            h["buckets"] = [[b, n] for b, n in inst.bucket_bounds()]
            h["mean"] = h["sum"] / h["count"] if h["count"] else 0.0
        elif isinstance(inst, Gauge):
            g = gauges.get(key)
            if g is None:
                gauges[key] = {
                    "value": inst.value, "max": inst.max_value, "min": inst.min_value,
                }
            else:
                g["value"] = inst.value
                g["max"] = max(g["max"], inst.max_value)
                g["min"] = min(g["min"], inst.min_value)
        elif isinstance(inst, Counter):
            counters[key] = counters.get(key, 0) + inst.value

    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "decisions": {
            "placements": len(telemetry.decisions.placements),
            "switches": len(telemetry.decisions.switches),
            "events": len(telemetry.decisions.events),
            "policy_mix": telemetry.decisions.policy_mix(),
        },
        "spans": len(telemetry.spans),
        # Per-series retained/dropped sample counts (ISSUE 6 satellite):
        # ring wrap-around silently sheds history, so the export records
        # how much was lost instead of pretending the tail is the run.
        "series": {
            s.series: {"points": len(s), "dropped": s.dropped}
            for s in telemetry.series.values()
        },
        "series_dropped_samples": sum(
            s.dropped for s in telemetry.series.values()
        ),
        "attribution": [
            {
                "tenant": u.tenant,
                "gid": u.gid,
                "gpu_busy_s": u.gpu_busy_s,
                "transfer_s": u.transfer_s,
                "bytes_moved_gb": u.bytes_moved_gb,
                "queue_wait_s": u.queue_wait_s,
                "gate_park_s": u.gate_park_s,
                "requests": u.requests,
                "interference_index": u.interference_index,
            }
            for u in telemetry.attribution.rows()
        ],
        "slo": telemetry.slo.summary() if telemetry.slo is not None else [],
        "runs": telemetry.run_id,
        # Sampled CPU share per layer, present only when the run was
        # self-profiled; values are host-speed-dependent and advisory.
        "cpu_layers": (
            telemetry.profiler.layer_shares()
            if getattr(telemetry, "profiler", None) is not None
            else None
        ),
        # Critical-path blame vectors (ISSUE 4), so an exported metrics
        # JSON is a self-contained input to `repro.harness analyze/diff`.
        "analysis": analyze(telemetry),
    }


def write_metrics(telemetry: Telemetry, path: str) -> None:
    """Write the flat metrics dump to ``path``."""
    with open(path, "w") as fh:
        json.dump(metrics_dict(telemetry), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Prometheus text exposition (ISSUE 2)
# ---------------------------------------------------------------------------


def _prom_name(name: str) -> str:
    """``request.completion_s`` -> ``repro_request_completion_s``."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def _prom_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{k}="{v}"'.replace("\\", "\\\\").replace("\n", "\\n")
        for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "+Inf" if v > 0 else "-Inf"
    return f"{v:.10g}"


def to_prometheus(telemetry: Telemetry) -> str:
    """Final instrument values in the Prometheus text exposition format.

    One ``# TYPE`` line per metric name; duplicate instruments sharing a
    full series key are merged the same way :func:`metrics_dict` merges
    them (counters sum, gauges keep last, histograms merge buckets).
    """
    counters: Dict[Tuple[str, tuple], float] = {}
    gauges: Dict[Tuple[str, tuple], float] = {}
    hists: Dict[Tuple[str, tuple], Dict[str, Any]] = {}

    for inst in telemetry.instruments():
        key = (inst.name, inst.labels)
        if isinstance(inst, Histogram):
            h = hists.setdefault(key, {"count": 0, "sum": 0.0, "buckets": {}})
            h["count"] += inst.count
            h["sum"] += inst.sum
            h["buckets"].setdefault(0.0, 0)
            h["buckets"][0.0] += inst.zeros
            for bound, n in inst.bucket_bounds():
                h["buckets"][bound] = h["buckets"].get(bound, 0) + n
        elif isinstance(inst, Gauge):
            gauges[key] = inst.value
        elif isinstance(inst, Counter):
            counters[key] = counters.get(key, 0) + inst.value

    lines: List[str] = []
    typed: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for (name, labels), value in sorted(counters.items()):
        pname = _prom_name(name) + "_total"
        type_line(pname, "counter")
        lines.append(f"{pname}{_prom_labels(labels)} {_fmt(value)}")

    for (name, labels), value in sorted(gauges.items()):
        pname = _prom_name(name)
        type_line(pname, "gauge")
        lines.append(f"{pname}{_prom_labels(labels)} {_fmt(value)}")

    for (name, labels), h in sorted(hists.items()):
        pname = _prom_name(name)
        type_line(pname, "histogram")
        cum = 0
        for bound in sorted(h["buckets"]):
            cum += h["buckets"][bound]
            le = 'le="' + _fmt(bound) + '"'
            lines.append(f"{pname}_bucket{_prom_labels(labels, le)} {cum}")
        inf = 'le="+Inf"'
        lines.append(f"{pname}_bucket{_prom_labels(labels, inf)} {h['count']}")
        lines.append(f"{pname}_sum{_prom_labels(labels)} {_fmt(h['sum'])}")
        lines.append(f"{pname}_count{_prom_labels(labels)} {h['count']}")

    # Sampled series appear as gauges at their last observed value, so a
    # scrape of a finished run still carries the end-state of the system;
    # dropped-sample counters expose ring wrap-around per series.
    dropped_lines: List[str] = []
    for skey in sorted(telemetry.series, key=lambda k: (k[0], k[1])):
        s = telemetry.series[skey]
        point = s.last()
        if point is None:
            continue
        pname = _prom_name(s.name)
        type_line(pname, "gauge")
        lines.append(f"{pname}{_prom_labels(s.labels)} {_fmt(point[1])}")
        if s.dropped:
            dropped_lines.append(
                "repro_series_dropped_samples_total"
                + _prom_labels(s.labels, f'series="{_prom_name(s.name)}"')
                + f" {s.dropped}"
            )
    if dropped_lines:
        type_line("repro_series_dropped_samples_total", "counter")
        lines.extend(dropped_lines)

    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(telemetry: Telemetry, path: str) -> None:
    """Write the Prometheus text exposition to ``path``."""
    with open(path, "w") as fh:
        fh.write(to_prometheus(telemetry))


# ---------------------------------------------------------------------------
# CSV series dump (ISSUE 2)
# ---------------------------------------------------------------------------


def series_csv(telemetry: Telemetry) -> str:
    """Every sampled time series in long format: ``name,labels,t,value``."""
    lines = ["name,labels,t,value"]
    for skey in sorted(telemetry.series, key=lambda k: (k[0], k[1])):
        s = telemetry.series[skey]
        labels = ";".join(f"{k}={v}" for k, v in s.labels)
        for t, v in s.points():
            lines.append(f"{s.name},{labels},{_fmt(t)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def write_series_csv(telemetry: Telemetry, path: str) -> None:
    """Write the long-format series CSV to ``path``."""
    with open(path, "w") as fh:
        fh.write(series_csv(telemetry))


def summary_table(telemetry: Telemetry) -> str:
    """Human-readable per-run digest of an instrumented run."""
    lines = ["== observability summary ".ljust(70, "=")]
    roots = request_spans(telemetry)
    done = [s for s in roots if s.finished]
    lines.append(
        f"runs: {telemetry.run_id}   requests traced: {len(roots)} "
        f"({len(done)} completed)   spans: {len(telemetry.spans)}"
    )
    if done:
        durations = sorted(s.duration for s in done)
        total = sum(durations)
        # Nearest-rank percentiles straight from the spans, so the digest
        # is exact even when no histogram made it into the registry.
        p50 = durations[(len(durations) - 1) // 2]
        p99 = durations[min(len(durations) - 1, int(0.99 * (len(durations) - 1) + 0.5))]
        lines.append(
            f"request completion: mean {total / len(done):.4f}s  "
            f"p50 {p50:.4f}s  p99 {p99:.4f}s  over {len(done)} requests"
        )
    breakdown = phase_breakdown(telemetry)
    if breakdown:
        cats = sorted({c for per_app in breakdown.values() for c in per_app})
        header = "app".ljust(8) + "".join(c.rjust(12) for c in cats)
        lines.append("per-phase span seconds (session side):")
        lines.append("  " + header)
        for app in sorted(breakdown):
            row = app.ljust(8) + "".join(
                f"{breakdown[app].get(c, 0.0):12.4f}" for c in cats
            )
            lines.append("  " + row)
    mean_gate = mean_phase_latency(telemetry, "gate")
    mean_queue = mean_phase_latency(telemetry, "queue")
    lines.append(
        f"mean queue wait: {mean_queue:.6f}s   mean gate park: {mean_gate:.6f}s"
    )
    dec = telemetry.decisions
    lines.append(
        f"decisions: {len(dec.placements)} placements, {len(dec.switches)} "
        f"policy switches   mix: {dec.policy_mix() or '{}'}"
    )
    per_gid = {g: len(ps) for g, ps in sorted(dec.by_gid().items())}
    if per_gid:
        lines.append(f"placements per GID: {per_gid}")
    if len(telemetry.attribution):
        lines.append("per-tenant attribution (all GPUs):")
        lines.append(
            "  " + "tenant".ljust(10) + "busy_s".rjust(10) + "moved_GB".rjust(10)
            + "wait_s".rjust(10) + "reqs".rjust(7) + "interf".rjust(8)
        )
        for tenant, u in sorted(telemetry.attribution.per_tenant().items()):
            lines.append(
                "  " + tenant.ljust(10)
                + f"{u.busy_s:10.3f}{u.bytes_moved_gb:10.3f}"
                + f"{u.queue_wait_s + u.gate_park_s:10.3f}{u.requests:7d}"
                + f"{u.interference_index:8.2f}"
            )
        spread = telemetry.attribution.fairness_spread()
        if spread:
            lines.append(f"  busy-time fairness spread (max/min): {spread:.2f}x")
    if telemetry.slo is not None:
        lines.append(f"SLO: {telemetry.slo.total_violations} violations")
        for row in telemetry.slo.summary():
            lines.append(
                f"  {row['target']}: compliance {row['compliance'] * 100:.1f}% "
                f"({row['violations']} violations, "
                f"max burn rate {row['max_burn_rate']:.2f})"
            )
    n_series = len(telemetry.series)
    if n_series:
        samples = sum(s.total_appended for s in telemetry.series.values())
        dropped = sum(s.dropped for s in telemetry.series.values())
        retained = samples - dropped
        lines.append(
            f"time series: {n_series} series, {samples} samples"
            + (f" ({retained} retained)" if dropped else "")
        )
        if dropped:
            worst = max(telemetry.series.values(), key=lambda s: s.dropped)
            lines.append(
                f"WARNING: {dropped} samples dropped to ring wrap-around "
                f"(worst: {worst.series}, {worst.dropped} lost) — raise the "
                f"sampler capacity or interval to keep full history"
            )
    stream = getattr(telemetry, "stream", None)
    if stream is not None:
        st = stream.stats()
        lines.append(
            f"span stream: {st['spans_flushed']}/{st['spans_total']} spans "
            f"flushed to {st['shards']} shard(s) in {st['directory']}"
        )
    profiler = getattr(telemetry, "profiler", None)
    if profiler is not None and profiler.sample_count:
        top = ", ".join(
            f"{layer} {share:.0%}"
            for layer, share in list(profiler.layer_shares().items())[:4]
        )
        lines.append(f"CPU by layer: {top} ({profiler.sample_count} samples)")
    return "\n".join(lines)


__all__ = [
    "SCHEDULER_TRACK",
    "metrics_dict",
    "series_csv",
    "summary_table",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_metrics",
    "write_prometheus",
    "write_series_csv",
]
