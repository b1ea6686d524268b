"""Self-contained static HTML run report (ISSUE 2).

:func:`html_report` renders one telemetry registry — possibly holding
several experiment runs — into a single HTML file with no external
assets: inline SVG sparklines for the sampled per-GPU utilization and
copy-queue series, the per-tenant attribution table, the SLO compliance
summary with a violations excerpt, and a decision-log excerpt.

Rendering rules follow the repo's charting conventions:

* colors are defined once as CSS custom properties with a selected dark
  mode (own steps, not an automatic flip); text always wears text tokens,
  never the series color;
* a single-series sparkline carries its identity in the row title, so no
  legend box is emitted;
* status ("violated"/"ok") always ships as text next to the colored
  chip — never color alone;
* long series are downsampled (bucket means) before plotting, and any
  truncation (runs, log excerpts) is called out explicitly in the page.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Tuple

from repro.telemetry.instruments import Telemetry

#: Hard cap on runs rendered per page (each run adds a full section).
MAX_RUNS = 12
#: Per-sparkline point budget; series beyond this are bucket-averaged.
SPARK_POINTS = 240
#: Decision-log / violation excerpt length.
EXCERPT_ROWS = 20

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --status-good: #0ca30c;
    --status-critical: #d03b3b;
    --ring: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d;
  --surface-1: #1a1a19;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --axis: #383835;
  --series-1: #3987e5;
  --series-2: #d95926;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  --ring: rgba(255,255,255,0.10);
}
body { background: var(--page); }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--ink-2); }
.sub { color: var(--ink-2); font-size: 13px; margin: 0 0 20px; }
.note { color: var(--muted); font-size: 12px; margin: 6px 0; }
.card {
  background: var(--surface-1);
  border: 1px solid var(--ring);
  border-radius: 8px;
  padding: 16px;
  margin: 12px 0;
}
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th {
  text-align: left; color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0;
}
td {
  padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.lbl { font-variant-numeric: normal; }
.sparkrow { display: flex; align-items: center; gap: 12px; margin: 6px 0; }
.sparkrow .name { width: 180px; font-size: 12px; color: var(--ink-2); }
.sparkrow .stat { width: 120px; font-size: 12px; color: var(--muted);
  font-variant-numeric: tabular-nums; }
.chip {
  display: inline-block; width: 9px; height: 9px; border-radius: 50%;
  margin-right: 6px; vertical-align: baseline;
}
.chip.bad { background: var(--status-critical); }
.chip.ok { background: var(--status-good); }
svg.spark polyline { stroke: var(--series-1); }
svg.spark line.base { stroke: var(--axis); }
"""


def _esc(v) -> str:
    return html.escape(str(v))


def _sparkline(
    points: List[Tuple[float, float]],
    width: int = 420,
    height: int = 36,
    y_max: Optional[float] = None,
) -> str:
    """One inline-SVG sparkline: a 2px polyline over a hairline baseline.

    Points are spaced evenly left to right in sample order, not by their
    time: one ``run`` label can cover sub-runs whose sim clock restarts,
    so ``t`` may go backwards.  Values are clamped to ``[0, y_max]``, so
    every coordinate stays inside the padded box.
    """
    if not points:
        return '<span class="note">no samples</span>'
    vmax = y_max if y_max is not None else max(v for _, v in points)
    vmax = vmax or 1.0
    pad = 2
    xstep = (width - 2 * pad) / max(len(points) - 1, 1)
    coords = " ".join(
        f"{pad + i * xstep:.1f},"
        f"{height - pad - max(0.0, min(v, vmax)) / vmax * (height - 2 * pad):.1f}"
        for i, (_t, v) in enumerate(points)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<line class="base" x1="{pad}" y1="{height - pad}" '
        f'x2="{width - pad}" y2="{height - pad}" stroke-width="1"/>'
        f'<polyline points="{coords}" fill="none" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/></svg>'
    )


def _series_by_run(telemetry: Telemetry, name: str) -> Dict[str, list]:
    """All series of one name, grouped by their ``run`` label."""
    out: Dict[str, list] = {}
    for s in telemetry.series.values():
        if s.name != name:
            continue
        labels = dict(s.labels)
        out.setdefault(labels.get("run", ""), []).append((labels, s))
    for group in out.values():
        group.sort(key=lambda pair: pair[0].get("gid", ""))
    return out


def _spark_section(telemetry: Telemetry, run: str) -> List[str]:
    """Sparkline rows for one run: gpu.util and gpu.copy_queue per GID."""
    parts: List[str] = []
    specs = [
        ("gpu.util", "GPU utilization", 1.0, lambda v: f"{v * 100:.0f}%"),
        ("gpu.copy_queue", "Copy-queue depth", None, lambda v: f"{v:.1f}"),
    ]
    for name, title, y_max, fmt in specs:
        group = _series_by_run(telemetry, name).get(run, [])
        if not group:
            continue
        parts.append(f"<h3>{_esc(title)}</h3>")
        for labels, s in group:
            pts = s.downsample(SPARK_POINTS)
            mean = sum(v for _, v in pts) / len(pts) if pts else 0.0
            peak = max((v for _, v in pts), default=0.0)
            gid = labels.get("gid", "?")
            stat = f"mean {fmt(mean)} · peak {fmt(peak)}"
            drop = (
                f' <span class="note">(oldest {s.dropped} samples beyond '
                f"ring capacity not shown)</span>"
                if s.dropped
                else ""
            )
            parts.append(
                '<div class="sparkrow">'
                f'<span class="name">GPU{_esc(gid)}</span>'
                f"{_sparkline(pts, y_max=y_max)}"
                f'<span class="stat">{_esc(stat)}</span>{drop}</div>'
            )
    return parts


def _attribution_table(telemetry: Telemetry, run_filter: Optional[str] = None) -> List[str]:
    rows = telemetry.attribution.rows()
    if not rows:
        return ['<p class="note">No tenant attribution recorded.</p>']
    parts = [
        "<table><thead><tr>"
        "<th>tenant</th><th>GPU</th><th>busy s</th><th>xfer s</th>"
        "<th>moved GB</th><th>queue-wait s</th><th>gate-park s</th>"
        "<th>requests</th><th>interference ×</th><th>worst ×</th>"
        "</tr></thead><tbody>"
    ]
    for u in rows:
        parts.append(
            "<tr>"
            f'<td class="lbl">{_esc(u.tenant)}</td><td>{u.gid}</td>'
            f"<td>{u.gpu_busy_s:.3f}</td><td>{u.transfer_s:.3f}</td>"
            f"<td>{u.bytes_moved_gb:.3f}</td><td>{u.queue_wait_s:.3f}</td>"
            f"<td>{u.gate_park_s:.3f}</td><td>{u.requests}</td>"
            f"<td>{u.interference_index:.2f}</td><td>{u.slowdown_max:.2f}</td>"
            "</tr>"
        )
    parts.append("</tbody></table>")
    spread = telemetry.attribution.fairness_spread()
    if spread:
        parts.append(
            f'<p class="note">Busy-time fairness spread across tenants '
            f"(max/min): {spread:.2f}&times;. Interference &times; is mean "
            f"slowdown versus the app's solo-run baseline (1.00 = no "
            f"interference).</p>"
        )
    return parts


def _slo_section(telemetry: Telemetry) -> List[str]:
    slo = telemetry.slo
    if slo is None:
        return ['<p class="note">No SLO targets configured (run with --slo).</p>']
    parts = [
        "<table><thead><tr>"
        "<th>target</th><th>status</th><th>observed</th><th>violations</th>"
        "<th>compliance</th><th>max burn rate</th><th>worst latency s</th>"
        "</tr></thead><tbody>"
    ]
    for row in slo.summary():
        bad = row["violations"] > 0
        chip = "bad" if bad else "ok"
        status = "violated" if bad else "met"
        parts.append(
            "<tr>"
            f'<td class="lbl">{_esc(row["target"])}</td>'
            f'<td class="lbl"><span class="chip {chip}"></span>{status}</td>'
            f'<td>{row["observed"]}</td><td>{row["violations"]}</td>'
            f'<td>{row["compliance"] * 100:.1f}%</td>'
            f'<td>{row["max_burn_rate"]:.2f}</td>'
            f'<td>{row["worst_latency_s"]:.3f}</td>'
            "</tr>"
        )
    parts.append("</tbody></table>")
    if slo.violations:
        shown = slo.violations[:EXCERPT_ROWS]
        parts.append(
            f"<h3>Violations (first {len(shown)} of {len(slo.violations)})</h3>"
            if len(slo.violations) > len(shown)
            else "<h3>Violations</h3>"
        )
        parts.append(
            "<table><thead><tr><th>t (s)</th><th>app</th><th>tenant</th>"
            "<th>kind</th><th>observed</th><th>threshold</th>"
            "<th>burn rate</th></tr></thead><tbody>"
        )
        for v in shown:
            parts.append(
                f'<tr><td>{v.t:.3f}</td><td class="lbl">{_esc(v.app)}</td>'
                f'<td class="lbl">{_esc(v.tenant)}</td>'
                f'<td class="lbl">{_esc(v.kind)}</td>'
                f"<td>{v.observed:.4g}</td><td>{v.threshold:.4g}</td>"
                f"<td>{v.burn_rate:.2f}</td></tr>"
            )
        parts.append("</tbody></table>")
    return parts


def _fault_section(telemetry: Telemetry) -> List[str]:
    events = telemetry.decisions.events_of("fault")
    if not events:
        return ['<p class="note">No faults injected (run with --faults).</p>']
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.name] = counts.get(e.name, 0) + 1
    count_txt = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    parts = [
        f'<p class="note">{len(events)} fault/recovery events '
        f"({_esc(count_txt)}).</p>"
    ]
    shown = events[:EXCERPT_ROWS]
    head = (
        f"Timeline (first {len(shown)} of {len(events)})"
        if len(events) > len(shown)
        else "Timeline"
    )
    parts.append(f"<h3>{head}</h3>")
    parts.append(
        "<table><thead><tr><th>t (s)</th><th>event</th><th>details</th>"
        "</tr></thead><tbody>"
    )
    for e in shown:
        details = ", ".join(f"{k}={v}" for k, v in sorted(e.args.items()))
        parts.append(
            f'<tr><td>{e.t:.3f}</td><td class="lbl">{_esc(e.name)}</td>'
            f'<td class="lbl">{_esc(details)}</td></tr>'
        )
    parts.append("</tbody></table>")
    return parts


def _decision_section(telemetry: Telemetry, run: str) -> List[str]:
    dec = telemetry.decisions
    placements = [p for p in dec.placements if (p.run_label or f"run{p.run_id}") == run]
    switches = [s for s in dec.switches if (s.run_label or f"run{s.run_id}") == run]
    if not placements and not switches:
        return ['<p class="note">No scheduler decisions recorded for this run.</p>']
    parts: List[str] = []
    mix = {}
    for p in placements:
        mix[p.policy] = mix.get(p.policy, 0) + 1
    mix_txt = ", ".join(f"{k}: {v}" for k, v in sorted(mix.items()))
    parts.append(
        f'<p class="note">{len(placements)} placements '
        f"({_esc(mix_txt) or 'none'}), {len(switches)} policy switches.</p>"
    )
    shown = placements[:EXCERPT_ROWS]
    if shown:
        head = (
            f"Placements (first {len(shown)} of {len(placements)})"
            if len(placements) > len(shown)
            else "Placements"
        )
        parts.append(f"<h3>{head}</h3>")
        parts.append(
            "<table><thead><tr><th>t (s)</th><th>app</th><th>policy</th>"
            "<th>&rarr; GPU</th><th>est runtime s</th><th>SFT known</th>"
            "</tr></thead><tbody>"
        )
        for p in shown:
            parts.append(
                f'<tr><td>{p.t:.3f}</td><td class="lbl">{_esc(p.app_name)}</td>'
                f'<td class="lbl">{_esc(p.policy)}</td><td>{p.chosen_gid}</td>'
                f"<td>{p.est_runtime_s:.3f}</td>"
                f'<td class="lbl">{"yes" if p.sft_known else "no"}</td></tr>'
            )
        parts.append("</tbody></table>")
    for s in switches:
        parts.append(
            f'<p class="note">t={s.t:.3f}s: policy switch '
            f"{_esc(s.from_policy)} &rarr; {_esc(s.to_policy)} after "
            f"{s.profiles_seen} profiles / {s.distinct_apps} apps.</p>"
        )
    return parts


def _comparison_section(delta: Dict) -> List[str]:
    """The "Run comparison" card body: per-phase blame shifts, latency
    movement, decision-mix changes and SLO deltas of a run delta (see
    :func:`repro.obs.analysis.diff_runs`)."""
    a = delta.get("base_label", "baseline")
    b = delta.get("other_label", "current")
    parts = [
        f'<p class="note">{_esc(a)} &rarr; {_esc(b)}. Positive deltas mean '
        f"the current run spent more.</p>"
    ]

    def _pct(d: Dict) -> str:
        ratio = d.get("ratio")
        return f"{(ratio - 1) * 100:+.1f}%" if ratio else "n/a"

    def _rows(items, prec: int = 4) -> List[str]:
        out = []
        for label, d in items:
            base, other = d.get("base") or 0.0, d.get("other") or 0.0
            worse = (d.get("delta") or 0.0) > 0
            chip = "bad" if worse else "ok"
            word = "more" if worse else "less/equal"
            out.append(
                f'<tr><td class="lbl">{_esc(label)}</td>'
                f"<td>{base:.{prec}f}</td><td>{other:.{prec}f}</td>"
                f"<td>{(d.get('delta') or 0.0):+.{prec}f}</td>"
                f"<td>{_esc(_pct(d))}</td>"
                f'<td class="lbl"><span class="chip {chip}"></span>{word}</td></tr>'
            )
        return out

    header = (
        "<table><thead><tr><th>metric</th>"
        f"<th>{_esc(a)}</th><th>{_esc(b)}</th><th>&Delta;</th><th>&Delta;%</th>"
        "<th>direction</th></tr></thead><tbody>"
    )
    parts.append("<h3>Per-phase blame (seconds)</h3>")
    parts.append(header)
    parts.extend(_rows(
        [(cat, d) for cat, d in sorted(delta.get("phases", {}).items())
         if d.get("base") or d.get("other")]
    ))
    parts.append("</tbody></table>")

    latency = delta.get("latency") or {}
    if latency:
        parts.append("<h3>Request completion movement</h3>")
        parts.append(header)
        rows = []
        for series in sorted(latency):
            for q in ("p50", "p99"):
                rows.append((f"{series} {q}", latency[series][q]))
        parts.extend(_rows(rows))
        parts.append("</tbody></table>")

    mix = delta.get("decision_mix") or {}
    if mix:
        parts.append("<h3>Decision mix (placements per policy)</h3>")
        parts.append(header)
        parts.extend(_rows(sorted(mix.items()), prec=0))
        parts.append("</tbody></table>")

    slo = delta.get("slo") or {}
    if slo:
        parts.append("<h3>SLO deltas</h3>")
        parts.append(header)
        rows = []
        for target, d in sorted(slo.items()):
            rows.append((f"{target} violations", d["violations"]))
        parts.extend(_rows(rows, prec=0))
        parts.append("</tbody></table>")
    return parts


def _performance_section(telemetry: Telemetry) -> List[str]:
    """The "Performance" card body: the sampled CPU share per layer and
    the sim-speed sparkline.  Everything here is host-speed-dependent
    self-telemetry — advisory, never part of any sim-result comparison."""
    profiler = getattr(telemetry, "profiler", None)
    parts: List[str] = []

    if profiler is not None and profiler.sample_count:
        parts.append(
            f'<p class="note">CPU by layer: {profiler.sample_count} stack '
            f"samples at {profiler.achieved_hz:.0f} Hz achieved (target "
            f"{profiler.hz:.0f} Hz), each billed to the repro package of its "
            f"innermost repro frame. Full stacks in flame.collapsed "
            f"(--emit flame).</p>"
        )
        parts.append(
            "<table><thead><tr><th>layer</th><th>samples</th>"
            "<th>share</th></tr></thead><tbody>"
        )
        for layer, n in profiler.layer_counts().items():
            parts.append(
                f'<tr><td class="lbl">{_esc(layer)}</td><td>{n}</td>'
                f"<td>{n / profiler.sample_count * 100:.1f}%</td></tr>"
            )
        parts.append("</tbody></table>")
    else:
        parts.append(
            '<p class="note">No CPU profile recorded (run with --profile).</p>'
        )

    speed_runs = _series_by_run(telemetry, "sim.speedup")
    if speed_runs:
        parts.append("<h3>Simulation speed (sim-seconds per wall-second)</h3>")
        for run in sorted(speed_runs):
            for _labels, s in speed_runs[run]:
                pts = s.downsample(SPARK_POINTS)
                mean = sum(v for _, v in pts) / len(pts) if pts else 0.0
                peak = max((v for _, v in pts), default=0.0)
                parts.append(
                    '<div class="sparkrow">'
                    f'<span class="name">{_esc(run or "run")}</span>'
                    f"{_sparkline(pts)}"
                    f'<span class="stat">mean x{mean:.0f} · peak x{peak:.0f}'
                    "</span></div>"
                )
    return parts


def html_report(
    telemetry: Telemetry,
    title: str = "repro run report",
    comparison: Optional[Dict] = None,
) -> str:
    """Render the registry into one self-contained HTML document.

    ``comparison`` is an optional run delta (from
    :func:`repro.obs.analysis.diff_runs`, e.g. the harness's
    ``--diff-against``) rendered as an extra "Run comparison" card.
    """
    runs = sorted(
        {labels_run for labels_run in _series_by_run(telemetry, "gpu.util")}
        | {p.run_label or f"run{p.run_id}" for p in telemetry.decisions.placements}
        | {s.run_label or f"run{s.run_id}" for s in telemetry.spans if s.run_label}
    )
    shown_runs = runs[:MAX_RUNS]

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head>",
        '<body class="viz-root">',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{telemetry.run_id} run(s) &middot; '
        f"{len(telemetry.spans)} spans &middot; "
        f"{len(telemetry.series)} time series &middot; "
        f"{len(telemetry.decisions)} decision-log records</p>",
    ]
    if len(runs) > len(shown_runs):
        parts.append(
            f'<p class="note">Showing the first {len(shown_runs)} of '
            f"{len(runs)} runs; the full data is in the CSV/metrics dumps.</p>"
        )

    for run in shown_runs:
        parts.append(f'<div class="card"><h2>{_esc(run)}</h2>')
        parts.extend(_spark_section(telemetry, run))
        parts.extend(_decision_section(telemetry, run))
        parts.append("</div>")
    if not shown_runs:
        parts.append(
            '<p class="note">No sampled series or decisions recorded — '
            "run the harness with --emit report (and optionally --slo) on a "
            "stream experiment.</p>"
        )

    if comparison is not None:
        parts.append('<div class="card"><h2>Run comparison</h2>')
        parts.extend(_comparison_section(comparison))
        parts.append("</div>")

    parts.append('<div class="card"><h2>Tenant attribution</h2>')
    parts.extend(_attribution_table(telemetry))
    parts.append("</div>")

    parts.append('<div class="card"><h2>Faults &amp; recovery</h2>')
    parts.extend(_fault_section(telemetry))
    parts.append("</div>")

    parts.append('<div class="card"><h2>SLO compliance</h2>')
    parts.extend(_slo_section(telemetry))
    parts.append("</div>")

    # Self-profiling card: only rendered when the run carried a stack
    # sampler or sim-speed series.
    if (
        getattr(telemetry, "profiler", None) is not None
        or _series_by_run(telemetry, "sim.speedup")
    ):
        parts.append('<div class="card"><h2>Performance</h2>')
        parts.extend(_performance_section(telemetry))
        parts.append("</div>")

    # Footer: data-completeness notes (ISSUE 6 satellite) — dropped ring
    # samples and span-stream shard stats, so a report over partial data
    # says so instead of looking exhaustive.
    footer: List[str] = []
    dropped = sum(s.dropped for s in telemetry.series.values())
    if dropped:
        worst = max(telemetry.series.values(), key=lambda s: s.dropped)
        footer.append(
            f"&#9888; {dropped} time-series samples dropped to ring "
            f"wrap-around (worst: {_esc(worst.series)}, {worst.dropped} "
            f"lost) — sparklines show the retained tail only."
        )
    stream = getattr(telemetry, "stream", None)
    if stream is not None:
        st = stream.stats()
        footer.append(
            f"Span stream: {st['spans_flushed']}/{st['spans_total']} spans "
            f"flushed to {st['shards']} shard(s) in {_esc(st['directory'])}; "
            f"{st['retained_groups']} request groups retained in memory."
        )
    if footer:
        parts.append('<p class="note">' + "<br>".join(footer) + "</p>")

    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    telemetry: Telemetry,
    path: str,
    title: str = "repro run report",
    comparison: Optional[Dict] = None,
) -> None:
    """Write the HTML report to ``path``."""
    with open(path, "w") as fh:
        fh.write(html_report(telemetry, title=title, comparison=comparison))


__all__ = ["html_report", "write_html_report"]
