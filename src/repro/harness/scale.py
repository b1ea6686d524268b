"""Load-to-the-knee scale sweep over generated traffic (ISSUE 8).

The paper's figures drive fixed fig-sized request streams; this tool
answers the capacity question they leave open: *how much offered load
does a deployment sustain before goodput stops following it?*  It takes
one ``-O traffic`` scenario (see :mod:`repro.traffic`), sweeps the
offered rate across load multipliers, runs every point open-loop through
:func:`~repro.harness.runner.run_open_loop_experiment`, and reports
goodput, latency quantiles and SLO burn per point plus the detected
*goodput knee* — the last load at which an extra offered request still
buys at least :data:`KNEE_EFFICIENCY` of a completed one.

Every point runs under its own fresh telemetry registry (points must not
contaminate each other): :func:`repro.harness.registry.observe` wires
each one and writes its ``--emit`` artifacts under ``point-<m>x/``, so
with ``--emit shards`` arbitrarily long sweeps stay bounded-memory end
to end.  With ``--out-dir`` the sweep document is ``results.json`` and
the goodput-knee card is ``scale.html``.

Run::

    python -m repro.harness scale -O traffic="poisson:rate=20,tenants=1000,churn=exp:60"
    python -m repro.harness scale -O loads=0.5,1,2 --out-dir knee
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster import build_paper_supernode
from repro.traffic import TrafficGenerator, parse_traffic_spec
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import (
    SCALE_QUICK,
    run_open_loop_experiment,
    system_factories,
)

#: Default scenario: a churned thousand-tenant population over the
#: cheap end of the catalog.  The supernode sustains ~30 requests/s of
#: this mix, so the default 0.25-2x sweep brackets the goodput knee;
#: ``rate=``/``duration=`` overrides reach 10^5+ requests.
DEFAULT_TRAFFIC = (
    "poisson:rate=24,tenants=1000,churn=exp:45,duration=90,apps=GA*4+SN*2+BS"
)

#: Load multipliers swept over the scenario's offered rate.
DEFAULT_LOADS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: The sweep at ``--scale quick``.
QUICK_LOADS = (0.5, 1.0, 2.0)

#: Marginal goodput per marginal offered request below which the system
#: is considered past its knee (adding load buys mostly queueing).
KNEE_EFFICIENCY = 0.5

#: ``-O system`` choice -> factory name in :func:`system_factories`.
SYSTEMS = {
    "strings": "GMin-Strings",
    "design2": "GMin-Design2",
    "rain": "GMin-Rain",
}


def run_point(
    factory,
    gen: TrafficGenerator,
    multiplier: float,
    ctx: registry.ExperimentContext,
) -> Dict[str, object]:
    """One load point under its own fresh telemetry registry."""
    scaled = gen.scaled(multiplier)
    label = f"{multiplier:g}x"
    with registry.observe(ctx, "scale", point=label) as observed:
        tel = observed.telemetry
        res = run_open_loop_experiment(
            factory,
            scaled,
            build_paper_supernode,
            label=label,
            prewarm=True,
            telemetry=tel,
        )

    point: Dict[str, object] = {
        "multiplier": multiplier,
        "offered_rps": scaled.offered_rate_rps,
        "offered": res.offered,
        "completed": res.completed,
        "aborted": res.aborted,
        "failed": res.failed,
        "sessions": res.sessions,
        "churned_sessions": res.churned_sessions,
        "goodput_rps": res.goodput_rps,
        "mean_latency_s": res.mean_latency_s,
        "p50_s": res.latency_quantile(0.50),
        "p95_s": res.latency_quantile(0.95),
        "p99_s": res.latency_quantile(0.99),
        "max_latency_s": res.latency_max_s,
        "sim_time_s": res.sim_time_s,
        "wall_time_s": res.wall_time_s,
    }
    if tel.slo is not None:
        point["slo_violations"] = tel.slo.total_violations
        point["slo_max_burn"] = max(
            (row["max_burn_rate"] for row in tel.slo.summary()), default=0.0
        )
    profiler = getattr(tel, "profiler", None)
    if profiler is not None:
        # Per-point CPU share by layer: where wall time shifts as offered
        # load climbs past the knee.
        point["cpu_layers"] = profiler.layer_shares()
    if res.faults_summary is not None:
        point["faults"] = res.faults_summary
    return point


def find_knee(
    points: Sequence[Dict[str, object]], threshold: float = KNEE_EFFICIENCY
) -> Optional[float]:
    """Annotate marginal efficiency per point; return the knee multiplier.

    Marginal efficiency of a point is ``d goodput / d offered`` against
    the previous (lighter) point — the fraction of each extra offered
    request the system still completes.  The knee is the last point
    before that fraction first drops under ``threshold``; ``None`` when
    the very first point is already past it.
    """
    knee: Optional[float] = None
    prev_off = 0.0
    prev_good = 0.0
    past_knee = False
    for p in points:
        d_off = float(p["offered_rps"]) - prev_off
        d_good = float(p["goodput_rps"]) - prev_good
        eff = d_good / d_off if d_off > 0 else 0.0
        p["marginal_efficiency"] = eff
        if not past_knee:
            if eff >= threshold:
                knee = float(p["multiplier"])
            else:
                past_knee = True
        prev_off = float(p["offered_rps"])
        prev_good = float(p["goodput_rps"])
    return knee


def parse_loads(value) -> Tuple[float, ...]:
    """``-O loads``: a JSON list, one number or a CSV string of multipliers."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    try:
        loads = tuple(sorted(float(m) for m in value))
    except (TypeError, ValueError):
        raise ValueError(f"multipliers must be numbers, got {value!r}") from None
    if not loads:
        raise ValueError("needs at least one multiplier")
    if any(m <= 0 for m in loads):
        raise ValueError(f"multipliers must be > 0, got {value!r}")
    return loads


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


def format_sweep(doc: Dict[str, object]) -> str:
    """The sweep as an aligned plain-text table."""
    has_slo = any("slo_violations" in p for p in doc["points"])
    headers = [
        "Load", "Offered rps", "Goodput rps", "MargEff",
        "Mean lat (s)", "p95 (s)", "p99 (s)", "Aborted",
    ]
    if has_slo:
        headers += ["SLO viol", "Max burn"]
    rows = []
    for p in doc["points"]:
        mark = "*" if p["multiplier"] == doc["knee_multiplier"] else " "
        row = [
            f"{p['multiplier']:g}x{mark}",
            p["offered_rps"],
            p["goodput_rps"],
            p["marginal_efficiency"],
            p["mean_latency_s"],
            p["p95_s"],
            p["p99_s"],
            p["aborted"],
        ]
        if has_slo:
            row += [p.get("slo_violations", 0), p.get("slo_max_burn", 0.0)]
        rows.append(row)
    knee = doc["knee_multiplier"]
    knee_txt = (
        f"knee at {knee:g}x ({doc['knee_offered_rps']:.1f} offered rps)"
        if knee is not None
        else "knee below the lightest load point"
    )
    return format_table(
        headers,
        rows,
        title=(
            f"Scale sweep — {doc['system']} under '{doc['traffic']}' "
            f"(seed {doc['seed']}): {knee_txt}"
        ),
    )


def write_scale_card(doc: Dict[str, object], path: str) -> None:
    """A small self-contained HTML card: sweep table + goodput-knee SVG."""
    points = doc["points"]
    xs = [float(p["offered_rps"]) for p in points]
    ys = [float(p["goodput_rps"]) for p in points]
    x_max = max(xs) if xs else 1.0
    y_max = (max(ys) if ys else 1.0) or 1.0
    w, h, pad = 460, 240, 36

    def sx(x: float) -> float:
        return pad + (w - 2 * pad) * (x / x_max if x_max else 0.0)

    def sy(y: float) -> float:
        return h - pad - (h - 2 * pad) * (y / y_max if y_max else 0.0)

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    # The y = x ideal (every offered request completed), clipped to view.
    ideal_x = min(x_max, y_max)
    knee = doc["knee_multiplier"]
    knee_svg = ""
    if knee is not None:
        kx = float(doc["knee_offered_rps"])
        ky = next(
            float(p["goodput_rps"]) for p in points if float(p["multiplier"]) == knee
        )
        knee_svg = (
            f'<circle cx="{sx(kx):.1f}" cy="{sy(ky):.1f}" r="5" fill="#c0392b"/>'
            f'<text x="{sx(kx) + 8:.1f}" y="{sy(ky) - 8:.1f}" font-size="11" '
            f'fill="#c0392b">knee {knee:g}x</text>'
        )
    rows_html = "".join(
        "<tr>"
        + "".join(
            f"<td>{cell}</td>"
            for cell in (
                f"{p['multiplier']:g}x",
                f"{p['offered_rps']:.1f}",
                f"{p['goodput_rps']:.2f}",
                f"{p['marginal_efficiency']:.2f}",
                f"{p['mean_latency_s']:.2f}",
                f"{p['p95_s']:.2f}",
                f"{p['p99_s']:.2f}",
                p["aborted"],
                p.get("slo_violations", "-"),
            )
        )
        + "</tr>"
        for p in points
    )
    html = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>scale sweep — {doc['system']}</title>
<style>
body {{ font: 13px/1.4 system-ui, sans-serif; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin-top: 1em; }}
td, th {{ border: 1px solid #ccc; padding: 3px 8px; text-align: right; }}
th {{ background: #f4f4f4; }}
code {{ background: #f4f4f4; padding: 1px 4px; }}
</style></head><body>
<h2>Scale sweep — {doc['system']}</h2>
<p>traffic <code>{doc['traffic']}</code>, seed {doc['seed']}</p>
<svg width="{w}" height="{h}" style="border:1px solid #ddd">
<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(ideal_x):.1f}" y2="{sy(ideal_x):.1f}"
 stroke="#bbb" stroke-dasharray="4 3"/>
<polyline points="{poly}" fill="none" stroke="#2980b9" stroke-width="2"/>
{''.join(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="#2980b9"/>' for x, y in zip(xs, ys))}
{knee_svg}
<text x="{w / 2:.0f}" y="{h - 6}" font-size="11" text-anchor="middle">offered rps</text>
<text x="12" y="{h / 2:.0f}" font-size="11" transform="rotate(-90 12 {h / 2:.0f})"
 text-anchor="middle">goodput rps</text>
</svg>
<table><tr><th>Load</th><th>Offered rps</th><th>Goodput rps</th><th>MargEff</th>
<th>Mean lat (s)</th><th>p95 (s)</th><th>p99 (s)</th><th>Aborted</th><th>SLO viol</th></tr>
{rows_html}</table>
</body></html>
"""
    with open(path, "w") as fh:
        fh.write(html)


@registry.register("scale")
class Scale(registry.Experiment):
    """Scale — load-to-the-knee sweep of generated traffic (goodput knee)."""

    options = {
        "traffic": "traffic spec (repro.traffic grammar)",
        "loads": "load multipliers, e.g. [0.5,1,2]",
        "system": "strings | design2 | rain",
    }

    def prepare(self, ctx: registry.ExperimentContext) -> None:
        self.spec = ctx.parsed_option("traffic", parse_traffic_spec, DEFAULT_TRAFFIC)
        self.loads = ctx.parsed_option(
            "loads",
            parse_loads,
            QUICK_LOADS if ctx.scale == SCALE_QUICK else DEFAULT_LOADS,
        )
        self.system = ctx.parsed_option("system", registry.one_of(SYSTEMS), "strings")

    def run(self, ctx: registry.ExperimentContext):
        gen = TrafficGenerator(self.spec, seed=ctx.scale.seed)
        factory = system_factories()[SYSTEMS[self.system]]
        points = []
        for m in self.loads:
            point = run_point(factory, gen, m, ctx)
            print(
                f"  [{point['multiplier']:g}x] offered {point['offered']} "
                f"goodput {point['goodput_rps']:.2f} rps "
                f"mean {point['mean_latency_s']:.2f}s "
                f"aborted {point['aborted']} "
                f"({point['wall_time_s']:.1f}s wall)"
            )
            points.append(point)
        knee = find_knee(points)
        doc = {
            "tool": "scale",
            "traffic": self.spec.canonical(),
            "system": SYSTEMS[self.system],
            "seed": gen.seed,
            "loads": list(self.loads),
            "knee_multiplier": knee,
            "knee_offered_rps": next(
                (
                    float(p["offered_rps"])
                    for p in points
                    if float(p["multiplier"]) == knee
                ),
                None,
            ),
            "points": points,
        }
        if ctx.out_dir is not None:
            write_scale_card(doc, ctx.artifact("scale.html"))
        return doc

    def analyze(self, doc, ctx: registry.ExperimentContext) -> str:
        lines = ["", format_sweep(doc)]
        # Per-point layer shares exist exactly when the sweep ran under
        # --profile; render from the document so cached re-analysis needs
        # no knowledge of the original flags.
        for p in doc["points"]:
            layers = p.get("cpu_layers") or {}
            if layers:
                top = ", ".join(
                    f"{layer} {share:.0%}"
                    for layer, share in sorted(layers.items(), key=lambda kv: -kv[1])[:3]
                )
                lines.append(f"  [{p['multiplier']:g}x] CPU by layer: {top}")
        return "\n".join(lines)


__all__ = [
    "DEFAULT_LOADS",
    "DEFAULT_TRAFFIC",
    "KNEE_EFFICIENCY",
    "QUICK_LOADS",
    "SYSTEMS",
    "Scale",
    "find_knee",
    "format_sweep",
    "parse_loads",
    "run_point",
    "write_scale_card",
]
