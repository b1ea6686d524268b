"""Performance-regression gate over pinned canonical scenarios (ISSUE 4).

Runs nine seeded scenarios — a fig9-sized GMin-Strings run over every
application, the chaos fault-injection scenario, a two-node scale-out
run, Fig. 12's pair C under each gated device policy (LAS, PS, TFS),
Fig. 11's pair A and the LAS decay ablation (both closed loop), and
Table I's solo profiles — each under a full
:class:`~repro.obs.Telemetry` registry, and
records their **sim-time blame vectors** (per-phase critical-path blame,
request counts, completion quantiles) plus an *advisory* wall-clock
reading into ``BENCH_perf_gate.json`` at the repo root.  Every scenario
runs under the stack sampler, so each ``--check`` also proves that a
self-profiled run reproduces the baseline exactly.

Sim-time metrics are deterministic given the pinned seeds, so the gate
compares them **exactly** by default (tolerance 0); any drift means the
model's behaviour changed and either the change is a regression or the
baseline must be consciously re-recorded.  Wall clock on a shared box is
far too noisy to gate on (see ``benchmarks/obs_overhead.py``), so it is
recorded for trend-watching but never failed on.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py              # record baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --check      # compare to it
    PYTHONPATH=src python benchmarks/perf_gate.py --check \\
        --tolerance default=0,phase_kernel_s=0.02 --diff-out diff.json

``--inflate-kernel FRAC`` inflates every kernel's solo time by ``FRAC``
before running — a self-test hook proving the gate actually trips
(``--check --inflate-kernel 0.10`` must fail).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Dict, List

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

BASELINE_PATH = os.path.join(os.path.dirname(_SRC), "BENCH_perf_gate.json")

#: Exact-compare slack for round-tripping through JSON (values are
#: rounded to 9 decimals on both sides, so this only absorbs the final
#: binary-vs-decimal wobble, not behaviour drift).
_EPS = 1e-9


# ---------------------------------------------------------------------------
# Pinned scenarios
# ---------------------------------------------------------------------------


def _scenario_fig9(telemetry):
    """Fig9-sized run: every app's stream, GMin-Strings, paper supernode."""
    from repro.apps import ALL_APPS
    from repro.cluster import build_paper_supernode
    from repro.harness.runner import SCALE_QUICK, run_stream_experiment, system_factories
    from repro.sim.rng import RandomStream

    rng = RandomStream(SCALE_QUICK.seed, "perf-gate", "fig9")
    streams = [
        exponential_stream_for(app, rng, SCALE_QUICK)
        for app in ALL_APPS
    ]
    run_stream_experiment(
        system_factories()["GMin-Strings"],
        streams,
        build_paper_supernode,
        label="perf-gate:fig9",
        telemetry=telemetry,
    )


def exponential_stream_for(app, rng, scale):
    from repro.workloads import exponential_stream

    return exponential_stream(
        app, rng.spawn(app.short), scale.requests_per_stream, scale.load_factor
    )


def _scenario_chaos(telemetry):
    """The chaos fault-injection scenario at quick scale, run through the
    experiment registry (same ``chaos.run`` underneath, so the sim-time
    vector is unchanged)."""
    from repro.harness import registry
    from repro.harness.runner import SCALE_QUICK

    exp = registry.get("chaos")()
    ctx = registry.ExperimentContext(scale=SCALE_QUICK, telemetry=telemetry)
    exp.prepare(ctx)
    exp.run(ctx)


def _scenario_scaleout(telemetry):
    """Two dual-GPU nodes, mixed aggregate workload arriving at node 0."""
    from repro.apps import app_by_short
    from repro.core.policies import GMin
    from repro.core.systems import StringsSystem
    from repro.harness.runner import SCALE_QUICK, run_stream_experiment
    from repro.harness.scaleout import WORKLOAD, build_n_node_cluster
    from repro.sim.rng import RandomStream
    from repro.workloads import exponential_stream

    rng = RandomStream(SCALE_QUICK.seed, "perf-gate", "scaleout")
    streams = [
        exponential_stream(
            app_by_short(short),
            rng.spawn(short),
            SCALE_QUICK.requests_per_stream,
            SCALE_QUICK.pair_load_factor,
            node_index=0,
        )
        for short in WORKLOAD
    ]

    def factory(env, nodes, net):
        return StringsSystem(env, nodes, net, balancing=GMin())

    run_stream_experiment(
        factory,
        streams,
        build_n_node_cluster(2),
        label="perf-gate:scaleout",
        telemetry=telemetry,
    )


def _scenario_pair_c(policy):
    """Fig. 12 pair C under one device-gated policy on the paper supernode.

    Besides the blame vector, the scenario records the dispatch gate's
    wake and sleep signal counts, so a dispatcher change that moves a
    single signal fails the gate."""

    def scenario(telemetry):
        from repro.cluster import build_paper_supernode
        from repro.harness.pairsweep import pair_streams
        from repro.harness.runner import SCALE_QUICK, run_stream_experiment, system_factories

        run_stream_experiment(
            system_factories()[policy],
            pair_streams("C", SCALE_QUICK, split_nodes=True, tag="fig12"),
            build_paper_supernode,
            label=f"perf-gate:{policy}",
            telemetry=telemetry,
        )
        signals = {"dispatch_wakes": 0.0, "dispatch_sleeps": 0.0}
        for inst in telemetry.instruments():
            if inst.name in ("dispatch.wakes", "dispatch.sleeps"):
                signals[inst.name.replace(".", "_")] += inst.value
        return signals

    return scenario


def _installed(telemetry, call):
    """``call()`` with ``telemetry`` as the installed default registry.

    The experiment-level scenarios below take no registry argument, so
    the registry goes in around the call and the previous one comes back
    after it."""
    from repro import obs

    previous = obs.current()
    obs.install(telemetry)
    try:
        return call()
    finally:
        obs.install(previous)


def _scenario_fig11a(telemetry):
    """Fig. 11 pair A: closed-loop sharing and solo references, every system.

    Extras: each system's pair-A Jain fairness."""
    from repro.harness import fig11
    from repro.harness.runner import SCALE_QUICK

    fairness = _installed(telemetry, lambda: fig11.run(SCALE_QUICK, pair_labels=("A",)))
    return {f"fairness_{system}": by_pair["A"] for system, by_pair in fairness.items()}


def _scenario_las_k(telemetry):
    """The LAS decay-constant ablation: five closed-loop tenants per k.

    Extras: every per-app mean completion."""
    from repro.harness import ablations
    from repro.harness.runner import SCALE_QUICK

    means = _installed(
        telemetry, lambda: ablations.ablate_las_k(SCALE_QUICK.fairness_window_s / 2)
    )
    return {
        f"mean_{k}_{app}_s": mean
        for k, per_app in means.items()
        for app, mean in per_app.items()
    }


def _scenario_table1(telemetry):
    """Table I: one solo request per app under the bare CUDA runtime.

    Extras: every app's four measured columns."""
    from repro.harness import table1

    profiles = _installed(telemetry, table1.run)
    return {
        f"{app}_{column}": value
        for app, columns in profiles.items()
        for column, value in columns.items()
    }


SCENARIOS = {
    "fig9_gmin_strings": _scenario_fig9,
    "chaos": _scenario_chaos,
    "scaleout_2node": _scenario_scaleout,
    "fig12c_las_strings": _scenario_pair_c("GWtMin+LAS-Strings"),
    "fig12c_ps_strings": _scenario_pair_c("GWtMin+PS-Strings"),
    "fig12c_tfs_strings": _scenario_pair_c("TFS-Strings"),
    "fig11a_closed_loop": _scenario_fig11a,
    "las_k_closed_loop": _scenario_las_k,
    "table1_solo": _scenario_table1,
}


# ---------------------------------------------------------------------------
# Metric extraction
# ---------------------------------------------------------------------------


def _quantile(sorted_xs: List[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, max(0, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[idx]


def sim_metrics(telemetry) -> Dict[str, float]:
    """The flat, deterministic sim-time metric vector of one scenario."""
    from repro.obs.analysis import OVERHEAD, profile_dict, profile_requests

    profile = profile_requests(telemetry)
    doc = profile_dict(profile, top_k=1)
    totals = sorted(b.total_s for b in profile.requests)
    out: Dict[str, float] = {
        "requests": float(doc["requests"]),
        "total_latency_s": doc["total_s"] or 0.0,
        f"phase_{OVERHEAD}_s": doc["unattributed_s"] or 0.0,
        "p50_completion_s": round(_quantile(totals, 0.50), 9),
        "p99_completion_s": round(_quantile(totals, 0.99), 9),
    }
    for cat, v in (doc["per_phase"] or {}).items():
        out[f"phase_{cat}_s"] = v
    out["placements"] = float(len(telemetry.decisions.placements))
    return out


def run_scenarios(inflate_kernel: float = 0.0) -> Dict[str, Any]:
    """Run every pinned scenario; sim metrics + advisory wall clock each.

    A scenario may return a dict of extra exact metrics (the pair-C
    scenarios return dispatch signal counts, the experiment-level ones
    the numbers their experiment reports); it joins the ``sim`` vector.

    Every scenario runs under a :class:`~repro.obs.SamplingProfiler`.
    Because the ``sim`` vector is gated exactly, each ``--check``
    re-proves that self-profiling leaves simulated results
    byte-identical.  Nothing is recorded from the sampler: a scenario
    lasts 0.05-1 s, about 5-60 samples, too few for a layer split.
    """
    from repro.obs import SamplingProfiler, Telemetry

    if inflate_kernel:
        _inflate_kernels(inflate_kernel)
    scenarios: Dict[str, Any] = {}
    for name, fn in SCENARIOS.items():
        tel = Telemetry()
        t0 = time.perf_counter()
        with SamplingProfiler():
            extra = fn(tel) or {}
        wall = time.perf_counter() - t0
        scenarios[name] = {
            "sim": {**sim_metrics(tel), **extra},
            "wall_s_advisory": round(wall, 3),
        }
    return scenarios


def _inflate_kernels(frac: float) -> None:
    """Self-test hook: make every kernel ``frac`` slower (sim time)."""
    from repro.simgpu.ops import KernelOp

    original = KernelOp.solo_time

    def inflated(self, spec):
        return original(self, spec) * (1.0 + frac)

    KernelOp.solo_time = inflated


# ---------------------------------------------------------------------------
# Baseline compare
# ---------------------------------------------------------------------------


def compare(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerances: Dict[str, float],
) -> Dict[str, Any]:
    """Per-metric comparison of fresh scenario runs against the baseline.

    ``tolerances`` maps metric names (``phase_kernel_s``, ``p99_completion_s``,
    ...) or ``default`` to relative tolerances; the default default is 0
    (exact, modulo JSON rounding).  Wall clock is reported but never a
    failure.  Returns a diff document with a ``failures`` list.
    """
    default = tolerances.get("default", 0.0)
    failures: List[str] = []
    scenarios: Dict[str, Any] = {}
    base_sc = baseline.get("scenarios", {})
    for name in sorted(set(base_sc) | set(fresh)):
        if name not in base_sc:
            failures.append(f"{name}: scenario missing from baseline (re-record)")
            continue
        if name not in fresh:
            failures.append(f"{name}: scenario missing from fresh run")
            continue
        base_sim = base_sc[name].get("sim", {})
        new_sim = fresh[name].get("sim", {})
        metrics: Dict[str, Any] = {}
        for key in sorted(set(base_sim) | set(new_sim)):
            old = base_sim.get(key)
            new = new_sim.get(key)
            if old is None or new is None:
                failures.append(
                    f"{name}.{key}: metric {'gone' if new is None else 'new'} "
                    "(re-record the baseline)"
                )
                continue
            tol = tolerances.get(key, default)
            drift = abs(new - old)
            ok = drift <= tol * abs(old) + _EPS
            metrics[key] = {
                "baseline": old,
                "current": new,
                "delta": round(new - old, 9),
                "tolerance": tol,
                "ok": ok,
            }
            if not ok:
                rel = (drift / abs(old) * 100) if old else float("inf")
                failures.append(
                    f"{name}.{key}: {old:.6g} -> {new:.6g} "
                    f"({rel:+.1f}% exceeds tolerance {tol * 100:.1f}%)"
                )
        scenarios[name] = {
            "metrics": metrics,
            "wall_s_baseline": base_sc[name].get("wall_s_advisory"),
            "wall_s_current": fresh[name].get("wall_s_advisory"),
        }
    return {"bench": "perf_gate", "scenarios": scenarios, "failures": failures}


def render_check(diff: Dict[str, Any]) -> str:
    """Human-readable verdict for the console / CI log."""
    lines = ["== perf gate ".ljust(70, "=")]
    for name, sc in sorted(diff["scenarios"].items()):
        bad = [k for k, m in sc["metrics"].items() if not m["ok"]]
        verdict = "FAIL" if bad else "ok"
        wall_b, wall_c = sc.get("wall_s_baseline"), sc.get("wall_s_current")
        wall = (
            f"  wall {wall_b:.2f}s -> {wall_c:.2f}s (advisory)"
            if wall_b is not None and wall_c is not None
            else ""
        )
        lines.append(f"{name}: {verdict}{wall}")
        for key in bad:
            m = sc["metrics"][key]
            lines.append(
                f"    {key:<24}{m['baseline']:>14.6g}{m['current']:>14.6g}"
                f"  delta {m['delta']:+.6g}"
            )
    if diff["failures"]:
        lines.append(f"{len(diff['failures'])} metric(s) out of tolerance:")
        lines.extend(f"  {f}" for f in diff["failures"])
        lines.append(
            "If the change is intentional, re-record with: "
            "PYTHONPATH=src python benchmarks/perf_gate.py"
        )
    else:
        lines.append("all sim-time metrics within tolerance")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the committed baseline",
    )
    parser.add_argument(
        "--tolerance", default=None, metavar="SPEC",
        help="KEY=FRACTION[,...] relative tolerances (default: exact)",
    )
    parser.add_argument(
        "--diff-out", default=None, metavar="PATH",
        help="with --check, write the comparison document here as JSON",
    )
    parser.add_argument(
        "--inflate-kernel", type=float, default=0.0, metavar="FRAC",
        help="self-test hook: inflate every kernel solo time by FRAC",
    )
    parser.add_argument(
        "--baseline", default=BASELINE_PATH, metavar="PATH",
        help="baseline file to record to / check against",
    )
    args = parser.parse_args(argv)

    from repro.obs.analysis import parse_tolerance_spec

    tolerances: Dict[str, float] = {}
    if args.tolerance is not None:
        try:
            tolerances = parse_tolerance_spec(args.tolerance)
        except ValueError as exc:
            parser.error(f"--tolerance: {exc}")
    if args.inflate_kernel < 0:
        parser.error(
            f"--inflate-kernel must be >= 0, got {args.inflate_kernel}"
        )

    fresh = run_scenarios(inflate_kernel=args.inflate_kernel)

    if not args.check:
        record = {
            "bench": "perf_gate",
            "scale": "quick",
            "note": (
                "sim metrics are seeded-deterministic and gated exactly; "
                "wall_s_advisory is informational only (noisy shared box)"
            ),
            "scenarios": fresh,
        }
        with open(args.baseline, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(record, indent=2, sort_keys=True))
        print(f"baseline recorded: {args.baseline}")
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(f"FAIL: no baseline at {args.baseline} (record one first)",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"FAIL: baseline {args.baseline} is not valid JSON: {exc}",
              file=sys.stderr)
        return 1

    diff = compare(baseline, fresh, tolerances)
    if args.diff_out:
        with open(args.diff_out, "w") as fh:
            json.dump(diff, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(render_check(diff))
    return 1 if diff["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
