"""Figure 2 — GPU utilization: sequential vs concurrent Monte Carlo.

The paper dispatches independent sets of Monte-Carlo requests with
exponential inter-arrival times in two ways: *sequential* (each request
in its own GPU context — the bare CUDA runtime multiplexes them with
context switches, leaving idle 'glitches') and *concurrent* (all
requests over different CUDA streams of a single GPU context — Strings'
context packing), and plots device utilization over time.  We reproduce
the timelines and the summary statistics: concurrent execution shows
more uniform utilization, fewer idle gaps and zero context switches.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RandomStream
from repro.cluster import build_single_gpu_server
from repro.apps import app_by_short
from repro.harness import registry
from repro.harness.runner import (
    ExperimentScale,
    run_stream_experiment,
    system_factories,
)
from repro.simgpu.trace import utilization_timeline
from repro.workloads import exponential_stream
from repro.harness.format import format_series


def _drive(system_label: str, scale: ExperimentScale):
    factory = system_factories()["CUDA" if system_label == "sequential" else "GRR-Strings"]
    app = app_by_short("MC")
    # Identical arrival stream for both executions (same seed on purpose):
    # the figure compares how the same burst pattern is absorbed.
    rng = RandomStream(scale.seed, "fig2")
    stream = exponential_stream(
        app, rng, n_requests=max(6, scale.requests_per_stream), load_factor=1.2
    )
    devices = []

    def testbed(env):
        # The one figure that reads the devices' busy-interval timelines.
        nodes, net = build_single_gpu_server(env, trace=True)
        devices.append(nodes[0].devices[0])
        return nodes, net

    run = run_stream_experiment(factory, [stream], testbed, label=system_label)
    device = devices[0]
    horizon = run.sim_time_s
    times, util = utilization_timeline(
        device.tracer.snapshot(horizon), 0.0, horizon, bins=120
    )
    return {
        "times_s": times,
        "utilization_pct": util,
        "mean_utilization_pct": float(np.mean(util)),
        "idle_bin_fraction": float(np.mean(util < 1.0)),
        "utilization_std": float(np.std(util)),
        "ctx_switches": device.ctx_switches,
        # The paper's "glitches": device idle time spent switching contexts.
        "glitch_idle_s": device.ctx_switches * device.spec.ctx_switch_s,
        "mean_completion_s": float(np.mean([r.completion_s for r in run.results])),
        "makespan_s": horizon,
    }


@registry.register("fig2")
class Fig2(registry.Experiment):
    """Fig. 2 — GPU utilization timelines: sequential contexts vs packed streams."""

    def run(self, ctx: registry.ExperimentContext):
        """Both timelines: ``sequential`` (CUDA contexts) vs ``concurrent``
        (Strings streams in one packed context)."""
        return {
            "sequential": _drive("sequential", ctx.scale),
            "concurrent": _drive("concurrent", ctx.scale),
        }

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        lines = ["Fig. 2 — Monte-Carlo request streams: GPU utilization over time"]
        for label in ("sequential", "concurrent"):
            d = data[label]
            lines.append(
                f"{label:11s}: ctx switches {d['ctx_switches']:4d}  "
                f"glitch idle {d['glitch_idle_s']:6.2f}s  "
                f"mean completion {d['mean_completion_s']:7.2f}s  "
                f"makespan {d['makespan_s']:7.1f}s  "
                f"util std {d['utilization_std']:5.1f}"
            )
        for label in ("sequential", "concurrent"):
            d = data[label]
            step = max(1, len(d["times_s"]) // 12)
            lines.append(
                format_series(
                    f"{label} util% ",
                    [f"{t:.0f}s" for t in d["times_s"][::step]],
                    d["utilization_pct"][::step],
                    y_fmt="{:.0f}",
                )
            )
        return "\n".join(lines)
