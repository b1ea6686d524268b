"""Table I — benchmark application characteristics.

Runs every catalog application solo under the bare CUDA runtime on a
Tesla C2050 (the calibration reference) and reports what the paper's
Table I reports: runtime class, GPU time %, data transfer %, and memory
bandwidth — side by side with the paper's own numbers.
"""

from __future__ import annotations

from typing import Dict, List

import repro.obs as obs
from repro.cluster import build_single_gpu_server
from repro.core.systems import CudaRuntimeSystem
from repro.apps import ALL_APPS
from repro.apps.catalog import PAPER_BANDWIDTH_MBPS, REFERENCE_SPEC
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import run_stream_experiment
from repro.workloads import Request, RequestStream

#: Paper Table I reference columns: (GPU time %, data transfer %).
PAPER_TABLE1: Dict[str, tuple] = {
    "DC": (89.31, 0.005), "SC": (10.73, 24.99), "BO": (41.06, 98.88),
    "MM": (80.13, 0.01), "HI": (86.51, 0.17), "EV": (41.92, 0.73),
    "BS": (24.51, 6.23), "MC": (84.86, 98.94), "GA": (1.14, 0.32),
    "SN": (2.05, 26.68),
}


def profile_app(app) -> Dict[str, float]:
    """Measured solo profile of one app on the reference GPU.

    Device time is what the bare runtime's session charges to the app's
    tenant in the attribution table: of the installed registry when it
    is enabled (so a traced run captures the profile), else a private one.
    """
    tel = obs.current() if obs.current().enabled else obs.Telemetry()
    stream = RequestStream([Request(app, 0.0, tenant_id=app.short)])
    run = run_stream_experiment(
        CudaRuntimeSystem, [stream], build_single_gpu_server, f"table1:{app.short}", telemetry=tel
    )
    usage = tel.attribution.usage(app.short, 0)
    runtime = run.results[0].completion_s
    gpu_busy = usage.gpu_busy_s + usage.transfer_s
    return {
        "runtime_s": runtime,
        "gpu_pct": 100.0 * gpu_busy / runtime,
        "transfer_pct": 100.0 * usage.transfer_s / gpu_busy if gpu_busy else 0.0,
        "bandwidth_mbps": (
            1000.0 * usage.kernel_bytes_gb / usage.gpu_busy_s if usage.gpu_busy_s else 0.0
        ),
    }


def run(scale=None) -> Dict[str, Dict[str, float]]:
    """Profile every app; returns short-code -> measured columns."""
    return {app.short: profile_app(app) for app in ALL_APPS}


@registry.register("table1")
class Table1(registry.Experiment):
    """Table I — solo app profiles under the bare CUDA runtime vs the paper."""

    def run(self, ctx: registry.ExperimentContext):
        return run()

    def analyze(self, measured, ctx: registry.ExperimentContext) -> str:
        rows: List[list] = []
        for app in ALL_APPS:
            if app.short not in measured:
                continue
            m = measured[app.short]
            paper_gpu, paper_tx = PAPER_TABLE1[app.short]
            rows.append([
                f"{app.name} ({app.short})",
                app.group,
                app.input_label,
                m["runtime_s"],
                m["gpu_pct"],
                paper_gpu,
                m["transfer_pct"],
                paper_tx,
                m["bandwidth_mbps"],
                PAPER_BANDWIDTH_MBPS[app.short],
            ])
        return format_table(
            ["Program", "Grp", "Input", "Runtime(s)", "GPU%", "GPU%(paper)",
             "Xfer%", "Xfer%(paper)", "MemBW(MB/s)", "MemBW(paper)"],
            rows,
            title="Table I — benchmark application characteristics "
                  f"(measured solo on {REFERENCE_SPEC.name}; bandwidth rescaled, ranking preserved)",
        )


def main() -> str:
    return registry.run_main("table1")
