"""Figure 1 — compute and memory characteristics of GPU cloud apps.

The paper colour-codes applications by their compute and memory
utilization levels: red > 90 %, green < 10 %, yellow in between.  We
derive both axes from the solo profiles: compute utilization is the
share of runtime the GPU's compute engine is busy; memory utilization is
the kernels' achieved bandwidth relative to the device's peak.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import ALL_APPS
from repro.apps.catalog import REFERENCE_SPEC
from repro.harness import registry
from repro.harness.format import format_table


def classify(pct: float) -> str:
    """The paper's colour classes."""
    if pct > 90.0:
        return "red"
    if pct < 10.0:
        return "green"
    return "yellow"


def run(scale=None) -> Dict[str, Dict[str, object]]:
    """Per-app compute/memory utilization percentages and classes."""
    out: Dict[str, Dict[str, object]] = {}
    for app in ALL_APPS:
        kernel_busy = app.iterations * app.kernel_solo_s(REFERENCE_SPEC)
        runtime = app.solo_runtime_s(REFERENCE_SPEC)
        compute_pct = 100.0 * kernel_busy / runtime
        memory_pct = 100.0 * (
            app.memory_bandwidth_gbps(REFERENCE_SPEC) / REFERENCE_SPEC.mem_bandwidth_gbps
        )
        out[app.short] = {
            "compute_pct": compute_pct,
            "memory_pct": memory_pct,
            "compute_class": classify(compute_pct),
            "memory_class": classify(memory_pct),
        }
    return out


@registry.register("fig1")
class Fig1(registry.Experiment):
    """Fig. 1 — per-app compute/memory utilization classes (analytic, no DES)."""

    def run(self, ctx: registry.ExperimentContext):
        return run()

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        rows = [
            [app.short, app.name,
             data[app.short]["compute_pct"], data[app.short]["compute_class"],
             data[app.short]["memory_pct"], data[app.short]["memory_class"]]
            for app in ALL_APPS
            if app.short in data
        ]
        out = format_table(
            ["App", "Name", "Compute%", "Class", "Memory%", "Class"],
            title="Fig. 1 — compute / memory characteristics "
                  "(red > 90%, yellow 10-90%, green < 10%)",
            rows=rows,
        )
        # The paper's three call-outs: BFS-like compute-intensive (here DC),
        # memory-intensive Monte Carlo, middling face-detection-like apps.
        assert data["DC"]["compute_class"] != "green"
        assert data["GA"]["compute_class"] == "green"
        return out


def main() -> str:
    return registry.run_main("fig1")
