"""Figure 11 — fairness of TFS vs TFS-Rain vs the CUDA runtime.

Application pairs share a *single* GPU, each tenant assigned an equal
share.  Per pair we run both applications in closed loop for a window,
measure each application's mean per-request completion time, and compute
Jain's fairness over the per-application progress values
``T_alone / T_shared`` (equal slowdowns = fairness 1).

Paper: TFS-Strings averages 91% — 13% better than the CUDA runtime and
7.14% better than TFS-Rain; its maximum is 99.99%.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cluster import build_single_gpu_server
from repro.metrics import jains_fairness
from repro.workloads import PAIRS, pair_apps
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import (
    ExperimentScale,
    SCALE_PAPER,
    closed_loop_shared_run,
    solo_completion_time,
    system_factories,
)

SYSTEMS = ["CUDA", "TFS-Rain", "TFS-Strings"]

PAPER_AVERAGES = {"TFS-Strings": 0.91}


def run(
    scale: ExperimentScale = SCALE_PAPER,
    pair_labels: Sequence[str] = tuple(PAIRS),
    systems: Sequence[str] = tuple(SYSTEMS),
) -> Dict[str, Dict[str, float]]:
    """fairness[system][pair_label] plus 'avg'."""
    factories = system_factories()
    fairness: Dict[str, Dict[str, float]] = {s: {} for s in systems}

    # Solo references per (system, app) are cached: they do not depend on
    # the pairing.
    solo_cache: Dict[tuple, float] = {}

    def solo(system: str, app) -> float:
        key = (system, app.short)
        if key not in solo_cache:
            solo_cache[key] = solo_completion_time(
                factories[system], app, build_single_gpu_server
            )
        return solo_cache[key]

    for label in pair_labels:
        app_a, app_b = pair_apps(label)
        for system in systems:
            shared = closed_loop_shared_run(
                factories[system],
                [app_a, app_b],
                build_single_gpu_server,
                window_s=scale.fairness_window_s,
            )
            progress = [
                solo(system, app_a) / shared[app_a.short],
                solo(system, app_b) / shared[app_b.short],
            ]
            fairness[system][label] = jains_fairness(progress)

    for system in systems:
        fairness[system]["avg"] = float(
            np.mean([fairness[system][l] for l in pair_labels])
        )
        fairness[system]["max"] = float(
            np.max([fairness[system][l] for l in pair_labels])
        )
    return fairness


@registry.register("fig11")
class Fig11(registry.Experiment):
    """Fig. 11 — Jain's fairness of app pairs sharing one GPU under TFS."""

    options = {
        "pairs": 'pair labels, e.g. ["A","G"]',
        "systems": "system subset",
    }

    def run(self, ctx: registry.ExperimentContext):
        return run(
            ctx.scale,
            pair_labels=tuple(ctx.option("pairs", tuple(PAIRS))),
            systems=tuple(ctx.option("systems", tuple(SYSTEMS))),
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        systems = [s for s in SYSTEMS if s in data]
        labels = [l for l in PAIRS if systems and l in data[systems[0]]]
        rows: List[list] = []
        for system in systems:
            rows.append(
                [system]
                + [100 * data[system][l] for l in labels]
                + [100 * data[system]["avg"], 100 * data[system]["max"]]
            )
        return format_table(
            ["System"] + labels + ["AVG%", "MAX%"],
            rows,
            title="Fig. 11 — Jain's fairness (%) of pairs sharing one GPU, equal shares "
                  "(paper: TFS-Strings avg 91%, +13% vs CUDA, +7.14% vs TFS-Rain)",
            floatfmt="{:.1f}",
        )


def main(scale: ExperimentScale = SCALE_PAPER) -> str:
    return registry.run_main("fig11", scale=scale)
