"""Shared machinery for the paired-workload supernode figures (10, 12-15)."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.sim.rng import RandomStream
from repro.cluster import build_paper_supernode, build_small_server
from repro.metrics import mean_completion_s
from repro.workloads import PAIRS, exponential_stream, pair_apps
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import (
    ExperimentScale,
    run_stream_experiment,
    system_factories,
)


def pair_streams(label: str, scale: ExperimentScale, split_nodes: bool, tag: str):
    """Long-app stream to node 0, short-app stream to node 1 (or both to
    node 0 for single-node baselines)."""
    app_a, app_b = pair_apps(label)
    rng = RandomStream(scale.seed, tag, label)
    stream_a = exponential_stream(
        app_a, rng.spawn("A"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=0, tenant_id="tenantA",
    )
    stream_b = exponential_stream(
        app_b, rng.spawn("B"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=1 if split_nodes else 0, tenant_id="tenantB",
    )
    return [stream_a, stream_b]


def family_of(policy: str) -> str:
    """'Rain' or 'Strings'."""
    return "Rain" if policy.endswith("Rain") else "Strings"


def pair_speedup_sweep(
    policies: Sequence[str],
    scale: ExperimentScale,
    tag: str,
    baseline_split_nodes: bool,
    pair_labels: Sequence[str] = tuple(PAIRS),
    prewarm: bool = False,
    extra_systems: Sequence[str] = (),
) -> Dict[str, Dict[str, float]]:
    """Run ``policies`` on the supernode against GRR of each one's family.

    Parameters
    ----------
    baseline_split_nodes:
        False = baseline runs both streams on the small server (single-
        node GRR baseline of Figs. 10/12/14/15); True = baseline runs on
        the supernode too (the 4-GPU-shared GRR baseline of Fig. 13).
    prewarm:
        Seed the SFT of the policy systems (feedback figures).
    extra_systems:
        Additional systems to measure and report as absolute mean
        completion times under key ``_means`` (e.g. the bare CUDA runtime
        for Fig. 15's headline).
    """
    factories = system_factories()
    speedups: Dict[str, Dict[str, float]] = {p: {} for p in policies}
    means: Dict[str, Dict[str, float]] = {s: {} for s in (*policies, *extra_systems)}

    for label in pair_labels:
        base_means: Dict[str, float] = {}
        for policy in policies:
            base_label = f"GRR-{family_of(policy)}"
            if base_label not in base_means:
                base = run_stream_experiment(
                    factories[base_label],
                    pair_streams(label, scale, split_nodes=baseline_split_nodes, tag=tag),
                    build_paper_supernode if baseline_split_nodes else build_small_server,
                    label=f"{base_label}-baseline",
                )
                base_means[base_label] = mean_completion_s(base.results)

            res = run_stream_experiment(
                factories[policy],
                pair_streams(label, scale, split_nodes=True, tag=tag),
                build_paper_supernode,
                label=policy,
                prewarm=prewarm,
            )
            mean = mean_completion_s(res.results)
            means[policy][label] = mean
            speedups[policy][label] = base_means[base_label] / mean

        for system in extra_systems:
            res = run_stream_experiment(
                factories[system],
                pair_streams(label, scale, split_nodes=True, tag=tag),
                build_paper_supernode,
                label=system,
            )
            means[system][label] = mean_completion_s(res.results)

    for policy in policies:
        speedups[policy]["avg"] = float(
            np.mean([speedups[policy][l] for l in pair_labels])
        )
    speedups["_means"] = means  # type: ignore[assignment]
    return speedups


class PairFigure(registry.Experiment):
    """A paired-workload supernode figure, declared rather than written.

    A subclass gives its ``policies``, ``paper_averages``, baseline rule
    (``shared_baseline``), ``prewarm`` flag and report ``title``.
    ``prepare`` checks ``-O pairs``/``-O policies`` against ``PAIRS`` and
    the class's ``policies``; ``run`` is one :func:`pair_speedup_sweep`
    over them, tagged with the registry name (the seed tag of the pair
    streams), and ``analyze`` renders the per-pair speedup table with its
    AVG and AVG(paper) columns.
    """

    options = {
        "pairs": 'pair labels, e.g. ["A","G"]',
        "policies": "policy subset",
    }
    policies: Sequence[str] = ()
    paper_averages: Dict[str, float] = {}
    #: The baseline is GRR of each policy's family: False runs it on the
    #: small server (single-node GRR), True shares all four supernode
    #: GPUs (Fig. 13 isolates the device-level scheduling benefit).
    shared_baseline = False
    #: Seed the SFT of the policy systems (the feedback figures).
    prewarm = False
    title = ""
    #: Systems measured beside the policies, reported only as absolute
    #: means under ``_means`` (Fig. 15's CUDA headline).
    extra_systems: Sequence[str] = ()

    def prepare(self, ctx: registry.ExperimentContext) -> None:
        self.pairs = ctx.parsed_option("pairs", registry.some_of(PAIRS), tuple(PAIRS))
        self.subset = ctx.parsed_option(
            "policies", registry.some_of(self.policies), tuple(self.policies)
        )

    def run(self, ctx: registry.ExperimentContext):
        return pair_speedup_sweep(
            self.subset,
            ctx.scale,
            tag=self.name,
            baseline_split_nodes=self.shared_baseline,
            pair_labels=self.pairs,
            prewarm=self.prewarm,
            extra_systems=self.extra_systems,
        )

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        policies = [p for p in self.policies if p in data]
        labels = [l for l in PAIRS if policies and l in data[policies[0]]]
        rows = [
            [p] + [data[p][l] for l in labels] + [data[p]["avg"], self.paper_averages[p]]
            for p in policies
        ]
        return format_table(
            ["Policy"] + labels + ["AVG", "AVG(paper)"], rows, title=self.title
        )


__all__ = ["PairFigure", "family_of", "pair_speedup_sweep", "pair_streams"]
