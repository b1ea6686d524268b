"""Extension experiment — gPool scale-out beyond the paper's two nodes.

The paper builds its supernode from exactly two machines and notes that
GPU remoting "at scale" (network contention, many nodes) is future work
(Section III.A / VII).  This extension sweeps the supernode size from one
to ``max_nodes`` dual-GPU nodes under a fixed aggregate workload and
reports how mean completion time and speedup scale — including the
diminishing returns once the workload stops being GPU-bound and the
remote-transfer share grows.

Run:  python -m repro.harness scaleout
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.cluster import Network, Node
from repro.simgpu.specs import NODE_A_DEVICES
from repro.core.policies import GMin
from repro.core.systems import Design2System, RainSystem, StringsSystem
from repro.metrics import mean_completion_s
from repro.workloads import exponential_stream
from repro.apps import app_by_short
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import run_stream_experiment

#: Mixed aggregate workload: a long compute app, a bandwidth hog and a
#: short transfer-heavy app, all arriving at node 0.
WORKLOAD = ("DC", "HI", "MC")

#: Systems selectable via ``python -m repro.harness scaleout -O system=...``.
SYSTEMS = {
    "strings": StringsSystem,
    "design2": Design2System,
    "rain": RainSystem,
}


def build_n_node_cluster(n: int):
    """A testbed factory for ``n`` dual-GPU nodes (NodeA hardware each)."""

    def build(env: Environment, trace: bool = False) -> Tuple[List[Node], Network]:
        nodes = [
            Node(env, NODE_A_DEVICES, hostname=f"node{i}", trace=trace)
            for i in range(n)
        ]
        return nodes, Network()

    return build


@registry.register("scaleout")
class Scaleout(registry.Experiment):
    """Scale-out — completion time and speedup over growing gPool sizes."""

    options = {
        "system": "strings | design2 | rain",
        "max_nodes": "largest gPool size in dual-GPU nodes (default 4)",
    }

    def prepare(self, ctx: registry.ExperimentContext) -> None:
        self.system = ctx.parsed_option("system", registry.one_of(SYSTEMS), "strings")
        self.max_nodes = ctx.parsed_option("max_nodes", int, 4)

    def run(self, ctx: registry.ExperimentContext):
        """Mean completion time and speedup vs the 1-node deployment, per
        gPool size in nodes."""
        scale = ctx.scale
        system_cls = SYSTEMS[self.system]
        out: Dict[int, Dict[str, float]] = {}
        base_mean = None
        for n in range(1, self.max_nodes + 1):
            def factory(env, nodes, net):
                return system_cls(env, nodes, net, balancing=GMin())

            rng = RandomStream(scale.seed, "scaleout")
            streams = [
                exponential_stream(
                    app_by_short(short),
                    rng.spawn(short),
                    scale.requests_per_stream,
                    scale.pair_load_factor,
                    node_index=0,
                )
                for short in WORKLOAD
            ]
            res = run_stream_experiment(
                factory, streams, build_n_node_cluster(n), label=f"{n}-node"
            )
            mean = mean_completion_s(res.results)
            if base_mean is None:
                base_mean = mean
            out[n] = {
                "gpus": 2 * n,
                "mean_completion_s": mean,
                "speedup_vs_1node": base_mean / mean,
            }
        return out

    def analyze(self, data, ctx: registry.ExperimentContext) -> str:
        system = str(ctx.option("system", "strings"))
        rows = [
            [n, d["gpus"], d["mean_completion_s"], d["speedup_vs_1node"]]
            for n, d in sorted(data.items())
        ]
        name = SYSTEMS[system].name
        return format_table(
            ["Nodes", "GPUs", "Mean completion (s)", "Speedup vs 1 node"],
            rows,
            title=f"Scale-out extension — GMin-{name} over growing gPools "
                  "(fixed aggregate workload arriving at node 0)",
        )
