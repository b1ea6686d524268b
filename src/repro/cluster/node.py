"""Nodes and testbed builders.

``build_small_server`` and ``build_paper_supernode`` reproduce the two
hardware configurations of the paper's evaluation (Section V.C):

* small-scale server — one node, two GPUs (NodeA: Quadro 2000 + Tesla
  C2050);
* emulated high-end server — a two-node supernode with four heterogeneous
  GPUs (NodeA as above, NodeB: Quadro 4000 + Tesla C2070) joined by
  dedicated Gigabit Ethernet.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.sim import Environment
from repro.simgpu import GpuDevice
from repro.simgpu.specs import (
    DeviceSpec,
    NODE_A_DEVICES,
    NODE_B_DEVICES,
)
from repro.cluster.network import Network

_node_seq = itertools.count(1)


class Node:
    """One server machine with locally attached GPUs.

    Parameters
    ----------
    env:
        Simulation environment.
    specs:
        Hardware descriptions of the attached GPUs (local device ids follow
        list order).
    hostname:
        Label; also used as the node's "IP" in the gMap.
    trace:
        Record busy intervals on every device (see
        :class:`~repro.simgpu.GpuDevice`); only Fig. 2 reads them.
    """

    def __init__(
        self,
        env: Environment,
        specs: Sequence[DeviceSpec],
        hostname: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self.env = env
        self.node_id = next(_node_seq)
        self.hostname = hostname or f"10.1.2.{self.node_id}"
        self.devices: List[GpuDevice] = [
            GpuDevice(env, spec, trace=trace) for spec in specs
        ]

    @property
    def device_count(self) -> int:
        """Number of locally attached GPUs."""
        return len(self.devices)

    def local_device(self, local_id: int) -> GpuDevice:
        """The GPU at local index ``local_id``."""
        return self.devices[local_id]

    def __repr__(self) -> str:
        names = [d.spec.name for d in self.devices]
        return f"<Node {self.hostname} gpus={names}>"


def build_small_server(
    env: Environment, trace: bool = False
) -> Tuple[List[Node], Network]:
    """The paper's small-scale server: one node, Quadro 2000 + Tesla C2050."""
    node = Node(env, NODE_A_DEVICES, hostname="nodeA", trace=trace)
    return [node], Network()


def build_single_gpu_server(
    env: Environment, trace: bool = False
) -> Tuple[List[Node], Network]:
    """A one-GPU node (Tesla C2050): the paper's GPU-sharing/fairness rig,
    where application pairs are forced onto the same device."""
    from repro.simgpu.specs import TESLA_C2050

    node = Node(env, [TESLA_C2050], hostname="nodeA", trace=trace)
    return [node], Network()


def build_paper_supernode(
    env: Environment, trace: bool = False
) -> Tuple[List[Node], Network]:
    """The paper's emulated 4-GPU server: NodeA + NodeB over dedicated GigE."""
    node_a = Node(env, NODE_A_DEVICES, hostname="nodeA", trace=trace)
    node_b = Node(env, NODE_B_DEVICES, hostname="nodeB", trace=trace)
    return [node_a, node_b], Network()


__all__ = [
    "Node",
    "build_paper_supernode",
    "build_single_gpu_server",
    "build_small_server",
]
