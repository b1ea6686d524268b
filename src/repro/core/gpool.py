"""gPool, gMap and the Device Status Table (paper Sections III.A, III.C).

At start-up the gPool Creator collects device information from every
node's backend daemon, assigns each GPU a cluster-global id (GID), builds
the ``gMap`` (GID → (node, local device id)) and assigns each device a
static relative weight from its datasheet capabilities.  The Device
Status Table (DST) couples that static information with dynamic state —
most importantly the *device load* that GMin/GWtMin balance on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.node import Node
from repro.simgpu import GpuDevice
from repro.simgpu.specs import DeviceSpec


class DeviceHealth(enum.Enum):
    """Fault-model state of one DST row (DESIGN.md §Fault Model).

    HEALTHY → UNHEALTHY on an injected device loss / backend crash;
    UNHEALTHY → DRAINING when the device comes back (warm-up window with a
    load penalty so load-balancing policies don't stampede it);
    DRAINING → HEALTHY once the warm-up expires.
    """

    HEALTHY = "healthy"
    UNHEALTHY = "unhealthy"
    DRAINING = "draining"


@dataclass(frozen=True)
class GMapEntry:
    """One row of the gMap: a global GPU id and its physical location."""

    gid: int
    hostname: str
    local_id: int


class GMap:
    """GID → (node, local device id) mapping, broadcast to every node."""

    def __init__(self, entries: Sequence[GMapEntry]) -> None:
        self._by_gid: Dict[int, GMapEntry] = {e.gid: e for e in entries}
        if len(self._by_gid) != len(entries):
            raise ValueError("duplicate GIDs in gMap")

    def lookup(self, gid: int) -> GMapEntry:
        """Resolve a GID to its physical location."""
        try:
            return self._by_gid[gid]
        except KeyError:
            raise KeyError(f"GID {gid} not in gMap") from None

    def gids(self) -> List[int]:
        """All global ids, ascending."""
        return sorted(self._by_gid)

    def __len__(self) -> int:
        return len(self._by_gid)

    def __iter__(self):
        return iter(sorted(self._by_gid.values(), key=lambda e: e.gid))


@dataclass
class DeviceStatus:
    """One row of the Device Status Table.

    ``device_load`` counts the applications currently bound to the GPU —
    the paper notes (Section V.D) this is an imperfect proxy for actual
    load under Strings' concurrent execution, which is a designed-in
    property that lets GRR beat GMin on some workloads.
    """

    gid: int
    hostname: str
    local_id: int
    spec: DeviceSpec
    weight: float
    device_load: int = 0
    #: Sum of SFT-estimated runtimes of bound apps (used by RTF).
    estimated_load_s: float = 0.0
    #: Sum of SFT-estimated GPU utilizations of bound apps (used by GUF).
    utilization_load: float = 0.0
    #: Bound apps' profile summaries for contrast policies (DTF/MBF):
    #: list of (transfer_fraction, mem_bandwidth_gbps) tuples.
    bound_profiles: List[Tuple[float, float]] = field(default_factory=list)
    #: Fault-model state (updated by the recovery manager, never by the
    #: Target GPU Selector itself).
    health: DeviceHealth = DeviceHealth.HEALTHY
    #: Warm-up load handicap of a DRAINING device: added to
    #: :attr:`effective_load` so recovered GPUs re-enter gradually.
    load_penalty: float = 0.0

    @property
    def effective_load(self) -> float:
        """``device_load`` plus the recovery warm-up penalty.

        Equals ``device_load`` exactly while no fault recovery is active
        (``x + 0.0 == float(x)`` for the int loads involved), so policies
        keyed on it select identically on the null fault path.
        """
        return self.device_load + self.load_penalty


class DeviceStatusTable:
    """The DST: static weights plus dynamic load for every GPU in the gPool."""

    def __init__(self) -> None:
        self._rows: Dict[int, DeviceStatus] = {}

    def add(self, row: DeviceStatus) -> None:
        if row.gid in self._rows:
            raise ValueError(f"GID {row.gid} already in DST")
        self._rows[row.gid] = row

    def row(self, gid: int) -> DeviceStatus:
        """The status row for ``gid``."""
        return self._rows[gid]

    def rows(self) -> List[DeviceStatus]:
        """All rows, by ascending GID."""
        return [self._rows[g] for g in sorted(self._rows)]

    def eligible_rows(self) -> List[DeviceStatus]:
        """Rows the Target GPU Selector may place on: everything not
        UNHEALTHY (DRAINING devices are placeable, at a penalty).

        Identical to :meth:`rows` while every device is healthy.  Policies
        fall back to the full table when this is empty — binding to a dead
        GPU (and failing fast) beats deadlocking the arrival stream.
        """
        return [r for r in self.rows() if r.health is not DeviceHealth.UNHEALTHY]

    def eligible_gids(self) -> List[int]:
        """GIDs of :meth:`eligible_rows`, ascending."""
        return [r.gid for r in self.eligible_rows()]

    def __len__(self) -> int:
        return len(self._rows)

    # -- load bookkeeping (updated by the Target GPU Selector) -----------

    def bind(
        self,
        gid: int,
        estimated_runtime_s: float = 0.0,
        estimated_utilization: float = 0.0,
        profile: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Record an application binding to ``gid``."""
        row = self._rows[gid]
        row.device_load += 1
        row.estimated_load_s += estimated_runtime_s
        row.utilization_load += estimated_utilization
        if profile is not None:
            row.bound_profiles.append(profile)

    def unbind(
        self,
        gid: int,
        estimated_runtime_s: float = 0.0,
        estimated_utilization: float = 0.0,
        profile: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Record an application unbinding from ``gid``."""
        row = self._rows[gid]
        row.device_load = max(0, row.device_load - 1)
        row.estimated_load_s = max(0.0, row.estimated_load_s - estimated_runtime_s)
        row.utilization_load = max(0.0, row.utilization_load - estimated_utilization)
        if profile is not None and profile in row.bound_profiles:
            row.bound_profiles.remove(profile)


class GPool:
    """The logical aggregation of every GPU reachable through remoting.

    Built by the gPool Creator from per-node backend device reports; holds
    the gMap, the DST and direct references to the simulated devices.
    """

    def __init__(self, nodes: Sequence[Node], reference_spec: Optional[DeviceSpec] = None) -> None:
        if not nodes:
            raise ValueError("gPool needs at least one node")
        self.nodes = list(nodes)
        entries: List[GMapEntry] = []
        self.dst = DeviceStatusTable()
        self._devices: Dict[int, GpuDevice] = {}

        specs = [d.spec for n in nodes for d in n.devices]
        if reference_spec is None and specs:
            # Weight relative to the most capable card in the pool.  A
            # zero-GPU pool (CPU-only nodes) has nothing to weight; it is
            # legal and simply schedules nothing.
            reference_spec = max(specs, key=lambda s: s.peak_gflops * s.mem_bandwidth_gbps)

        gid = 0
        for node in self.nodes:
            for local_id, device in enumerate(node.devices):
                entries.append(GMapEntry(gid, node.hostname, local_id))
                self.dst.add(
                    DeviceStatus(
                        gid=gid,
                        hostname=node.hostname,
                        local_id=local_id,
                        spec=device.spec,
                        weight=device.spec.compute_weight(reference_spec),
                    )
                )
                self._devices[gid] = device
                # Name the device's trace tracks after its global id.
                device.set_track(f"GPU{gid}")
                gid += 1
        self.gmap = GMap(entries)

    # -- lookups ------------------------------------------------------------

    def device(self, gid: int) -> GpuDevice:
        """The simulated device behind a GID."""
        return self._devices[gid]

    def gids(self) -> List[int]:
        """All GIDs, ascending."""
        return self.gmap.gids()

    def is_local(self, gid: int, hostname: str) -> bool:
        """True if ``gid`` is attached to the node named ``hostname``."""
        return self.gmap.lookup(gid).hostname == hostname

    def __len__(self) -> int:
        return len(self.gmap)


__all__ = [
    "DeviceHealth",
    "DeviceStatus",
    "DeviceStatusTable",
    "GMap",
    "GMapEntry",
    "GPool",
]
