"""The runtime systems under evaluation.

* :class:`CudaRuntimeSystem` — the paper's baseline: static provisioning
  through the bare CUDA runtime (applications keep their programmed
  device, one process/context per application, no scheduling).
* :class:`RainSystem` — the authors' earlier scheduler: gPool-wide
  workload balancing over Design I backends (process per application);
  optional device-level policies (TFS-Rain, LAS-Rain) and feedback.
* :class:`Design2System` — the paper's middle design (Fig. 5): workload
  balancing over packed contexts, but ONE shared master issue thread per
  device, so blocking calls head-of-line block co-resident tenants.
* :class:`StringsSystem` — the paper's contribution: workload balancing +
  Design III backends + context packing + device-level scheduling +
  device feedback to the balancer.

A system is constructed once per experiment over a set of nodes and hands
out one :class:`GpuSession` per application request.  The scheduled
systems share one session factory: :meth:`_ScheduledSystem.session`
builds the session from the class's ``SESSION_CLS`` and the subclass's
:meth:`_bind_worker` hook, which maps a bound GID onto the design's
backend worker (per-app process / shared master / per-app thread).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.sim import Environment
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.remoting.backend import BackendDaemon
from repro.remoting.rpc import RpcCostModel
from repro.core.affinity import GpuAffinityMapper
from repro.core.config import DEFAULT_CONFIG, SchedulerConfig
from repro.core.feedback import SchedulerFeedbackTable
from repro.core.gpool import GPool
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.packer import ContextPacker
from repro.core.policies.balancing import BalancingPolicy, GRR
from repro.core.policies.device import AlwaysAwake, DevicePolicy
from repro.core.policies.feedback import FeedbackPolicy
from repro.core.sessions import (
    Design2Session,
    DirectSession,
    ManagedSession,
    RainSession,
    StringsSession,
)

#: Factory for per-device policy instances (each device gets its own loop).
DevicePolicyFactory = Callable[[], DevicePolicy]


class CudaRuntimeSystem:
    """Baseline: applications statically pick their programmed device."""

    name = "CUDA"

    def __init__(self, env: Environment, nodes: Sequence[Node], network: Optional[Network] = None) -> None:
        self.env = env
        self.nodes = list(nodes)
        self.network = network or Network()

    def session(
        self,
        app_name: str,
        frontend_node: Node,
        tenant_id: str = "t0",
        tenant_weight: float = 1.0,
    ) -> DirectSession:
        """A native-runtime session on the application's own node."""
        return DirectSession(self.env, app_name, frontend_node, tenant_id)


class _ScheduledSystem:
    """Shared base of the scheduled systems: pool + mapper + device
    schedulers, and the one session factory they all use."""

    name = "?"
    #: The session class :meth:`session` instantiates.
    SESSION_CLS: type = ManagedSession

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[Node],
        network: Optional[Network] = None,
        balancing: Optional[BalancingPolicy] = None,
        device_policy: Optional[DevicePolicyFactory] = None,
        config: SchedulerConfig = DEFAULT_CONFIG,
        rpc: Optional[RpcCostModel] = None,
    ) -> None:
        self.env = env
        self.nodes = list(nodes)
        self.network = network or Network()
        self.rpc = rpc or RpcCostModel()
        self.config = config
        self.pool = GPool(self.nodes)
        self.sft = SchedulerFeedbackTable(telemetry=env.telemetry)

        balancing = balancing if balancing is not None else GRR()
        if isinstance(balancing, FeedbackPolicy) and balancing.sft is not self.sft:
            # The policy must read the same SFT the feedback engine fills.
            balancing.sft = self.sft
        self.mapper = GpuAffinityMapper(env, self.pool, balancing, sft=self.sft)

        self.daemons: Dict[str, BackendDaemon] = {
            node.hostname: BackendDaemon(env, node) for node in self.nodes
        }

        factory = device_policy if device_policy is not None else AlwaysAwake
        self.schedulers: Dict[int, GpuScheduler] = {}
        for gid in self.pool.gids():
            self.schedulers[gid] = GpuScheduler(
                env,
                self.pool.device(gid),
                gid,
                policy=factory(),
                config=config,
                feedback_sink=self.mapper.deliver_feedback,
            )

    def _daemon_for(self, gid: int) -> BackendDaemon:
        entry = self.pool.gmap.lookup(gid)
        return self.daemons[entry.hostname]

    def label(self) -> str:
        """Experiment label, e.g. ``GWtMin+LAS-Strings``.

        Robust to an empty scheduler map (a zero-GPU pool): the label is
        then just ``<policy>-<name>``, without a device-policy suffix.
        """
        first = next(iter(self.schedulers.values()), None)
        dev = first.policy.name if first is not None else "none"
        suffix = "" if dev == "none" else f"+{dev}"
        return f"{self.mapper.policy.name}{suffix}-{self.name}"

    # -- the shared session factory -----------------------------------------

    def _session_kwargs(self) -> dict:
        """Extra keyword arguments for ``SESSION_CLS``."""
        return {}

    def _bind_worker(self, sess: ManagedSession, gid: int, entry, daemon: BackendDaemon):
        """Map a bound GID onto the design's backend worker.

        Called from inside the session's bind, after the scheduler is
        installed; returns the :class:`~repro.cuda.CudaThread` the
        session issues on.
        """
        raise NotImplementedError

    def session(
        self,
        app_name: str,
        frontend_node: Node,
        tenant_id: str = "t0",
        tenant_weight: float = 1.0,
    ) -> ManagedSession:
        """A balanced session backed by this design's backend worker."""

        def binder(sess: ManagedSession, gid: int):
            entry = self.pool.gmap.lookup(gid)
            daemon = self._daemon_for(gid)
            sess.scheduler = self.schedulers[gid]
            return self._bind_worker(sess, gid, entry, daemon)

        return self.SESSION_CLS(
            self.env,
            app_name,
            frontend_node,
            self.mapper,
            self.network,
            self.rpc,
            tenant_id=tenant_id,
            tenant_weight=tenant_weight,
            binder=binder,
            config=self.config,
            **self._session_kwargs(),
        )


class RainSystem(_ScheduledSystem):
    """The authors' earlier Design I scheduler (no context packing)."""

    name = "Rain"
    SESSION_CLS = RainSession

    def _bind_worker(self, sess, gid, entry, daemon):
        """A dedicated backend process (own GPU context) for one app."""
        return daemon.design1_worker(sess.app_name, entry.local_id)


class StringsSystem(_ScheduledSystem):
    """The paper's contribution: Design III + context packing + feedback.

    ``mot_enabled`` / ``sst_enabled`` are ablation switches for the Memory
    Operation Translator and Sync Stream Translator (DESIGN.md §5).
    """

    name = "Strings"
    SESSION_CLS = StringsSession

    def __init__(self, *args, mot_enabled: bool = True, sst_enabled: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mot_enabled = mot_enabled
        self.sst_enabled = sst_enabled
        #: One Context Packer (and PMT) per device.
        self.packers: Dict[int, ContextPacker] = {
            gid: ContextPacker() for gid in self.pool.gids()
        }

    def _session_kwargs(self) -> dict:
        return {"mot_enabled": self.mot_enabled, "sst_enabled": self.sst_enabled}

    def _bind_worker(self, sess, gid, entry, daemon):
        """A backend *thread* in the per-device process: shares that
        process's single GPU context with every co-located tenant."""
        sess._set_packer(self.packers[gid])
        return daemon.design3_worker(sess.app_name, entry.local_id)


class Design2System(StringsSystem):
    """Design II as a first-class system (paper Fig. 5, middle).

    Packed contexts like Strings — per-app streams, MOT staging — but one
    shared master issue thread per device: every resident tenant's calls
    funnel through the master's
    :class:`~repro.remoting.worker.BackendIssueLoop`, so a blocking call
    from one application stalls every other tenant's queued calls.  Run
    next to :class:`RainSystem`/:class:`StringsSystem` by the ablation
    harness to measure that head-of-line-blocking penalty.
    """

    name = "Design2"
    SESSION_CLS = Design2Session

    def _bind_worker(self, sess, gid, entry, daemon):
        """The device's shared master: the session issues on the master's
        one thread, through the master's shared loop."""
        sess._set_packer(self.packers[gid])
        master = daemon.design2_worker(sess.app_name, entry.local_id)
        sess._attach_shared_loop(master.loop)
        return master.thread


__all__ = [
    "CudaRuntimeSystem",
    "Design2System",
    "DevicePolicyFactory",
    "RainSystem",
    "StringsSystem",
]
