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
out one :class:`GpuSession` per application request.  Each scheduled
system is one backend design (paper Fig. 5): every session it hands out
is a :class:`ManagedSession`, which shares the system's translation stack
and calls the design hooks of :class:`_ScheduledSystem` on it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.sim import Environment
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cuda import CudaThread
from repro.remoting.backend import BackendDaemon
from repro.remoting.rpc import RpcCostModel
from repro.remoting.worker import BackendIssueLoop
from repro.core.affinity import GpuAffinityMapper
from repro.core.config import DEFAULT_CONFIG, SchedulerConfig
from repro.core.feedback import SchedulerFeedbackTable
from repro.core.gpool import GPool
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.packer import ContextPacker
from repro.core.policies.balancing import BalancingPolicy, GRR
from repro.core.policies.device import AlwaysAwake, DevicePolicy
from repro.core.policies.feedback import FeedbackPolicy
from repro.core.sessions import DirectSession, ManagedSession
from repro.core.translation import (
    TranslationStack,
    native_stack,
    packed_stack,
    shared_thread_stack,
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
    schedulers, the one session factory, and the design hooks a session
    calls on its system: ``_issue_loop`` when it is made,
    ``_bind_worker`` and ``_bound`` in its bind, ``_release_worker`` on
    finish and abort.

    A subclass is one backend design: it sets :attr:`translation`,
    defines :meth:`_bind_worker`, and overrides the other hooks where its
    backend differs from a private issue loop and a worker thread of the
    session's own.
    """

    name = "?"
    #: The call-semantics strategies every session of this system shares
    #: (the strategies hold no state).
    translation: TranslationStack

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

    def session(
        self,
        app_name: str,
        frontend_node: Node,
        tenant_id: str = "t0",
        tenant_weight: float = 1.0,
    ) -> ManagedSession:
        """A balanced session backed by this design's backend worker."""
        return ManagedSession(self, app_name, frontend_node, tenant_id, tenant_weight)

    # -- design hooks, called by ManagedSession -----------------------------

    def _issue_loop(self, sess: ManagedSession) -> Optional[BackendIssueLoop]:
        """The session's issue loop, made when the session is: a private
        loop per session (Designs I/III)."""
        return BackendIssueLoop(self.env, name=f"issue:{sess.app_name}")

    def _bind_worker(self, sess: ManagedSession, gid: int) -> CudaThread:
        """Map a bound GID onto the design's backend worker.

        Called from inside the session's bind, once ``sess.scheduler`` is
        installed; returns the thread the session issues on.
        """
        raise NotImplementedError

    def _bound(self, sess: ManagedSession, gid: int) -> None:
        """The last step of a successful bind (after the response hop)."""

    def _release_worker(self, sess: ManagedSession) -> None:
        """Release the session's worker on finish or abort; may run twice."""
        if sess.worker is not None:
            sess.worker.thread_exit()


class RainSystem(_ScheduledSystem):
    """The authors' earlier Design I scheduler (no context packing).

    Rain balances load across the gPool but cannot pack contexts: GPU
    requests of co-located applications serialize with context switches,
    synchronous memcpys hold the app (and its backend process) for the
    full transfer, and the whole-context ``cudaDeviceSynchronize`` is
    forwarded as-is (:func:`~repro.core.translation.native_stack`).
    """

    name = "Rain"
    translation = native_stack()

    def _bind_worker(self, sess, gid):
        """A dedicated backend process (own GPU context) for one app."""
        entry = self.pool.gmap.lookup(gid)
        return self.daemons[entry.hostname].design1_worker(sess.app_name, entry.local_id)


class StringsSystem(_ScheduledSystem):
    """The paper's contribution: Design III + context packing + feedback.

    Each application's GPU component is a thread in the per-device
    backend process; its ops ride a dedicated stream (SC/AST), sync
    memcpys are staged to pinned memory and issued asynchronously (MOT),
    and device synchronization narrows to the app's own stream (SST).
    ``mot_enabled`` / ``sst_enabled`` are ablation switches for the Memory
    Operation Translator and Sync Stream Translator (DESIGN.md §5).
    """

    name = "Strings"

    def __init__(self, *args, mot_enabled: bool = True, sst_enabled: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mot_enabled = mot_enabled
        self.sst_enabled = sst_enabled
        self.translation = self._packed_stack()
        #: One Context Packer (and PMT) per device.
        self.packers: Dict[int, ContextPacker] = {
            gid: ContextPacker() for gid in self.pool.gids()
        }

    def _packed_stack(self) -> TranslationStack:
        return packed_stack(mot_enabled=self.mot_enabled, sst_enabled=self.sst_enabled)

    def _bind_worker(self, sess, gid):
        """A backend *thread* in the per-device process: shares that
        process's single GPU context with every co-located tenant."""
        entry = self.pool.gmap.lookup(gid)
        return self.daemons[entry.hostname].design3_worker(sess.app_name, entry.local_id)

    def _bound(self, sess, gid):
        """Pack the app into the device's context (SC: its own stream)."""
        sess.packed = self.packers[gid].pack(sess.worker, sess.tenant_id)

    def _release_worker(self, sess):
        """Unpack the app, then exit its backend thread."""
        if sess.packed is not None:
            self.packers[sess.binding.gid].unpack(sess.packed)
        super()._release_worker(sess)


class Design2System(StringsSystem):
    """Design II as a first-class system (paper Fig. 5, middle).

    Packed contexts like Strings — per-app streams, MOT staging — but one
    shared master issue thread per device: every resident tenant's calls
    funnel through the master's
    :class:`~repro.remoting.worker.BackendIssueLoop`, so a blocking call
    (a sync memcpy leg, a stream sync) from one application stalls every
    other tenant's queued calls — head-of-line blocking.  The sync
    strategy deliberately *occupies the master*
    (:class:`~repro.core.translation.QueuedStreamSync`) instead of
    waiting frontend-side like Design III.  Run next to
    :class:`RainSystem`/:class:`StringsSystem` by the ablation harness to
    measure that head-of-line-blocking penalty.
    """

    name = "Design2"

    def _packed_stack(self) -> TranslationStack:
        return shared_thread_stack(mot_enabled=self.mot_enabled)

    def _issue_loop(self, sess):
        """None: the device master's shared loop is attached at bind."""
        return None

    def _bind_worker(self, sess, gid):
        """The device's shared master: the session issues on the master's
        one thread, through the master's shared loop."""
        entry = self.pool.gmap.lookup(gid)
        master = self.daemons[entry.hostname].design2_worker(sess.app_name, entry.local_id)
        sess._loop = master.loop
        return master.thread

    def _release_worker(self, sess):
        """Unpack this app's stream only: the master thread is shared with
        every co-resident tenant and is never exited."""
        if sess.packed is not None:
            self.packers[sess.binding.gid].unpack(sess.packed)
            sess.packed = None


__all__ = [
    "CudaRuntimeSystem",
    "Design2System",
    "DevicePolicyFactory",
    "RainSystem",
    "StringsSystem",
]
