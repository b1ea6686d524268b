"""Per-node backend daemons and the three frontend→backend designs.

Paper Fig. 5:

* **Design I** — one backend *process* per frontend application.  Full
  isolation, but each application gets its own GPU context, so GPU
  operations from different applications never overlap and every handover
  pays a context switch.  This is the organisation of the authors' earlier
  'Rain' scheduler.
* **Design II** — one backend *master thread* per device hosting all
  applications' work in one GPU context over CUDA streams.  Maximum
  sharing, but the single thread serializes call issue and a blocking call
  from one application stalls every tenant.
* **Design III (Strings)** — one backend process per device with a
  *thread per application*, all sharing the process's single GPU context
  via separate CUDA streams: the sharing of Design II without its
  head-of-line blocking.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim import Environment, Event
from repro.cluster.node import Node
from repro.cuda import CudaThread, HostProcess
from repro.remoting.worker import BackendIssueLoop, IssueItem


class DesignIIMaster:
    """The single issue thread of a Design II backend.

    All tenants' calls funnel through one shared
    :class:`~repro.remoting.worker.BackendIssueLoop`; the master executes
    them in arrival order, *waiting out* blocking calls before touching the
    next tenant's work — the head-of-line blocking the paper's Design III
    eliminates.  :class:`~repro.core.systems.Design2System` sessions post
    :class:`IssueItem`\\ s onto :attr:`loop` directly; :meth:`submit` keeps
    the raw closure interface used by the design ablation benchmark.
    """

    def __init__(self, env: Environment, process: HostProcess, device_index: int) -> None:
        self.env = env
        self.process = process
        self.device_index = device_index
        #: The master's one CUDA thread: every resident tenant's calls are
        #: issued on it, inside the process's single GPU context.
        self.thread: CudaThread = process.spawn_thread()
        self.thread.set_device(device_index)
        self.calls_served = 0
        #: The shared per-device issue loop (Fig. 5, middle design).
        self.loop = BackendIssueLoop(
            env, name=f"design2-master:dev{device_index}", on_served=self._served
        )

    def _served(self, item: IssueItem, result) -> None:
        self.calls_served += 1
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("backend.design2_calls", device=self.device_index).inc()

    def submit(self, call) -> Event:
        """Enqueue a call closure ``call(thread) -> generator``; returns an
        event that fires with the call's result once the master ran it."""
        done = self.env.event()
        self.loop.post(
            IssueItem(
                owner=None,
                phase=None,
                make=lambda: self.env.process(call(self.thread)),
                blocking=True,
                done=done,
                gated=False,
                posted_at=self.env.now,
            )
        )
        return done


class BackendDaemon:
    """The per-node daemon that hosts backend workers.

    The daemon owns one *backend process* per local GPU for Design III
    bindings, creates throwaway per-application processes for Design I
    bindings, and reports device information for gPool creation.
    """

    def __init__(self, env: Environment, node: Node) -> None:
        self.env = env
        self.node = node
        #: Design III: one long-lived host process per local device.
        self._device_procs: Dict[int, HostProcess] = {}
        #: Design II: one master thread per local device.
        self._masters: Dict[int, DesignIIMaster] = {}

    # -- gPool support ----------------------------------------------------

    def device_info(self) -> List[Tuple[str, int, object]]:
        """(hostname, local_id, spec) for every local GPU — what each
        backend sends to the gPool Creator at start-up."""
        return [
            (self.node.hostname, i, dev.spec) for i, dev in enumerate(self.node.devices)
        ]

    # -- Design I ------------------------------------------------------------

    def design1_worker(self, app_name: str, local_device: int) -> CudaThread:
        """A dedicated backend process (own GPU context) for one app."""
        proc = HostProcess(
            self.env, self.node.devices, name=f"{self.node.hostname}/bp-{app_name}"
        )
        thread = proc.spawn_thread()
        thread.set_device(local_device)
        self._count_worker("design1")
        return thread

    def _count_worker(self, design: str) -> None:
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter("backend.workers", design=design, host=self.node.hostname).inc()

    # -- Design II --------------------------------------------------------------

    def design2_master(self, local_device: int) -> DesignIIMaster:
        """The shared master issue thread for one device."""
        master = self._masters.get(local_device)
        if master is None:
            proc = self._device_process(local_device)
            master = DesignIIMaster(self.env, proc, local_device)
            self._masters[local_device] = master
        return master

    def design2_worker(self, app_name: str, local_device: int) -> DesignIIMaster:
        """Bind one app onto the device's shared master (Design II).

        Unlike Designs I/III, no new thread is created: the binding app
        shares the master's single context and issue loop with every
        co-resident tenant.  Returns the master; the caller issues on
        ``master.thread`` through ``master.loop``.
        """
        master = self.design2_master(local_device)
        self._count_worker("design2")
        return master

    # -- Design III ----------------------------------------------------------------

    def _device_process(self, local_device: int) -> HostProcess:
        proc = self._device_procs.get(local_device)
        if proc is None:
            proc = HostProcess(
                self.env,
                self.node.devices,
                name=f"{self.node.hostname}/bp-dev{local_device}",
            )
            self._device_procs[local_device] = proc
        return proc

    def design3_worker(self, app_name: str, local_device: int) -> CudaThread:
        """A backend *thread* in the per-device process: shares that
        process's single GPU context with every co-located tenant."""
        proc = self._device_process(local_device)
        thread = proc.spawn_thread()
        thread.set_device(local_device)
        self._count_worker("design3")
        return thread

    def crash_device(self, local_device: int) -> bool:
        """Kill the per-device backend process (fault injection).

        Every resident worker thread exits (their streams are destroyed and
        allocations freed) and the process — plus any Design II master on
        it — is forgotten, so the next binding re-spawns a fresh process,
        exactly like a supervisor restarting a crashed daemon child.
        Returns False when no process existed (nothing to crash).
        """
        self._masters.pop(local_device, None)
        proc = self._device_procs.pop(local_device, None)
        if proc is None:
            return False
        for thread in list(proc.threads):
            if not thread.exited:
                thread.thread_exit()
        proc.teardown()
        tel = self.env.telemetry
        if tel.enabled:
            tel.counter(
                "backend.crashes", host=self.node.hostname, device=local_device
            ).inc()
        return True

    def resident_tenants(self, local_device: int) -> int:
        """Live Design III worker threads bound to ``local_device``."""
        proc = self._device_procs.get(local_device)
        if proc is None:
            return 0
        return sum(1 for t in proc.threads if not t.exited)


__all__ = ["BackendDaemon", "DesignIIMaster"]
