"""Request Control Block (RCB) and GPU phase tracking (paper Section III.C).

The per-device Request Manager registers every application sharing the GPU
in the RCB.  Each entry carries tenant identity/weight, the application's
current GPU phase (Kernel Launch / H2D / D2H / Default — the input of the
Phase Selection policy), attained service with the LAS time-decay, and the
runtime characteristics the Request Monitor accumulates.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import Environment, Event
from repro.simgpu.ops import CopyKind, CopyOp, KernelOp
from repro.core.feedback import AppProfile

_entry_ids = itertools.count(3000)


class GpuPhase(enum.Enum):
    """An application's current phase of GPU usage (paper Fig. 7b)."""

    KL = "kernel-launch"
    H2D = "host-to-device"
    D2H = "device-to-host"
    DFL = "default"


#: The Phase Selection wake-up priority: KL > H2D = D2H > DFL (Section IV.B.3).
PHASE_PRIORITY = {GpuPhase.KL: 0, GpuPhase.H2D: 1, GpuPhase.D2H: 1, GpuPhase.DFL: 2}


@dataclass
class RcbEntry:
    """One registered application on one device."""

    app_name: str
    tenant_id: str
    tenant_weight: float
    registered_at: float
    stream_id: int = field(default_factory=lambda: next(_entry_ids))

    # -- dispatch gate state -------------------------------------------------
    awake: bool = True
    #: Events of ops waiting for the gate while asleep.
    _waiters: List[Event] = field(default_factory=list)

    # -- demand & phase ---------------------------------------------------------
    #: Ops waiting at the gate (demand visible to the dispatcher).
    pending: int = 0
    #: Ops issued to the device and not yet complete.
    inflight: int = 0
    #: Phase of the next pending / currently running op.
    phase: GpuPhase = GpuPhase.DFL

    #: Events armed by dispatchers waiting for this entry to go idle
    #: (fired by :meth:`complete` / unregistration).  Only
    #: :meth:`watch_idle` and :meth:`withdraw_idle` change it.
    _idle_waiters: List[Event] = field(default_factory=list)
    #: Back-reference set by the owning RCB (for change notifications).
    _rcb: Optional["RequestControlBlock"] = None

    # -- attained service (Request Monitor) ----------------------------------------
    service_attained_s: float = 0.0
    epoch_service_s: float = 0.0
    cgs: float = 0.0  # time-decayed cumulative GPU service (LAS, eq. 1)
    tfs_penalty_s: float = 0.0

    # -- profile accumulation ----------------------------------------------------------
    gpu_kernel_time_s: float = 0.0
    transfer_time_s: float = 0.0
    bytes_accessed_gb: float = 0.0
    ops_completed: int = 0
    unregistered: bool = False

    # -- dispatcher-visible helpers ------------------------------------------------------

    @property
    def runnable(self) -> bool:
        """True if waking this entry can produce GPU work right now."""
        return not self.unregistered and (self.pending > 0 or self.inflight > 0)

    def demand(self, phase: GpuPhase) -> None:
        """An op arrived at the gate."""
        self.pending += 1
        self.phase = phase

    def issue(self) -> None:
        """An op passed the gate and was handed to the device."""
        self.pending = max(0, self.pending - 1)
        self.inflight += 1

    def complete(self, record: dict) -> None:
        """Request-Monitor update on an op completion record."""
        elapsed = record["finished_at"] - record["started_at"]
        op = record["op"]
        self.service_attained_s += elapsed
        self.epoch_service_s += elapsed
        if isinstance(op, KernelOp):
            self.gpu_kernel_time_s += elapsed
            self.bytes_accessed_gb += op.bytes_accessed
        else:
            self.transfer_time_s += elapsed
        self.ops_completed += 1
        self.inflight = max(0, self.inflight - 1)
        if self.pending == 0 and self.inflight == 0:
            self.phase = GpuPhase.DFL
            self._fire_idle()
        if self._rcb is not None:
            # Phase/demand changed: let event-driven dispatchers re-evaluate.
            self._rcb.notify_demand()

    def watch_idle(self, event: Event) -> None:
        """Arm ``event`` to fire the next time this (runnable) entry stops
        being runnable; dispatchers use it to end a slice early,
        work-conservingly.  Pass it to :meth:`withdraw_idle` if the wait
        ends another way."""
        self._idle_waiters.append(event)

    def withdraw_idle(self, event: Event) -> None:
        """Disarm an idle waiter, so it never fires (a no-op once fired)."""
        if event in self._idle_waiters:  # events compare by identity
            self._idle_waiters.remove(event)

    def _fire_idle(self) -> None:
        if not self._idle_waiters:
            return
        waiters, self._idle_waiters = self._idle_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def roll_epoch(self, k: float) -> None:
        """Close a service epoch, applying the LAS time decay (paper eq. 1):
        ``CGS_n = k * GS_n + (1 - k) * CGS_{n-1}``."""
        self.cgs = k * self.epoch_service_s + (1.0 - k) * self.cgs
        self.epoch_service_s = 0.0

    def profile(self, now: float, gid: int = -1) -> AppProfile:
        """The Feedback Engine's summary of this application run."""
        return AppProfile(
            app_name=self.app_name,
            runtime_s=now - self.registered_at,
            gpu_time_s=self.gpu_kernel_time_s,
            transfer_time_s=self.transfer_time_s,
            bytes_accessed_gb=self.bytes_accessed_gb,
            gid=gid,
        )


class RequestControlBlock:
    """The per-device RCB: every application registered on the device."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._entries: Dict[int, RcbEntry] = {}
        #: Fires whenever an entry registers / unregisters (dispatcher wake).
        self._changed: Optional[Event] = None
        self.registrations = 0

    # -- registration (Request Manager) ---------------------------------------

    def register(self, app_name: str, tenant_id: str, tenant_weight: float) -> RcbEntry:
        """Create an entry (the paper's 3-way RT-signal handshake)."""
        entry = RcbEntry(
            app_name=app_name,
            tenant_id=tenant_id,
            tenant_weight=tenant_weight,
            registered_at=self.env.now,
        )
        entry._rcb = self
        self._entries[entry.stream_id] = entry
        self.registrations += 1
        self._notify()
        return entry

    def unregister(self, entry: RcbEntry) -> None:
        """Remove an entry (on ``cudaThreadExit``)."""
        entry.unregistered = True
        # Wake anything still parked at the gate so teardown can't deadlock.
        entry.awake = True
        for ev in entry._waiters:
            if not ev.triggered:
                ev.succeed()
        entry._waiters.clear()
        entry._fire_idle()
        self._entries.pop(entry.stream_id, None)
        self._notify()

    def _notify(self) -> None:
        if self._changed is not None and not self._changed.triggered:
            self._changed.succeed()
        self._changed = None

    def notify_demand(self) -> None:
        """Signal the dispatcher that demand appeared at some gate.

        Called by the scheduler on every gated permission request, so an
        idle dispatcher can *block* on :meth:`changed_event` instead of
        polling (critical for event economy in long runs).
        """
        self._notify()

    def changed_event(self) -> Event:
        """An event that fires on the next register/unregister/demand."""
        if self._changed is None or self._changed.triggered:
            self._changed = Event(self.env)
        return self._changed

    # -- views -----------------------------------------------------------------

    def entries(self) -> List[RcbEntry]:
        """Live entries in registration order."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["GpuPhase", "PHASE_PRIORITY", "RcbEntry", "RequestControlBlock"]
