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
    #: Service in the open epoch (TFS slice, LAS epoch ``_epoch``).
    epoch_service_s: float = 0.0
    #: :attr:`cgs` as of the close of RCB epoch ``_epoch``.
    _cgs: float = 0.0
    _epoch: int = 0
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
        self._bump()

    def issue(self) -> None:
        """An op passed the gate and was handed to the device."""
        self.pending = max(0, self.pending - 1)
        self.inflight += 1
        self._bump()

    def abandon(self) -> None:
        """An issued op failed before completing: it only leaves the
        in-flight count (no service, no idle watch, no notification)."""
        self.inflight = max(0, self.inflight - 1)
        self._bump()

    def _bump(self) -> None:
        if self._rcb is not None:
            self._rcb.changes += 1

    def complete(self, record: dict) -> None:
        """Request-Monitor update on an op completion record."""
        self._replay()
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
        self._bump()
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

    @property
    def cgs(self) -> float:
        """Time-decayed cumulative GPU service (LAS, paper eq. 1).

        The LAS dispatcher closes epochs on the RCB's counter
        (:meth:`RequestControlBlock.close_epoch`) instead of rolling every
        entry.  Reading or setting this, and a completion, first replays
        the decays this entry missed with :meth:`roll_epoch`, so a read
        gives exactly what rolling every live entry at every quantum end
        would have given."""
        self._replay()
        return self._cgs

    @cgs.setter
    def cgs(self, value: float) -> None:
        self._replay()
        self._cgs = value

    def roll_epoch(self, k: float) -> None:
        """Close one service epoch, applying the LAS time decay (paper
        eq. 1): ``CGS_n = k * GS_n + (1 - k) * CGS_{n-1}``.

        The replay runs it once per missed epoch: the first consumes the
        epoch's service, each later one computes ``k * 0.0 + (1 - k) *
        CGS``, the float operations eager rolling performed."""
        self._cgs = k * self.epoch_service_s + (1.0 - k) * self._cgs
        self.epoch_service_s = 0.0

    def _replay(self) -> None:
        """Apply the epochs the RCB closed since this entry was current
        (none once unregistered: a closed epoch rolls live entries only)."""
        rcb = self._rcb
        if rcb is None or self.unregistered:
            return
        behind = rcb.epoch - self._epoch
        if behind:
            self._epoch = rcb.epoch
            for _ in range(behind):
                self.roll_epoch(rcb.las_k)

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
    """The per-device RCB: every application registered on the device.

    Two counters let a dispatcher spend O(1) on a quantum that changes
    nothing.  :attr:`changes` counts every mutation a pick reads
    (register, unregister, and an entry's demand, issue, complete and
    abandon); bumping it never fires :meth:`changed_event`, which would
    cost an event.  :attr:`epoch` counts the LAS service epochs closed by
    :meth:`close_epoch`; each entry replays the decays it missed when it
    next needs its CGS (see :attr:`RcbEntry.cgs`).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._entries: Dict[int, RcbEntry] = {}
        #: Fires whenever an entry registers / unregisters (dispatcher wake).
        self._changed: Optional[Event] = None
        self.registrations = 0
        #: Mutations a dispatcher's pick depends on, so far.
        self.changes = 0
        #: LAS epochs closed so far, and the decay constant they apply.
        self.epoch = 0
        self.las_k = 0.0

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
        entry._epoch = self.epoch
        self._entries[entry.stream_id] = entry
        self.registrations += 1
        self.changes += 1
        self._notify()
        return entry

    def unregister(self, entry: RcbEntry) -> None:
        """Remove an entry (on ``cudaThreadExit``)."""
        entry._replay()
        entry.unregistered = True
        # Wake anything still parked at the gate so teardown can't deadlock.
        entry.awake = True
        for ev in entry._waiters:
            if not ev.triggered:
                ev.succeed()
        entry._waiters.clear()
        entry._fire_idle()
        self._entries.pop(entry.stream_id, None)
        self.changes += 1
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

    def close_epoch(self, k: float) -> None:
        """Close a LAS service epoch for every live entry, in O(1): each
        replays the decay with ``k`` (the dispatcher's constant) later."""
        self.las_k = k
        self.epoch += 1

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
