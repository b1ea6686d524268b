"""Device-level GPU scheduling policies (paper Section IV.B).

Each policy supplies the Dispatcher loop that drives the RT-signal gate of
one device:

* **AlwaysAwake** — no gating; every backend thread may issue freely
  (pure CUDA-stream concurrency).  Used when only workload balancing is
  under evaluation.
* **TFS** (True Fair-Share) — weight-proportional slices per tenant with
  a usage history: a tenant that overshot its slice (a kernel running past
  the slice boundary — kernels are non-preemptive) is penalized in its
  next round.  Work-conserving: tenants with no demand are skipped and
  their time flows to the others.  Invariant: at most one backend thread
  is awake at any instant.
* **LAS** (Least Attained Service) — raises the priority of threads with
  the smallest time-decayed cumulative GPU service
  (``CGS_n = k GS_n + (1-k) CGS_{n-1}``, k = 0.8): each quantum, the
  least-served runnable threads (up to one per hardware engine) may
  issue, so short-episode jobs finish sooner, minimizing CPU stall time
  and maximizing throughput at the cost of fairness.  Note the paper
  states the strict at-most-one-awake invariant only for TFS; LAS is a
  priority policy and would forfeit the stream concurrency Strings is
  built on if it serialized tenants.
* **PS** (Phase Selection) — relaxes the TFS invariant by waking one
  thread from *each* GPU phase (kernel launch / H2D / D2H) so all three
  hardware engines stay busy; remaining wake slots are filled in the
  priority order KL > H2D = D2H > DFL.  Within a phase the least-served
  thread is preferred, giving PS its fairness edge over LAS.
"""

from __future__ import annotations

import abc
from operator import is_not
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim import Environment, Event
from repro.core.rcb import PHASE_PRIORITY, GpuPhase, RcbEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.gpu_scheduler import GpuScheduler

#: Smallest slice remnant worth sleeping for.  Below this, floating-point
#: addition can no longer advance the clock (sub-ULP timeouts), so waiting
#: on it would spin the dispatcher forever at one timestamp.
_MIN_WAIT_S = 1e-9



class DevicePolicy(abc.ABC):
    """Supplies the Dispatcher loop for one device."""

    #: Short label used in experiment names ("TFS", "LAS", "PS").
    name: str = "?"
    #: Whether registered entries start asleep under this policy.
    gated: bool = True

    @abc.abstractmethod
    def dispatcher(self, sched: "GpuScheduler"):
        """The dispatcher coroutine (a generator run as a sim process)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class AlwaysAwake(DevicePolicy):
    """No device-level gating: CUDA streams free-for-all."""

    name = "none"
    gated = False

    def dispatcher(self, sched: "GpuScheduler"):
        # Nothing to do, ever; park on an event that never fires.
        yield sched.env.event()


class TFS(DevicePolicy):
    """True Fair-Share: history-penalized weighted round robin."""

    name = "TFS"

    def dispatcher(self, sched: "GpuScheduler"):
        env, rcb, gate, cfg = sched.env, sched.rcb, sched.gate, sched.config
        #: Slice granted to each entry in its previous turn.
        last_alloc: Dict[int, float] = {}

        while True:
            entries = rcb.entries()
            if not entries or not any(e.runnable for e in entries):
                # Block until demand appears; every wake path (register,
                # unregister, gated permission) notifies this event, so a
                # pure block is safe and lets the event queue drain when
                # the workload ends.
                yield rcb.changed_event()
                continue

            total_w = sum(e.tenant_weight for e in entries) or 1.0
            progressed = False
            for entry in list(entries):
                if entry.unregistered:
                    continue
                share = cfg.tfs_epoch_s * entry.tenant_weight / total_w

                # History: anything used beyond the previous grant (e.g. a
                # kernel that outlived its slice) is debited now.
                used = entry.epoch_service_s
                entry.epoch_service_s = 0.0
                if cfg.tfs_history_penalty:
                    overshoot = used - last_alloc.pop(entry.stream_id, 0.0)
                    entry.tfs_penalty_s = max(0.0, entry.tfs_penalty_s + overshoot)
                else:
                    last_alloc.pop(entry.stream_id, None)
                    entry.tfs_penalty_s = 0.0

                payable = min(entry.tfs_penalty_s, share)
                entry.tfs_penalty_s -= payable
                allocated = share - payable
                if allocated < cfg.tfs_min_slice_s:
                    continue
                if not entry.runnable:
                    # Work-conserving: no demand, hand the time onward.
                    continue

                gate.set_awake_exactly(entries, [entry])
                progressed = True
                last_alloc[entry.stream_id] = allocated
                end = env.now + allocated
                while not entry.unregistered:
                    remaining = end - env.now
                    if remaining < _MIN_WAIT_S:
                        break
                    if entry.runnable:
                        # Event-driven slice: wake at slice end or when the
                        # tenant goes idle.  If the slice timed out, the
                        # idle waiter is withdrawn rather than left to fire
                        # later as a no-op.
                        idle = env.event()
                        entry.watch_idle(idle)
                        yield env.any_of([env.timeout(remaining), idle])
                        entry.withdraw_idle(idle)
                        continue
                    # Momentarily idle (e.g. a CPU gap between GPU
                    # episodes): hold the slice for a short grace, then
                    # hand it onward (work conservation).
                    yield env.timeout(min(remaining, cfg.tfs_idle_grace_s))
                    if not entry.runnable:
                        break
                gate.sleep(entry)
            if not progressed:
                # Entries are runnable but every slice was consumed by
                # penalty pay-down: let one epoch elapse so debts amortize.
                yield env.timeout(cfg.tfs_epoch_s)


class LAS(DevicePolicy):
    """Least Attained Service with exponential decay (paper eq. 1)."""

    name = "LAS"

    #: Issue slots per quantum: one per hardware engine, like PS — the
    #: priority boost must not forfeit engine overlap.
    WAKE_SLOTS = 3

    def dispatcher(self, sched: "GpuScheduler"):
        env, rcb, gate, cfg = sched.env, sched.rcb, sched.gate, sched.config
        wait = _QuantumWait(env)
        chosen: List[RcbEntry] = []
        while True:
            entries = rcb.entries()
            runnable = [e for e in entries if e.runnable]
            if not runnable:
                yield rcb.changed_event()  # see TFS: pure block is safe
                continue

            if len(runnable) > self.WAKE_SLOTS:
                runnable.sort(key=lambda e: (e.cgs, e.registered_at))
                del runnable[self.WAKE_SLOTS:]
            # Identity, not ==: RcbEntry is a dataclass comparing every field.
            if len(runnable) != len(chosen) or any(map(is_not, runnable, chosen)):
                wait.withdraw(chosen)
                chosen = runnable
                # Only on a new pick: an unchanged pick is already awake
                # and every other entry asleep, so no signal would move.
                gate.set_awake_exactly(entries, chosen)

            # Every chosen entry is runnable here, so the first wait arms.
            end = env.now + cfg.las_quantum_s
            remaining = end - env.now
            while remaining >= _MIN_WAIT_S:
                yield wait.arm(chosen, remaining)
                if not any(e.runnable for e in chosen):
                    break
                remaining = end - env.now

            # Close the epoch for everyone: non-served entries decay toward
            # zero attained service and rise in priority.
            for e in rcb.entries():
                e.roll_epoch(cfg.las_k)


class _IdleWatch(Event):
    """An idle waiter the LAS dispatcher keeps armed across its waits.

    ``tag`` is the relay of the wait the watch currently serves.
    """

    __slots__ = ("tag",)

    def __init__(self, env: Environment, callback) -> None:
        super().__init__(env)
        self.callbacks.append(callback)
        self.tag: Optional[Event] = None


def _fire_relay(event: Event) -> None:
    """Callback of a wait's last-but-one hop: trigger the relay it carries,
    unless the wait's other path already has."""
    relay = event.value
    if not relay.triggered:
        relay.succeed()


class _QuantumWait:
    """How the LAS dispatcher waits out one quantum (see DESIGN.md §2.2).

    A wait ends at the quantum's timeout or once every chosen entry that
    was runnable when it was armed has gone idle, whichever comes first.
    The dispatcher blocks on one *relay* event per wait.  The hop counts
    below fix where each decision lands in same-time FIFO order, so they
    are part of the simulated output:

    * timeout path, 2 hops: timeout -> relay;
    * idle path, 3 hops: last idle watch -> hop event -> relay.

    Each busy chosen entry carries one :class:`_IdleWatch`, kept armed
    across waits while the entry stays chosen and busy, and re-tagged
    with the current relay; a watch firing with an older tag is ignored.
    A new pick withdraws the old pick's watches.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: The event the dispatcher is blocked on (its tag for watches).
        self.relay: Optional[Event] = None
        #: Busy entries of the current wait that have not gone idle yet.
        self.outstanding = 0
        #: The watch of each entry of the current pick, by stream id.
        self.watches: Dict[int, _IdleWatch] = {}

    def arm(self, chosen: List[RcbEntry], remaining: float) -> Event:
        """Start a wait of at most ``remaining`` seconds; returns its relay."""
        env, watches = self.env, self.watches
        self.relay = relay = Event(env)
        self.outstanding = 0
        for e in chosen:
            if not e.runnable:
                continue  # an idle entry cannot decide when the wait ends
            self.outstanding += 1
            watch = watches.get(e.stream_id)
            if watch is None or watch.triggered:
                watch = watches[e.stream_id] = _IdleWatch(env, self._on_idle)
                e.watch_idle(watch)
            watch.tag = relay
        env.timeout(remaining, relay).callbacks.append(_fire_relay)
        return relay

    def withdraw(self, pick: List[RcbEntry]) -> None:
        """Disarm the watches of a pick that is being replaced."""
        for e in pick:
            watch = self.watches.pop(e.stream_id, None)
            if watch is not None:
                e.withdraw_idle(watch)

    def _on_idle(self, watch: _IdleWatch) -> None:
        relay = self.relay
        if watch.tag is not relay or relay.triggered:
            return  # an older wait's watch, or the timeout already won
        self.outstanding -= 1
        if not self.outstanding:
            hop = Event(self.env)
            hop.callbacks.append(_fire_relay)
            hop.succeed(relay)


class PS(DevicePolicy):
    """Phase Selection: keep every GPU engine busy (paper Fig. 7b)."""

    name = "PS"

    #: One wake slot per hardware engine (compute, H2D DMA, D2H DMA).
    WAKE_SLOTS = 3

    def dispatcher(self, sched: "GpuScheduler"):
        env, rcb, gate, cfg = sched.env, sched.rcb, sched.gate, sched.config
        while True:
            entries = rcb.entries()
            runnable = [e for e in entries if e.runnable]
            if not runnable:
                yield rcb.changed_event()  # see TFS: pure block is safe
                continue

            picked = self._pick(runnable)
            gate.set_awake_exactly(entries, picked)
            yield env.any_of(
                [rcb.changed_event(), env.timeout(cfg.ps_quantum_s)]
            )

    def _pick(self, runnable: List[RcbEntry]) -> List[RcbEntry]:
        """One thread per phase, least-served first; spare slots by
        priority KL > H2D = D2H > DFL."""
        by_phase: Dict[GpuPhase, List[RcbEntry]] = {}
        for e in runnable:
            by_phase.setdefault(e.phase, []).append(e)

        picked: List[RcbEntry] = []
        for phase in (GpuPhase.KL, GpuPhase.H2D, GpuPhase.D2H):
            group = by_phase.get(phase)
            if group:
                picked.append(min(group, key=lambda e: e.service_attained_s))

        if len(picked) < self.WAKE_SLOTS:
            rest = [e for e in runnable if e not in picked]
            rest.sort(key=lambda e: (PHASE_PRIORITY[e.phase], e.service_attained_s))
            picked.extend(rest[: self.WAKE_SLOTS - len(picked)])
        return picked


__all__ = ["AlwaysAwake", "DevicePolicy", "LAS", "PS", "TFS"]
