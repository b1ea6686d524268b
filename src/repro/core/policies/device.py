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
        """The dispatcher coroutine (a generator run as a sim process).

        TFS loops in the generator.  LAS and PS start a callback loop at
        its first resumption, where their first decision has always run,
        and then park for good, as :class:`AlwaysAwake` does; their
        later decisions run from event callbacks."""

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
    """Least Attained Service with exponential decay (paper eq. 1).

    Each quantum wakes the least-served runnable entries, up to
    :attr:`WAKE_SLOTS`, and ends at its timeout or once every chosen busy
    entry has gone idle; then every live entry's CGS decays.  The loop
    runs by callback (:class:`_LasLoop`), so a quantum that changes
    nothing costs one event and O(1) work (DESIGN.md §2.2).
    """

    name = "LAS"

    #: Issue slots per quantum: one per hardware engine, like PS — the
    #: priority boost must not forfeit engine overlap.
    WAKE_SLOTS = 3

    def dispatcher(self, sched: "GpuScheduler"):
        _LasLoop(sched, self.WAKE_SLOTS).decide()
        yield sched.env.event()  # the loop runs by callback from here on


class _IdleWatch(Event):
    """An idle waiter the LAS dispatcher keeps armed across its waits.

    ``tag`` is the id of the wait the watch currently serves.
    """

    __slots__ = ("tag",)

    def __init__(self, env: Environment, callback) -> None:
        super().__init__(env)
        self.callbacks.append(callback)
        self.tag = 0


class _LasLoop:
    """The LAS dispatcher of one device, as a callback loop (DESIGN.md §2.2).

    :meth:`decide` opens a quantum: it picks, then arms a wait that ends
    at the quantum's timeout or once every chosen entry that was busy
    when it was armed has gone idle, whichever comes first.  The hop
    counts below fix where each decision lands in same-time FIFO order,
    so they are part of the simulated output:

    * timeout path, 2 hops: timeout -> relay;
    * idle path, 3 hops: last idle watch -> hop event -> relay.

    The relay is :meth:`Environment.relay`: it costs an event only when
    something else is due at the same instant.  Each busy chosen entry
    carries one :class:`_IdleWatch`, kept armed across waits while the
    entry stays chosen and busy, and re-tagged with the current wait; a
    watch, hop or timeout of an older wait is ignored.  A new pick
    withdraws the old pick's watches.

    While the RCB's change counter has not moved since a pick that
    needed no sort, the pick stands without a scan: it is what a scan
    would find.  A pick ranked by CGS is redone every quantum, since
    every closed epoch moves the CGS it ranked by.
    """

    def __init__(self, sched: "GpuScheduler", slots: int) -> None:
        self.env, self.rcb, self.gate = sched.env, sched.rcb, sched.gate
        self.quantum = sched.config.las_quantum_s
        self.k = sched.config.las_k
        self.slots = slots
        self.chosen: List[RcbEntry] = []
        #: ``rcb.changes`` at the current pick, or -1 if it was sorted.
        self.seen = -1
        #: When the current quantum ends.
        self.end = 0.0
        #: Waits armed so far; the id of the live wait, 0 once it fired.
        self.waits = 0
        self.live = 0
        #: Busy entries of the live wait that have not gone idle yet.
        self.outstanding = 0
        #: The watch of each entry of the current pick, by stream id.
        self.watches: Dict[int, _IdleWatch] = {}

    def decide(self) -> None:
        """Open a quantum (or block until the RCB changes)."""
        rcb = self.rcb
        if rcb.changes != self.seen:
            entries = rcb.entries()
            runnable = [e for e in entries if e.runnable]
            if not runnable:
                # See TFS: a pure block is safe.
                rcb.changed_event().callbacks.append(self._on_changed)
                return
            if len(runnable) > self.slots:
                runnable.sort(key=lambda e: (e.cgs, e.registered_at))
                del runnable[self.slots:]
                self.seen = -1
            else:
                self.seen = rcb.changes
            chosen = self.chosen
            # Identity, not ==: RcbEntry is a dataclass comparing every field.
            if len(runnable) != len(chosen) or any(map(is_not, runnable, chosen)):
                self._withdraw(chosen)
                self.chosen = runnable
                # Only on a new pick: an unchanged pick is already awake
                # and every other entry asleep, so no signal would move.
                self.gate.set_awake_exactly(entries, runnable)
        env = self.env
        self.end = end = env.now + self.quantum
        # Every chosen entry is runnable here, so the first wait arms.
        self._arm(end - env.now)

    def _on_changed(self, _event: Event) -> None:
        self.decide()

    def _resume(self) -> None:
        """A wait ended: wait out the rest of the quantum, or close it."""
        remaining = self.end - self.env.now
        if remaining >= _MIN_WAIT_S and any(e.runnable for e in self.chosen):
            self._arm(remaining)
            return
        # Close the epoch for everyone: non-served entries decay toward
        # zero attained service and rise in priority.
        self.rcb.close_epoch(self.k)
        self.decide()

    def _arm(self, remaining: float) -> None:
        """Start a wait of at most ``remaining`` seconds."""
        env, watches = self.env, self.watches
        self.waits += 1
        self.live = tag = self.waits
        self.outstanding = 0
        for e in self.chosen:
            if not e.runnable:
                continue  # an idle entry cannot decide when the wait ends
            self.outstanding += 1
            watch = watches.get(e.stream_id)
            if watch is None or watch.triggered:
                watch = watches[e.stream_id] = _IdleWatch(env, self._on_idle)
                e.watch_idle(watch)
            watch.tag = tag
        env.timeout(remaining, tag).callbacks.append(self._fire)

    def _withdraw(self, pick: List[RcbEntry]) -> None:
        """Disarm the watches of a pick that is being replaced."""
        for e in pick:
            watch = self.watches.pop(e.stream_id, None)
            if watch is not None:
                e.withdraw_idle(watch)

    def _on_idle(self, watch: _IdleWatch) -> None:
        if watch.tag != self.live:
            return  # an older wait's watch, or the timeout already won
        self.outstanding -= 1
        if not self.outstanding:
            hop = Event(self.env)
            hop.callbacks.append(self._fire)
            hop.succeed(watch.tag)

    def _fire(self, event: Event) -> None:
        """A wait's last-but-one hop (its timeout or idle hop, valued with
        its id): relay to :meth:`_resume`, unless the wait already ended."""
        if event.value == self.live:
            self.live = 0
            self.env.relay(self._resume)


class PS(DevicePolicy):
    """Phase Selection: keep every GPU engine busy (paper Fig. 7b).

    Re-picks one entry per GPU phase whenever the RCB changes and at
    least every :attr:`~repro.core.config.SchedulerConfig.ps_quantum_s`.
    The loop runs by callback (:class:`_PsLoop`), so a quantum that
    changes nothing costs one event and O(1) work (DESIGN.md §2.2).
    """

    name = "PS"

    #: One wake slot per hardware engine (compute, H2D DMA, D2H DMA).
    WAKE_SLOTS = 3

    def dispatcher(self, sched: "GpuScheduler"):
        _PsLoop(self, sched).decide()
        yield sched.env.event()  # the loop runs by callback from here on

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


class _PsLoop:
    """The PS dispatcher of one device, as a callback loop (DESIGN.md §2.2).

    With some entry runnable, a pick waits for the RCB's change event or
    the quantum's timeout, whichever is processed first, and relays to
    the next pick: 2 hops, the trigger and then :meth:`Environment.relay`.
    With nothing runnable it blocks on the change event alone, 1 hop.
    While the RCB's change counter has not moved since the last pick, the
    pick and its gate signals are skipped: they would move nothing.
    """

    def __init__(self, policy: PS, sched: "GpuScheduler") -> None:
        self.policy = policy
        self.env, self.rcb, self.gate = sched.env, sched.rcb, sched.gate
        self.quantum = sched.config.ps_quantum_s
        #: ``rcb.changes`` at the last pick.
        self.seen = -1
        #: The live wait's change event and timeout (None: not waiting on it).
        self.changed: Optional[Event] = None
        self.timeout: Optional[Event] = None
        #: The change event that carries :meth:`_on_changed`.
        self.hooked: Optional[Event] = None

    def decide(self) -> None:
        """Pick if the RCB changed, then wait (or block until it changes)."""
        rcb = self.rcb
        if rcb.changes != self.seen:
            entries = rcb.entries()
            runnable = [e for e in entries if e.runnable]
            if not runnable:
                self._wait(None)  # see TFS: a pure block is safe
                return
            self.seen = rcb.changes
            self.gate.set_awake_exactly(entries, self.policy._pick(runnable))
        timeout = self.env.timeout(self.quantum)
        timeout.callbacks.append(self._on_timeout)
        self._wait(timeout)

    def _wait(self, timeout: Optional[Event]) -> None:
        changed = self.rcb.changed_event()
        if changed is not self.hooked:
            # A change event outlives the waits a timeout ended: hook once.
            changed.callbacks.append(self._on_changed)
            self.hooked = changed
        self.changed, self.timeout = changed, timeout

    def _on_changed(self, event: Event) -> None:
        if event is not self.changed:
            return  # an earlier wait's, processed after it had ended
        relay = self.timeout is not None
        self.changed = self.timeout = None
        if relay:
            self.env.relay(self.decide)
        else:
            self.decide()

    def _on_timeout(self, event: Event) -> None:
        if event is not self.timeout:
            return  # left behind by a wait that ended on a change
        self.changed = self.timeout = None
        self.env.relay(self.decide)


__all__ = ["AlwaysAwake", "DevicePolicy", "LAS", "PS", "TFS"]
