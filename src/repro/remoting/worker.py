"""The backend worker layer (pipeline layer 2): one shared issue loop.

Every backend design in paper Fig. 5 boils down to the same loop — pop
the next intercepted call off a FIFO, pass the dispatch gate when a
device policy is installed, issue it, and either wait it out (blocking
call) or pipeline on (asynchronous call).  The designs differ only in
*who shares the loop*:

* **Design I** (Rain) — one loop per application, in a dedicated backend
  process;
* **Design II** — ONE loop per device, shared by every resident tenant:
  a blocking call from one application parks the loop and stalls every
  other tenant's queued calls (head-of-line blocking);
* **Design III** (Strings) — one loop per application, as a thread inside
  the per-device process (shared context, no head-of-line blocking).

:class:`BackendIssueLoop` is that loop; sessions enqueue
:class:`IssueItem`\\ s onto it.  Each item carries its *owner* session,
which is where the layer's per-tenant hooks attach exactly once: the
queue-wait / gate-park / op spans, the dispatch-gate permission, and the
Request-Monitor completion accounting all route through the owner.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Environment, Event, Store


class IssueItem:
    """One queued backend operation."""

    __slots__ = ("owner", "phase", "make", "blocking", "done", "gated", "posted_at")

    def __init__(self, owner, phase, make, blocking, done, gated=True, posted_at=0.0):
        #: The session the op belongs to (None for raw closure submissions,
        #: e.g. :meth:`~repro.remoting.backend.DesignIIMaster.submit`);
        #: provides the gate, telemetry and accounting hooks.
        self.owner = owner
        self.phase = phase
        self.make = make  # callable -> device completion Event (or None)
        self.blocking = blocking
        self.done = done  # Event fired with the op's result
        self.gated = gated
        self.posted_at = posted_at  # sim time the op was enqueued


class BackendIssueLoop:
    """A backend thread's FIFO call-issue loop.

    GPU ops pass the dispatch gate (when the owner session has a device
    policy installed) before being issued; issue is *pipelined* for
    asynchronous ops (the loop does not wait for an async op to finish
    before issuing the next, exactly like a real CUDA host thread) and
    blocking for synchronous ones.

    ``on_served`` (optional) is invoked with ``(item, result)`` after an
    item was issued successfully — and, for blocking items, completed
    successfully.  Design II's master uses it for its served-call count.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        on_served: Optional[Callable] = None,
    ) -> None:
        self.env = env
        self.name = name
        self._queue: Store = Store(env)
        self._on_served = on_served
        self.process = env.process(self._run(), name=name)

    # -- producer side -------------------------------------------------------

    def post(self, item: IssueItem) -> None:
        """Enqueue one op (FIFO)."""
        self._queue.put(item)

    @property
    def depth(self) -> int:
        """Ops waiting in the queue (not counting the one being issued)."""
        return len(self._queue.items)

    def cancel_owner(self, owner, exc: BaseException) -> int:
        """Fail ``owner``'s queued ops with ``exc`` (fault-recovery hook).

        Only the owner's items are removed — on a shared Design II loop
        the other tenants' queued work is untouched.  The failures are
        pre-defused: an aborted session's drivers may never look.
        Returns the number of ops cancelled.
        """
        doomed = [it for it in self._queue.items if it.owner is owner]
        if doomed:
            kept = [it for it in self._queue.items if it.owner is not owner]
            self._queue.items.clear()
            self._queue.items.extend(kept)
        for item in doomed:
            item.done.defused = True
            if not item.done.triggered:
                item.done.fail(exc)
        return len(doomed)

    # -- the loop ------------------------------------------------------------

    def _run(self):
        env = self.env
        # Both fixed for the env's lifetime (``enabled`` is a class
        # attribute of the registry, never flipped mid-run) — hoisted
        # off the per-op path.
        tel = env.telemetry
        enabled = tel.enabled
        while True:
            item: IssueItem = yield self._queue.get()
            owner = item.owner
            if enabled and owner is not None and env.now > item.posted_at:
                owner._obs_queue_wait(tel, item)
            if (
                item.gated
                and owner is not None
                and owner.scheduler is not None
                and owner.entry is not None
            ):
                parked_at = env.now
                yield owner.scheduler.permission(owner.entry, item.phase)
                owner.entry.issue()
                if enabled and env.now > parked_at:
                    owner._obs_gate_park(tel, item, parked_at)
            op_span = None
            if enabled and owner is not None:
                op_span = owner._obs_op_span(tel, item)
            try:
                completion = item.make()
            except Exception as exc:  # noqa: BLE001 - dead worker / backend
                # The op hit a torn-down worker (injected fault) before it
                # ever reached the device.  Marshal the error to the
                # caller; pre-defuse in case the op was fire-and-forget.
                if op_span is not None:
                    op_span.finish(env.now)
                if item.gated and owner is not None:
                    owner._complete_accounting(None)
                item.done.defused = True
                if not item.done.triggered:
                    item.done.fail(exc)
                continue
            if completion is None:
                if op_span is not None:
                    op_span.finish(env.now)
                if self._on_served is not None:
                    self._on_served(item, None)
                item.done.succeed(None)
                continue
            if item.blocking:
                try:
                    result = yield completion
                except Exception as exc:  # noqa: BLE001 - marshalled upward
                    if op_span is not None:
                        op_span.finish(env.now)
                    if item.gated and owner is not None:
                        owner._complete_accounting(None)
                    # Pre-defuse: an aborted session's driver may already
                    # be gone, leaving this failure without a waiter.
                    item.done.defused = True
                    if not item.done.triggered:
                        item.done.fail(exc)
                    continue
                if op_span is not None:
                    op_span.finish(env.now)
                if item.gated and owner is not None:
                    owner._complete_accounting(result)
                if self._on_served is not None:
                    self._on_served(item, result)
                item.done.succeed(result)
            else:
                if self._on_served is not None:
                    self._on_served(item, None)
                if owner is not None:
                    owner._hook_completion(
                        completion, item.done, account=item.gated, span=op_span
                    )
                else:
                    self._forward(completion, item.done)

    @staticmethod
    def _forward(completion: Event, done: Event) -> None:
        """Chain a completion into ``done`` with no owner hooks."""

        def _cb(evt: Event) -> None:
            if evt.ok:
                if not done.triggered:
                    done.succeed(evt.value)
            else:
                evt.defused = True
                done.defused = True
                if not done.triggered:
                    done.fail(evt.value)

        if completion.callbacks is None:
            _cb(completion)
        else:
            completion.callbacks.append(_cb)

    def __repr__(self) -> str:
        return f"<BackendIssueLoop {self.name!r} depth={self.depth}>"


__all__ = ["BackendIssueLoop", "IssueItem"]
