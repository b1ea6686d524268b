"""Fault injection & self-healing reliability subsystem (``repro.faults``).

The paper's evaluation assumes a healthy cluster; this package adds the
reliability dimension a multi-tenant deployment needs:

* **Injection** — a :class:`FaultPlan` schedules device loss, backend
  crashes and link degradation/partition at explicit sim times or from a
  seeded random arrival process (``--faults`` on the harness CLI, grammar
  in DESIGN.md §Fault Model).
* **Recovery** — one :class:`RecoveryManager` per run replays the plan,
  marks failed devices UNHEALTHY in the DST (balancing policies stop
  placing on them) and aborts the sessions in the blast radius, which it
  finds in the runner's open-session table.  The runner's request body
  asks it for a backoff on each retryable failure, so aborted requests
  are re-dispatched to survivors with capped exponential backoff; a
  request whose retry budget runs out is counted lost, not raised.
  Recovered devices re-enter through a DRAINING warm-up state.
* **Accounting** — fault rows in the decision log, outage spans in the
  Chrome trace, counters, and an availability summary per run.

With no plan installed the subsystem costs nothing: the runner builds no
recovery manager and spawns no replay process, keeping the paper-shape
experiment outputs byte-identical.  A plan that injects nothing (say
``retries=4`` alone) runs exactly like no plan, churn included.

The module-level plan slot mirrors :mod:`repro.obs`'s registry slot: the
CLI installs a parsed plan process-wide; programmatic callers can instead
pass ``fault_plan=`` to ``run_stream_experiment`` directly.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.errors import (
    BackendCrashError,
    DeviceLostError,
    FaultError,
    LinkPartitionError,
)
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError, RetryPolicy, parse_fault_spec
from repro.faults.recovery import RETRYABLE_CUDA, RecoveryManager, retryable

_active_plan: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide fault plan; returns it."""
    global _active_plan
    _active_plan = plan
    return plan


def current_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or None (the null path)."""
    return _active_plan


def reset_plan() -> None:
    """Remove the installed fault plan."""
    global _active_plan
    _active_plan = None


__all__ = [
    "BackendCrashError",
    "DeviceLostError",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "LinkPartitionError",
    "RETRYABLE_CUDA",
    "RecoveryManager",
    "RetryPolicy",
    "current_plan",
    "install_plan",
    "parse_fault_spec",
    "reset_plan",
    "retryable",
]
