"""DST-only workload balancing policies (paper Section IV.A).

These select a target GID for each arriving application using only the
Device Status Table:

* **GRR** — global round robin over the gPool;
* **GMin** — least ``device_load`` (count of bound apps), ties broken in
  favour of GPUs local to the requesting frontend (remote GPUs are more
  expensive to reach);
* **GWtMin** — least *weighted* load, dividing by each device's static
  capability weight.  The paper stresses that these static weights often
  fail to mirror real per-application performance (Section V.D), which is
  the motivation for the feedback policies.

Fault awareness: every policy places over ``dst.eligible_rows()`` —
UNHEALTHY devices (injected faults, :mod:`repro.faults`) are excluded and
DRAINING devices carry a warm-up ``load_penalty`` folded into
``effective_load``.  With every device healthy this is exactly the full
table with the original loads, so the null fault path selects identically.
Should *every* device be unhealthy, policies fall back to the full table
rather than deadlock the arrival stream, and the session's bind then
fails fast with a retryable ``NO_DEVICE`` (``ManagedSession.bind``).
"""

from __future__ import annotations

import abc
from typing import Dict

from repro.core.gpool import DeviceStatusTable, GPool


class BalancingPolicy(abc.ABC):
    """Selects a target GID for an arriving application."""

    #: Short name used in experiment labels ("GRR", "GMin", ...).
    name: str = "?"

    @abc.abstractmethod
    def select(
        self,
        pool: GPool,
        dst: DeviceStatusTable,
        app_name: str,
        frontend_host: str,
    ) -> int:
        """Return the GID the application should bind to."""

    def scores(
        self,
        pool: GPool,
        dst: DeviceStatusTable,
        app_name: str,
        frontend_host: str,
    ) -> Dict[int, float]:
        """Per-GID attractiveness (lower = better) at decision time.

        Purely observational — the decision log records this alongside
        each placement.  The default exposes the DST's raw device load;
        policies with a richer objective override it.
        """
        return {row.gid: float(row.device_load) for row in dst.rows()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


def placeable_rows(dst: DeviceStatusTable):
    """The rows a policy should place over: eligible ones, or (when the
    whole pool is unhealthy) every row as a fail-fast last resort."""
    return dst.eligible_rows() or dst.rows()


class GRR(BalancingPolicy):
    """Global round robin: cycle through the gPool in GID order."""

    name = "GRR"

    def __init__(self) -> None:
        self._next = 0

    def select(self, pool, dst, app_name, frontend_host) -> int:
        gids = [row.gid for row in placeable_rows(dst)]
        gid = gids[self._next % len(gids)]
        self._next += 1
        return gid


class GMin(BalancingPolicy):
    """Least-loaded GPU by bound-application count; prefers local GPUs.

    Note: under Strings, queue length is a poor proxy for actual device
    load (requests execute concurrently), so GMin can lose to GRR for
    some applications — a paper-reported behaviour (Section V.D).
    """

    name = "GMin"

    def select(self, pool, dst, app_name, frontend_host) -> int:
        def key(row):
            local = pool.is_local(row.gid, frontend_host)
            return (row.effective_load, 0 if local else 1, row.gid)

        return min(placeable_rows(dst), key=key).gid


class GWtMin(BalancingPolicy):
    """Least weighted load: ``device_load / static_weight``.

    Accounts for heterogeneity across GPUs via the one-time weights the
    gPool Creator assigned from device properties.
    """

    name = "GWtMin"

    def select(self, pool, dst, app_name, frontend_host) -> int:
        def key(row):
            local = pool.is_local(row.gid, frontend_host)
            return (row.effective_load / row.weight, 0 if local else 1, row.gid)

        return min(placeable_rows(dst), key=key).gid

    def scores(self, pool, dst, app_name, frontend_host):
        return {row.gid: row.effective_load / row.weight for row in dst.rows()}


__all__ = ["BalancingPolicy", "GMin", "GRR", "GWtMin", "placeable_rows"]
