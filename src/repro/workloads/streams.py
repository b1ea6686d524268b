"""Exponential request streams (paper eq. 4 and Fig. 8).

A stream drives one server node with requests for one application; the
mean inter-arrival time is ``lambda = solo_runtime / load_factor`` so a
``load_factor`` of 1.0 offers exactly one request per solo-runtime (the
capacity of one dedicated GPU) and larger factors create the bursts and
queues of the paper's service model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.models import AppSpec
from repro.sim.rng import RandomStream


@dataclass(frozen=True)
class Request:
    """One end-user request: run ``app`` once, arriving at ``arrival_s``."""

    app: AppSpec
    arrival_s: float
    node_index: int = 0
    tenant_id: str = "t0"
    tenant_weight: float = 1.0


@dataclass
class RequestStream:
    """An ordered list of requests for one node."""

    requests: List[Request] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def horizon_s(self) -> float:
        """Arrival time of the last request."""
        return self.requests[-1].arrival_s if self.requests else 0.0


def exponential_stream(
    app: AppSpec,
    rng: RandomStream,
    n_requests: int,
    load_factor: float = 1.5,
    node_index: int = 0,
    tenant_id: str = "t0",
    tenant_weight: float = 1.0,
    mean_interarrival_s: Optional[float] = None,
) -> RequestStream:
    """Generate ``n_requests`` arrivals with exponential gaps.

    ``lambda`` defaults to ``app.solo_runtime_s() / load_factor`` —
    proportional to the application's runtime per the paper, with the
    offered load dialled by ``load_factor``.
    """
    if n_requests < 1:
        raise ValueError("need at least one request")
    if load_factor <= 0:
        raise ValueError("load_factor must be positive")
    lam = (
        mean_interarrival_s
        if mean_interarrival_s is not None
        else app.solo_runtime_s() / load_factor
    )
    t = 0.0
    out: List[Request] = []
    for _ in range(n_requests):
        t += rng.exponential(lam)
        out.append(
            Request(
                app=app,
                arrival_s=t,
                node_index=node_index,
                tenant_id=tenant_id,
                tenant_weight=tenant_weight,
            )
        )
    return RequestStream(out)


__all__ = [
    "Request",
    "RequestStream",
    "exponential_stream",
]
