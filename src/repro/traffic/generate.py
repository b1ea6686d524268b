"""Traffic generation: a seeded :class:`TrafficSpec` made executable.

A :class:`TrafficGenerator` binds a spec to a seed and produces
:meth:`~TrafficGenerator.sessions`, the lazy, arrival-ordered stream of
:class:`~repro.traffic.population.TenantSession`\\ s the harness runner
drives (re-iterable: every pass replays the identical seeded draw).

Generation is O(active sessions) in memory however long the run: 10^5
to 10^6 requests never materialize as a list.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.rng import RandomStream
from repro.apps.catalog import app_by_short
from repro.traffic.population import TenantPopulation, TenantSession
from repro.traffic.spec import TrafficSpec


class TrafficGenerator:
    """A seeded, lazily-evaluated traffic scenario."""

    def __init__(self, spec: TrafficSpec, seed: int = 42) -> None:
        self.spec = spec
        #: ``seed=`` in the spec overrides the harness seed.
        self.seed = spec.seed if spec.seed is not None else seed
        self.population = TenantPopulation(
            n_tenants=spec.tenants,
            apps=[(app_by_short(short), w) for short, w in spec.apps],
            churn=spec.churn,
            think_s=spec.think_s,
            requests_per_session=spec.requests_per_session,
            n_nodes=spec.nodes,
        )

    # -- identity ------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """The arrival horizon (sessions arrive only before this)."""
        return self.spec.duration_s

    @property
    def offered_rate_rps(self) -> float:
        return self.spec.offered_rate_rps

    def scaled(self, multiplier: float) -> "TrafficGenerator":
        """The same scenario and seed at ``multiplier`` x the rate."""
        return TrafficGenerator(self.spec.scaled(multiplier), self.seed)

    # -- generation ----------------------------------------------------------

    def _rng(self) -> RandomStream:
        return RandomStream(self.seed, "traffic", self.spec.process.kind)

    def sessions(self) -> Iterator[TenantSession]:
        """Lazy arrival-ordered tenant sessions (fresh seeded pass)."""
        return self.population.sessions(
            self.spec.process, self._rng(), self.spec.duration_s
        )


__all__ = ["TrafficGenerator"]
