"""Fault plans: deterministic, seedable schedules of injected failures.

A :class:`FaultPlan` is a list of :class:`FaultEvent`\\ s in sim time —
built programmatically (builder methods), from the harness ``--faults``
spec grammar (:func:`parse_fault_spec`, mirroring ``--slo``), or from a
seeded arrival process (:meth:`FaultPlan.random_gpu_failures`).  Plans
are pure data: :meth:`~repro.faults.recovery.RecoveryManager.start`
turns them into simulation events, so the same plan replayed over the
same seed reproduces the identical failure timeline.  A plan also
carries the recovery knobs (``retry`` and ``warmup_s``) the run's
recovery manager reads.

Spec grammar (comma-separated items, colon-separated fields)::

    gpu_fail@40:gid=2:down=20          # lose GPU 2 at t=40s, back at t=60s
    gpu_fail@40:gid=2                  # lose GPU 2 permanently
    gpu_recover@70:gid=2               # explicit recovery
    backend_crash@60:gid=1:restart=5   # backend process dies, respawns +5s
    link_degrade@10:lat=4:bw=0.25:dur=30   # 4x latency, 1/4 bandwidth, 30s
    link_partition@10:host=nodeB:dur=15    # nodeB unreachable for 15s
    mtbf=300:mttr=30:until=900:seed=7  # seeded random gpu_fail process
    retries=5                          # retry budget per request
    backoff=0.05                       # base backoff (doubles, capped)
    warmup=5                           # DRAINING warm-up window on recovery
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

KINDS = ("gpu_fail", "gpu_recover", "backend_crash", "link_degrade", "link_partition")


class FaultPlanError(ValueError):
    """A fault plan the experiment cannot honour: it targets a GPU or host
    the run's pool lacks, or it lost a request whose result the
    experiment needs (the ``retries=`` budget ran out)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or recovery) at sim time ``t``."""

    t: float
    kind: str
    gid: Optional[int] = None
    host: Optional[str] = None
    #: Auto-recovery delay for ``gpu_fail`` / duration of link events.
    down_s: Optional[float] = None
    #: Backend respawn delay after ``backend_crash``.
    restart_s: float = 1.0
    #: Remote-path multipliers for ``link_degrade``.
    latency_mult: float = 1.0
    bandwidth_mult: float = 1.0
    #: ECC-transient marker: annotation only (the recovery path is the
    #: same; the decision log distinguishes transient losses).
    transient: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (know {', '.join(KINDS)})")
        if self.t < 0:
            raise ValueError(f"fault time must be >= 0, got {self.t}")
        if self.kind in ("gpu_fail", "gpu_recover", "backend_crash") and self.gid is None:
            raise ValueError(f"{self.kind} needs a gid")
        if self.kind == "link_partition" and not self.host:
            raise ValueError("link_partition needs a host")
        if self.down_s is not None and self.down_s <= 0:
            raise ValueError(f"duration must be > 0 seconds, got {self.down_s}")
        if self.restart_s < 0:
            raise ValueError(f"restart delay must be >= 0, got {self.restart_s}")
        if self.latency_mult <= 0 or self.bandwidth_mult <= 0:
            raise ValueError("link multipliers must be > 0")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a bounded retry budget."""

    max_retries: int = 5
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 <= base_backoff_s <= max_backoff_s")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        return min(self.max_backoff_s, self.base_backoff_s * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class _RandomSpec:
    """A seeded gpu_fail arrival process, expanded lazily against the pool."""

    mtbf_s: float
    mttr_s: float
    until_s: float
    seed: int = 0
    gids: Optional[Tuple[int, ...]] = None


class FaultPlan:
    """An ordered schedule of fault events plus the recovery knobs."""

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        warmup_s: float = 5.0,
    ) -> None:
        if warmup_s < 0:
            raise ValueError(f"warmup_s must be >= 0, got {warmup_s}")
        self.events: List[FaultEvent] = []
        self.retry = retry if retry is not None else RetryPolicy()
        self.warmup_s = warmup_s
        self._random_specs: List[_RandomSpec] = []

    # -- builder API --------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def gpu_fail(
        self, t: float, gid: int, down_s: Optional[float] = None, transient: bool = False
    ) -> "FaultPlan":
        """Lose ``gid`` at ``t``; auto-recover after ``down_s`` if given."""
        return self.add(FaultEvent(t, "gpu_fail", gid=gid, down_s=down_s, transient=transient))

    def gpu_recover(self, t: float, gid: int) -> "FaultPlan":
        """Explicitly bring ``gid`` back at ``t``."""
        return self.add(FaultEvent(t, "gpu_recover", gid=gid))

    def backend_crash(self, t: float, gid: int, restart_s: float = 1.0) -> "FaultPlan":
        """Kill the backend process behind ``gid``; respawn after ``restart_s``."""
        return self.add(FaultEvent(t, "backend_crash", gid=gid, restart_s=restart_s))

    def link_degrade(
        self, t: float, latency_mult: float, bandwidth_mult: float, duration_s: float
    ) -> "FaultPlan":
        """Multiply remote latency / bandwidth for ``duration_s`` seconds."""
        return self.add(
            FaultEvent(
                t,
                "link_degrade",
                latency_mult=latency_mult,
                bandwidth_mult=bandwidth_mult,
                down_s=duration_s,
            )
        )

    def link_partition(self, t: float, host: str, duration_s: float) -> "FaultPlan":
        """Make ``host`` unreachable for ``duration_s`` seconds."""
        return self.add(FaultEvent(t, "link_partition", host=host, down_s=duration_s))

    def random_gpu_failures(
        self,
        mtbf_s: float,
        mttr_s: float,
        until_s: float,
        seed: int = 0,
        gids: Optional[Sequence[int]] = None,
    ) -> "FaultPlan":
        """A seeded Poisson gpu_fail process (expanded against the pool).

        Failures arrive with mean inter-arrival ``mtbf_s`` until
        ``until_s``, each taking a GID chosen by the seeded stream (from
        ``gids``, or the whole pool at injection time) down for
        ``mttr_s`` seconds.
        """
        if mtbf_s <= 0 or mttr_s <= 0 or until_s <= 0:
            raise ValueError("mtbf, mttr and until must all be > 0 seconds")
        self._random_specs.append(
            _RandomSpec(mtbf_s, mttr_s, until_s, seed, tuple(gids) if gids else None)
        )
        return self

    # -- materialization ----------------------------------------------------

    def check_targets(self, gids: Sequence[int], hosts: Sequence[str]) -> None:
        """Raise :class:`FaultPlanError` for a target the pool does not have.

        Covers every explicit ``gid``, the random processes' ``gids=`` and
        every partition ``host``: unchecked, a bad GID fails mid-run with a
        ``KeyError`` and a bad host partitions nothing.
        """
        targets = [e.gid for e in self.events if e.gid is not None]
        targets += [gid for spec in self._random_specs for gid in spec.gids or ()]
        for gid in targets:
            if gid not in gids:
                raise FaultPlanError(
                    f"fault plan targets gid {gid}, but the pool has gids "
                    f"{', '.join(map(str, gids))}"
                )
        for host in (e.host for e in self.events if e.host is not None):
            if host not in hosts:
                raise FaultPlanError(
                    f"fault plan targets host {host!r}, but the pool has hosts "
                    f"{', '.join(hosts)}"
                )

    def events_for(self, pool_gids: Sequence[int]) -> List[FaultEvent]:
        """The full schedule (explicit + expanded random), time-ordered.

        Random processes are expanded here, deterministically from their
        seeds, because only the run's pool knows its GIDs.
        """
        out = list(self.events)
        for spec in self._random_specs:
            targets = list(spec.gids) if spec.gids is not None else list(pool_gids)
            if not targets:
                continue
            rng = random.Random(spec.seed)
            t = rng.expovariate(1.0 / spec.mtbf_s)
            while t < spec.until_s:
                out.append(
                    FaultEvent(t, "gpu_fail", gid=rng.choice(targets), down_s=spec.mttr_s)
                )
                t += rng.expovariate(1.0 / spec.mtbf_s)
        out.sort(key=lambda e: e.t)
        return out

    def __len__(self) -> int:
        return len(self.events) + len(self._random_specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan {len(self.events)} events, {len(self._random_specs)} processes>"


# --------------------------------------------------------------------------
# --faults spec grammar
# --------------------------------------------------------------------------


def _num(fields: dict, key: str, item: str) -> float:
    try:
        return float(fields[key])
    except ValueError:
        raise ValueError(f"{key}= in {item!r} must be a number, got {fields[key]!r}") from None


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``--faults`` spec string into a :class:`FaultPlan`.

    Raises :class:`ValueError` with a human-readable message on any
    malformed item (the harness turns that into an argparse error).
    """
    plan = FaultPlan()
    retry_kw = {}
    items = [item.strip() for item in spec.split(",") if item.strip()]
    if not items:
        raise ValueError("empty fault spec")
    for item in items:
        parts = item.split(":")
        head = parts[0]
        fields = {}
        flags = set()
        for part in parts[1:]:
            if "=" in part:
                k, _, v = part.partition("=")
                fields[k.strip()] = v.strip()
            else:
                flags.add(part.strip())

        # Global knobs: retries= / backoff= / warmup= / mtbf=... items.
        if "=" in head:
            k, _, v = head.partition("=")
            fields[k.strip()] = v.strip()
            if "mtbf" in fields:
                for need in ("mttr", "until"):
                    if need not in fields:
                        raise ValueError(f"random process {item!r} needs {need}=")
                gids = None
                if "gids" in fields:
                    try:
                        gids = [int(g) for g in fields["gids"].split("+")]
                    except ValueError:
                        raise ValueError(
                            f"gids= in {item!r} must be '+'-joined ints, got {fields['gids']!r}"
                        ) from None
                plan.random_gpu_failures(
                    _num(fields, "mtbf", item),
                    _num(fields, "mttr", item),
                    _num(fields, "until", item),
                    seed=int(_num(fields, "seed", item)) if "seed" in fields else 0,
                    gids=gids,
                )
            elif "retries" in fields:
                retry_kw["max_retries"] = int(_num(fields, "retries", item))
            elif "backoff" in fields:
                retry_kw["base_backoff_s"] = _num(fields, "backoff", item)
            elif "warmup" in fields:
                plan.warmup_s = _num(fields, "warmup", item)
                if plan.warmup_s < 0:
                    raise ValueError(f"warmup= must be >= 0, got {plan.warmup_s}")
            else:
                raise ValueError(f"unknown fault spec item {item!r}")
            continue

        # Timed events: KIND@T:field=value:...
        if "@" not in head:
            raise ValueError(
                f"fault item {item!r} must look like KIND@TIME (e.g. gpu_fail@40:gid=2)"
            )
        kind, _, t_txt = head.partition("@")
        kind = kind.strip()
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (know {', '.join(KINDS)})")
        try:
            t = float(t_txt)
        except ValueError:
            raise ValueError(f"fault time in {item!r} must be a number, got {t_txt!r}") from None

        try:
            if kind in ("gpu_fail", "gpu_recover", "backend_crash"):
                if "gid" not in fields:
                    raise ValueError(f"{kind} item {item!r} needs gid=")
                gid = int(_num(fields, "gid", item))
                if kind == "gpu_fail":
                    plan.gpu_fail(
                        t,
                        gid,
                        down_s=_num(fields, "down", item) if "down" in fields else None,
                        transient="transient" in flags,
                    )
                elif kind == "gpu_recover":
                    plan.gpu_recover(t, gid)
                else:
                    plan.backend_crash(
                        t,
                        gid,
                        restart_s=_num(fields, "restart", item) if "restart" in fields else 1.0,
                    )
            elif kind == "link_degrade":
                if "dur" not in fields:
                    raise ValueError(f"link_degrade item {item!r} needs dur=")
                plan.link_degrade(
                    t,
                    latency_mult=_num(fields, "lat", item) if "lat" in fields else 1.0,
                    bandwidth_mult=_num(fields, "bw", item) if "bw" in fields else 1.0,
                    duration_s=_num(fields, "dur", item),
                )
            else:  # link_partition
                if "host" not in fields:
                    raise ValueError(f"link_partition item {item!r} needs host=")
                if "dur" not in fields:
                    raise ValueError(f"link_partition item {item!r} needs dur=")
                plan.link_partition(t, fields["host"], _num(fields, "dur", item))
        except ValueError as exc:
            # FaultEvent validation errors, re-anchored to the spec item.
            raise ValueError(f"in {item!r}: {exc}") from None

    if retry_kw:
        plan.retry = RetryPolicy(**{**plan.retry.__dict__, **retry_kw})
    return plan


__all__ = ["FaultEvent", "FaultPlan", "FaultPlanError", "RetryPolicy", "parse_fault_spec"]
