"""Request-span taxonomy and per-phase breakdown queries.

Every end-user request gets a **root span** (created by the request
driver in :mod:`repro.apps.models`), with child spans recorded by the
session issue loop and the device engines:

==========  ============================================================
category    meaning
==========  ============================================================
request     root: arrival to completion of one end-user request
bind        ``cudaSetDevice`` interception: balancer placement + backend
            worker creation + scheduler registration
queue       op waiting in the session's backend issue queue (FIFO)
gate        op parked at the dispatch gate (device policy held the
            backend thread asleep)
kernel      kernel execution — session-side (issue to completion) and
            engine-side (resident on the SM array)
copy        memcpy execution (H2D / D2H), session- and engine-side
staging     MOT pinned-staging delay on the frontend
default     ungated default-phase ops (malloc / free / synchronize)
cpu         the application's host-side compute phases (the offload
            loop's CPU work between GPU calls)
==========  ============================================================

The category constants live in :mod:`repro.telemetry.categories` (the
bottom-layer instrument kernel, so the session pipeline can tag spans
without importing ``repro.obs``); this module adds the post-run queries
that make per-phase latency breakdowns "fall out" of any traced run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.categories import CAT_REQUEST
from repro.telemetry.instruments import Span, Telemetry


def request_spans(telemetry: Telemetry) -> List[Span]:
    """All root request spans, in start order."""
    return [s for s in telemetry.spans if s.cat == CAT_REQUEST]


def children_of(telemetry: Telemetry, parent: Span) -> List[Span]:
    """Direct children of ``parent``."""
    return [s for s in telemetry.spans if s.parent_id == parent.span_id]


def phase_breakdown(
    telemetry: Telemetry,
    app: Optional[str] = None,
    engine_side: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Total span seconds per application per phase category.

    ``breakdown[app][cat]`` sums the durations of finished spans whose
    ``args['app']`` matches.  By default only session-side spans (those
    on ``app:*`` tracks) are summed so phases partition request time;
    ``engine_side=True`` sums the device-engine spans instead (kernel
    residency / DMA occupancy per app).
    """
    out: Dict[str, Dict[str, float]] = {}
    for s in telemetry.spans:
        if not s.finished or s.cat == CAT_REQUEST:
            continue
        on_app_track = s.track.startswith("app:")
        if engine_side == on_app_track:
            continue
        name = (s.args or {}).get("app", "?")
        if app is not None and name != app:
            continue
        per_app = out.setdefault(name, {})
        per_app[s.cat] = per_app.get(s.cat, 0.0) + s.duration
    return out


def mean_phase_latency(telemetry: Telemetry, cat: str) -> float:
    """Mean duration of finished spans in one category (0 if none)."""
    durs = [s.duration for s in telemetry.spans if s.cat == cat and s.finished]
    return sum(durs) / len(durs) if durs else 0.0


__all__ = [
    "children_of",
    "mean_phase_latency",
    "phase_breakdown",
    "request_spans",
]
