"""Offline analysis over exported telemetry (ISSUE 4).

Three tools that turn the raw telemetry of PRs 1-2 into answers:

* **Critical-path profiler** — :func:`profile_requests` walks every
  finished request root span and its child spans (queue-wait, gate-park,
  staging, copy, kernel, sync) and produces a per-request *blame vector*:
  each instant of the request's lifetime is attributed to exactly one
  phase (overlapping children resolved by :data:`BLAME_PRIORITY`, so a
  queue wait masked by a running kernel is blamed on the kernel), and
  time covered by no child is reported explicitly as *scheduler
  overhead*.  Phases plus overhead therefore sum to the request latency
  by construction.  Aggregates fall out per phase, per GPU, per tenant
  and per app, alongside a top-k slowest-request digest and a
  reconciliation of span blame against the engines' busy/bytes
  accounting.  Spans reach it in batches — a registry's span list as
  one, a span shard store's (:mod:`repro.obs.stream`) as flushed — so
  the profile does not depend on where the spans live.
* **Run diffing** — :func:`diff_runs` loads two exported metrics
  documents (:func:`repro.obs.export.metrics_dict` JSON, which embeds
  the profiler output) and emits a structured delta: per-phase blame
  shifts, p50/p99 movement, decision-mix changes, SLO deltas.
  :func:`render_diff` renders it as a console table;
  :func:`check_tolerances` turns it into a pass/fail verdict for CI.
* **Tolerance specs** — :func:`parse_tolerance_spec` parses the
  ``key=fraction`` grammar shared by ``--tolerance`` and
  ``benchmarks/perf_gate.py``.

The module depends only on :mod:`repro.telemetry.instruments` /
:mod:`repro.obs.spans` (never on the exporters), so the exporters can
embed its output without an import cycle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.instruments import Span, Telemetry
from repro.telemetry.categories import (
    CAT_BIND,
    CAT_COPY,
    CAT_CPU,
    CAT_DEFAULT,
    CAT_GATE,
    CAT_KERNEL,
    CAT_QUEUE,
    CAT_REQUEST,
    CAT_STAGING,
)

#: Overlap resolution order: when several child spans cover the same
#: instant, the earliest category in this tuple gets the blame.  Device
#: execution outranks staging/bookkeeping, which outranks waiting — a
#: wait that is masked by useful work did not cost the request anything.
BLAME_PRIORITY = (
    CAT_KERNEL,
    CAT_COPY,
    CAT_STAGING,
    CAT_DEFAULT,
    CAT_CPU,
    CAT_BIND,
    CAT_GATE,
    CAT_QUEUE,
)

#: Label of the uncovered remainder (RPC hops, frontend CPU, scheduler).
OVERHEAD = "overhead"

_PRIO = {cat: i for i, cat in enumerate(BLAME_PRIORITY)}


@dataclass
class RequestBlame:
    """One request's latency, partitioned into phase blame."""

    rid: int
    app: str
    tenant: str
    gid: int
    run_label: str
    start: float
    end: float
    phases: Dict[str, float] = field(default_factory=dict)
    #: Time covered by no child span: RPC hops, frontend CPU, scheduler.
    unattributed_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def dominant(self) -> str:
        """The phase (or :data:`OVERHEAD`) that ate most of the request."""
        best = OVERHEAD
        best_v = self.unattributed_s
        for cat in BLAME_PRIORITY:
            v = self.phases.get(cat, 0.0)
            if v > best_v:
                best, best_v = cat, v
        return best


@dataclass
class RunProfile:
    """Aggregate critical-path profile of one telemetry registry."""

    requests: List[RequestBlame]
    by_phase: Dict[str, float]
    by_gpu: Dict[int, Dict[str, float]]
    by_tenant: Dict[str, Dict[str, float]]
    by_app: Dict[str, Dict[str, float]]
    unattributed_s: float
    total_s: float
    #: Finished child spans whose parent id matched no recorded span.
    orphan_spans: int
    #: Span blame vs engine busy/bytes accounting (see :func:`_reconcile`).
    reconciliation: Dict[str, Any]


def _blame_sweep(
    lo: float, hi: float, children: List[Span]
) -> Tuple[Dict[str, float], float]:
    """Partition ``[lo, hi]`` into per-category blame plus uncovered time.

    A single line sweep over the (clipped) child intervals; at every
    elementary slice the highest-priority active category is charged.
    Zero-duration children and children outside the window contribute
    nothing.
    """
    marks: List[Tuple[float, int, str]] = []
    for ch in children:
        if ch.end is None:
            continue
        s, e = max(ch.start, lo), min(ch.end, hi)
        if e <= s:
            continue
        marks.append((s, 1, ch.cat))
        marks.append((e, -1, ch.cat))
    marks.sort(key=lambda m: m[0])

    phases: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    unattributed = 0.0
    prev = lo
    i = 0
    n = len(marks)
    while i <= n:
        t = marks[i][0] if i < n else hi
        if t > prev:
            active = [c for c, k in counts.items() if k > 0]
            if active:
                cat = min(active, key=lambda c: _PRIO.get(c, len(_PRIO)))
                phases[cat] = phases.get(cat, 0.0) + (t - prev)
            else:
                unattributed += t - prev
            prev = t
        if i < n:
            _t, delta, cat = marks[i]
            counts[cat] = counts.get(cat, 0) + delta
        i += 1
    return phases, unattributed


class _CriticalPathProfiler:
    """One pass of the critical-path profiler over span batches.

    A batch is ``(spans, watermark)``: every request root whose span id
    is below the watermark has all of its descendants in this batch or
    an earlier one.  A request is blamed once the watermark passes its
    root id, in root-id (= append) order, so every floating-point sum
    accumulates in the same order however the spans were batched.  An
    in-memory span list is one batch with an infinite watermark; a
    shard store supplies its flushed batches, and memory stays bounded
    by the requests still waiting for the watermark.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, Span] = {}
        self._kids: Dict[int, List[Span]] = {}
        self._root_of: Dict[int, int] = {}
        #: Children seen before any record of their parent (parent id ->
        #: waiting spans).  Resolved when the parent arrives; leftovers
        #: at the end are the profiler's orphans.
        self._unresolved: Dict[int, List[Span]] = {}
        #: Min-heap of finished root ids awaiting the watermark.
        self._done: List[int] = []
        self.profile = RunProfile(
            requests=[], by_phase={}, by_gpu={}, by_tenant={}, by_app={},
            unattributed_s=0.0, total_s=0.0, orphan_spans=0, reconciliation={},
        )

    def feed(self, spans: Iterable[Span], watermark: float) -> None:
        for sp in spans:
            self._add(sp)
        while self._done and self._done[0] < watermark:
            self._finalize(heapq.heappop(self._done))

    def _add(self, sp: Span) -> None:
        sid = sp.span_id
        pid = sp.parent_id
        if pid is None:
            if sp.cat == CAT_REQUEST:
                self._roots[sid] = sp
                self._root_of[sid] = sid
                self._kids[sid] = []
                if sp.finished:
                    heapq.heappush(self._done, sid)
                for ch in self._unresolved.pop(sid, ()):
                    self._attach(ch, sid)
            else:
                # Loose span (engine kernel/copy, outage marker): not on
                # any request's critical path.  Anything that was waiting
                # for it is a child of a non-request span, outside every
                # blame tree.
                self._unresolved.pop(sid, None)
            return
        rid = self._root_of.get(pid)
        if rid is not None:
            self._attach(sp, rid)
        else:
            self._unresolved.setdefault(pid, []).append(sp)

    def _attach(self, sp: Span, rid: int) -> None:
        self._root_of[sp.span_id] = rid
        self._kids[rid].append(sp)
        for ch in self._unresolved.pop(sp.span_id, ()):
            self._attach(ch, rid)

    def _finalize(self, rid: int) -> None:
        root = self._roots.pop(rid)
        children = self._kids.pop(rid)
        del self._root_of[rid]
        for ch in children:
            self._root_of.pop(ch.span_id, None)
        args = root.args or {}
        if args.get("failed_attempt"):
            # A re-dispatched or lost attempt: the request's blame is its
            # completing attempt's (a lost request has none).
            return
        phases, unatt = _blame_sweep(root.start, root.end, children)
        blame = RequestBlame(
            rid=int(args.get("rid", -1)),
            app=str(args.get("app", "?")),
            tenant=str(args.get("tenant", "?")),
            gid=int(args.get("gid", -1)),
            run_label=root.run_label,
            start=root.start,
            end=root.end,
            phases=phases,
            unattributed_s=unatt,
        )
        p = self.profile
        p.requests.append(blame)
        for cat, v in phases.items():
            p.by_phase[cat] = p.by_phase.get(cat, 0.0) + v
        p.unattributed_s += unatt
        p.total_s += blame.total_s
        for dst in (
            p.by_gpu.setdefault(blame.gid, {}),
            p.by_tenant.setdefault(blame.tenant, {}),
            p.by_app.setdefault(blame.app, {}),
        ):
            for cat, v in phases.items():
                dst[cat] = dst.get(cat, 0.0) + v
            dst[OVERHEAD] = dst.get(OVERHEAD, 0.0) + unatt

    def finish(self, telemetry: Optional[Telemetry]) -> RunProfile:
        self.feed((), math.inf)
        p = self.profile
        p.orphan_spans = sum(
            1 for waiting in self._unresolved.values() for sp in waiting if sp.finished
        )
        p.reconciliation = _reconcile(telemetry, p.by_phase)
        return p


def _profile_batches(
    batches: Iterable[Tuple[List[Span], float, Optional[float]]],
    telemetry: Optional[Telemetry],
) -> RunProfile:
    """Profile ``(spans, watermark, sim_time)`` batches, in order;
    ``telemetry`` (or ``None``: zeros) supplies the engine accounting
    the blame is reconciled against."""
    prof = _CriticalPathProfiler()
    for spans, watermark, _t in batches:
        prof.feed(spans, watermark)
    return prof.finish(telemetry)


def profile_requests(telemetry: Telemetry) -> RunProfile:
    """Critical-path blame for every finished request in the registry.

    The registry's span list is one batch; a shard store (streaming
    mode) supplies its own batches, read back in one bounded-memory
    pass.  The profiler sees the same spans in the same order either
    way, so where spans live never changes the profile.
    """
    spans = telemetry.spans
    if hasattr(spans, "iter_batches"):
        return _profile_batches(spans.iter_batches(), telemetry)
    return _profile_batches([(spans, math.inf, None)], telemetry)


def _reconcile(
    telemetry: Optional[Telemetry], by_phase: Dict[str, float]
) -> Dict[str, Any]:
    """Span blame vs the engines' independent busy/bytes accounting.

    Session-side kernel/copy blame should track the attribution table's
    SM-residency and DMA-occupancy seconds (recorded straight from the
    engine completion records); a large gap means spans went missing.
    The ratio is blame/engine — below 1.0 when device work overlapped
    (blame charges each instant once, engines charge each op).  Without
    a registry (offline shard analysis) the engine side reads as zero.
    """
    engine_busy = 0.0
    engine_transfer = 0.0
    engine_bytes_gb = 0.0
    rows = telemetry.attribution.rows() if telemetry is not None else ()
    for u in rows:
        engine_busy += u.gpu_busy_s
        engine_transfer += u.transfer_s
        engine_bytes_gb += u.bytes_moved_gb
    kernel_blame = by_phase.get(CAT_KERNEL, 0.0)
    copy_blame = by_phase.get(CAT_COPY, 0.0)
    return {
        "kernel_blame_s": kernel_blame,
        "engine_busy_s": engine_busy,
        "kernel_ratio": (kernel_blame / engine_busy) if engine_busy > 0 else None,
        "copy_blame_s": copy_blame,
        "engine_transfer_s": engine_transfer,
        "copy_ratio": (copy_blame / engine_transfer) if engine_transfer > 0 else None,
        "engine_bytes_gb": engine_bytes_gb,
    }


def top_slowest(profile: RunProfile, k: int = 10) -> List[RequestBlame]:
    """The ``k`` slowest requests, slowest first (ties by rid for
    deterministic output)."""
    if k <= 0:
        raise ValueError(f"top-k must be > 0, got {k}")
    return sorted(profile.requests, key=lambda b: (-b.total_s, b.rid))[:k]


# ---------------------------------------------------------------------------
# Serialisation (embedded into the metrics export, consumed by diffing)
# ---------------------------------------------------------------------------


def _r(v: Optional[float]) -> Optional[float]:
    """Round for byte-stable JSON artifacts (sim floats are exact anyway)."""
    return None if v is None else round(v, 9)


def _vector(d: Dict[str, float]) -> Dict[str, float]:
    return {k: _r(v) for k, v in sorted(d.items())}


def profile_dict(profile: RunProfile, top_k: int = 10) -> Dict[str, Any]:
    """The profile as one JSON-serialisable document (stable ordering)."""
    return {
        "requests": len(profile.requests),
        "total_s": _r(profile.total_s),
        "unattributed_s": _r(profile.unattributed_s),
        "orphan_spans": profile.orphan_spans,
        "per_phase": _vector(profile.by_phase),
        "per_gpu": {str(g): _vector(v) for g, v in sorted(profile.by_gpu.items())},
        "per_tenant": {t: _vector(v) for t, v in sorted(profile.by_tenant.items())},
        "per_app": {a: _vector(v) for a, v in sorted(profile.by_app.items())},
        "top_slowest": [
            {
                "rid": b.rid,
                "app": b.app,
                "tenant": b.tenant,
                "gid": b.gid,
                "run": b.run_label,
                "total_s": _r(b.total_s),
                "dominant": b.dominant,
                "phases": _vector(b.phases),
                "overhead_s": _r(b.unattributed_s),
            }
            for b in top_slowest(profile, top_k)
        ],
        "reconciliation": {k: _r(v) if isinstance(v, float) else v
                           for k, v in profile.reconciliation.items()},
    }


def analyze(telemetry: Telemetry, top_k: int = 10) -> Dict[str, Any]:
    """Profile a live registry straight into the serialised form."""
    return profile_dict(profile_requests(telemetry), top_k=top_k)


# ---------------------------------------------------------------------------
# Console rendering
# ---------------------------------------------------------------------------


_PHASE_ORDER = (
    CAT_BIND, CAT_QUEUE, CAT_GATE, CAT_CPU, CAT_STAGING, CAT_COPY,
    CAT_KERNEL, CAT_DEFAULT, OVERHEAD,
)


def _phase_row(label: str, vec: Dict[str, float], total: float) -> str:
    cells = "".join(f"{vec.get(c, 0.0):>11.4f}" for c in _PHASE_ORDER)
    share = sum(vec.values()) / total * 100 if total else 0.0
    return f"  {label:<12}{cells}{share:>8.1f}%"


def render_analysis(analysis: Dict[str, Any], top_k: int = 10) -> str:
    """Human-readable blame tables from the serialised profile."""
    lines = ["== critical-path blame ".ljust(70, "=")]
    total = analysis.get("total_s") or 0.0
    unatt = analysis.get("unattributed_s") or 0.0
    n = analysis.get("requests", 0)
    lines.append(
        f"requests: {n}   total latency: {total:.4f}s   "
        f"scheduler overhead (unattributed): {unatt:.4f}s "
        f"({unatt / total * 100 if total else 0.0:.1f}%)"
    )
    if analysis.get("orphan_spans"):
        lines.append(f"orphaned child spans ignored: {analysis['orphan_spans']}")

    header = "  " + "".ljust(12) + "".join(f"{c:>11}" for c in _PHASE_ORDER) + "   share"
    per_phase = dict(analysis.get("per_phase", {}))
    per_phase[OVERHEAD] = unatt
    lines.append("per-phase blame (seconds; phases + overhead = total latency):")
    lines.append(header)
    lines.append(_phase_row("all", per_phase, total))

    for title, key, fmt in (
        ("per-GPU blame:", "per_gpu", lambda k: f"GPU{k}"),
        ("per-tenant blame:", "per_tenant", str),
        ("per-app blame:", "per_app", str),
    ):
        section = analysis.get(key) or {}
        if not section:
            continue
        lines.append(title)
        lines.append(header)
        for k in sorted(section):
            lines.append(_phase_row(fmt(k), section[k], total))

    slowest = analysis.get("top_slowest") or []
    if slowest:
        lines.append(f"top-{min(top_k, len(slowest))} slowest requests:")
        lines.append(
            "  " + "rid".rjust(6) + "app".rjust(6) + "tenant".rjust(10)
            + "GPU".rjust(5) + "total s".rjust(10) + "  dominant phase"
        )
        for b in slowest[:top_k]:
            dom = b["dominant"]
            dom_s = b["phases"].get(dom, b.get("overhead_s", 0.0)) or 0.0
            share = dom_s / b["total_s"] * 100 if b["total_s"] else 0.0
            lines.append(
                f"  {b['rid']:>6}{b['app']:>6}{b['tenant']:>10}"
                f"{b['gid']:>5}{b['total_s']:>10.4f}  {dom} ({share:.0f}%)"
            )

    rec = analysis.get("reconciliation") or {}
    if rec:
        kr = rec.get("kernel_ratio")
        cr = rec.get("copy_ratio")
        lines.append(
            "reconciliation vs engine accounting: "
            f"kernel blame {rec.get('kernel_blame_s', 0.0):.4f}s vs engine busy "
            f"{rec.get('engine_busy_s', 0.0):.4f}s"
            + (f" ({kr * 100:.1f}%)" if kr is not None else "")
        )
        lines.append(
            "  copy blame "
            f"{rec.get('copy_blame_s', 0.0):.4f}s vs engine DMA "
            f"{rec.get('engine_transfer_s', 0.0):.4f}s"
            + (f" ({cr * 100:.1f}%)" if cr is not None else "")
            + f"   bytes moved: {rec.get('engine_bytes_gb', 0.0):.3f} GB"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run diffing
# ---------------------------------------------------------------------------


def _delta(a: Optional[float], b: Optional[float]) -> Dict[str, Any]:
    a = a or 0.0
    b = b or 0.0
    return {
        "base": _r(a),
        "other": _r(b),
        "delta": _r(b - a),
        "ratio": _r(b / a) if a else None,
    }


def diff_runs(
    base: Dict[str, Any],
    other: Dict[str, Any],
    base_label: str = "baseline",
    other_label: str = "current",
) -> Dict[str, Any]:
    """Structured delta between two exported metrics documents.

    Both inputs are :func:`repro.obs.export.metrics_dict` documents (the
    ``--emit metrics`` JSON).  The diff is antisymmetric: every ``delta``
    in ``diff_runs(a, b)`` is the negation of the one in
    ``diff_runs(b, a)``.
    """
    an_a = base.get("analysis") or {}
    an_b = other.get("analysis") or {}

    phases: Dict[str, Any] = {}
    pa, pb = an_a.get("per_phase") or {}, an_b.get("per_phase") or {}
    for cat in sorted(set(pa) | set(pb)):
        phases[cat] = _delta(pa.get(cat), pb.get(cat))
    phases[OVERHEAD] = _delta(an_a.get("unattributed_s"), an_b.get("unattributed_s"))

    latency: Dict[str, Any] = {}
    ha, hb = base.get("histograms") or {}, other.get("histograms") or {}
    for series in sorted(set(ha) | set(hb)):
        if not series.startswith("request.completion_s"):
            continue
        a, b = ha.get(series, {}), hb.get(series, {})
        latency[series] = {
            "p50": _delta(a.get("p50"), b.get("p50")),
            "p99": _delta(a.get("p99"), b.get("p99")),
            "mean": _delta(a.get("mean"), b.get("mean")),
            "count": _delta(a.get("count"), b.get("count")),
        }

    da, db = base.get("decisions") or {}, other.get("decisions") or {}
    mix_a, mix_b = da.get("policy_mix") or {}, db.get("policy_mix") or {}
    decision_mix = {
        policy: _delta(mix_a.get(policy), mix_b.get(policy))
        for policy in sorted(set(mix_a) | set(mix_b))
    }

    def _slo_by_target(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        return {row["target"]: row for row in doc.get("slo") or []}

    sa, sb = _slo_by_target(base), _slo_by_target(other)
    slo = {
        target: {
            "violations": _delta(
                sa.get(target, {}).get("violations"),
                sb.get(target, {}).get("violations"),
            ),
            "compliance": _delta(
                sa.get(target, {}).get("compliance"),
                sb.get(target, {}).get("compliance"),
            ),
        }
        for target in sorted(set(sa) | set(sb))
    }

    return {
        "base_label": base_label,
        "other_label": other_label,
        "requests": _delta(an_a.get("requests"), an_b.get("requests")),
        "total_latency_s": _delta(an_a.get("total_s"), an_b.get("total_s")),
        "phases": phases,
        "latency": latency,
        "decision_mix": decision_mix,
        "placements": _delta(da.get("placements"), db.get("placements")),
        "switches": _delta(da.get("switches"), db.get("switches")),
        "slo": slo,
    }


def render_diff(delta: Dict[str, Any]) -> str:
    """The run delta as a console table."""
    a, b = delta.get("base_label", "baseline"), delta.get("other_label", "current")
    lines = [f"== run comparison: {a} -> {b} ".ljust(70, "=")]

    def row(label: str, d: Dict[str, Any], unit: str = "s", prec: int = 4) -> str:
        base, other = d.get("base") or 0.0, d.get("other") or 0.0
        dv = d.get("delta") or 0.0
        pct = f"{(d['ratio'] - 1) * 100:+.1f}%" if d.get("ratio") else "  n/a"
        return (
            f"  {label:<28}{base:>12.{prec}f}{other:>12.{prec}f}"
            f"{dv:>+12.{prec}f}{unit:>2} {pct:>8}"
        )

    lines.append(f"  {'metric':<28}{a[:12]:>12}{b[:12]:>12}{'delta':>12}")
    lines.append(row("requests", delta["requests"], unit="", prec=0))
    lines.append(row("total latency", delta["total_latency_s"]))
    lines.append("per-phase blame shift:")
    for cat in _PHASE_ORDER:
        d = delta["phases"].get(cat)
        if d and (d["base"] or d["other"]):
            lines.append(row(f"  {cat}", d))
    if delta["latency"]:
        lines.append("request completion movement:")
        for series in sorted(delta["latency"]):
            for q in ("p50", "p99"):
                lines.append(row(f"  {series} {q}", delta["latency"][series][q]))
    if delta["decision_mix"]:
        lines.append("decision mix (placements per policy):")
        for policy, d in sorted(delta["decision_mix"].items()):
            lines.append(row(f"  {policy}", d, unit="", prec=0))
    lines.append(row("placements", delta["placements"], unit="", prec=0))
    lines.append(row("policy switches", delta["switches"], unit="", prec=0))
    if delta["slo"]:
        lines.append("SLO deltas:")
        for target, d in sorted(delta["slo"].items()):
            lines.append(row(f"  {target} violations", d["violations"], unit="", prec=0))
            lines.append(row(f"  {target} compliance", d["compliance"], unit="", prec=3))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tolerance specs (shared with benchmarks/perf_gate.py)
# ---------------------------------------------------------------------------


def parse_tolerance_spec(spec: str) -> Dict[str, float]:
    """Parse ``key=fraction[,key=fraction...]`` into a tolerance map.

    Keys are metric names (phase names, ``p50``/``p99``, perf-gate metric
    names) or ``default``; fractions are relative tolerances in ``[0, 1]``
    (``0.05`` = 5 %).  Raises :class:`ValueError` on malformed input, with
    messages matching the ``--slo``/``--faults`` validation style.
    """
    out: Dict[str, float] = {}
    if not spec.strip():
        raise ValueError("empty tolerance spec")
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad tolerance item {item!r} (expected KEY=FRACTION)"
            )
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"bad tolerance item {item!r} (empty key)")
        try:
            frac = float(raw)
        except ValueError:
            raise ValueError(
                f"bad tolerance fraction {raw!r} for {key!r} (expected a number)"
            ) from None
        if not 0.0 <= frac <= 1.0:
            raise ValueError(
                f"tolerance for {key!r} must be in [0, 1], got {frac}"
            )
        out[key] = frac
    if not out:
        raise ValueError("empty tolerance spec")
    return out


def check_tolerances(
    delta: Dict[str, Any], tolerances: Dict[str, float]
) -> List[str]:
    """Violation messages for a run delta against per-metric tolerances.

    The per-phase blame shifts and per-series p50/p99 movements are
    checked against their named tolerance (falling back to ``default``,
    falling back to no check).  Empty list = within tolerance.
    """
    default = tolerances.get("default")
    failures: List[str] = []

    def _check(name: str, key: str, d: Dict[str, Any]) -> None:
        tol = tolerances.get(key, default)
        if tol is None:
            return
        base = d.get("base") or 0.0
        other = d.get("other") or 0.0
        if base == 0.0 and other == 0.0:
            return
        rel = abs(other - base) / base if base else float("inf")
        if rel > tol:
            failures.append(
                f"{name}: {base:.6g} -> {other:.6g} "
                f"({rel * 100:+.1f}% exceeds tolerance {tol * 100:.1f}%)"
            )

    for cat, d in delta.get("phases", {}).items():
        _check(f"phase {cat}", cat, d)
    for series, qs in delta.get("latency", {}).items():
        for q in ("p50", "p99"):
            _check(f"{series} {q}", q, qs[q])
    _check("total latency", "total_s", delta.get("total_latency_s", {}))
    return failures


__all__ = [
    "BLAME_PRIORITY",
    "OVERHEAD",
    "RequestBlame",
    "RunProfile",
    "analyze",
    "check_tolerances",
    "diff_runs",
    "parse_tolerance_spec",
    "profile_dict",
    "profile_requests",
    "render_analysis",
    "render_diff",
    "top_slowest",
]
