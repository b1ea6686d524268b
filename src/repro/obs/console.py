"""Live run console + machine-readable heartbeat (ISSUE 6).

Long runs (10^5-10^6 requests, ROADMAP item 1) are silent for minutes
with nothing but the final summary table at the end.  This module adds a
terminal status line, driven by the existing sim-time
:class:`~repro.telemetry.timeseries.Sampler` tick (the same duck-typed
hook the span shard store uses, so the telemetry kernel never imports
this layer)::

    [fig9:GMin-Strings]  t=812.4s  54% | 6.2k done 12.3 req/s | p99 2.41s | SLO 3 viol | util 0.93 0.88 | ETA 41s

Data sources are all O(instruments), never O(requests):

* completed requests + run-wide p99 from the ``request.completion_s``
  histograms (a lossless sketch merge when streaming mode's
  :class:`~repro.telemetry.sketch.SketchHistogram` is installed);
* SLO violation count / max burn rate from the attached
  :class:`~repro.obs.slo.SloMonitor`;
* per-GPU utilization from the sampler's ``gpu.util`` ring buffers;
* progress/ETA from the run's arrival horizon (``tel.run_horizon_s``,
  set by the experiment runner) scaled by wall-clock elapsed.

Redraws are wall-clock throttled (``interval_s``), so a fast sim doesn't
spam the terminal and a slow one still shows liveness.  Every redraw can
also append one JSON object to a **heartbeat JSONL** file for dashboards
and CI liveness checks.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.telemetry.instruments import Histogram
from repro.telemetry.sketch import merged_quantile


class LiveConsole:
    """Periodically rewritten status line + heartbeat JSONL stream.

    The harness attaches it (``tel.console = LiveConsole(...)``); the
    sampler then calls :meth:`tick` every sim-time interval and the
    harness calls :meth:`close` once the run is over.  ``tick`` is a
    no-op until ``interval_s`` wall seconds have passed since the last
    redraw, except for the very first tick (immediate feedback) and the
    forced final tick from :meth:`close`.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        heartbeat_path: Optional[str] = None,
        out: Optional[TextIO] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"console interval must be > 0 wall-seconds, got {interval_s}")
        self.interval_s = float(interval_s)
        self._out = out if out is not None else sys.stderr
        self._hb: Optional[TextIO] = (
            open(heartbeat_path, "w") if heartbeat_path else None
        )
        self._t0 = time.perf_counter()
        self._last_emit = -float("inf")
        self._now = 0.0  # latest sim time seen by tick (emitted or not)
        self._last_now = 0.0
        self._last_completed = 0
        self._width = 0
        self.ticks = 0
        self.emits = 0
        self._closed = False

    # -- sampler hook --------------------------------------------------------

    def tick(self, now: float, tel, force: bool = False) -> None:
        """Redraw (throttled) at sim-time ``now`` from registry ``tel``."""
        if self._closed:
            return
        self.ticks += 1
        self._now = now
        wall = time.perf_counter() - self._t0
        if not force and self.emits and wall - self._last_emit < self.interval_s:
            return
        self._last_emit = wall
        snap = self.snapshot(now, tel, wall)
        self._render(snap)
        self._heartbeat(snap)
        self.emits += 1
        self._last_now = now
        self._last_completed = snap["completed"]

    def close(self, tel, now: Optional[float] = None) -> None:
        """Final forced tick, then terminate the status line."""
        if self._closed:
            return
        self.tick(self._now if now is None else now, tel, force=True)
        self._closed = True
        try:
            self._out.write("\n")
            self._out.flush()
        except (ValueError, OSError):  # closed stream at interpreter exit
            pass
        if self._hb is not None:
            self._hb.close()

    # -- snapshot ------------------------------------------------------------

    def snapshot(self, now: float, tel, wall: float) -> Dict[str, Any]:
        """One machine-readable view of run progress (heartbeat record)."""
        completions: List[Histogram] = [
            h
            for h in tel.instruments()
            if isinstance(h, Histogram) and h.name == "request.completion_s"
        ]
        completed = sum(h.count for h in completions)
        p99 = merged_quantile(completions, 0.99)

        dt = now - self._last_now
        goodput = (completed - self._last_completed) / dt if dt > 0 else 0.0

        slo_violations = 0
        max_burn = 0.0
        if tel.slo is not None:
            slo_violations = tel.slo.total_violations
            for row in tel.slo.summary():
                if row["max_burn_rate"] > max_burn:
                    max_burn = float(row["max_burn_rate"])  # type: ignore[arg-type]

        run = tel.run_label or f"run{tel.run_id}"
        gpu_util: Dict[str, float] = {}
        # Sim-speed self-telemetry (ISSUE 9): latest sampler points of
        # the wall-clock-valued ``sim.*`` series, if the kernel gauges
        # are being sampled for this run.
        sim_speedup = None
        events_ps = None
        queue_depth = None
        for s in tel.series.values():
            labels = dict(s.labels)
            if labels.get("run") not in (run, None):
                continue
            if s.name == "gpu.util":
                point = s.last()
                if point is not None:
                    gpu_util[str(labels.get("gid", "?"))] = point[1]
            elif s.name == "sim.speedup":
                point = s.last()
                if point is not None:
                    sim_speedup = point[1]
            elif s.name == "sim.events_ps":
                point = s.last()
                if point is not None:
                    events_ps = point[1]
            elif s.name == "sim.queue_depth":
                point = s.last()
                if point is not None:
                    queue_depth = point[1]

        # Progress/ETA from the *arrival horizon* in sim time — the only
        # total a duration-bounded open-loop run knows up front (its
        # request count is whatever the lazy traffic generates).  Past
        # the horizon arrivals have stopped but in-flight requests are
        # still draining: progress pegs at 100% and the wall-clock ETA is
        # unknowable, so the run is flagged as ``drain`` instead of
        # advertising ETA 0 while work remains.
        horizon = getattr(tel, "run_horizon_s", 0.0) or 0.0
        progress = min(1.0, now / horizon) if horizon > 0 else None
        phase = None
        if progress is not None:
            phase = "drain" if now >= horizon else "run"
        eta_s = None
        if phase == "run" and progress >= 1e-3:
            eta_s = wall * (1.0 - progress) / progress

        snap: Dict[str, Any] = {
            "t": round(now, 6),
            "wall_s": round(wall, 3),
            "run": run,
            "completed": completed,
            "goodput_rps": round(goodput, 3),
            "p99_s": round(p99, 6),
            "slo_violations": slo_violations,
            "max_burn_rate": round(max_burn, 4),
            "gpu_util": {g: round(u, 4) for g, u in sorted(gpu_util.items())},
            "progress": round(progress, 4) if progress is not None else None,
            "phase": phase,
            "eta_s": round(eta_s, 1) if eta_s is not None else None,
            "sim_speedup": round(sim_speedup, 3) if sim_speedup is not None else None,
            "events_ps": round(events_ps, 1) if events_ps is not None else None,
            "queue_depth": queue_depth,
        }
        stream = getattr(tel, "stream", None)
        if stream is not None:
            snap["spans_flushed"] = stream.flushed_spans
            snap["spans_total"] = stream.total_spans
        return snap

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _fmt_count(n: int) -> str:
        if n >= 1_000_000:
            return f"{n / 1e6:.1f}M"
        if n >= 10_000:
            return f"{n / 1e3:.1f}k"
        return str(n)

    def render_line(self, snap: Dict[str, Any]) -> str:
        parts = [f"[{snap['run']}] t={snap['t']:.1f}s"]
        if snap["progress"] is not None:
            parts[-1] += f" {snap['progress'] * 100:.0f}%"
        parts.append(
            f"{self._fmt_count(snap['completed'])} done "
            f"{snap['goodput_rps']:.1f} req/s"
        )
        parts.append(f"p99 {snap['p99_s']:.3f}s")
        if snap["slo_violations"] or snap["max_burn_rate"]:
            parts.append(
                f"SLO {snap['slo_violations']} viol "
                f"burn {snap['max_burn_rate']:.1f}x"
            )
        if snap["gpu_util"]:
            utils = " ".join(f"{u:.2f}" for _g, u in sorted(snap["gpu_util"].items()))
            parts.append(f"util {utils}")
        if snap.get("sim_speedup") is not None:
            speed = f"sim x{snap['sim_speedup']:.0f}"
            if snap.get("events_ps") is not None:
                speed += f" {self._fmt_count(int(snap['events_ps']))} ev/s"
            if snap.get("queue_depth") is not None:
                speed += f" q{int(snap['queue_depth'])}"
            parts.append(speed)
        if snap.get("phase") == "drain":
            parts.append("drain")
        elif snap.get("eta_s") is not None:
            parts.append(f"ETA {snap['eta_s']:.0f}s")
        return " | ".join(parts)

    def _render(self, snap: Dict[str, Any]) -> None:
        line = self.render_line(snap)
        pad = max(0, self._width - len(line))
        self._width = len(line)
        try:
            self._out.write("\r" + line + " " * pad)
            self._out.flush()
        except (ValueError, OSError):  # pragma: no cover - closed stream
            pass

    def _heartbeat(self, snap: Dict[str, Any]) -> None:
        if self._hb is None:
            return
        self._hb.write(json.dumps(snap, sort_keys=True, separators=(",", ":")))
        self._hb.write("\n")
        self._hb.flush()


__all__ = ["LiveConsole"]
