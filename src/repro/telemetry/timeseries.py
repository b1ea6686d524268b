"""Ring-buffered time series and the sim-time Sampler (ISSUE 2).

PR 1's telemetry captures *point events* (spans, decisions, final
counters).  This module adds the time dimension the paper's Request
Monitor provides continuously: a :class:`Sampler` process snapshots
per-GPU utilization/occupancy, copy-queue depths, RCB residency, DST
load/weights and SFT feedback state on a fixed simulated-time interval
into :class:`Series` ring buffers hung off the telemetry registry.

Design constraints:

* bounded memory — every series is a ring buffer that overwrites its
  oldest points once ``capacity`` is reached (long runs keep the tail);
* zero cost when observability is off — the sampler is only started by
  the harness runner when a real registry with a sampler is installed,
  and the null registry's :meth:`timeseries` returns a no-op singleton;
* dependency-free (stdlib only), like the rest of the telemetry kernel.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Optional, Tuple

from repro.telemetry.instruments import _labels_key, format_series_name


class Series:
    """A fixed-capacity ring buffer of ``(sim_time, value)`` samples.

    Appends are O(1); once full, the oldest sample is overwritten.
    ``total_appended`` keeps counting so callers can tell how much
    history was dropped.
    """

    __slots__ = ("name", "labels", "capacity", "_t", "_v", "_head", "_size", "total_appended")

    def __init__(self, name: str, capacity: int = 1024, **labels: Any) -> None:
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.name = name
        self.labels = _labels_key(labels)
        self.capacity = capacity
        self._t: List[float] = [0.0] * capacity
        self._v: List[float] = [0.0] * capacity
        self._head = 0  # next write position
        self._size = 0
        self.total_appended = 0

    def append(self, t: float, value: float) -> None:
        """Record one sample (overwrites the oldest when full)."""
        head = self._head
        self._t[head] = t
        self._v[head] = value
        head += 1
        # Branch instead of modulo: appends dominate the sampler tick and
        # the wrap happens once per `capacity` appends.
        self._head = 0 if head == self.capacity else head
        if self._size < self.capacity:
            self._size += 1
        self.total_appended += 1

    def __len__(self) -> int:
        return self._size

    @property
    def dropped(self) -> int:
        """Samples lost to ring wrap-around."""
        return self.total_appended - self._size

    def points(self) -> List[Tuple[float, float]]:
        """All retained ``(t, value)`` samples in chronological order."""
        if self._size < self.capacity:
            return [(self._t[i], self._v[i]) for i in range(self._size)]
        start = self._head
        return [
            (self._t[(start + i) % self.capacity], self._v[(start + i) % self.capacity])
            for i in range(self.capacity)
        ]

    def times(self) -> List[float]:
        return [t for t, _ in self.points()]

    def values(self) -> List[float]:
        return [v for _, v in self.points()]

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent sample (None when empty)."""
        if self._size == 0:
            return None
        return self._t[(self._head - 1) % self.capacity], self._v[(self._head - 1) % self.capacity]

    def downsample(self, max_points: int) -> List[Tuple[float, float]]:
        """At most ``max_points`` samples, bucket-averaged over time order.

        Used by the HTML report so sparkline SVGs stay small: points are
        grouped into equal-count buckets; each bucket contributes its
        mean time and mean value (preserving the series' shape without
        aliasing single-point spikes away entirely).
        """
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        pts = self.points()
        if len(pts) <= max_points:
            return pts
        out: List[Tuple[float, float]] = []
        n = len(pts)
        for b in range(max_points):
            lo = b * n // max_points
            hi = max((b + 1) * n // max_points, lo + 1)
            chunk = pts[lo:hi]
            out.append(
                (
                    sum(t for t, _ in chunk) / len(chunk),
                    sum(v for _, v in chunk) / len(chunk),
                )
            )
        return out

    @property
    def series(self) -> str:
        return format_series_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Series {self.series} n={self._size}/{self.capacity}>"


class _NullSeries(Series):
    """Shared no-op series returned by the null registry."""

    __slots__ = ()

    def append(self, t: float, value: float) -> None:
        pass


NULL_SERIES = _NullSeries("null", capacity=1)


class Sampler:
    """Continuous sim-time sampling of one experiment's system state.

    The harness attaches a sampler to the telemetry registry
    (``telemetry.sampler = Sampler(interval_s)``); the experiment runner
    then calls :meth:`start` once per run, after the system under test is
    constructed, and the sampler process snapshots until the run's event
    horizon.  Per-run series are labelled ``run=<label>`` so several runs
    can share one registry (exactly like spans and decisions).

    Sampled series (per tick, labels ``run`` and — where applicable — ``gid``):

    ==================  =====================================================
    ``gpu.util``        compute-engine busy fraction over the last interval
    ``gpu.active``      kernels resident on the SM array
    ``gpu.copy_queue``  transfers waiting on the DMA engine(s)
    ``gpu.rcb_live``    applications registered in the device's RCB
    ``gpu.signal_rate`` dispatch-gate wake+sleep signals per second
    ``dst.load``        DST ``device_load`` (bound applications)
    ``dst.est_load_s``  DST estimated-runtime load (RTF's input)
    ``dst.weight``      DST static capability weight
    ``sft.rows``        applications the SFT has profiled
    ``sft.updates``     cumulative SFT folds
    ``policy.fallback`` cold-start fallback decisions (feedback policies)
    ``policy.feedback`` SFT-informed decisions (feedback policies)
    ``sim.speedup``     sim-seconds advanced per wall-clock second (ISSUE 9)
    ``sim.events_ps``   DES events dispatched per wall-clock second
    ``sim.queue_depth`` events currently scheduled in the kernel heap
    ==================  =====================================================

    The three ``sim.*`` series are *wall-clock-valued* self-telemetry:
    their sample values depend on host speed and are deliberately kept
    out of every sim-result comparison (the perf gate compares sim-time
    blame vectors only).  Mirrored into ``sim.events_processed`` /
    ``sim.queue_depth`` registry gauges for scrapes; the null path never
    reaches this loop, so the kernel's plain int counter stays the only
    always-on cost.
    """

    def __init__(self, interval_s: float = 1.0, capacity: int = 1024) -> None:
        if interval_s <= 0:
            raise ValueError(f"sampler interval must be > 0 sim-seconds, got {interval_s}")
        self.interval_s = float(interval_s)
        self.capacity = capacity
        self.ticks = 0

    # -- wiring --------------------------------------------------------------

    def start(self, env, system):
        """Begin sampling ``system`` inside ``env`` (one process per run).

        Returns the sampling :class:`~repro.sim.process.Process`, or None
        when the environment's registry is disabled.  The process loops
        forever; experiment runners stop the simulation with an ``until``
        event, which simply abandons the pending sampler timeout.
        """
        tel = env.telemetry
        if not getattr(tel, "sampling", False):
            return None
        return env.process(self._loop(env, tel, system), name="obs:sampler")

    # -- sampling loop -------------------------------------------------------

    def _loop(self, env, tel, system):
        run = tel.run_label or f"run{tel.run_id}"

        pool = getattr(system, "pool", None)
        if pool is not None:
            devices = {gid: pool.device(gid) for gid in pool.gids()}
            dst = pool.dst
        else:
            # CUDA baseline: no gPool — enumerate node devices directly.
            nodes = getattr(system, "nodes", [])
            devices = {
                i: dev
                for i, dev in enumerate(d for n in nodes for d in n.devices)
            }
            dst = None
        schedulers = getattr(system, "schedulers", {})
        sft = getattr(system, "sft", None)
        mapper = getattr(system, "mapper", None)
        policy = getattr(mapper, "policy", None)

        def ts(name, **labels):
            return tel.timeseries(name, capacity=self.capacity, run=run, **labels)

        # Resolve everything the tick touches once, up front — Series
        # handles (the label-keyed registry lookup is ~2/3 of the naive
        # per-tick cost), their bound ``append`` methods, engine/gate/DST
        # row objects (all stable for the lifetime of the run, exactly
        # like the hoisted ``devices`` map) — into one flat tuple per
        # GID, so the tick body is pure local-variable calls with no
        # dict probes or attribute chases.
        rows = []
        for gid, dev in devices.items():
            sched = schedulers.get(gid)
            dst_row = dst.row(gid) if dst is not None else None
            rows.append((
                dev.compute,
                dev.h2d_engine,
                dev.d2h_engine,
                ts("gpu.util", gid=gid).append,
                ts("gpu.active", gid=gid).append,
                ts("gpu.copy_queue", gid=gid).append,
                sched.rcb if sched is not None else None,
                sched.gate if sched is not None else None,
                ts("gpu.rcb_live", gid=gid).append if sched is not None else None,
                ts("gpu.signal_rate", gid=gid).append if sched is not None else None,
                dst_row,
                ts("dst.load", gid=gid).append if dst_row is not None else None,
                ts("dst.est_load_s", gid=gid).append if dst_row is not None else None,
                ts("dst.weight", gid=gid).append if dst_row is not None else None,
            ))
        if sft is not None:
            sft_rows_s, sft_updates_s = ts("sft.rows"), ts("sft.updates")
        if policy is not None and not hasattr(policy, "decision_mix"):
            policy = None
        if policy is not None:
            fallback_s, feedback_s = ts("policy.fallback"), ts("policy.feedback")

        # Streaming-pipeline hooks (ISSUE 6), duck-typed so this bottom
        # layer never imports repro.obs: the harness attaches a span
        # shard store (``tel.stream``) whose buffer is flushed on every
        # tick, and a live console (``tel.console``) redrawn on every
        # tick.  Both stay None on non-streaming runs.
        stream_flush = getattr(getattr(tel, "stream", None), "flush", None)
        console_tick = getattr(getattr(tel, "console", None), "tick", None)

        # Sim-speed self-telemetry (ISSUE 9): wall-clock deltas between
        # ticks turn the kernel's event counter into rates.
        speedup_s = ts("sim.speedup")
        events_ps_s = ts("sim.events_ps")
        qdepth_s = ts("sim.queue_depth")
        events_gauge = tel.gauge("sim.events_processed", run=run)
        qdepth_gauge = tel.gauge("sim.queue_depth", run=run)
        prev_wall = perf_counter()
        prev_events = env.events_processed

        prev_busy = [r[0].busy_seconds() for r in rows]
        prev_signals = [r[7].signals if r[7] is not None else 0 for r in rows]
        sft_seen = None  # (rows, folds) of the last stored SFT snapshot
        last = env.now
        while True:
            yield env.timeout(self.interval_s)
            now = env.now
            dt = now - last
            last = now
            self.ticks += 1
            wall = perf_counter()
            wall_dt = wall - prev_wall
            prev_wall = wall
            events = env.events_processed
            depth = env.queue_depth
            if wall_dt > 0:
                speedup_s.append(now, dt / wall_dt)
                events_ps_s.append(now, (events - prev_events) / wall_dt)
            prev_events = events
            qdepth_s.append(now, depth)
            events_gauge.set(events)
            qdepth_gauge.set(depth)
            for i, (compute, h2d, d2h, util_a, active_a, copyq_a,
                    rcb, gate, rcb_a, signal_a,
                    dst_row, load_a, est_a, weight_a) in enumerate(rows):
                busy = compute.busy_seconds()
                util_a(now, min(1.0, (busy - prev_busy[i]) / dt))
                prev_busy[i] = busy
                active_a(now, compute.active_count)
                queue = h2d.queued
                if d2h is not h2d:
                    queue += d2h.queued
                copyq_a(now, queue)
                if gate is not None:
                    rcb_a(now, len(rcb))
                    signals = gate.signals
                    signal_a(now, (signals - prev_signals[i]) / dt)
                    prev_signals[i] = signals
                if dst_row is not None:
                    load_a(now, dst_row.device_load)
                    est_a(now, dst_row.estimated_load_s)
                    weight_a(now, dst_row.weight)
            if sft is not None:
                sft_rows_s.append(now, len(sft))
                sft_updates_s.append(now, sft.updates)
                key = (len(sft), sft.updates)
                if key != sft_seen:  # re-snapshot only when the SFT moved
                    tel.sft_state[run] = sft.snapshot()
                    sft_seen = key
            if policy is not None:
                mix = policy.decision_mix()
                if mix:
                    fallback_s.append(now, mix.get("fallback", 0))
                    feedback_s.append(now, mix.get("feedback", 0))
            if tel.slo is not None:
                tel.slo.tick(now)
            if stream_flush is not None:
                stream_flush(now)
            if console_tick is not None:
                console_tick(now, tel)


__all__ = ["NULL_SERIES", "Sampler", "Series"]
