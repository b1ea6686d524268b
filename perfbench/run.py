"""perfbench: the simulator's host cost, end to end and per layer.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics (``requests_per_s``, ``setup_s``, ``peak_rss_mb``).  Host times
are normalised to a reference host speed (``calibrate.py``).  ``--trace 1``
reports the per-layer metrics: call counts from an untimed counting
pass, and self-time per layer from traced repetitions interleaved with
untraced ones (see ``perfbench/layers.py``).  Every repetition is checked
for request conservation and for a simulated-outcome fingerprint equal to
the first one's.  Whatever the seed, a tiny run at the default seed must
match the fingerprint pinned in ``perfbench/fingerprints.json``; at the
default seed the full-size run must match too.  Any mismatch marks every
request of the run as failed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--size tiny`` and ``--inflate-kernel FRAC`` exist for the self-tests
(``python3 -m pytest perfbench``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import CALIBRATION_ZONE, Calibrator
from layers import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 11
#: Seconds the reference start-up takes at the reference host speed.
SETUP_REFERENCE_S = 0.12
#: Fewest timed repetitions (or traced/untraced pairs) in one run.
MIN_REPS = 3

END_TO_END = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: (name, unit).  Layers without work read 0.
PER_LAYER = [
    ("sim.events_per_req", "events/req"),
    ("sim.events_per_s", "events/s"),
    ("sim.self_us_per_req", "us/req"),
    ("simgpu.ops_per_req", "ops/req"),
    ("simgpu.self_us_per_req", "us/req"),
    ("cuda.calls_per_req", "calls/req"),
    ("cuda.self_us_per_req", "us/req"),
    ("remoting.issue_items_per_req", "items/req"),
    ("remoting.self_us_per_req", "us/req"),
    ("core.dispatch_signals_per_req", "signals/req"),
    ("core.abort_share", "ratio"),
    ("core.self_us_per_req", "us/req"),
    ("traffic.sessions", "count"),
    ("traffic.self_us_per_req", "us/req"),
    ("telemetry.self_us_per_req", "us/req"),
    ("obs.self_us_per_req", "us/req"),
    ("obs.spans_flushed_per_req", "spans/req"),
    ("apps.self_us_per_req", "us/req"),
    ("harness.self_us_per_req", "us/req"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
]

#: Layers whose self time is reported as ``<layer>.self_us_per_req``.
TIMED_LAYERS = [name.split(".")[0] for name, _ in PER_LAYER if name.endswith(".self_us_per_req")]


class Gate:
    """Correctness gate: conservation plus identical simulated outcomes."""

    def __init__(self, pinned=None) -> None:
        self.pinned = pinned
        self.reference = None
        self.errors = []
        self.attempted = 0

    def check(self, outcome, what: str) -> None:
        self.attempted += outcome.offered
        self.errors.extend(f"{what}: {e}" for e in outcome.conservation_errors())
        fp = outcome.fingerprint()
        if self.reference is None:
            self.reference = fp
            if self.pinned is not None and fp != self.pinned:
                self.errors.append(f"{what}: fingerprint {fp} != pinned {self.pinned}")
        elif fp != self.reference:
            self.errors.append(f"{what}: fingerprint {fp} != first {self.reference}")


def timed(prepared, perf=None):
    """One repetition: (outcome, host seconds, reference seconds).

    The calibration kernel samples host speed throughout the repetition;
    its own time is removed and the rest scaled to the reference speed
    (see ``calibrate.py``).
    """
    gc.collect()
    with Calibrator(perf) as cal:
        t0 = time.perf_counter()
        outcome = prepared.run()
        wall = time.perf_counter() - t0
    host = wall - cal.inside
    return outcome, host, cal.reference(wall)


def _start_up(*args: str) -> float:
    """Seconds from spawning ``setup_probe.py args`` to the stamp it prints."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout) - t0


def measure_setup(workload: str, seed: int, size: str) -> float:
    """Reference seconds from spawning an interpreter to its first event.

    Each probe follows a reference start-up (interpreter plus ``numpy``);
    the median ratio of the two, times ``SETUP_REFERENCE_S``, cancels the
    host's speed drift the way ``calibrate.py`` does for the simulation.
    The calibration kernel does not track an import-bound start-up.
    """
    ratios = []
    for _ in range(SETUP_PROBES):
        reference = _start_up("--reference")
        probe = _start_up("--workload", workload, "--seed", str(seed), "--size", size)
        ratios.append(probe / reference)
    return statistics.median(ratios) * SETUP_REFERENCE_S


def pinned_check(workload: str, gate: Gate) -> None:
    """A tiny repetition at the default seed, against its pinned fingerprint.

    It runs whatever ``--seed`` is, so a change to the simulated outcomes
    fails the gate at every seed; it also warms the interpreter up.
    """
    outcome = workloads.prepare(workload, workloads.DEFAULT_SEED, "tiny").run()
    gate.attempted += outcome.offered
    gate.errors.extend(f"pinned tiny run: {e}" for e in outcome.conservation_errors())
    fp, pinned = outcome.fingerprint(), workloads.pinned_fingerprint(workload, "tiny")
    if fp != pinned:
        gate.errors.append(f"pinned tiny run: fingerprint {fp} != pinned {pinned}")


def end_to_end(prepared, gate: Gate, seconds: float, notes: list) -> dict:
    """Timed repetitions with tracing off; median rate over them."""
    setup_s = measure_setup(prepared.name, prepared.seed, prepared.size)
    rates, host_rates, rep_s = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome, wall, ref = timed(prepared)
        rep_s.append(time.perf_counter() - t0)
        gate.check(outcome, f"rep {len(rates)}")
        rates.append(outcome.resolved / ref)
        host_rates.append(outcome.resolved / wall)
        # Stop before a repetition that would overrun the measured window.
        elapsed = time.perf_counter() - start
        if len(rates) >= MIN_REPS and elapsed + statistics.median(rep_s) > seconds:
            break
    notes.append(
        f"{len(rates)} repetitions; uncalibrated median "
        f"{statistics.median(host_rates):.3f} req/s per host second"
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "requests_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(prepared, gate: Gate, seconds: float, notes: list) -> dict:
    """Counting pass, then traced and untraced repetitions interleaved."""
    with LayerTracer() as counter:
        outcome = prepared.run()
    gate.check(outcome, "counting pass")
    counted, resolved, counts = outcome, outcome.resolved, counter.counts

    untraced, traced, unattributed = [], [], []
    self_us = {layer: [] for layer in TIMED_LAYERS}
    zone_s = {}
    start = time.perf_counter()
    while True:
        pair = len(untraced)
        # Alternate which side of the pair runs first.
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            if side:
                with LayerTracer(profile=True) as tracer:
                    outcome, wall, ref = timed(prepared, tracer.perf)
                gate.check(outcome, f"traced rep {pair}")
                traced.append(outcome.resolved / ref)
                zones = tracer.self_seconds()
                zones.pop(CALIBRATION_ZONE, None)
                unattributed.append(1.0 - sum(zones.values()) / wall)
                # Zone seconds in reference seconds, like every host time.
                zones = {zone: s * ref / wall for zone, s in zones.items()}
                for layer in TIMED_LAYERS:
                    self_us[layer].append(zones.get(layer, 0.0) / resolved * 1e6)
                for zone, s in zones.items():
                    zone_s.setdefault(zone, []).append(s)
            else:
                outcome, wall, ref = timed(prepared)
                gate.check(outcome, f"untraced rep {pair}")
                untraced.append((outcome.resolved / ref, ref))
        elapsed = time.perf_counter() - start
        if len(untraced) >= MIN_REPS and elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break

    untraced_rate = statistics.median(r for r, _ in untraced)
    events = counts["sim.events"]
    metrics = {
        "sim.events_per_req": events / resolved,
        "sim.events_per_s": statistics.median(events / w for _, w in untraced),
        "simgpu.ops_per_req": counts["simgpu.ops"] / resolved,
        "cuda.calls_per_req": counts["cuda.calls"] / resolved,
        "remoting.issue_items_per_req": counts["remoting.issue_items"] / resolved,
        "core.dispatch_signals_per_req": counter.dispatch_signals() / resolved,
        "core.abort_share": counted.aborted / counted.offered,
        "traffic.sessions": counted.sessions,
        "obs.spans_flushed_per_req": counted.spans_flushed / resolved,
        "trace.overhead": 1.0 - statistics.median(traced) / untraced_rate,
        "trace.unattributed_share": statistics.median(unattributed),
    }
    for layer, values in self_us.items():
        metrics[f"{layer}.self_us_per_req"] = statistics.median(values)
    total = sum(statistics.median(v) for v in zone_s.values())
    notes.append("self time per layer zone (traced repetitions, median):")
    for zone, values in sorted(zone_s.items(), key=lambda kv: -statistics.median(kv[1])):
        s = statistics.median(values)
        notes.append(f"  {zone:<10} {s / resolved * 1e6:12.1f} us/req {s / total:7.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", help="self-test hook: full or tiny")
    parser.add_argument(
        "--inflate-kernel", type=float, default=0.0, metavar="FRAC",
        help="self-test hook: inflate every kernel's simulated time by FRAC",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source at {ROOT}/src/repro", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.size not in workloads.SIZES:
        parser.error(f"--size must be one of {', '.join(workloads.SIZES)}")
    if args.inflate_kernel:
        workloads.inflate_kernels(args.inflate_kernel)

    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = workloads.pinned_fingerprint(args.workload, args.size)
    gate = Gate(pinned)
    prepared = workloads.prepare(args.workload, args.seed, args.size)
    notes: list = []
    try:
        pinned_check(args.workload, gate)
        if args.trace:
            values = per_layer(prepared, gate, args.seconds, notes)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(prepared, gate, args.seconds, notes)
            units = END_TO_END
    finally:
        workloads.remove_work_dir()

    for err in gate.errors:
        print(f"INCORRECT {err}")
    for name, unit in units.items():
        print(f"{name:<32} {values[name]:>16.6f} {unit}")
    print("\n".join(notes))
    correct = not gate.errors
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": 0 if correct else gate.attempted,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
