"""Observability overhead bench (ISSUE 2 bench-hygiene satellite).

Runs a fig9-sized workload under four registries — null (observability
off, the zero-overhead default), sampling-only (the continuous sampler
and nothing else), the full per-op registry (spans + attribution +
sampler + quantile-sketch histograms), and streaming mode (full
registry + span shard store, ISSUE 6) — and records per-configuration CPU times to
``BENCH_obs_overhead.json`` at the repo root.  Three gates:

* continuous sampling must cost < 10 % over the obs-off baseline
  (ISSUE 4);
* the full per-op registry must cost < 20 % (down from the 31.8 %
  recorded before the ISSUE 4 fast paths: cached instrument lookups,
  precomputed span metadata, zero-wait early-outs);
* streaming mode must cost < 45 % over obs-off (previously unguarded,
  recorded at 39.4 %).  Self-profiling fingered the shard flush as
  the worst streaming-only cost — one
  ``json.dumps`` dict encode per span plus two text-mode ``write``
  calls per record — so ``repro.obs.stream`` now hand-rolls the span
  record (byte-identical to the old encoder, ~2x cheaper per span)
  and writes one joined buffer per batch.  The gate sits well above
  the recorded fraction because paired-median ratios on a shared,
  frequency-scaled box swing ~±5 points between recordings; it exists
  to catch gross regressions (an accidental per-span flush or
  unbuffered write path), not single-digit drift.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py [--rounds N]

The configurations run round-robin for ``--rounds`` rounds (default 3)
after one warm-up pass.  Absolute per-configuration CPU is reported as
the *minimum* over rounds — noise on a single timing is strictly
additive, so min-of-N converges on the true cost (``process_time``
rather than wall clock, for the same reason).  The overhead *fractions*
are estimated differently: machine speed drifts over the minutes a full
bench takes, and a ratio of minima recorded minutes apart inherits that
drift.  Each round's configs run back-to-back under shared machine
state, so the per-round ratio against that round's obs-off time is
drift-free, and the reported fraction is the **median** of the
per-round ratios (min-of-ratios would be luck-biased low, mean would
average the noise back in).
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

OUT_PATH = os.path.join(os.path.dirname(_SRC), "BENCH_obs_overhead.json")
THRESHOLD = 0.10
FULL_THRESHOLD = 0.20
STREAMING_THRESHOLD = 0.45


def workload(telemetry=None, sample_interval_s=1.0):
    """One fig9-sized pass: every app's stream under GMin-Strings."""
    from repro.apps import ALL_APPS
    from repro.cluster import build_small_server
    from repro.harness.runner import SCALE_QUICK, run_stream_experiment, system_factories
    from repro.obs import Sampler
    from repro.sim.rng import RandomStream
    from repro.workloads import exponential_stream

    factory = system_factories()["GMin-Strings"]
    if telemetry is not None:
        telemetry.sampler = Sampler(interval_s=sample_interval_s)
    for app in ALL_APPS:
        rng = RandomStream(SCALE_QUICK.seed, "bench-obs", app.short)
        stream = exponential_stream(
            app, rng, SCALE_QUICK.requests_per_stream, SCALE_QUICK.load_factor
        )
        run_stream_experiment(
            factory, [stream], build_small_server,
            label="bench-obs", telemetry=telemetry,
        )


def measure(rounds, configs):
    """Min CPU time and median paired overhead ratio per config.

    Collection is forced before — and automatic GC disabled during —
    each timed run, so lumpy collector pauses land outside the clock
    instead of randomly penalising whichever config triggered them.
    Returns ``(best, ratios)``: per-config min CPU seconds, and the
    median over rounds of each config's within-round overhead ratio
    against that round's obs-off time (see the module docstring for
    why the ratio is paired per round rather than taken over minima).
    """
    best = {name: float("inf") for name in configs}
    round_ratios = {name: [] for name in configs if name != "off"}
    order = list(configs)
    workload()  # warm-up: imports and code caches, outside the clock
    for r in range(rounds):
        times = {}
        # Rotate the within-round order so no config systematically runs
        # in the boost-clock (first) or thermally-saturated (last) slot.
        for name in order[r % len(order):] + order[:r % len(order)]:
            tel = configs[name]()
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                workload(telemetry=tel)
                times[name] = time.process_time() - t0
            finally:
                gc.enable()
            best[name] = min(best[name], times[name])
        for name, ratios in round_ratios.items():
            ratios.append(times[name] / times["off"] - 1.0)
    return best, {name: statistics.median(r) for name, r in round_ratios.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    import shutil
    import tempfile

    from repro.obs import SamplingTelemetry, Telemetry, attach_store

    stream_dir = tempfile.mkdtemp(prefix="bench-obs-stream-")

    def streaming_telemetry():
        # Mirrors the harness --emit shards wiring: shard-flushed spans.
        tel = Telemetry()
        attach_store(tel, os.path.join(stream_dir, str(time.monotonic_ns())))
        return tel

    try:
        best, ratios = measure(args.rounds, {
            "off": lambda: None,  # null registry default
            "sampler": SamplingTelemetry,
            "full": Telemetry,
            "streaming": streaming_telemetry,
        })
    finally:
        shutil.rmtree(stream_dir, ignore_errors=True)
    off_s, on_s = best["off"], best["sampler"]
    full_s, streaming_s = best["full"], best["streaming"]
    overhead = ratios["sampler"]
    full_overhead = ratios["full"]
    streaming_overhead = ratios["streaming"]

    record = {
        "bench": "obs_overhead",
        "workload": "fig9-sized (12 app streams, GMin-Strings, quick scale)",
        "rounds": args.rounds,
        "obs_off_cpu_s": round(off_s, 4),
        "sampler_on_cpu_s": round(on_s, 4),
        "full_registry_cpu_s": round(full_s, 4),
        "streaming_cpu_s": round(streaming_s, 4),
        "overhead_fraction": round(overhead, 4),
        "full_registry_overhead_fraction": round(full_overhead, 4),
        "streaming_overhead_fraction": round(streaming_overhead, 4),
        "threshold_fraction": THRESHOLD,
        "full_threshold_fraction": FULL_THRESHOLD,
        "streaming_threshold_fraction": STREAMING_THRESHOLD,
        "pass": (
            overhead < THRESHOLD
            and full_overhead < FULL_THRESHOLD
            and streaming_overhead < STREAMING_THRESHOLD
        ),
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    if overhead >= THRESHOLD:
        print(f"FAIL: sampler overhead {overhead:.1%} >= {THRESHOLD:.0%}", file=sys.stderr)
    if full_overhead >= FULL_THRESHOLD:
        print(
            f"FAIL: full-registry overhead {full_overhead:.1%} >= {FULL_THRESHOLD:.0%}",
            file=sys.stderr,
        )
    if streaming_overhead >= STREAMING_THRESHOLD:
        print(
            f"FAIL: streaming overhead {streaming_overhead:.1%} "
            f">= {STREAMING_THRESHOLD:.0%}",
            file=sys.stderr,
        )
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
