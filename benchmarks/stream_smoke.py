"""Streaming-telemetry smoke bench (ISSUE 6 CI gate).

Pushes ~10k synthetic request groups (4 spans each) through the full
streaming pipeline — :class:`SpanShardStore` shard flushing, the live
console with a heartbeat JSONL — and asserts

* **bounded memory**: the tracemalloc peak during the streamed run stays
  under a fixed ceiling that full in-memory span retention of the same
  workload provably exceeds;
* **complete record**: the critical-path profiler, reading the store's
  batches, sees every request, and the offline ``profile_shard_dir``
  agrees;
* **liveness**: every heartbeat line parses as JSON and reports
  monotonically non-decreasing completion counts.

Usage::

    PYTHONPATH=src python benchmarks/stream_smoke.py [--requests N]

Exit status 1 on any violated gate (consumed by the CI obs-smoke job).
"""

import argparse
import json
import os
import sys
import tempfile
import tracemalloc

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Peak traced allocation during the streamed run.  10k requests retain
#: 40k spans when kept in memory (>= 8 MB); the streaming pipeline's
#: working set is the buffer + in-flight window + retention set, well
#: under this ceiling at any run length.
MEMORY_CEILING_BYTES = 4 * 1024 * 1024


def synthetic_run(tel, n_requests, flush_every=977):
    """Emit request groups through the registry like the session layer.

    Every ``flush_every`` requests the store is flushed at the current
    sim time, standing in for the sampler tick of a real run.
    """
    from repro.sim.rng import RandomStream

    rng = RandomStream(42, "stream-smoke")
    tel.attach(type("Env", (), {"now": 0.0})())
    apps = ("MC", "HI", "DC")
    for i in range(n_requests):
        t = 0.25 * i
        app = apps[i % len(apps)]
        root = tel.start_span(
            "req", cat="request", track=f"app:{app}",
            args={"rid": i, "app": app, "tenant": f"t{i % 3}"}, start=t,
        )
        cpu = tel.start_span("cpu", cat="cpu", parent=root, start=t)
        cpu.finish(t + 0.01 + rng.uniform(0.0, 0.01))
        kern = tel.start_span("kern", cat="kernel", parent=root, start=cpu.end)
        kern.finish(kern.start + 0.05 + rng.uniform(0.0, 0.4))
        copy = tel.start_span("d2h", cat="copy", parent=root, start=kern.end)
        copy.finish(copy.start + 0.005)
        root.args["gid"] = i % 4
        root.finish(copy.end)
        h = tel.histogram("request.completion_s", app=app)
        h.observe(root.end - root.start)
        console = getattr(tel, "console", None)
        if console is not None:
            console.tick(t, tel)
        if i % flush_every == 0:
            tel.stream.flush(t)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=10_000)
    args = parser.parse_args(argv)

    from repro.obs import (
        LiveConsole,
        Telemetry,
        attach_store,
        profile_shard_dir,
        profile_requests,
    )
    from repro.sim.rng import RandomStream  # noqa: F401 -- warm the import
    # machinery outside the traced window so tracemalloc measures the
    # streaming pipeline's working set, not module loading.

    workdir = tempfile.mkdtemp(prefix="stream-smoke-")
    shard_dir = os.path.join(workdir, "shards")
    hb_path = os.path.join(workdir, "heartbeat.jsonl")

    tel = Telemetry()
    store = attach_store(tel, shard_dir, buffer_limit=2048)
    tel.console = LiveConsole(
        interval_s=0.05, heartbeat_path=hb_path, out=sys.stderr
    )
    tel.run_label = "stream-smoke"
    tel.run_horizon_s = 0.25 * args.requests

    tracemalloc.start()
    synthetic_run(tel, args.requests)
    tel.console.close(tel)
    store.close()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    profile = profile_requests(tel)  # one pass over the store's batches
    offline = profile_shard_dir(shard_dir)
    heartbeats = []
    with open(hb_path) as fh:
        for line in fh:
            heartbeats.append(json.loads(line))
    completed = [h["completed"] for h in heartbeats]

    failures = []
    if peak >= MEMORY_CEILING_BYTES:
        failures.append(
            f"tracemalloc peak {peak} bytes >= ceiling {MEMORY_CEILING_BYTES}"
        )
    if len(profile.requests) != args.requests:
        failures.append(
            f"streamed profile saw {len(profile.requests)} requests, "
            f"expected {args.requests}"
        )
    if len(offline.requests) != args.requests:
        failures.append(
            f"offline shard profile saw {len(offline.requests)} requests, "
            f"expected {args.requests}"
        )
    if not heartbeats:
        failures.append("no heartbeat records written")
    if completed != sorted(completed):
        failures.append("heartbeat completion counts regressed")

    record = {
        "bench": "stream_smoke",
        "requests": args.requests,
        "spans_total": store.total_spans,
        "spans_flushed": store.flushed_spans,
        "shards": store.stats()["shards"],
        "tracemalloc_peak_bytes": peak,
        "memory_ceiling_bytes": MEMORY_CEILING_BYTES,
        "heartbeats": len(heartbeats),
        "pass": not failures,
    }
    print(json.dumps(record, indent=2))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
