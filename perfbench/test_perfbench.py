"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, *extra, seed=workloads.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(doc):
    return {name: m["value"] for name, m in doc["metrics"].items()}


def test_metric_names_and_units_match_benchmark_json():
    doc = _bench_json()
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == dict(bench.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for name in [*e2e, *layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_the_correctness_gate(workload):
    doc = _run(workload, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert set(doc["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_kernel_inflation_trips_the_fingerprint_check(seed):
    # Repetitions of a seed agree with each other under the inflation; at
    # any seed the pinned tiny run at the default seed catches it.
    doc = _run("churn", 0, "--inflate-kernel", "0.1", seed=seed)
    assert not doc["correct"]
    assert doc["failed"] == doc["attempted"] > 0


def test_calibration_bills_a_known_slowdown_in_full():
    """Work of known reference cost injected into the simulation shows up
    in the calibrated time.  The injected calls also evict the simulator's
    data from the caches, so the calibrated extra runs about 20-25% above
    the calls' own cost (measured on a 2-core Xeon VM)."""
    workloads.ensure_src_on_path()
    from calibrate import NOMINAL_S, kernel
    from repro.sim.core import Environment

    prepared = workloads.prepare("churn", workloads.DEFAULT_SEED, "full")
    original = Environment.step
    steps, inject = [0], [False]

    def step(env):
        # With ``inject``, every 700 events one kernel call as the sampler
        # makes it (the collector off): NOMINAL_S reference seconds of work.
        steps[0] += 1
        if inject[0] and steps[0] % 700 == 0:
            gc.disable()
            kernel()
            gc.enable()
        return original(env)

    def measure(slowed):
        steps[0], inject[0] = 0, slowed
        Environment.step = step
        try:
            _, _, ref = bench.timed(prepared)
        finally:
            Environment.step = original
        return ref

    base, slowed = [], []
    for _ in range(3):
        base.append(measure(False))
        slowed.append(measure(True))
    injected_s = steps[0] // 700 * NOMINAL_S
    extra_s = statistics.median(slowed) - statistics.median(base)
    assert 0.8 < extra_s / injected_s < 1.6


def test_no_collection_runs_inside_a_calibration_sample():
    from calibrate import Calibrator

    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    cal = Calibrator()
    heap = []
    gc.callbacks.append(on_gc)
    try:
        for _ in range(20):
            heap.extend([i] for i in range(1000))
            before = len(collections)
            cal._sample(None, None)
            assert collections[before:] == []
    finally:
        gc.callbacks.remove(on_gc)
    assert gc.isenabled()


#: (workload, metrics that must read zero, metrics that must not).
IDLE = [
    ("churn",
     ["core.dispatch_signals_per_req", "telemetry.self_us_per_req",
      "obs.self_us_per_req", "obs.spans_flushed_per_req"],
     ["traffic.sessions", "traffic.self_us_per_req", "core.abort_share"]),
    ("churn_observed",
     ["core.dispatch_signals_per_req"],
     ["telemetry.self_us_per_req", "obs.self_us_per_req", "obs.spans_flushed_per_req"]),
    ("las_pairs",
     ["traffic.sessions", "traffic.self_us_per_req", "telemetry.self_us_per_req",
      "obs.self_us_per_req", "obs.spans_flushed_per_req", "core.abort_share"],
     ["core.dispatch_signals_per_req", "sim.events_per_req", "simgpu.ops_per_req"]),
]


@pytest.mark.parametrize("workload,idle,busy", IDLE)
def test_traced_run_reports_every_layer_and_idle_layers_read_zero(workload, idle, busy):
    doc = _run(workload, 1)
    assert doc["correct"], doc
    values = _values(doc)
    assert set(values) == {name for name, _ in bench.PER_LAYER}
    for name in idle:
        assert values[name] == 0, (name, values[name])
    for name in busy:
        assert values[name] > 0, (name, values[name])


def test_tracer_restores_every_entry_point():
    workloads.ensure_src_on_path()
    import importlib

    from layers import ENTRY_POINTS, LayerTracer
    from repro.sim.core import Environment

    def snapshot():
        out = {}
        for _layer, module, attr, _counter in ENTRY_POINTS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            out[(module, attr)] = owner
        return out

    before = snapshot()
    process = Environment.process
    with LayerTracer(profile=True):
        assert snapshot() != before
    assert snapshot() == before
    assert Environment.process is process


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
