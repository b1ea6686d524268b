"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource
from repro.sim.rng import RandomStream, derive_seed
from repro.simgpu import TESLA_C2050, KernelOp, SharedComputeEngine
from repro.simgpu.trace import BusyTracer, Interval, utilization_timeline
from repro.metrics import jains_fairness, weighted_speedup
from repro.core.rcb import RcbEntry


# -- metrics ------------------------------------------------------------------


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=50))
def test_jains_fairness_bounds(xs):
    j = jains_fairness(xs)
    assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_jains_fairness_scale_invariance(xs, scale):
    assert jains_fairness(xs) == pytest.approx(
        jains_fairness([x * scale for x in xs]), rel=1e-6
    )


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=1, max_value=40))
def test_jains_fairness_equal_values_is_one(v, n):
    assert jains_fairness([v] * n) == pytest.approx(1.0)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30)
)
def test_weighted_speedup_identity_property(ts):
    assert weighted_speedup(ts, ts) == pytest.approx(1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1e3),
            st.floats(min_value=1e-3, max_value=1e3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_weighted_speedup_monotone_in_shared_time(pairs):
    alone = [a for a, _ in pairs]
    shared = [s for _, s in pairs]
    ws = weighted_speedup(alone, shared)
    slower = [s * 2 for s in shared]
    assert weighted_speedup(alone, slower) == pytest.approx(ws / 2, rel=1e-6)


# -- RNG ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derived_seeds_are_stable(seed, key):
    assert derive_seed(seed, key) == derive_seed(seed, key)


@given(st.integers(min_value=0, max_value=2**31))
def test_rng_streams_reproducible(seed):
    a = RandomStream(seed, "x")
    b = RandomStream(seed, "x")
    assert [a.exponential(2.0) for _ in range(5)] == [
        b.exponential(2.0) for _ in range(5)
    ]


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=20)
def test_exponential_mean_statistics(seed):
    rng = RandomStream(seed, "mean-test")
    xs = [rng.exponential(3.0) for _ in range(4000)]
    assert min(xs) >= 0
    assert np.mean(xs) == pytest.approx(3.0, rel=0.15)


# -- DES kernel --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=50)
def test_timeouts_fire_in_order(delays):
    env = Environment()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append(d)

    for d in delays:
        env.process(waiter(env, d))
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=20),
)
@settings(max_examples=30)
def test_resource_never_exceeds_capacity(capacity, durations):
    env = Environment()
    res = Resource(env, capacity=capacity)
    peak = {"value": 0}

    def worker(env, hold):
        req = res.request()
        yield req
        peak["value"] = max(peak["value"], res.count)
        yield env.timeout(hold)
        res.release(req)

    for d in durations:
        env.process(worker(env, d))
    env.run()
    assert peak["value"] <= capacity
    assert res.count == 0
    assert res.queued == 0


# -- compute engine --------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=200.0),  # flops (GFLOP)
            st.floats(min_value=0.0, max_value=10.0),  # bytes (GB)
            st.floats(min_value=0.05, max_value=1.0),  # occupancy
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_engine_work_conservation(kernel_params):
    """No kernel beats its solo time; makespan never exceeds the serial sum
    (exact with the character-collision penalty disabled)."""
    spec = TESLA_C2050.scaled(concurrency_penalty=0.0)
    env = Environment()
    engine = SharedComputeEngine(env, spec)
    kernels = [
        KernelOp(flops=f, bytes_accessed=b, occupancy=o) for f, b, o in kernel_params
    ]
    finish = {}

    def submit(env, k, idx):
        rec = yield engine.execute(k)
        finish[idx] = (env.now, rec)

    for i, k in enumerate(kernels):
        env.process(submit(env, k, i))
    env.run()

    solos = [k.solo_time(spec) + spec.kernel_launch_latency_s for k in kernels]
    makespan = max(t for t, _ in finish.values())
    assert makespan <= sum(solos) * (1 + 1e-6)
    for i, k in enumerate(kernels):
        assert finish[i][0] >= solos[i] * (1 - 1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=200.0),
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_engine_penalty_bounded(kernel_params):
    """With the collision penalty, the makespan stays within the serial sum
    inflated by the worst-case crowd factor."""
    env = Environment()
    engine = SharedComputeEngine(env, TESLA_C2050)
    kernels = [
        KernelOp(flops=f, bytes_accessed=b, occupancy=o) for f, b, o in kernel_params
    ]
    finish = {}

    def submit(env, k, idx):
        yield engine.execute(k)
        finish[idx] = env.now

    for i, k in enumerate(kernels):
        env.process(submit(env, k, i))
    env.run()

    solos = [
        k.solo_time(TESLA_C2050) + TESLA_C2050.kernel_launch_latency_s for k in kernels
    ]
    crowd = 1.0 + TESLA_C2050.concurrency_penalty * (len(kernels) - 1)
    assert max(finish.values()) <= sum(solos) * crowd * (1 + 1e-6)
    for i in finish:
        assert finish[i] >= solos[i] * (1 - 1e-6)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.1, max_value=10.0)),
        min_size=0,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=40)
def test_utilization_timeline_bounds(spans, bins):
    intervals = [Interval(key=i, start=s, end=s + d) for i, (s, d) in enumerate(spans)]
    _, util = utilization_timeline(intervals, 0.0, 100.0, bins=bins)
    assert np.all(util >= -1e-9)
    assert np.all(util <= 100.0 + 1e-9)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=9.0), st.floats(min_value=0.01, max_value=5.0)),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=40)
def test_busy_fraction_matches_timeline_mean(spans):
    tracer = BusyTracer()
    for i, (s, d) in enumerate(spans):
        tracer.begin(i, s)
        tracer.end(i, s + d)
    frac = tracer.busy_fraction(0.0, 20.0)
    _, util = utilization_timeline(tracer.intervals, 0.0, 20.0, bins=2000)
    assert frac == pytest.approx(float(np.mean(util)) / 100.0, abs=2e-3)


# -- RCB / LAS decay --------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_cgs_decay_bounded_by_max_epoch_service(services, k):
    e = RcbEntry(app_name="x", tenant_id="t", tenant_weight=1.0, registered_at=0.0)
    for s in services:
        e.epoch_service_s = s
        e.roll_epoch(k)
        assert e.epoch_service_s == 0.0
    assert 0.0 <= e.cgs <= max(services) + 1e-9


@given(st.floats(min_value=0.0, max_value=10.0))
def test_cgs_fixed_point_of_constant_service(s):
    e = RcbEntry(app_name="x", tenant_id="t", tenant_weight=1.0, registered_at=0.0)
    for _ in range(200):
        e.epoch_service_s = s
        e.roll_epoch(0.8)
    # CGS converges to the constant per-epoch service.
    assert e.cgs == pytest.approx(s, rel=1e-6, abs=1e-9)
