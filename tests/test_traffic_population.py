"""Tests for the tenant population / churn model (repro.traffic)."""

import math

import pytest

from repro.apps.catalog import app_by_short
from repro.sim.rng import RandomStream
from repro.traffic import (
    LifetimeDistribution,
    PoissonProcess,
    TenantPopulation,
    TrafficGenerator,
    parse_traffic_spec,
)


def population(**kw):
    defaults = dict(
        n_tenants=50,
        apps=[(app_by_short("GA"), 3.0), (app_by_short("MC"), 1.0)],
        think_s=0.5,
        requests_per_session=4.0,
        n_nodes=2,
    )
    defaults.update(kw)
    return TenantPopulation(**defaults)


def sessions_of(pop, rate=20.0, horizon=100.0, seed=42):
    return list(
        pop.sessions(PoissonProcess(rate), RandomStream(seed, "pop"), horizon)
    )


# -- structure ----------------------------------------------------------------


def test_sessions_sorted_and_requests_within_lifetime():
    pop = population(churn=LifetimeDistribution("exp", 20.0))
    sessions = sessions_of(pop)
    assert sessions
    arrivals = [s.arrival_s for s in sessions]
    assert arrivals == sorted(arrivals)
    for s in sessions:
        assert s.churned and s.departure_s > s.arrival_s
        assert s.requests, "every session issues at least its first request"
        for i, r in enumerate(s.requests):
            assert s.arrival_s <= r.arrival_s < s.departure_s
            assert r.tenant_id == s.tenant_id
            assert r.node_index == s.node_index
            if i:
                assert r.arrival_s >= s.requests[i - 1].arrival_s


def test_without_churn_sessions_never_depart():
    for s in sessions_of(population()):
        assert not s.churned
        assert math.isinf(s.departure_s)


def test_aggregate_request_rate_is_preserved():
    # The session process is the request process scaled down by
    # requests/session, so total requests ~= rate * horizon.
    pop = population(think_s=0.2)
    sessions = sessions_of(pop, rate=40.0, horizon=500.0)
    total = sum(len(s.requests) for s in sessions)
    assert total == pytest.approx(40.0 * 500.0, rel=0.1)


def test_tenant_identities_recur_and_cycle_nodes():
    sessions = sessions_of(population(n_tenants=10), horizon=300.0)
    tenants = {s.tenant_id for s in sessions}
    assert tenants <= {f"c{i}" for i in range(10)}
    assert len(sessions) > len(tenants), "tenant identities recur"
    for s in sessions:
        assert s.node_index == int(s.tenant_id[1:]) % 2


def test_app_mix_follows_weights():
    sessions = sessions_of(population(), rate=40.0, horizon=500.0)
    ga = sum(1 for s in sessions if s.app.short == "GA")
    assert ga / len(sessions) == pytest.approx(0.75, abs=0.07)


def test_same_seed_replays_identically_and_prefix_stable():
    pop = population(churn=LifetimeDistribution("exp", 30.0))
    a = sessions_of(pop)
    b = sessions_of(pop)
    assert a == b
    # Extending the horizon only appends: the earlier draw is unchanged
    # (per-session spawn substreams, not one shared cursor).  Sessions
    # near the old horizon are excluded — their request runs are
    # legitimately truncated at it.
    longer = sessions_of(pop, horizon=150.0)
    early = [s for s in a if s.arrival_s < 50.0]
    assert [s for s in longer if s.arrival_s < 50.0] == early


def test_validation():
    with pytest.raises(ValueError, match="tenant"):
        population(n_tenants=0)
    with pytest.raises(ValueError, match="application"):
        TenantPopulation(n_tenants=1, apps=[])
    with pytest.raises(ValueError, match="weights"):
        population(apps=[(app_by_short("GA"), -1.0)])
    with pytest.raises(ValueError, match="think"):
        population(think_s=-0.1)
    with pytest.raises(ValueError, match="requests per session"):
        population(requests_per_session=0.0)
    with pytest.raises(ValueError, match="lifetime"):
        LifetimeDistribution("exp", 0.0)
    with pytest.raises(ValueError, match="unknown churn law"):
        LifetimeDistribution("weibull", 5.0)


# -- generator ----------------------------------------------------------------


def test_generator_streams_lazily_and_deterministically():
    spec = parse_traffic_spec(
        "poisson:rate=50,tenants=2000,churn=exp:120,duration=120"
    )
    gen = TrafficGenerator(spec, seed=42)
    first = list(gen.sessions())
    second = list(gen.sessions())  # re-iterable: fresh seeded pass
    assert first == second
    arrivals = [s.arrival_s for s in first]
    assert arrivals == sorted(arrivals), "sessions arrive in order"
    total = sum(len(s.requests) for s in first)
    assert total == pytest.approx(spec.expected_requests, rel=0.1)


def test_generator_spec_seed_overrides_harness_seed():
    spec = parse_traffic_spec("poisson:rate=5,seed=7")
    assert TrafficGenerator(spec, seed=42).seed == 7


def test_generator_scaled_keeps_population():
    gen = TrafficGenerator(parse_traffic_spec("poisson:rate=10,tenants=30"), seed=3)
    double = gen.scaled(2.0)
    assert double.offered_rate_rps == 20.0
    assert double.spec.tenants == 30
    assert double.seed == gen.seed
