"""Tests for metrics (eqs. 2 and 3) and workload generation (eq. 4)."""

import numpy as np
import pytest

from repro.apps import app_by_short
from repro.apps.models import RequestResult
from repro.metrics import (
    jains_fairness,
    mean_completion_s,
    per_app_mean_completion,
    relative_speedup,
    weighted_speedup,
)
from repro.sim.rng import RandomStream
from repro.workloads import PAIRS, exponential_stream, pair_apps, pair_label


def rr(app, arrival, finish, start=None):
    return RequestResult(app=app, request_id=0, arrival_s=arrival,
                         start_s=start if start is not None else arrival,
                         finish_s=finish)


# -- weighted speedup ---------------------------------------------------------


def test_weighted_speedup_identity():
    assert weighted_speedup([2.0, 4.0], [2.0, 4.0]) == pytest.approx(1.0)


def test_weighted_speedup_mean_of_ratios():
    assert weighted_speedup([4.0, 9.0], [2.0, 3.0]) == pytest.approx((2 + 3) / 2)


def test_weighted_speedup_validation():
    with pytest.raises(ValueError):
        weighted_speedup([], [])
    with pytest.raises(ValueError):
        weighted_speedup([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_speedup([1.0], [0.0])


# -- Jain's fairness -------------------------------------------------------------


def test_jains_fairness_equal_is_one():
    assert jains_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)


def test_jains_fairness_maximal_unfairness():
    assert jains_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jains_fairness_scale_invariant():
    a = jains_fairness([1.0, 2.0, 3.0])
    b = jains_fairness([10.0, 20.0, 30.0])
    assert a == pytest.approx(b)


def test_jains_fairness_validation():
    with pytest.raises(ValueError):
        jains_fairness([])
    with pytest.raises(ValueError):
        jains_fairness([-1.0])


def test_jains_fairness_all_zero():
    assert jains_fairness([0.0, 0.0]) == 1.0


# -- completion summaries ------------------------------------------------------------


def test_mean_completion():
    rs = [rr("MC", 0.0, 5.0), rr("MC", 1.0, 4.0)]
    assert mean_completion_s(rs) == pytest.approx(4.0)


def test_mean_completion_empty():
    with pytest.raises(ValueError):
        mean_completion_s([])


def test_per_app_means():
    rs = [rr("MC", 0.0, 5.0), rr("DC", 0.0, 30.0), rr("MC", 0.0, 7.0)]
    means = per_app_mean_completion(rs)
    assert means["MC"] == pytest.approx(6.0)
    assert means["DC"] == pytest.approx(30.0)


def test_relative_speedup():
    base = [rr("MC", 0.0, 10.0)]
    pol = [rr("MC", 0.0, 2.0)]
    assert relative_speedup(base, pol) == pytest.approx(5.0)


def test_request_result_properties():
    r = rr("MC", 1.0, 6.0, start=2.0)
    assert r.completion_s == pytest.approx(5.0)
    assert r.service_s == pytest.approx(4.0)


# -- workload pairs --------------------------------------------------------------------


def test_24_pairs_labelled_a_to_x():
    assert len(PAIRS) == 24
    assert PAIRS["A"] == ("DC", "BS")
    assert PAIRS["B"] == ("DC", "MC")
    assert PAIRS["I"] == ("BO", "BS")
    assert PAIRS["K"] == ("BO", "GA")
    assert PAIRS["W"] == ("EV", "GA")
    assert PAIRS["X"] == ("EV", "SN")


def test_pair_apps_and_inverse():
    a, b = pair_apps("I")
    assert (a.short, b.short) == ("BO", "BS")
    assert pair_label("BO", "BS") == "I"
    with pytest.raises(KeyError):
        pair_apps("ZZ")
    with pytest.raises(KeyError):
        pair_label("BS", "BO")


def test_pair_groups():
    for label in PAIRS:
        a, b = pair_apps(label)
        assert a.group == "A"
        assert b.group == "B"


# -- streams ---------------------------------------------------------------------------------


def test_exponential_stream_is_sorted_and_sized():
    rng = RandomStream(42)
    s = exponential_stream(app_by_short("MC"), rng, n_requests=50)
    assert len(s) == 50
    arrivals = [r.arrival_s for r in s]
    assert arrivals == sorted(arrivals)
    assert all(t > 0 for t in arrivals)


def test_exponential_stream_mean_interarrival():
    rng = RandomStream(7)
    app = app_by_short("MC")
    s = exponential_stream(app, rng, n_requests=4000, load_factor=1.0)
    gaps = np.diff([0.0] + [r.arrival_s for r in s])
    assert np.mean(gaps) == pytest.approx(app.solo_runtime_s(), rel=0.05)


def test_exponential_stream_load_factor_scales_rate():
    rng = RandomStream(7)
    app = app_by_short("MC")
    fast = exponential_stream(app, rng.spawn("a"), 500, load_factor=2.0)
    slow = exponential_stream(app, rng.spawn("b"), 500, load_factor=0.5)
    assert fast.horizon_s < slow.horizon_s


def test_exponential_stream_explicit_lambda():
    rng = RandomStream(1)
    s = exponential_stream(app_by_short("GA"), rng, 100, mean_interarrival_s=1.0)
    assert s.horizon_s < 300


def test_stream_validation():
    rng = RandomStream(1)
    with pytest.raises(ValueError):
        exponential_stream(app_by_short("MC"), rng, 0)
    with pytest.raises(ValueError):
        exponential_stream(app_by_short("MC"), rng, 5, load_factor=0)


def test_streams_reproducible_under_seed():
    a = exponential_stream(app_by_short("MC"), RandomStream(5, "x"), 30)
    b = exponential_stream(app_by_short("MC"), RandomStream(5, "x"), 30)
    assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
