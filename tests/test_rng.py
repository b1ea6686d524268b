"""Unit tests for RandomStream variates and seed derivation."""

import numpy as np
import pytest

from repro.sim.rng import RandomStream, derive_seed


def test_same_seed_same_draws():
    a, b = RandomStream(10), RandomStream(10)
    assert a.uniform() == b.uniform()


def test_different_keys_different_draws():
    a = RandomStream(10, "x")
    b = RandomStream(10, "y")
    assert a.uniform() != b.uniform()


def test_spawn_is_deterministic():
    a = RandomStream(10).spawn("child")
    b = RandomStream(10).spawn("child")
    assert a.exponential(1.0) == b.exponential(1.0)


def test_exponential_returns_a_python_float():
    # Its draws become delays: a numpy scalar would turn the simulated
    # clock, and every sum taken with it, into numpy arithmetic.
    assert type(RandomStream(1).exponential(2.0)) is float


def test_derive_seed_is_64bit():
    s = derive_seed(1, "k")
    assert 0 <= s < 2**64


def test_exponential_validation():
    rng = RandomStream(1)
    with pytest.raises(ValueError):
        rng.exponential(-1.0)
    assert rng.exponential(0.0) == 0.0


def test_exponential_array_matches_scalar_distribution():
    rng = RandomStream(5)
    xs = rng.exponential_array(2.0, 2000)
    assert xs.shape == (2000,)
    assert np.mean(xs) == pytest.approx(2.0, rel=0.2)
    with pytest.raises(ValueError):
        rng.exponential_array(-1.0, 10)
    assert np.all(rng.exponential_array(0.0, 4) == 0.0)


def test_integers_in_range():
    rng = RandomStream(3)
    draws = {rng.integers(2, 5) for _ in range(200)}
    assert draws == {2, 3, 4}


def test_choice_returns_member():
    rng = RandomStream(3)
    seq = ["a", "b", "c"]
    for _ in range(20):
        assert rng.choice(seq) in seq


def test_shuffle_permutes_in_place():
    rng = RandomStream(3)
    xs = list(range(50))
    ys = list(xs)
    rng.shuffle(ys)
    assert sorted(ys) == xs
    assert ys != xs  # overwhelmingly likely


def test_normal_statistics():
    rng = RandomStream(4)
    xs = [rng.normal(5.0, 2.0) for _ in range(3000)]
    assert np.mean(xs) == pytest.approx(5.0, abs=0.2)
    assert np.std(xs) == pytest.approx(2.0, abs=0.2)


def test_lognormal_jitter_centred_on_one():
    rng = RandomStream(4)
    xs = [rng.lognormal_jitter(0.05) for _ in range(2000)]
    assert np.median(xs) == pytest.approx(1.0, abs=0.02)
    assert all(x > 0 for x in xs)
    assert rng.lognormal_jitter(0.0) == 1.0


def test_arrival_times_empty_when_horizon_zero():
    rng = RandomStream(6)
    assert list(rng.arrival_times(1.0, horizon=0.0)) == []
