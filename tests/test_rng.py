"""Unit tests for RandomStream variates and seed derivation."""

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


def test_integers_in_range():
    rng = RandomStream(3)
    draws = {rng.integers(2, 5) for _ in range(200)}
    assert draws == {2, 3, 4}


def test_choice_returns_member():
    rng = RandomStream(3)
    seq = ["a", "b", "c"]
    for _ in range(20):
        assert rng.choice(seq) in seq
