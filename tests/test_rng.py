import numpy as np
import pytest

from hsrec import rng


def test_stream_is_deterministic():
    a = rng.stream(123, rng.NOISE).random(8)
    b = rng.stream(123, rng.NOISE).random(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_rejects_seeds_outside_64_bits(seed):
    # a mask would alias -1 onto 2^64 - 1 and 2^64 onto 0
    with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\^64\)"):
        rng.stream(seed, rng.NOISE)


def test_stream_requires_a_purpose():
    # no call falls back on a default tag, the phantom's among them
    with pytest.raises(TypeError):
        rng.stream(7)


def test_streams_are_purpose_separated():
    # one master seed must feed independent draws per consumer
    a = rng.stream(7, rng.SPATIAL_RADEMACHER).random(64)
    b = rng.stream(7, rng.SPECTRAL_RADEMACHER).random(64)
    c = rng.stream(7, rng.NOISE).random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_rademacher_values_and_balance():
    gen = rng.stream(0, rng.SPATIAL_RADEMACHER)
    vals = rng.rademacher(gen, (200, 50))
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs(vals.mean()) < 0.02


def test_rademacher_draws_are_chunk_invariant():
    # consuming the same stream in pieces must reproduce the one-shot draw
    for draw in (rng.rademacher, rng.negative_signs):
        whole = draw(rng.stream(5, rng.SPATIAL_RADEMACHER), (6, 8))
        gen = rng.stream(5, rng.SPATIAL_RADEMACHER)
        parts = np.concatenate([draw(gen, (2, 8)), draw(gen, (4, 8))], axis=0)
        assert np.array_equal(whole, parts)


@pytest.mark.parametrize("shape", [(300, 77), (7, 1), (3, 5)])
def test_negative_signs_match_uniform_draws_and_leave_the_same_state(shape):
    # the top bit of a raw word is clear exactly when random() < 0.5 on it
    raw = rng.stream(11, rng.SPATIAL_RADEMACHER)
    uniform = rng.stream(11, rng.SPATIAL_RADEMACHER)
    mask = rng.negative_signs(raw, shape)
    assert mask.dtype == bool and mask.shape == shape
    assert np.array_equal(mask, uniform.random(shape) < 0.5)
    assert raw.random() == uniform.random()


def test_gaussian_moments_and_determinism():
    gen = rng.stream(9, rng.NOISE)
    x = rng.gaussian(gen, (100000,), sigma=0.01)
    assert abs(x.mean()) < 3 * 0.01 / np.sqrt(100000)
    assert abs(x.std() - 0.01) < 0.0002
    again = rng.gaussian(rng.stream(9, rng.NOISE), (100000,), sigma=0.01)
    assert np.array_equal(x, again)


def test_gaussian_zero_sigma():
    assert not rng.gaussian(rng.stream(1, rng.NOISE), (10,), sigma=0.0).any()
