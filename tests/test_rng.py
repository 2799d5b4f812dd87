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
    whole = rng.rademacher(rng.stream(5, rng.SPATIAL_RADEMACHER), (6, 8))
    gen = rng.stream(5, rng.SPATIAL_RADEMACHER)
    parts = np.concatenate([rng.rademacher(gen, (2, 8)),
                            rng.rademacher(gen, (4, 8))], axis=0)
    assert np.array_equal(whole, parts)


def test_gaussian_moments_and_determinism():
    gen = rng.stream(9, rng.NOISE)
    x = rng.gaussian(gen, (100000,), sigma=0.01)
    assert abs(x.mean()) < 3 * 0.01 / np.sqrt(100000)
    assert abs(x.std() - 0.01) < 0.0002
    again = rng.gaussian(rng.stream(9, rng.NOISE), (100000,), sigma=0.01)
    assert np.array_equal(x, again)


def test_gaussian_zero_sigma():
    assert not rng.gaussian(rng.stream(1, rng.NOISE), (10,), sigma=0.0).any()
