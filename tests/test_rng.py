import re

import numpy as np
import pytest

from hsrec import rng
from hsrec.harness import PhantomSpec
from hsrec.regularizers import prox_l1
from hsrec.sensing import (SpatialProjector, SpectralProjector,
                           check_noise_level, check_rates, rates_to_counts)
from hsrec.solvers import SolverConfig
from hsrec.transforms import check_pow2, walsh_rows, zigzag_indices


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


# Every numeric check of the package, by the argument it checks: its type
# rule, the call with v in that argument, a valid value, and the start of
# the check's own ValueError message.
NUMERIC_CHECKS = {
    "check_seed": ("integer", rng.check_seed, 3, "seeds must lie"),
    "PhantomSpec.n_v": ("integer", lambda v: PhantomSpec(v, 4, 4), 4,
                        "n_v must be"),
    "PhantomSpec.n_atoms": ("integer", lambda v: PhantomSpec(4, 4, 4, n_atoms=v),
                            2, "n_atoms must be"),
    **{f"SolverConfig.{name}": ("real", lambda v, name=name: SolverConfig(
        **{name: v}), 0.5, f"{name} must be")
       for name in ("step_size", "gamma", "gamma1", "gamma2", "tau")},
    "SolverConfig.max_iters": ("integer", lambda v: SolverConfig(max_iters=v),
                               5, "max_iters must be"),
    "check_pow2": ("integer", lambda v: check_pow2(v, "length"), 8,
                   "length must be a power of two"),
    "walsh_rows.n": ("integer", walsh_rows, 8, "transform length must be"),
    "walsh_rows.count": ("integer", lambda v: walsh_rows(8, v), 3,
                         "row count must be"),
    "zigzag_indices.n_v": ("integer", lambda v: zigzag_indices(v, 4), 4,
                           "grid dimensions"),
    "zigzag_indices.n_h": ("integer", lambda v: zigzag_indices(4, v), 4,
                           "grid dimensions"),
    "zigzag_indices.count": ("integer", lambda v: zigzag_indices(4, 4, v), 3,
                             "coefficient count must be"),
    "SpatialProjector.n_v": ("integer", lambda v: SpatialProjector(
        v, 4, 8, 2, 0), 4, "frame rows must be"),
    "SpatialProjector.m_p": ("integer", lambda v: SpatialProjector(
        4, 4, v, 2, 0), 8, "spatial projection count"),
    "SpatialProjector.q_p": ("integer", lambda v: SpatialProjector(
        4, 4, 8, v, 0), 2, "spatial low-pass count"),
    "SpatialProjector.scale": ("real", lambda v: SpatialProjector(
        4, 4, 8, 2, 0, scale=v), 0.5, "spatial scale"),
    "SpectralProjector.n_s": ("integer", lambda v: SpectralProjector(
        v, 4, 1, 0), 8, "band count must be"),
    "SpectralProjector.m_s": ("integer", lambda v: SpectralProjector(
        8, v, 1, 0), 4, "spectral projection count"),
    "SpectralProjector.q_s": ("integer", lambda v: SpectralProjector(
        8, 4, v, 0), 1, "spectral low-pass count"),
    "SpectralProjector.scale": ("real", lambda v: SpectralProjector(
        8, 4, 1, 0, scale=v), 0.5, "spectral scale"),
    "check_rates.r_p": ("real", lambda v: check_rates(v, 0.5), 0.5,
                        "spatial rate"),
    "check_rates.r_s": ("real", lambda v: check_rates(0.5, v), 0.5,
                        "spectral rate"),
    "check_noise_level": ("real", check_noise_level, 0.01, "noise level"),
    "rates_to_counts.n_p": ("integer", lambda v: rates_to_counts(
        0.5, 0.5, v, 8), 16, "spatial dimension"),
    "rates_to_counts.n_s": ("integer", lambda v: rates_to_counts(
        0.5, 0.5, 16, v), 8, "spectral dimension"),
    "prox_l1.xi": ("real", lambda v: prox_l1(np.ones(3), v), 0.1,
                   "threshold weight"),
}
REFUSED = {"integer": (True, "1", None, 1j, 2.5),
           "real": (True, "1", None, 1j)}
NUMPY = {"integer": np.int64, "real": np.float64}
# where None is the argument's default: all rows or pairs, or the
# estimated scale
NONE_IS_DEFAULT = {"walsh_rows.count", "zigzag_indices.count",
                   "SpatialProjector.scale", "SpectralProjector.scale"}


def _numeric_cases():
    for site, (rule, _, valid, _) in NUMERIC_CHECKS.items():
        for value in REFUSED[rule]:
            if value is None and site in NONE_IS_DEFAULT:
                continue
            yield pytest.param(site, value, False, id=f"{site}-{value!r}")
        value = NUMPY[rule](valid)
        yield pytest.param(site, value, True, id=f"{site}-{value!r}")


def _no_draw(*args):
    raise AssertionError("a stream was opened before the check")


@pytest.mark.parametrize("site, value, accepted", _numeric_cases())
def test_numeric_checks_share_one_integer_and_one_real_rule(
        site, value, accepted, monkeypatch):
    # a bool, str, None or complex value, or a fraction where an integer is
    # required, meets the site's own ValueError before any draw; numpy
    # integers and floats pass as the equal Python numbers do
    _, call, _, message = NUMERIC_CHECKS[site]
    if accepted:
        call(value)
        return
    monkeypatch.setattr(rng, "stream", _no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)
