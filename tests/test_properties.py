"""Property tests over random power-of-two shapes.

The operators must be exact adjoints of each other for every block layout
(no low-pass rows, a mix, only low-pass rows, full sampling) on both the
cached and the chunk-expanded Rademacher path; the fused Gram map the
norm estimate runs on must equal adjoint(apply(v)) bit for bit, and the
solvers' fused pass must equal y - project(x) and its adjoint; the
spectral projector's dense matrix must be the oracle Walsh rows over the
redrawn Rademacher rows, held once; the Walsh rows and Haar matrices must
match the independent oracles at every supported length; the Haar basis
must invert itself frame by frame; and HSC1/HSM1 files must round-trip
their data (as float32), header fields and operator scales.
"""

import contextlib
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hsrec.sensing as sensing
from hsrec import rng
from hsrec.datacube import Datacube, frames_from_matrix, matrix_from_frames
from hsrec.formats import (read_cube, read_measurements, write_cube,
                           write_measurements)
from hsrec.sensing import (SpatialProjector, SpectralProjector, acquire,
                           adjoint, project)
from hsrec.transforms import (MAX_WALSH_LENGTH, HaarBasis, _haar_matrix,
                              _walsh_rows)
from oracles import haar_matrix, rademacher_draw, walsh_matrix

CASES = ("q=0", "0<q<m", "q=m", "m=n")
_settings = settings(max_examples=40, deadline=None, database=None)


def _counts(n, case, frac):
    """(m, q) for a block layout; frac in [0, 1) picks the counts."""
    if case == "m=n":
        return n, int(frac * (n + 1))
    m = 1 + int(frac * (n - 1))
    if case == "q=0":
        return m, 0
    if case == "q=m":
        return m, m
    assume(m >= 2)
    return m, 1 + int(frac * (m - 1))


def _paths(chunk_rows, n):
    """Expand the packed Rademacher rows of length n in chunks of chunk_rows
    rows instead of caching the block; None keeps the cached path."""
    if chunk_rows is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(sensing, _MATERIALIZE_LIMIT=0,
                               _CHUNK_ENTRIES=chunk_rows * n)


def _assert_adjoint(forward, backward, x, y):
    lhs = float(np.sum(forward(x) * y))
    rhs = float(np.sum(x * backward(y)))
    tol = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= tol


pow2 = st.integers(0, 4).map(lambda k: 1 << k)
layout = st.tuples(st.sampled_from(CASES), st.floats(0, 0.999))
chunks = st.sampled_from([None, 1, 2, 3])


@_settings
@given(n_v=pow2, n_h=pow2, layout=layout, chunk_rows=chunks,
       seed=st.integers(0, 2**32), bands=st.integers(1, 4))
def test_spatial_projector_is_adjoint(n_v, n_h, layout, chunk_rows, seed, bands):
    m, q = _counts(n_v * n_h, *layout)
    with _paths(chunk_rows, n_v * n_h):
        pp = SpatialProjector(n_v, n_h, m, q, seed)
        gen = np.random.default_rng(seed)
        _assert_adjoint(pp.apply, pp.adjoint, gen.normal(size=(bands, n_v * n_h)),
                        gen.normal(size=(bands, m)))


@_settings
@given(n_s=st.integers(0, 6).map(lambda k: 1 << k), layout=layout,
       chunk_rows=chunks, seed=st.integers(0, 2**32), cols=st.integers(1, 4))
def test_spectral_projector_is_adjoint(n_s, layout, chunk_rows, seed, cols):
    m, q = _counts(n_s, *layout)
    with _paths(chunk_rows, n_s):
        sp = SpectralProjector(n_s, m, q, seed)
        gen = np.random.default_rng(seed)
        _assert_adjoint(sp.apply, sp.adjoint, gen.normal(size=(n_s, cols)),
                        gen.normal(size=(m, cols)))


@_settings
@given(n_v=pow2, n_h=pow2, n_s=pow2, spatial=layout, spectral=layout,
       chunk_rows=chunks, seed=st.integers(0, 2**32))
def test_combined_operator_is_adjoint(n_v, n_h, n_s, spatial, spectral,
                                      chunk_rows, seed):
    m_p, q_p = _counts(n_v * n_h, *spatial)
    m_s, q_s = _counts(n_s, *spectral)
    # chunks of chunk_rows spatial rows; the spectral rows chunk likewise
    with _paths(chunk_rows, n_v * n_h):
        pp = SpatialProjector(n_v, n_h, m_p, q_p, seed)
        sp = SpectralProjector(n_s, m_s, q_s, seed + 1)
        gen = np.random.default_rng(seed)
        _assert_adjoint(lambda x: project(x, sp, pp), lambda y: adjoint(y, sp, pp),
                        gen.normal(size=(n_s, n_v * n_h)),
                        gen.normal(size=(m_s, m_p)))


@_settings
@given(n_v=pow2, n_h=pow2, n_s=pow2, spatial=layout, spectral=layout,
       chunk_rows=chunks, seed=st.integers(0, 2**32))
@example(n_v=4, n_h=4, n_s=4, spatial=("q=0", 0.5), spectral=("0<q<m", 0.5),
         chunk_rows=3, seed=1)
@example(n_v=4, n_h=4, n_s=4, spatial=("q=0", 0.5), spectral=("q=0", 0.5),
         chunk_rows=None, seed=2)
@example(n_v=4, n_h=2, n_s=2, spatial=("q=m", 0.5), spectral=("m=n", 0.5),
         chunk_rows=2, seed=3)
@example(n_v=2, n_h=8, n_s=8, spatial=("q=m", 0.9), spectral=("q=m", 0.5),
         chunk_rows=None, seed=4)
def test_residual_and_adjoint_is_both_calls_bit_for_bit(
        n_v, n_h, n_s, spatial, spectral, chunk_rows, seed):
    m_p, q_p = _counts(n_v * n_h, *spatial)
    m_s, q_s = _counts(n_s, *spectral)
    with _paths(chunk_rows, n_v * n_h):
        pp = SpatialProjector(n_v, n_h, m_p, q_p, seed)
        sp = SpectralProjector(n_s, m_s, q_s, seed + 1)
        if q_p < m_p:
            assert (pp._cache is None) == (chunk_rows is not None)
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n_s, n_v * n_h))
        y = gen.normal(size=(m_s, m_p))
        resid, grad = sensing.residual_and_adjoint(y, x, sp, pp)
        want = y - project(x, sp, pp)
        assert np.array_equal(resid, want)
        assert np.array_equal(grad, adjoint(want, sp, pp))


def _reference_norm(proj, n, purpose):
    """The power iteration on apply/adjoint at scale 1, written out."""
    scale, proj.scale = proj.scale, 1.0
    gen = rng.stream(proj.seed, purpose)
    v = rng.gaussian(gen, (n,))
    v /= np.linalg.norm(v)
    sigma2 = 1.0
    for _ in range(sensing._NORM_ITERATIONS):
        w = proj.adjoint(proj.apply(v))
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    proj.scale = scale
    return float(np.sqrt(sigma2))


@_settings
@given(axis=st.sampled_from(("spatial", "spectral")), n_v=pow2,
       n_h=st.integers(0, 6).map(lambda k: 1 << k), layout=layout,
       chunk_rows=chunks, seed=st.integers(0, 2**32))
def test_gram_is_adjoint_of_apply_bit_for_bit(axis, n_v, n_h, layout,
                                              chunk_rows, seed):
    # the spatial Gram step is the fused pass at y = 0, the spectral one
    # M^T M v: either way the scale is that of adjoint(apply(v)) at scale 1
    n = n_v * n_h if axis == "spatial" else n_h
    m, q = _counts(n, *layout)
    with _paths(chunk_rows, n):
        if axis == "spatial":
            proj = SpatialProjector(n_v, n_h, m, q, seed)
            purpose = rng.SPATIAL_NORM
        else:
            proj = SpectralProjector(n, m, q, seed)
            purpose = rng.SPECTRAL_NORM
        if q < m:
            assert proj.scale == 1.0 / _reference_norm(proj, n, purpose)
        else:
            assert proj.scale == 1.0


@_settings
@given(n_s=st.integers(0, 6).map(lambda k: 1 << k), layout=layout,
       chunk_rows=chunks, seed=st.integers(0, 2**32))
def test_spectral_matrix_is_walsh_rows_over_redrawn_rademacher(
        n_s, layout, chunk_rows, seed):
    m, q = _counts(n_s, *layout)
    with _paths(chunk_rows, n_s):
        sp = SpectralProjector(n_s, m, q, seed)
    gen = rng.stream(seed, rng.SPECTRAL_RADEMACHER)
    redraw = rademacher_draw(gen, (m - q, n_s)) / np.sqrt(n_s)
    assert np.array_equal(sp._m, np.vstack([walsh_matrix(n_s)[:q], redraw]))
    # M is the only float64 array the projector holds: no block, no cache
    assert not hasattr(sp, "_rad")
    held = [a for a in vars(sp).values()
            if isinstance(a, np.ndarray) and a.dtype == np.float64]
    assert len(held) == 1 and held[0] is sp._m


@pytest.mark.parametrize("n", [1 << k for k in range(12)])
def test_walsh_matrix_matches_oracle_and_is_an_involution(n):
    w = walsh_matrix(n)
    # a leading-row prefix is the oracle's, bit for bit, at every length
    for count in (0, 1, n // 2, n):
        assert np.array_equal(_walsh_rows(n, count), w[:count])
    assert np.array_equal(_walsh_rows(n), w)
    assert np.array_equal(w, w.T)
    v = np.random.default_rng(n).normal(size=(n, 3))
    assert np.allclose(w @ (w @ v), v, atol=1e-12)


def test_walsh_length_is_capped():
    assert MAX_WALSH_LENGTH == 2048
    with pytest.raises(ValueError, match="at most 2048"):
        _walsh_rows(4096)
    with pytest.raises(ValueError, match="frame rows must be at most"):
        SpatialProjector(4096, 1, 1, 0, seed=0)
    with pytest.raises(ValueError, match="band count must be at most"):
        SpectralProjector(4096, 1, 0, seed=0)


@pytest.mark.parametrize("n", [1 << k for k in range(12)])
def test_haar_matrix_matches_oracle_and_is_orthonormal(n):
    h = _haar_matrix(n)
    assert np.abs(h - haar_matrix(n)).max() <= 1e-12
    assert np.abs(h @ h.T - np.eye(n)).max() <= 1e-12


def test_haar_length_is_capped():
    with pytest.raises(ValueError, match="at most 2048"):
        _haar_matrix(4096)
    with pytest.raises(ValueError, match="frame rows must be at most"):
        HaarBasis(4096, 1)
    with pytest.raises(ValueError, match="frame cols must be at most"):
        HaarBasis(1, 4096)


@_settings
@given(n_v=st.integers(0, 6).map(lambda k: 1 << k), n_h=pow2,
       bands=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_haar_basis_inverts_and_acts_frame_wise(n_v, n_h, bands, seed):
    x = np.random.default_rng(seed).normal(size=(bands, n_v * n_h))
    basis = HaarBasis(n_v, n_h)
    coeff = basis.analyze(x)
    assert np.abs(basis.synthesize(coeff) - x).max() <= 1e-12
    hv, hh = haar_matrix(n_v), haar_matrix(n_h)
    per_frame = matrix_from_frames(np.stack(
        [hv @ f @ hh.T for f in frames_from_matrix(x, n_v, n_h)]))
    assert np.abs(coeff - per_frame).max() <= 1e-12


@contextlib.contextmanager
def _scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "data.bin")


@_settings
@given(n_v=pow2, n_h=pow2, n_s=pow2, seed=st.integers(0, 2**32))
def test_cube_file_round_trip(n_v, n_h, n_s, seed):
    data = np.random.default_rng(seed).normal(size=(n_v, n_h, n_s))
    with _scratch_file() as path:
        write_cube(path, Datacube(data))
        cube = read_cube(path)
    assert cube.data.shape == (n_v, n_h, n_s)
    assert np.array_equal(cube.data, data.astype(np.float32))


@_settings
@given(n_v=pow2, n_h=pow2, n_s=pow2, spatial=layout, spectral=layout,
       seeds=st.tuples(*[st.integers(0, 2**64 - 1)] * 3),
       sigma=st.sampled_from([0.0, 1e-3, 0.5]))
def test_measurement_file_round_trip(n_v, n_h, n_s, spatial, spectral, seeds,
                                     sigma):
    m_p, q_p = _counts(n_v * n_h, *spatial)
    m_s, q_s = _counts(n_s, *spectral)
    pp = SpatialProjector(n_v, n_h, m_p, q_p, seeds[0])
    sp = SpectralProjector(n_s, m_s, q_s, seeds[1])
    x = np.random.default_rng(seeds[2]).normal(size=(n_s, n_v * n_h))
    meas = acquire(x, sp, pp, sigma, noise_seed=seeds[2])
    with _scratch_file() as path:
        write_measurements(path, meas)
        got = read_measurements(path)
    assert np.array_equal(got.y, meas.y.astype(np.float32))
    assert (got.sigma, got.noise_seed) == (sigma, seeds[2])
    for new, old, fields in (
            (got.spatial, pp, ("n_v", "n_h", "m_p", "q_p", "seed", "scale")),
            (got.spectral, sp, ("n_s", "m_s", "q_s", "seed", "scale"))):
        assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
