"""Property tests over random power-of-two shapes.

The operators must be exact adjoints of each other for every block layout
(no low-pass rows, a mix, only low-pass rows, full sampling) on both the
cached and the chunk-regenerated Rademacher path, and the dense Walsh
matrix must match the independent oracle at every supported length.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hsrec.sensing as sensing
from hsrec.sensing import SpatialProjector, SpectralProjector, adjoint, project
from hsrec.transforms import MAX_WALSH_LENGTH, _walsh_matrix
from oracles import walsh_matrix

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
    """Regenerate Rademacher rows of length n in chunks of chunk_rows rows
    instead of caching the block; None keeps the cached path."""
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


@pytest.mark.parametrize("n", [1 << k for k in range(12)])
def test_walsh_matrix_matches_oracle_and_is_an_involution(n):
    w = _walsh_matrix(n)
    assert not w.flags.writeable
    assert np.array_equal(w, walsh_matrix(n))
    assert np.array_equal(w, w.T)
    v = np.random.default_rng(n).normal(size=(n, 3))
    assert np.allclose(w @ (w @ v), v, atol=1e-12)


def test_walsh_length_is_capped():
    assert MAX_WALSH_LENGTH == 2048
    with pytest.raises(ValueError, match="at most 2048"):
        _walsh_matrix(4096)
    with pytest.raises(ValueError, match="frame rows must be at most"):
        SpatialProjector(4096, 1, 1, 0, seed=0)
    with pytest.raises(ValueError, match="band count must be at most"):
        SpectralProjector(4096, 1, 0, seed=0)
