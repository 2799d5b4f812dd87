import tracemalloc

import numpy as np
import pytest

from hsrec.regularizers import prox_l1, tv_sum_and_subgradient
from hsrec.solvers import prox_transformed
from hsrec.transforms import HaarBasis, SpectralBasis
from oracles import (haar_matrix, prox_l1_grid, prox_l1_signs,
                     prox_transformed_error, tv_frames)


# ---------------------------------------------------------------- soft threshold

def test_soft_threshold_values():
    # shrink above the weight, zero at or below it, either sign
    assert np.allclose(prox_l1([0.5, -0.1, -0.5, 0.2], 0.2),
                       [0.3, 0.0, -0.3, 0.0], rtol=0, atol=1e-12)


def test_soft_threshold_rejects_negative_weight():
    with pytest.raises(ValueError):
        prox_l1(1.0, -0.1)
    with pytest.raises(ValueError):
        prox_l1(np.ones(3), -0.1)
    with pytest.raises(ValueError):
        prox_l1(np.ones(3), -np.inf)
    with pytest.raises(ValueError, match="must be >= 0"):
        prox_l1(np.ones(3), np.nan)


def test_prox_l1_edge_weights():
    z = np.random.default_rng(0).normal(size=(3, 4))
    assert np.array_equal(prox_l1(z, 0.0), z)
    assert not prox_l1(z, np.abs(z).max()).any()


def test_prox_l1_matches_grid_search():
    z = np.random.default_rng(1).normal(size=(3, 3))
    assert np.allclose(prox_l1(z, 0.1), prox_l1_grid(z, 0.1), atol=1e-4)


def test_prox_l1_optimality():
    # prox output must beat nearby perturbations of the objective
    gen = np.random.default_rng(2)
    z = gen.normal(size=(4, 4))
    xi = 0.3
    u = prox_l1(z, xi)

    def objective(v):
        return xi * np.abs(v).sum() + 0.5 * np.sum((z - v) ** 2)

    base = objective(u)
    for _ in range(20):
        assert base <= objective(u + 0.01 * gen.normal(size=u.shape)) + 1e-12


@pytest.mark.parametrize("xi", [0.0, 0.5, np.inf])
def test_prox_l1_values_match_the_sign_form(xi):
    # z - clip(z, -xi, xi) against sign(z) * max(|z| - xi, 0): the same
    # values, infinities and NaNs; only the sign of a zero may differ
    gen = np.random.default_rng(9)
    z = np.concatenate([gen.normal(size=20),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, -0.5]])
    with np.errstate(invalid="ignore"):  # inf - inf, in both forms
        got, want = prox_l1(z, xi), prox_l1_signs(z, xi)
    assert np.array_equal(got, want, equal_nan=True)
    # a thresholded entry is +0, where the sign form gives -0 for z < 0
    assert not np.signbit(got[np.isfinite(z) & (np.abs(z) <= xi)]).any()


# ---------------------------------------------------------------- transformed prox

def test_prox_transformed_identity_reduces_to_prox_l1():
    z = np.random.default_rng(3).normal(size=(4, 4))
    ident = SpectralBasis(np.eye(4))
    assert np.allclose(prox_transformed(z, 0.2, ident), prox_l1(z, 0.2),
                       atol=1e-12)
    # the Haar transform of a one-pixel frame is the identity too
    z1 = z[:, :1]
    assert np.allclose(prox_transformed(z1, 0.2, ident, HaarBasis(1, 1)),
                       prox_l1(z1, 0.2), atol=1e-12)


def test_prox_transformed_zero_weight_is_identity():
    gen = np.random.default_rng(4)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    z = gen.normal(size=(4, 8))
    assert np.allclose(prox_transformed(z, 0.0, SpectralBasis(q),
                                        HaarBasis(2, 4)), z, atol=1e-12)


def test_prox_transformed_matches_oracle():
    gen = np.random.default_rng(5)
    qa, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    z = gen.normal(size=(4, 8))
    xi = 0.15
    # HaarBasis(2, 4) maps each column-major 2x4 frame by kron(H_4, H_2)
    b = np.kron(haar_matrix(4), haar_matrix(2)).T
    got = prox_transformed(z, xi, SpectralBasis(qa), HaarBasis(2, 4))
    assert prox_transformed_error(got, z, xi, qa, b) <= 1e-3


# ---------------------------------------------------------------- total variation

def _frame_tv(frm):
    """tv and its subgradient of one frame, through the band-sum entry point."""
    frm = np.asarray(frm, dtype=np.float64)
    total, sub = tv_sum_and_subgradient(frm.reshape(1, -1, order="F"),
                                        *frm.shape)
    return total, sub.reshape(frm.shape, order="F")


def test_tv_flat_frame_is_zero():
    assert _frame_tv(np.full((5, 7), 2.5))[0] == 0.0
    assert _frame_tv(np.zeros((1, 1)))[0] == 0.0


def test_tv_single_step_frame():
    # one horizontal jump of height 1 per row
    assert _frame_tv([[0.0, 1.0], [0.0, 1.0]])[0] == pytest.approx(2.0)


def test_tv_rejects_non_frames():
    with pytest.raises(ValueError):
        tv_sum_and_subgradient(np.zeros(4), 2, 2)
    with pytest.raises(ValueError):
        tv_sum_and_subgradient(np.zeros((2, 2, 2)), 2, 2)


def test_tv_subgradient_flat_frame_is_zero():
    assert not _frame_tv(np.full((4, 6), 3.0))[1].any()


def test_tv_subgradient_matches_finite_differences():
    # strictly positive pair norms keep tv differentiable at this frame
    gen = np.random.default_rng(6)
    frm = np.cumsum(np.cumsum(1.0 + gen.random((5, 4)), axis=0), axis=1)
    g = _frame_tv(frm)[1]
    h = 1e-6
    for i in range(5):
        for j in range(4):
            e = np.zeros_like(frm)
            e[i, j] = h
            fd = (_frame_tv(frm + e)[0] - _frame_tv(frm - e)[0]) / (2 * h)
            assert g[i, j] == pytest.approx(fd, abs=1e-5)


def test_tv_subgradient_inequality():
    # tv(w) >= tv(v) + <g, w - v> must hold for every frame w
    gen = np.random.default_rng(7)
    v = gen.normal(size=(4, 4))
    base, g = _frame_tv(v)
    for _ in range(50):
        w = gen.normal(size=(4, 4))
        assert _frame_tv(w)[0] >= base + float(np.sum(g * (w - v))) - 1e-10


def test_tv_sum_over_bands():
    gen = np.random.default_rng(8)
    x = gen.normal(size=(2, 16))
    per_band = [_frame_tv(x[k].reshape(4, 4, order="F")) for k in range(2)]
    total, sub = tv_sum_and_subgradient(x, 4, 4)
    assert total == pytest.approx(per_band[0][0] + per_band[1][0])
    for k in range(2):
        assert np.allclose(sub[k], per_band[k][1].flatten(order="F"),
                           atol=1e-12)


def test_tv_sum_constant_cube():
    total, sub = tv_sum_and_subgradient(np.ones((3, 8)), 2, 4)
    assert total == 0.0
    assert not sub.any()


def test_tv_sum_shape_validation():
    with pytest.raises(ValueError):
        tv_sum_and_subgradient(np.zeros((2, 15)), 4, 4)


def _flat_regions(gen, rows, n_v, n_h):
    """Frames of constant 2x4 blocks (+0 in some), one block noisy."""
    blocks = gen.integers(0, 3, size=(rows, n_v // 2, n_h // 4)).astype(float)
    frames = np.kron(blocks, np.ones((2, 4)))
    frames[:, :2, :4] += gen.normal(size=(rows, 2, 4))
    return frames.swapaxes(-1, -2).reshape(rows, -1)


@pytest.mark.parametrize("n_v, n_h, make", [
    (8, 16, _flat_regions),  # zero-difference regions, +0 frames included
    (8, 16, lambda gen, rows, n_v, n_h: gen.normal(size=(rows, n_v * n_h))),
    (1, 16, lambda gen, rows, n_v, n_h: gen.normal(size=(rows, n_v * n_h))),
    (16, 1, lambda gen, rows, n_v, n_h: gen.normal(size=(rows, n_v * n_h))),
    (1, 1, lambda gen, rows, n_v, n_h: gen.normal(size=(rows, n_v * n_h))),
], ids=["flat-regions", "8x16", "1x16", "16x1", "1x1"])
def test_tv_bits_match_the_frame_layout_form(n_v, n_h, make):
    x = make(np.random.default_rng(10), 3, n_v, n_h)
    total, sub = tv_sum_and_subgradient(x, n_v, n_h)
    want_total, want_sub = tv_frames(x, n_v, n_h)
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
    assert sub.shape == x.shape
    assert sub.tobytes() == want_sub.tobytes()


def test_tv_holds_three_cube_sized_arrays():
    # dv, dh and the norm buffer that becomes g: dh is squared in place and
    # then retaken, so no fourth cube-sized array is live (3.19 cubes with
    # numpy's ufunc buffers at 64x64x32, where a dh * dh temporary made 4.00)
    x = np.random.default_rng(12).normal(size=(32, 64 * 64))
    tracemalloc.start()
    try:
        tv_sum_and_subgradient(x, 64, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * x.nbytes, peak / x.nbytes
