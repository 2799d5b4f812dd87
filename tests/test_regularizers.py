import numpy as np
import pytest

from hsrec.regularizers import (prox_l1, prox_transformed, tv, tv_subgradient,
                                tv_sum_and_subgradient)
from oracles import prox_l1_grid, prox_transformed_error


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


# ---------------------------------------------------------------- transformed prox

def test_prox_transformed_identity_reduces_to_prox_l1():
    z = np.random.default_rng(3).normal(size=(4, 4))
    want = prox_l1(z, 0.2)
    assert np.allclose(prox_transformed(z, 0.2, np.eye(4), np.eye(4)), want,
                       atol=1e-12)
    assert np.allclose(prox_transformed(z, 0.2, np.eye(4)), want, atol=1e-12)


def test_prox_transformed_zero_weight_is_identity():
    gen = np.random.default_rng(4)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    z = gen.normal(size=(4, 4))
    assert np.allclose(prox_transformed(z, 0.0, q, q), z, atol=1e-12)


def test_prox_transformed_rejects_non_orthonormal():
    z = np.zeros((3, 3))
    with pytest.raises(ValueError):
        prox_transformed(z, 0.1, 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        prox_transformed(z, 0.1, np.eye(3), np.ones((3, 3)))
    with pytest.raises(ValueError):
        prox_transformed(z, 0.1, np.eye(4)[:3])


def test_prox_transformed_matches_oracle():
    gen = np.random.default_rng(5)
    qa, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    qb, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    z = gen.normal(size=(4, 4))
    xi = 0.15
    assert prox_transformed_error(prox_transformed(z, xi, qa, qb), z, xi,
                                  qa, qb) <= 1e-3


# ---------------------------------------------------------------- total variation

def test_tv_flat_frame_is_zero():
    assert tv(np.full((5, 7), 2.5)) == 0.0
    assert tv(np.zeros((1, 1))) == 0.0


def test_tv_single_step_frame():
    # one horizontal jump of height 1 per row
    assert tv(np.array([[0.0, 1.0], [0.0, 1.0]])) == pytest.approx(2.0)


def test_tv_rejects_non_frames():
    with pytest.raises(ValueError):
        tv(np.zeros(4))
    with pytest.raises(ValueError):
        tv_subgradient(np.zeros((2, 2, 2)))


def test_tv_subgradient_flat_frame_is_zero():
    assert not tv_subgradient(np.full((4, 6), 3.0)).any()


def test_tv_subgradient_matches_finite_differences():
    # strictly positive pair norms keep tv differentiable at this frame
    gen = np.random.default_rng(6)
    frm = np.cumsum(np.cumsum(1.0 + gen.random((5, 4)), axis=0), axis=1)
    g = tv_subgradient(frm)
    h = 1e-6
    for i in range(5):
        for j in range(4):
            e = np.zeros_like(frm)
            e[i, j] = h
            fd = (tv(frm + e) - tv(frm - e)) / (2 * h)
            assert g[i, j] == pytest.approx(fd, abs=1e-5)


def test_tv_subgradient_inequality():
    # tv(w) >= tv(v) + <g, w - v> must hold for every frame w
    gen = np.random.default_rng(7)
    v = gen.normal(size=(4, 4))
    g = tv_subgradient(v)
    base = tv(v)
    for _ in range(50):
        w = gen.normal(size=(4, 4))
        assert tv(w) >= base + float(np.sum(g * (w - v))) - 1e-10


def test_tv_sum_over_bands():
    gen = np.random.default_rng(8)
    x = gen.normal(size=(2, 16))
    frames = [x[k].reshape(4, 4, order="F") for k in range(2)]
    total, sub = tv_sum_and_subgradient(x, 4, 4)
    assert total == pytest.approx(tv(frames[0]) + tv(frames[1]))
    for k in range(2):
        assert np.allclose(sub[k],
                           tv_subgradient(frames[k]).flatten(order="F"),
                           atol=1e-12)


def test_tv_sum_constant_cube():
    total, sub = tv_sum_and_subgradient(np.ones((3, 8)), 2, 4)
    assert total == 0.0
    assert not sub.any()


def test_tv_sum_shape_validation():
    with pytest.raises(ValueError):
        tv_sum_and_subgradient(np.zeros((2, 15)), 4, 4)
