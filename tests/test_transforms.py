import warnings

import numpy as np
import pytest

import hsrec.transforms as transforms
from hsrec.sensing import SpatialProjector
from hsrec.transforms import (HaarBasis, SpectralBasis, basis_apply,
                              fwht_sequency, learn_spectral_basis,
                              sequency_row_order, zigzag_indices)
from oracles import haar_matrix, walsh_matrix, zigzag_order


def _wht2d(frm):
    """2-D sequency Walsh coefficients of a frame, read off a fully sampled
    low-pass spatial projector (unit scale, rows in zig-zag order)."""
    n_v, n_h = frm.shape
    pp = SpatialProjector(n_v, n_h, n_v * n_h, n_v * n_h, seed=0)
    rows, cols = zigzag_indices(n_v, n_h).T
    coeff = np.empty((n_v, n_h))
    coeff[rows, cols] = pp.apply(frm.reshape(1, -1, order="F"))[0]
    return coeff


def _haar2d(frm, direction="analysis"):
    """One frame through HaarBasis, as a one-band matrix."""
    basis = HaarBasis(*frm.shape)
    apply = basis.analyze if direction == "analysis" else basis.synthesize
    out = apply(frm.reshape(1, -1, order="F"))
    return out[0].reshape(frm.shape, order="F")


# ---------------------------------------------------------------- Walsh

def test_fwht_constant_and_impulse():
    assert np.allclose(fwht_sequency(np.ones(4)), [2, 0, 0, 0])
    assert np.allclose(fwht_sequency(np.array([1.0, 0, 0, 0])), [0.5] * 4)


def test_fwht_requires_power_of_two():
    with pytest.raises(ValueError):
        fwht_sequency(np.ones(6))


def test_fwht_self_inverse():
    gen = np.random.default_rng(0)
    for n in (2, 4, 16, 64):
        v = gen.normal(size=n)
        assert np.allclose(fwht_sequency(fwht_sequency(v)), v, atol=1e-12)


def test_fwht_linear():
    gen = np.random.default_rng(1)
    v, w = gen.normal(size=16), gen.normal(size=16)
    lhs = fwht_sequency(2.5 * v - 0.5 * w)
    assert np.allclose(lhs, 2.5 * fwht_sequency(v) - 0.5 * fwht_sequency(w),
                       atol=1e-12)


def test_fwht_matches_dense_walsh():
    gen = np.random.default_rng(2)
    for n in (2, 8, 32):
        w = walsh_matrix(n)
        v = gen.normal(size=n)
        assert np.allclose(fwht_sequency(v), w @ v, atol=1e-12)


def test_sequency_order_small_sizes():
    assert sequency_row_order(2).tolist() == [0, 1]
    assert sequency_row_order(4).tolist() == [0, 2, 3, 1]


def test_sequency_order_refuses_lengths_over_the_cap():
    with pytest.raises(ValueError, match="at most 2048"):
        sequency_row_order(4096)


def test_sequency_rows_have_ascending_sign_changes():
    # row k of the implied matrix must flip sign exactly k times
    for n in (2, 4, 8, 16, 64, 256):
        e = np.eye(n)
        mat = np.array([fwht_sequency(e[k]) for k in range(n)]).T
        assert np.allclose(mat.T @ mat, np.eye(n), atol=1e-12)
        for k in range(n):
            signs = np.sign(mat[k])
            assert int(np.sum(signs[1:] != signs[:-1])) == k


def test_wht2d_dc_and_zero():
    assert np.allclose(_wht2d(np.ones((4, 4))),
                       np.eye(4)[0][:, None] * [4, 0, 0, 0])
    assert not _wht2d(np.zeros((2, 8))).any()


def test_wht2d_matches_dense():
    gen = np.random.default_rng(3)
    f = gen.normal(size=(8, 8))
    w = walsh_matrix(8)
    assert np.allclose(_wht2d(f), w @ f @ w.T, atol=1e-12)
    # rectangular frames transform along each axis independently
    g = gen.normal(size=(4, 16))
    assert np.allclose(_wht2d(g), walsh_matrix(4) @ g @ walsh_matrix(16).T,
                       atol=1e-12)


def test_wht2d_involution():
    f = np.random.default_rng(4).normal(size=(8, 16))
    assert np.allclose(_wht2d(_wht2d(f)), f, atol=1e-12)


# ---------------------------------------------------------------- zig-zag

def test_zigzag_two_by_two():
    assert zigzag_indices(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_zigzag_three_by_three():
    want = [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1),
            (2, 2)]
    assert [tuple(ij) for ij in zigzag_indices(3, 3)] == want


def test_zigzag_is_a_grid_permutation():
    for n_v, n_h in ((1, 7), (4, 4), (3, 5), (6, 2)):
        idx = zigzag_indices(n_v, n_h)
        assert len(idx) == n_v * n_h
        assert len({(i, j) for i, j in idx}) == n_v * n_h
        assert [tuple(ij) for ij in idx] == zigzag_order(n_v, n_h)


def test_zigzag_prefix_and_count():
    for n_v, n_h in ((4, 4), (1, 8), (8, 2), (3, 5), (16, 32)):
        full = zigzag_indices(n_v, n_h)
        for count in (0, 1, 2, 5, n_v * n_h - 1, n_v * n_h, n_v * n_h + 3):
            assert np.array_equal(zigzag_indices(n_v, n_h, count),
                                  full[:count])
    full = zigzag_indices(4, 4)
    # anti-diagonal index never decreases along the traversal
    sums = full.sum(axis=1)
    assert np.all(np.diff(sums) >= 0)


# ---------------------------------------------------------------- Haar

def test_haar_constant_frame():
    coeff = _haar2d(np.full((2, 2), 3.0))
    assert np.isclose(coeff[0, 0], 6.0)
    assert np.allclose(coeff.ravel()[1:], 0.0)


def test_haar_round_trip():
    f = np.random.default_rng(5).normal(size=(8, 8))
    assert np.allclose(_haar2d(_haar2d(f), direction="synthesis"), f,
                       atol=1e-12)


def test_haar_matches_dense():
    gen = np.random.default_rng(6)
    f = gen.normal(size=(4, 4))
    hv = haar_matrix(4)
    assert np.allclose(_haar2d(f), hv @ f @ hv.T, atol=1e-12)
    g = gen.normal(size=(8, 2))
    assert np.allclose(_haar2d(g), haar_matrix(8) @ g @ haar_matrix(2).T,
                       atol=1e-12)


def test_haar_parseval():
    f = np.random.default_rng(7).normal(size=(16, 8))
    assert np.isclose(np.linalg.norm(_haar2d(f)), np.linalg.norm(f))


def test_haar_basis_acts_frame_wise():
    gen = np.random.default_rng(8)
    basis = HaarBasis(4, 8)
    x = gen.normal(size=(3, 32))
    out = basis.analyze(x)
    for k in range(3):
        per_frame = haar_matrix(4) @ x[k].reshape(8, 4).T @ haar_matrix(8).T
        assert np.allclose(out[k], per_frame.flatten(order="F"), atol=1e-12)
    assert np.allclose(basis.synthesize(out), x, atol=1e-12)


# ---------------------------------------------------------------- spectral basis

def test_learn_axis_aligned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nonzero samples: no identity fallback
        basis = learn_spectral_basis(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(basis.matrix, np.eye(2))


def test_learn_rank_one():
    u = np.array([3.0, 0.0, 4.0])
    samples = np.outer(u, [1.0, -2.0, 0.5, 1.5])
    basis = learn_spectral_basis(samples)
    assert np.allclose(np.abs(basis.matrix[:, 0]), np.abs(u) / 5.0, atol=1e-12)
    assert basis.matrix[np.argmax(np.abs(basis.matrix[:, 0])), 0] > 0


def test_learn_matches_svd_oracle():
    gen = np.random.default_rng(9)
    samples = gen.normal(size=(8, 50))
    basis = learn_spectral_basis(samples)
    assert np.allclose(basis.matrix.T @ basis.matrix, np.eye(8), atol=1e-10)
    u, s, _ = np.linalg.svd(samples, full_matrices=False)
    # same ordered subspace, sign-fixed column by column
    for k in range(8):
        dot = abs(float(basis.matrix[:, k] @ u[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-8)
    # the basis diagonalizes the sample second-moment matrix
    gram = samples @ samples.T
    off = basis.matrix.T @ gram @ basis.matrix
    diag = np.diag(np.diag(off))
    assert np.allclose(off, diag, atol=1e-8 * np.abs(gram).max())
    assert np.all(np.diff(np.diag(off)) <= 1e-9)


def test_learn_zero_samples_degenerates_to_identity():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = learn_spectral_basis(np.zeros((4, 10)))
    assert np.array_equal(basis.matrix, np.eye(4))
    assert any("identity" in str(w.message) for w in caught)


def test_spectral_basis_orthonormality_flag():
    # orthonormality is detected once, and picks the maps: the identity for I
    m = np.random.default_rng(13).normal(size=(3, 5))
    assert basis_apply(SpectralBasis(np.eye(3)), m, "gram_inverse") is m
    assert np.array_equal(
        basis_apply(SpectralBasis(2.0 * np.eye(3)), m, "gram_inverse"), m / 4)


# ---------------------------------------------------------------- basis_apply

def test_basis_apply_identity_all_modes():
    m = np.random.default_rng(10).normal(size=(3, 5))
    ident = SpectralBasis(np.eye(3))
    for mode in ("analysis", "pinv_synthesis", "gram_inverse"):
        assert np.allclose(basis_apply(ident, m, mode), m, atol=1e-12)


def test_basis_apply_orthonormal_round_trip():
    gen = np.random.default_rng(11)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
    basis = SpectralBasis(q)
    m = gen.normal(size=(4, 6))
    assert np.allclose(
        basis_apply(basis, basis_apply(basis, m, "analysis"), "pinv_synthesis"),
        m, atol=1e-12)
    # the inverse maps of an orthonormal basis are exactly the plain ones
    assert np.array_equal(basis_apply(basis, m, "pinv_synthesis"), q @ m)
    assert np.array_equal(basis_apply(basis, m, "gram_inverse"), m)


def test_basis_apply_pinv_consistency():
    gen = np.random.default_rng(12)

    def close(got, want):  # relative to 1e-9 in the Frobenius norm
        return np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    for cond in (1.5, 10.0, 100.0, 1000.0):
        u, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        v, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        psi = u @ np.diag(np.geomspace(1.0, 1.0 / cond, 4)) @ v.T
        basis = SpectralBasis(psi)
        m = gen.normal(size=(4, 6))
        assert close(basis_apply(basis, basis_apply(basis, m, "analysis"),
                                 "pinv_synthesis"), m)
        # the inverse modes match explicit inverse maps
        assert close(basis_apply(basis, m, "pinv_synthesis"),
                     np.linalg.inv(psi).T @ m)
        assert close(basis_apply(basis, m, "gram_inverse"),
                     np.linalg.solve(psi @ psi.T, m))


def test_basis_apply_rejects_bad_input():
    ident = SpectralBasis(np.eye(3))
    with pytest.raises(ValueError):
        basis_apply(ident, np.zeros((3, 3)), "no-such-mode")
    with pytest.raises(ValueError):
        basis_apply(ident, np.zeros((3, 3)), "synthesis")
    with pytest.raises(ValueError):
        basis_apply(ident, np.zeros((4, 3)), "analysis")


@pytest.mark.parametrize("call, message", [
    (lambda: fwht_sequency(np.ones((2, 2))), "expected a vector"),
    (lambda: zigzag_indices(0, 4), "grid dimensions must be >= 1"),
    (lambda: SpectralBasis(np.ones((2, 3))), "must be square"),
    (lambda: SpectralBasis(np.full((2, 2), np.nan)), "must be finite"),
    (lambda: learn_spectral_basis(np.ones((3, 0))), "samples must be n_s x m"),
    (lambda: learn_spectral_basis(np.full((2, 3), np.inf)),
     "samples must be finite"),
    (lambda: HaarBasis(4, 2).analyze(np.zeros((3, 7))),
     "does not match a 4x2 grid"),
    (lambda: HaarBasis(4, 2).synthesize(np.zeros(8)),
     "does not match a 4x2 grid"),
], ids=["fwht-matrix", "zigzag-empty-grid", "basis-not-square",
        "basis-not-finite", "learn-no-samples", "learn-not-finite",
        "haar-analyze-columns", "haar-synthesize-vector"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_basis_apply_singular_gram_raises():
    # a singular dictionary is rejected when the basis is built, so no
    # inverse mode ever sees it
    psi = np.eye(3)
    psi[2] = psi[1]
    with pytest.raises(np.linalg.LinAlgError):
        basis_apply(SpectralBasis(psi), np.zeros((3, 2)), "gram_inverse")


def test_haar_basis_builds_its_matrices_once(monkeypatch):
    built, original = [], transforms._haar_matrix

    def spy(n):
        built.append(n)
        return original(n)

    monkeypatch.setattr(transforms, "_haar_matrix", spy)
    basis = HaarBasis(8, 4)
    assert sorted(built) == [4, 8]
    x = np.random.default_rng(7).normal(size=(3, 32))
    np.testing.assert_allclose(basis.synthesize(basis.analyze(x)), x,
                               atol=1e-12)
    assert sorted(built) == [4, 8]
