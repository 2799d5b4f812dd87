"""Nonsmooth penalty building blocks.

Soft thresholding (the prox of a weighted entrywise l1 norm), the
orthonormally transformed prox, and the isotropic total variation of a
frame together with an analytic subgradient.
"""

import numpy as np

from .datacube import frames_from_matrix, matrix_from_frames


def prox_l1(z, xi):
    """Entrywise soft threshold; minimizes xi*||U||_1 + 0.5*||Z - U||_F^2."""
    if xi < 0:
        raise ValueError(f"threshold weight must be >= 0, got {xi}")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - xi, 0.0)


def _check_orthonormal(m, name):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if np.abs(m.T @ m - np.eye(m.shape[0])).max() > 1e-8:
        raise ValueError(f"{name} is not orthonormal")
    return m


def prox_transformed(z, xi, a, b=None):
    """Prox of xi*||A^T U B||_1 for orthonormal A, B: A soft(A^T Z B) B^T.

    Omitting B applies the transform on the left only (B = identity).
    """
    z = np.asarray(z, dtype=np.float64)
    a = _check_orthonormal(a, "left transform")
    if b is None:
        return a @ prox_l1(a.T @ z, xi)
    b = _check_orthonormal(b, "right transform")
    return a @ prox_l1(a.T @ z @ b, xi) @ b.T


def _forward_diffs(frames):
    """Forward differences of (..., n_v, n_h) frames, zero at the far edges."""
    dv = np.zeros_like(frames)
    dh = np.zeros_like(frames)
    dv[..., :-1, :] = frames[..., 1:, :] - frames[..., :-1, :]
    dh[..., :, :-1] = frames[..., :, 1:] - frames[..., :, :-1]
    return dv, dh


def _tv_value_and_grad(frames):
    dv, dh = _forward_diffs(frames)
    norm = np.sqrt(dv * dv + dh * dh)
    value = norm.sum(axis=(-2, -1))
    # unit difference vectors where the pair norm is nonzero (exact test)
    nz = norm > 0.0
    uv = np.zeros_like(dv)
    uh = np.zeros_like(dh)
    np.divide(dv, norm, out=uv, where=nz)
    np.divide(dh, norm, out=uh, where=nz)
    g = -(uv + uh)
    g[..., 1:, :] += uv[..., :-1, :]
    g[..., :, 1:] += uh[..., :, :-1]
    return value, g


def tv(frm):
    """Isotropic total variation: sum of forward-difference pair norms."""
    frm = np.asarray(frm, dtype=np.float64)
    if frm.ndim != 2:
        raise ValueError(f"expected a frame, got shape {frm.shape}")
    value, _ = _tv_value_and_grad(frm)
    return float(value)


def tv_subgradient(frm):
    """A subgradient of tv at the frame.

    Entry (i, j) sums three contributions: +dv(i-1,j)/||d(i-1,j)|| when
    i > 0, +dh(i,j-1)/||d(i,j-1)|| when j > 0, and -(dv+dh)(i,j)/||d(i,j)||,
    each dropped where the pair norm is zero. Equals the gradient wherever
    tv is differentiable.
    """
    frm = np.asarray(frm, dtype=np.float64)
    if frm.ndim != 2:
        raise ValueError(f"expected a frame, got shape {frm.shape}")
    _, g = _tv_value_and_grad(frm)
    return g


def tv_sum_and_subgradient(x, n_v, n_h):
    """Total variation summed over all bands plus the stacked subgradient.

    x is a band-by-pixel matrix; returns (sum of per-frame tv, matrix whose
    row k is the flattened subgradient of frame k).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_v * n_h:
        raise ValueError(
            f"matrix shape {x.shape} does not match a {n_v}x{n_h} grid")
    value, g = _tv_value_and_grad(frames_from_matrix(x, n_v, n_h))
    return float(value.sum()), matrix_from_frames(g)
