"""Nonsmooth penalty building blocks the solvers call.

prox_l1, soft thresholding, is the prox of the solvers' l1 term, taken on
transformed coefficients through solvers.prox_transformed. The isotropic
total variation of every band's frame, with an analytic subgradient, is
the TV part of the term f the solvers step along.
"""

import numpy as np

from .datacube import checked_frames, matrix_from_frames


def prox_l1(z, xi):
    """Entrywise soft threshold; minimizes xi*||U||_1 + 0.5*||Z - U||_F^2."""
    if xi < 0:
        raise ValueError(f"threshold weight must be >= 0, got {xi}")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - xi, 0.0)


def tv_sum_and_subgradient(x, n_v, n_h):
    """Total variation summed over all bands plus the stacked subgradient.

    x is a band-by-pixel matrix; returns (sum of per-frame tv, matrix whose
    row k is the flattened subgradient of frame k). A frame's tv is the sum
    of its forward-difference pair norms ||d(i,j)|| = ||(dv, dh)(i,j)||,
    with the differences zero at the far edges.
    Subgradient entry (i, j) sums three contributions: +dv(i-1,j)/||d(i-1,j)||
    when i > 0, +dh(i,j-1)/||d(i,j-1)|| when j > 0, and
    -(dv+dh)(i,j)/||d(i,j)||, each dropped where the pair norm is zero. It
    equals the gradient wherever tv is differentiable.
    """
    frames = checked_frames(x, n_v, n_h)
    dv = np.zeros_like(frames)
    dh = np.zeros_like(frames)
    dv[..., :-1, :] = frames[..., 1:, :] - frames[..., :-1, :]
    dh[..., :, :-1] = frames[..., :, 1:] - frames[..., :, :-1]
    norm = np.sqrt(dv * dv + dh * dh)
    # unit difference vectors where the pair norm is nonzero (exact test)
    nz = norm > 0.0
    uv = np.zeros_like(dv)
    uh = np.zeros_like(dh)
    np.divide(dv, norm, out=uv, where=nz)
    np.divide(dh, norm, out=uh, where=nz)
    g = -(uv + uh)
    g[..., 1:, :] += uv[..., :-1, :]
    g[..., :, 1:] += uh[..., :, :-1]
    return float(norm.sum(axis=(-2, -1)).sum()), matrix_from_frames(g)
