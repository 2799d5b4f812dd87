"""Nonsmooth penalty building blocks the solvers call.

prox_l1, soft thresholding, is the prox of the solvers' l1 term, taken on
transformed coefficients through solvers.prox_transformed. The isotropic
total variation of every band's frame, with an analytic subgradient, is
the TV part of the term f the solvers step along.
"""

import numpy as np

from . import rng
from .datacube import checked_frames

# The least nonzero pair norm, the square root of the least subnormal. Where
# a norm is zero, both differences are below it in size, so (dv, dh) divided
# by it is a vector of norm at most 1: a subgradient, +/-0 for exact zeros.
_NORM_FLOOR = 2.0 ** -537


def prox_l1(z, xi):
    """Entrywise soft threshold; minimizes xi*||U||_1 + 0.5*||Z - U||_F^2."""
    if not (rng.is_real(xi) and xi >= 0):
        raise ValueError(f"threshold weight must be >= 0, got {xi}")
    z = np.asarray(z, dtype=np.float64)
    return z - np.clip(z, -xi, xi)


def tv_sum_and_subgradient(x, n_v, n_h):
    """Total variation summed over all bands plus the stacked subgradient.

    x is a band-by-pixel matrix; returns (sum of per-frame tv, matrix whose
    row k is the flattened subgradient of frame k). A frame's tv is the sum
    of its forward-difference pair norms ||d(i,j)|| = ||(dv, dh)(i,j)||,
    with the differences zero at the far edges.
    Subgradient entry (i, j) sums three contributions: +dv(i-1,j)/||d(i-1,j)||
    when i > 0, +dh(i,j-1)/||d(i,j-1)|| when j > 0, and
    -(dv+dh)(i,j)/||d(i,j)||, each +/-0 where the pair norm and its
    differences are zero. It equals the gradient wherever tv is
    differentiable.
    """
    # (rows, n_h, n_v) frames in the matrix's own order, vertical index last
    cols = checked_frames(x, n_v, n_h).swapaxes(-1, -2)
    dv = np.empty_like(cols)
    dh = np.empty_like(cols)
    dv[..., -1] = 0.0
    dh[..., -1, :] = 0.0
    np.subtract(cols[..., 1:], cols[..., :-1], out=dv[..., :-1])
    np.subtract(cols[..., 1:, :], cols[..., :-1, :], out=dh[..., :-1, :])
    norm = dv * dv
    norm += dh * dh
    np.sqrt(norm, out=norm)
    total = float(norm.sum(axis=(-2, -1)).sum())
    # unit difference vectors, in place; only zero norms meet the floor
    np.maximum(norm, _NORM_FLOOR, out=norm)
    dv /= norm
    dh /= norm
    g = np.negative(np.add(dv, dh, out=norm), out=norm)
    g[..., 1:] += dv[..., :-1]
    g[..., 1:, :] += dh[..., :-1, :]
    return total, g.reshape(-1, n_v * n_h)
