"""Independent reference constructions for the test suite.

Everything here is built by a different route than the library code:
Walsh matrices come from scipy's natural-order Hadamard with brute-force
sign-change sorting, Haar matrices from the doubling Kronecker recursion,
the zig-zag order from literal anti-diagonal enumeration, and projector
matrices from explicit outer-product rows. Tests compare the library's
fast paths against these dense forms. The transformed prox is checked by
cvxpy when it is installed and by an optimality certificate otherwise.
"""

import numpy as np
from scipy.linalg import hadamard

from hsrec import rng


def walsh_matrix(n):
    """Orthonormal sequency-ordered Walsh matrix via sign-change sorting."""
    h = hadamard(n).astype(np.float64)
    changes = [int(np.sum(row[1:] != row[:-1])) for row in h]
    return h[np.argsort(changes, kind="stable")] / np.sqrt(n)


def haar_matrix(n):
    """Orthonormal Haar analysis matrix by the doubling recursion."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        k = h.shape[0]
        h = np.vstack([np.kron(h, [1.0, 1.0]),
                       np.kron(np.eye(k), [1.0, -1.0])]) / np.sqrt(2.0)
    return h


def zigzag_order(n_v, n_h):
    """Anti-diagonal traversal: even diagonals bottom-left to top-right."""
    cells = []
    for d in range(n_v + n_h - 1):
        i_lo, i_hi = max(0, d - n_h + 1), min(d, n_v - 1)
        pts = [(i, d - i) for i in range(i_hi, i_lo - 1, -1)]
        if d % 2 == 1:
            pts.reverse()
        cells.extend(pts)
    return cells


def spatial_matrix(pp):
    """Dense m_p x n_p matrix equal to the fast spatial projector."""
    n = pp.n_v * pp.n_h
    wv, wh = walsh_matrix(pp.n_v), walsh_matrix(pp.n_h)
    rows = np.empty((pp.m_p, n))
    for r, (i, j) in enumerate(zigzag_order(pp.n_v, pp.n_h)[:pp.q_p]):
        rows[r] = np.outer(wv[i], wh[j]).flatten(order="F")
    if pp.m_p > pp.q_p:
        gen = rng.stream(pp.seed, rng.SPATIAL_RADEMACHER)
        draw = gen.random((pp.m_p - pp.q_p, n))
        rows[pp.q_p:] = np.where(draw < 0.5, -1.0, 1.0) / np.sqrt(n)
    return pp.scale * rows


def spectral_matrix(sp):
    """Dense m_s x n_s matrix equal to the fast spectral projector."""
    rows = np.empty((sp.m_s, sp.n_s))
    rows[:sp.q_s] = walsh_matrix(sp.n_s)[:sp.q_s]
    if sp.m_s > sp.q_s:
        gen = rng.stream(sp.seed, rng.SPECTRAL_RADEMACHER)
        draw = gen.random((sp.m_s - sp.q_s, sp.n_s))
        rows[sp.q_s:] = np.where(draw < 0.5, -1.0, 1.0) / np.sqrt(sp.n_s)
    return sp.scale * rows


def prox_l1_grid(z, xi):
    """Entrywise two-stage grid minimizer of xi*|u| + 0.5*(z - u)^2."""
    z = np.asarray(z, dtype=np.float64)
    flat = z.ravel()
    out = np.empty_like(flat)
    for k, zk in enumerate(flat):
        lo, hi = min(0.0, zk) - 0.1, max(0.0, zk) + 0.1
        u = np.linspace(lo, hi, 2001)
        best = u[np.argmin(xi * np.abs(u) + 0.5 * (zk - u) ** 2)]
        step = (hi - lo) / 2000
        u = np.linspace(best - 2 * step, best + 2 * step, 2001)
        out[k] = u[np.argmin(xi * np.abs(u) + 0.5 * (zk - u) ** 2)]
    return out.reshape(z.shape)


def prox_transformed_error(u, z, xi, a, b):
    """Distance of U from the minimizer of xi*||A^T U B||_1 + 0.5*||Z - U||_F^2.

    With cvxpy installed this is the largest entry of U minus the CLARABEL
    solution. Without it, it is an upper bound on ||U - U*||_F: the
    objective is 1-strongly convex, so the norm of any subgradient at a
    point bounds that point's distance to the minimizer. The bound takes
    the minimal-norm subgradient at U with its transformed coefficients
    below 1e-12 set to zero, plus the length of that rounding step.
    """
    try:
        import cvxpy as cp
    except ImportError:
        c = a.T @ u @ b
        c[np.abs(c) < 1e-12] = 0.0
        g = c - a.T @ z @ b  # gradient of the quadratic, in coefficients
        sub = np.where(c != 0, g + xi * np.sign(c),
                       np.maximum(np.abs(g) - xi, 0.0))
        return np.linalg.norm(sub) + np.linalg.norm(a @ c @ b.T - u)
    v = cp.Variable(u.shape)
    cp.Problem(cp.Minimize(
        xi * cp.norm1(cp.vec(a.T @ v @ b, order="F"))
        + 0.5 * cp.sum_squares(z - v))).solve(solver=cp.CLARABEL)
    return np.abs(u - v.value).max()
