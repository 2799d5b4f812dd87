"""Independent reference constructions for the test suite.

Everything here is built by a different route than the library code:
Walsh matrices come from scipy's natural-order Hadamard, its rows sorted
by brute-force sign counting or picked by a bit-reversal loop over the
Gray code, Haar matrices from the doubling Kronecker recursion, the
zig-zag order from literal anti-diagonal enumeration, and projector
matrices from explicit outer-product rows. Tests compare the library's
fast paths against these dense forms. The transformed prox is checked by
an optimality certificate, and also by cvxpy when it is installed.
The soft threshold and the TV value and subgradient are also kept in their
first, frame-layout form, which the in-place library forms must match bit
for bit.
"""

import numpy as np
from scipy.linalg import hadamard

from hsrec import rng


def walsh_matrix(n):
    """Orthonormal sequency-ordered Walsh matrix via sign-change sorting."""
    h = hadamard(n).astype(np.float64)
    changes = [int(np.sum(row[1:] != row[:-1])) for row in h]
    return h[np.argsort(changes, kind="stable")] / np.sqrt(n)


def gray_code_walsh_rows(n, count=None):
    """First count sequency Walsh rows: Sylvester row bitrev(k ^ (k >> 1))
    for row k, the bits reversed one at a time."""
    g = np.arange(n)[:count]
    g = g ^ (g >> 1)
    perm = np.zeros_like(g)
    for _ in range(n.bit_length() - 1):
        perm = (perm << 1) | (g & 1)
        g = g >> 1
    return hadamard(n)[perm].astype(np.float64) / np.sqrt(n)


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


def rademacher_draw(gen, shape):
    """+/-1 entries from uniform doubles: -1 where random() < 0.5. The
    library reads the top bit of each raw word, which must agree."""
    return np.where(gen.random(shape) < 0.5, -1.0, 1.0)


def spatial_matrix(pp):
    """Dense m_p x n_p matrix equal to the fast spatial projector."""
    n = pp.n_v * pp.n_h
    wv, wh = walsh_matrix(pp.n_v), walsh_matrix(pp.n_h)
    rows = np.empty((pp.m_p, n))
    for r, (i, j) in enumerate(zigzag_order(pp.n_v, pp.n_h)[:pp.q_p]):
        rows[r] = np.outer(wv[i], wh[j]).flatten(order="F")
    if pp.m_p > pp.q_p:
        gen = rng.stream(pp.seed, rng.SPATIAL_RADEMACHER)
        rows[pp.q_p:] = rademacher_draw(gen, (pp.m_p - pp.q_p, n)) / np.sqrt(n)
    return pp.scale * rows


def spectral_matrix(sp):
    """Dense m_s x n_s matrix equal to the fast spectral projector."""
    rows = np.empty((sp.m_s, sp.n_s))
    rows[:sp.q_s] = walsh_matrix(sp.n_s)[:sp.q_s]
    if sp.m_s > sp.q_s:
        gen = rng.stream(sp.seed, rng.SPECTRAL_RADEMACHER)
        draw = rademacher_draw(gen, (sp.m_s - sp.q_s, sp.n_s))
        rows[sp.q_s:] = draw / np.sqrt(sp.n_s)
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


def prox_l1_signs(z, xi):
    """Soft threshold as sign(z) * max(|z| - xi, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - xi, 0.0)


def tv_frames(x, n_v, n_h):
    """(TV sum, subgradient matrix) on (rows, n_v, n_h) frames: zero-padded
    forward differences, unit vectors by masked division where the pair
    norm is nonzero (0 elsewhere), the same per-frame-then-total sum."""
    frames = x.reshape(-1, n_h, n_v).swapaxes(-1, -2)
    dv = np.zeros_like(frames)
    dh = np.zeros_like(frames)
    dv[..., :-1, :] = frames[..., 1:, :] - frames[..., :-1, :]
    dh[..., :, :-1] = frames[..., :, 1:] - frames[..., :, :-1]
    norm = np.sqrt(dv * dv + dh * dh)
    nz = norm > 0.0
    uv = np.zeros_like(dv)
    uh = np.zeros_like(dh)
    np.divide(dv, norm, out=uv, where=nz)
    np.divide(dh, norm, out=uh, where=nz)
    g = -(uv + uh)
    g[..., 1:, :] += uv[..., :-1, :]
    g[..., :, 1:] += uh[..., :, :-1]
    total = float(norm.sum(axis=(-2, -1)).sum())
    return total, g.swapaxes(-1, -2).reshape(len(g), -1)


def prox_transformed_error(u, z, xi, a, b):
    """Distance of U from the minimizer of xi*||A^T U B||_1 + 0.5*||Z - U||_F^2.

    Always an upper bound on ||U - U*||_F from an optimality certificate:
    the objective is 1-strongly convex, so the norm of any subgradient at a
    point bounds that point's distance to the minimizer. The bound takes
    the minimal-norm subgradient at U with its transformed coefficients
    below 1e-12 set to zero, plus the length of that rounding step. With
    cvxpy installed it is the larger of that bound and the largest entry of
    U minus the CLARABEL solution, so both checks hold the caller's bound.
    """
    c = a.T @ u @ b
    c[np.abs(c) < 1e-12] = 0.0
    g = c - a.T @ z @ b  # gradient of the quadratic, in coefficients
    sub = np.where(c != 0, g + xi * np.sign(c),
                   np.maximum(np.abs(g) - xi, 0.0))
    certificate = np.linalg.norm(sub) + np.linalg.norm(a @ c @ b.T - u)
    try:
        import cvxpy as cp
    except ImportError:
        return certificate
    v = cp.Variable(u.shape)
    cp.Problem(cp.Minimize(
        xi * cp.norm1(cp.vec(a.T @ v @ b, order="F"))
        + 0.5 * cp.sum_squares(z - v))).solve(solver=cp.CLARABEL)
    return max(certificate, np.abs(u - v.value).max())
