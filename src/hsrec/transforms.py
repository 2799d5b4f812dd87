"""Orthonormal transforms used by the sensing operators and solvers.

Contains the sequency-ordered Walsh-Hadamard transform (rows scaled to unit
norm, so the transform is orthonormal and self-inverse), the JPEG-style
zig-zag coefficient ordering generalized to rectangles, the full-depth
orthonormal 2-D Haar wavelet transform, and spectral bases learned from
pixel samples.

Every Walsh and Haar transform is a product with one cached, read-only
dense matrix per length, capped at MAX_WALSH_LENGTH (2048, a 32 MiB
matrix); up to that length the dense product is faster than a butterfly in
numpy.

Note on scaling: the classic hardware realization of Walsh-Hadamard sensing
uses +/-1 entries. All transforms here are row-normalized (entries +/-1/sqrt(n))
instead, which makes every matrix orthonormal and keeps operator norms near
one; the +/-1 convention is the same operator times sqrt(n).
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datacube import frames_from_matrix, matrix_from_frames

# Longest axis a Walsh or Haar transform accepts; its dense matrix takes 32 MiB.
MAX_WALSH_LENGTH = 2048


def _check_pow2(n, what, limit=None):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    if limit is not None and n > limit:
        raise ValueError(f"{what} must be at most {limit}, got {n}")


def sequency_row_order(n):
    """Natural-order Hadamard row index for each sequency position.

    Entry k names the row of the Sylvester-ordered Hadamard matrix that has
    exactly k sign changes: bit-reverse of the Gray code of k.
    """
    _check_pow2(n, "transform length")
    bits = n.bit_length() - 1
    k = np.arange(n, dtype=np.int64)
    g = k ^ (k >> 1)
    perm = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        perm = (perm << 1) | (g & 1)
        g >>= 1
    return perm


@functools.cache
def _walsh_matrix(n):
    """Read-only orthonormal sequency-ordered Walsh matrix of length n.

    Row k is row sequency_row_order(n)[k] of the Sylvester Hadamard matrix
    divided by sqrt(n). The matrix is symmetric, so it is its own inverse.
    """
    _check_pow2(n, "transform length", MAX_WALSH_LENGTH)
    h = np.full((1, 1), 1.0 / np.sqrt(n))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    w = h[sequency_row_order(n)]
    w.flags.writeable = False
    return w


@functools.cache
def _haar_matrix(n):
    """Read-only orthonormal full-depth Haar analysis matrix of length n.

    Row 0 is constant. Row k = 2^j + t (level j, offset t) is the detail
    wavelet of width w = n / 2^j on columns [t*w, (t+1)*w): +1/sqrt(w) on
    its first half, -1/sqrt(w) on its second. So the rows run coarse to
    fine, left to right within a level, and H^T is the inverse.
    """
    _check_pow2(n, "transform length", MAX_WALSH_LENGTH)
    k = np.arange(n)[:, None]
    level = np.frexp(np.maximum(k, 1))[1] - 1  # floor(log2 k), exact
    w = n >> level
    col = np.arange(n)
    sign = np.where(col % w < w // 2, 1.0, -1.0)
    h = np.where(col // w == k - (1 << level), sign, 0.0) / np.sqrt(w)
    h[0] = 1.0 / np.sqrt(n)
    h.flags.writeable = False
    return h


def fwht_sequency(v):
    """Sequency-ordered orthonormal Walsh-Hadamard transform of a vector.

    The transform matrix is symmetric and orthonormal, so applying this
    twice returns the input.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return _walsh_matrix(len(v)) @ v


def wht2d(frm):
    """Separable 2-D sequency Walsh-Hadamard coefficients of a frame.

    Transforms columns then rows; self-inverse, energy preserving.
    """
    frm = np.asarray(frm, dtype=np.float64)
    if frm.ndim != 2:
        raise ValueError(f"expected a frame, got shape {frm.shape}")
    return _walsh_matrix(frm.shape[0]) @ frm @ _walsh_matrix(frm.shape[1]).T


def zigzag_indices(n_v, n_h, count=None):
    """(row, col) pairs in JPEG-style zig-zag order over an n_v x n_h grid.

    Anti-diagonals d = 0 .. n_v+n_h-2; even diagonals run bottom-left to
    top-right, odd ones top-right to bottom-left, clipped at the borders.
    Returns an int array of shape (count, 2); the first B pairs select the
    B "top-left" coefficients.
    """
    if n_v < 1 or n_h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {n_v}x{n_h}")
    total = n_v * n_h if count is None else min(count, n_v * n_h)
    # walk only the anti-diagonals the first `total` pairs lie on
    pieces, taken, d = [np.zeros((0, 2), dtype=np.int64)], 0, 0
    while taken < total:
        lo = max(0, d - n_h + 1)
        hi = min(n_v - 1, d)
        rows = (np.arange(hi, lo - 1, -1) if d % 2 == 0
                else np.arange(lo, hi + 1))[:total - taken]
        pieces.append(np.stack([rows, d - rows], axis=1).astype(np.int64))
        taken += len(rows)
        d += 1
    return np.concatenate(pieces)


def _haar_frames(frames, inverse=False):
    """Analysis H_v F H_h^T, or synthesis H_v^T C H_h, of (..., n_v, n_h) frames."""
    hv, hh = _haar_matrix(frames.shape[-2]), _haar_matrix(frames.shape[-1])
    return hv.T @ frames @ hh if inverse else hv @ frames @ hh.T


def haar2d(frm, direction="analysis"):
    """Full-depth orthonormal 2-D Haar transform of a frame.

    direction "analysis" maps a frame to wavelet coefficients, "synthesis"
    inverts; the two compose to the identity.
    """
    frm = np.asarray(frm, dtype=np.float64)
    if frm.ndim != 2:
        raise ValueError(f"expected a frame, got shape {frm.shape}")
    _check_pow2(frm.shape[0], "frame rows", MAX_WALSH_LENGTH)
    _check_pow2(frm.shape[1], "frame cols", MAX_WALSH_LENGTH)
    if direction not in ("analysis", "synthesis"):
        raise ValueError(
            f"direction must be 'analysis' or 'synthesis', got {direction!r}")
    return _haar_frames(frm, inverse=direction == "synthesis")


class HaarBasis:
    """Frame-wise orthonormal 2-D Haar acting on band-by-pixel matrices.

    analyze/synthesize map each row (one flattened frame per band) through
    the 2-D wavelet transform and back.
    """

    def __init__(self, n_v, n_h):
        _check_pow2(n_v, "frame rows", MAX_WALSH_LENGTH)
        _check_pow2(n_h, "frame cols", MAX_WALSH_LENGTH)
        self.n_v = n_v
        self.n_h = n_h

    def _apply(self, x, inverse):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_v * self.n_h:
            raise ValueError(
                f"expected (bands, {self.n_v * self.n_h}) matrix, got {x.shape}")
        frames = frames_from_matrix(x, self.n_v, self.n_h)
        return matrix_from_frames(_haar_frames(frames, inverse))

    def analyze(self, x):
        return self._apply(x, inverse=False)

    def synthesize(self, c):
        return self._apply(c, inverse=True)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Square basis for band-axis representations, columns = basis vectors.

    The orthonormal flag is detected at construction. A non-orthonormal
    basis must be invertible (np.linalg.LinAlgError otherwise) and carries
    its cached inverse for the dictionary route of the hybrid solver.
    """

    matrix: np.ndarray
    degenerate: bool = False
    orthonormal: bool = field(init=False, default=False)
    pinv: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"spectral basis must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("spectral basis must be finite")
        object.__setattr__(self, "matrix", m)
        gram_err = np.abs(m.T @ m - np.eye(m.shape[0])).max()
        object.__setattr__(self, "orthonormal", bool(gram_err <= 1e-10))
        if not self.orthonormal:
            if np.linalg.matrix_rank(m) < m.shape[0]:
                raise np.linalg.LinAlgError(
                    "spectral basis is rank-deficient (singular dictionary)")
            object.__setattr__(self, "pinv", np.linalg.pinv(m))

    @property
    def n_s(self):
        return self.matrix.shape[0]


def identity_basis(n):
    return SpectralBasis(np.eye(n))


def learn_spectral_basis(samples):
    """Orthonormal band basis from sampled pixel spectra (one per column).

    Eigenvectors of the n_s x n_s Gram matrix of the samples, ordered by
    descending eigenvalue, signs fixed so the largest-magnitude entry of
    each column is positive. All-zero input falls back to the identity with
    the degenerate flag set.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError(f"samples must be n_s x m with m >= 1, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    n_s = s.shape[0]
    if not np.any(s):
        warnings.warn("all-zero spectral samples; falling back to identity basis")
        return SpectralBasis(np.eye(n_s), degenerate=True)
    w, v = np.linalg.eigh(s @ s.T)
    v = v[:, ::-1]  # descending eigenvalue order
    peaks = np.abs(v).argmax(axis=0)
    signs = np.where(v[peaks, np.arange(n_s)] < 0, -1.0, 1.0)
    return SpectralBasis(v * signs)


_MODES = ("analysis", "synthesis", "pinv_synthesis", "gram_inverse")


def basis_apply(basis, m, mode):
    """Apply the basis to an n_s-row matrix.

    modes: analysis (transpose), synthesis (plain), pinv_synthesis (inverse
    transpose), gram_inverse ((Psi Psi^T)^-1). For orthonormal bases
    pinv_synthesis is the plain synthesis and gram_inverse returns its input.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != basis.n_s:
        raise ValueError(
            f"expected ({basis.n_s}, cols) matrix for this basis, got {m.shape}")
    psi = basis.matrix
    if mode == "analysis":
        return psi.T @ m
    if mode == "synthesis":
        return psi @ m
    if basis.orthonormal:  # the inverse maps are the plain ones
        return psi @ m if mode == "pinv_synthesis" else m
    if mode == "pinv_synthesis":
        return basis.pinv.T @ m
    return np.linalg.solve(psi @ psi.T, m)
