"""Orthonormal transforms used by the sensing operators and solvers.

Contains the sequency-ordered Walsh-Hadamard transform (rows scaled to unit
norm, so the transform is orthonormal and self-inverse), the JPEG-style
zig-zag coefficient ordering generalized to rectangles, the full-depth
orthonormal 2-D Haar wavelet transform, and spectral bases learned from
pixel samples.

Every Walsh transform is a product with one cached, read-only dense matrix
per length, capped at MAX_WALSH_LENGTH (2048, a 32 MiB matrix); up to that
length the dense product is faster than a butterfly in numpy.

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

_SQRT2 = np.sqrt(2.0)
# Longest axis a Walsh transform accepts; its dense matrix takes 32 MiB.
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


def _haar_last(a, inverse=False):
    """Full-depth orthonormal 1-D Haar along the last axis."""
    n = a.shape[-1]
    out = np.array(a, dtype=np.float64)
    if not inverse:
        size = n
        while size > 1:
            half = size // 2
            ev = out[..., 0:size:2].copy()
            od = out[..., 1:size:2].copy()
            out[..., :half] = (ev + od) / _SQRT2
            out[..., half:size] = (ev - od) / _SQRT2
            size = half
    else:
        size = 2
        while size <= n:
            half = size // 2
            lo = out[..., :half].copy()
            hi = out[..., half:size].copy()
            out[..., 0:size:2] = (lo + hi) / _SQRT2
            out[..., 1:size:2] = (lo - hi) / _SQRT2
            size *= 2
    return out


def _haar_axis(a, axis, inverse=False):
    return np.moveaxis(_haar_last(np.moveaxis(a, axis, -1), inverse), -1, axis)


def haar2d(frm, direction="analysis"):
    """Full-depth orthonormal 2-D Haar transform of a frame.

    direction "analysis" maps a frame to wavelet coefficients, "synthesis"
    inverts; the two compose to the identity.
    """
    frm = np.asarray(frm, dtype=np.float64)
    if frm.ndim != 2:
        raise ValueError(f"expected a frame, got shape {frm.shape}")
    _check_pow2(frm.shape[0], "frame rows")
    _check_pow2(frm.shape[1], "frame cols")
    if direction == "analysis":
        return _haar_axis(_haar_axis(frm, 0), 1)
    if direction == "synthesis":
        return _haar_axis(_haar_axis(frm, 0, inverse=True), 1, inverse=True)
    raise ValueError(f"direction must be 'analysis' or 'synthesis', got {direction!r}")


class HaarBasis:
    """Frame-wise orthonormal 2-D Haar acting on band-by-pixel matrices.

    analyze/synthesize map each row (one flattened frame per band) through
    the 2-D wavelet transform and back.
    """

    def __init__(self, n_v, n_h):
        _check_pow2(n_v, "frame rows")
        _check_pow2(n_h, "frame cols")
        self.n_v = n_v
        self.n_h = n_h

    def _frames(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_v * self.n_h:
            raise ValueError(
                f"expected (bands, {self.n_v * self.n_h}) matrix, got {x.shape}")
        return frames_from_matrix(x, self.n_v, self.n_h)

    def analyze(self, x):
        frames = self._frames(x)
        return matrix_from_frames(_haar_axis(_haar_axis(frames, 1), 2))

    def synthesize(self, c):
        frames = self._frames(c)
        return matrix_from_frames(
            _haar_axis(_haar_axis(frames, 1, inverse=True), 2, inverse=True))


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
