"""Transforms used by the sensing operators and solvers.

Contains the sequency-ordered Walsh-Hadamard transform (rows scaled to unit
norm, so the transform is orthonormal and self-inverse), the JPEG-style
zig-zag coefficient ordering generalized to rectangles, the full-depth
orthonormal 2-D Haar wavelet transform, and spectral bases (learned from
pixel samples or given; any invertible matrix) whose constructor builds
every basis_apply map.

Every Walsh and Haar transform is a product with a dense matrix that its
caller builds and holds: an operator builds only the Walsh rows it applies,
and a HaarBasis its two matrices, in its constructor. Lengths are capped at
MAX_WALSH_LENGTH (2048, a 32 MiB full matrix); up to that length the dense
product is faster than a butterfly in numpy.

Note on scaling: the classic hardware realization of Walsh-Hadamard sensing
uses +/-1 entries. All transforms here are row-normalized (entries +/-1/sqrt(n))
instead, which makes every matrix orthonormal and keeps operator norms near
one; the +/-1 convention is the same operator times sqrt(n).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datacube import checked_frames, matrix_from_frames

# Longest axis a Walsh or Haar transform accepts; its full matrix takes 32 MiB.
MAX_WALSH_LENGTH = 2048


def check_pow2(n, what):
    """The grid rule: n (named what) is a power of two <= MAX_WALSH_LENGTH."""
    if not rng.is_integer(n) or n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")
    if n > MAX_WALSH_LENGTH:
        raise ValueError(f"{what} must be at most {MAX_WALSH_LENGTH}, got {n}")


def walsh_rows(n, count=None):
    """First count rows (all n by default) of the orthonormal
    sequency-ordered Walsh matrix of length n.

    Row k, the one with exactly k sign changes, is Sylvester Hadamard row
    bitrev(g) divided by sqrt(n), with g = k ^ (k >> 1) the Gray code of k.
    Bit i of bitrev(g) is bit b-1-i of g (n = 2^b), so entry (k, j) is
    (-1)^(sum_i bit(g, b-1-i) bit(j, i)) / sqrt(n). The full matrix is
    symmetric, so it is its own inverse. A count that is not an integer in
    [0, n] is refused.
    """
    check_pow2(n, "transform length")
    if count is not None and not (rng.is_integer(count) and 0 <= count <= n):
        raise ValueError(f"row count must be an integer in [0, {n}], "
                         f"got {count!r}")
    b = int(n).bit_length() - 1
    shift = np.arange(b)
    k = np.arange(n)[:count]
    g = k ^ (k >> 1)
    a = (g[:, None] >> (b - 1 - shift)) & 1
    j = (np.arange(n)[:, None] >> shift) & 1
    return np.where((a @ j.T) & 1, -1.0, 1.0) / np.sqrt(n)


def _haar_matrix(n):
    """Orthonormal full-depth Haar analysis matrix of length n.

    Row 0 is constant. Row k = 2^j + t (level j, offset t) is the detail
    wavelet of width w = n / 2^j on columns [t*w, (t+1)*w): +1/sqrt(w) on
    its first half, -1/sqrt(w) on its second. So the rows run coarse to
    fine, left to right within a level, and H^T is the inverse.
    """
    check_pow2(n, "transform length")
    k = np.arange(n)[:, None]
    level = np.frexp(np.maximum(k, 1))[1] - 1  # floor(log2 k), exact
    w = n >> level
    col = np.arange(n)
    sign = np.where(col % w < w // 2, 1.0, -1.0)
    h = np.where(col // w == k - (1 << level), sign, 0.0) / np.sqrt(w)
    h[0] = 1.0 / np.sqrt(n)
    return h


def zigzag_indices(n_v, n_h, count=None):
    """(row, col) pairs in JPEG-style zig-zag order over an n_v x n_h grid.

    Anti-diagonals d = 0 .. n_v+n_h-2; even diagonals run bottom-left to
    top-right, odd ones top-right to bottom-left, clipped at the borders.
    Returns an int array of shape (count, 2); the first B pairs select the
    B "top-left" coefficients. A count that is not an integer >= 0 is
    refused; one above n_v * n_h gives all the pairs.
    """
    if not (rng.is_integer(n_v) and rng.is_integer(n_h)) or n_v < 1 or n_h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {n_v}x{n_h}")
    if count is not None and not (rng.is_integer(count) and count >= 0):
        raise ValueError(f"coefficient count must be an integer >= 0, "
                         f"got {count!r}")
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


class HaarBasis:
    """Frame-wise orthonormal 2-D Haar acting on band-by-pixel matrices.

    analyze/synthesize map each row (one flattened frame per band) through
    the 2-D wavelet transform and back.
    """

    def __init__(self, n_v, n_h):
        check_pow2(n_v, "frame rows")
        check_pow2(n_h, "frame cols")
        self.n_v, self.n_h = n_v, n_h
        self._hv, self._hh = _haar_matrix(n_v), _haar_matrix(n_h)

    def _apply(self, x, inverse):
        # analysis H_v F H_h^T, synthesis H_v^T C H_h, on every frame at once
        frames = checked_frames(x, self.n_v, self.n_h)
        return matrix_from_frames(self._hv.T @ frames @ self._hh if inverse
                                  else self._hv @ frames @ self._hh.T)

    def analyze(self, x):
        return self._apply(x, inverse=False)

    def synthesize(self, c):
        return self._apply(c, inverse=True)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Square basis for band-axis representations, columns = basis vectors.

    Any invertible matrix is a basis (np.linalg.LinAlgError otherwise).
    The constructor builds the matrix of every basis_apply mode, so a call
    is one product: for a non-orthonormal Psi the inverse maps come from
    pinv(Psi), for an orthonormal one they are the plain maps.
    """

    matrix: np.ndarray
    _maps: dict = field(init=False, default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"spectral basis must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("spectral basis must be finite")
        object.__setattr__(self, "matrix", m)
        orthonormal = np.abs(m.T @ m - np.eye(m.shape[0])).max() <= 1e-10
        # None stands for the identity: gram_inverse returns its input
        maps = {"analysis": m.T, "pinv_synthesis": m, "gram_inverse": None}
        if not orthonormal:
            if np.linalg.matrix_rank(m) < m.shape[0]:
                raise np.linalg.LinAlgError(
                    "spectral basis is rank-deficient (singular dictionary)")
            pinv = np.linalg.pinv(m)
            maps.update(pinv_synthesis=pinv.T, gram_inverse=pinv.T @ pinv)
        object.__setattr__(self, "_maps", maps)

    @property
    def n_s(self):
        return self.matrix.shape[0]


def learn_spectral_basis(samples):
    """Orthonormal band basis from sampled pixel spectra (one per column).

    Eigenvectors of the n_s x n_s Gram matrix of the samples, ordered by
    descending eigenvalue, signs fixed so the largest-magnitude entry of
    each column is positive. All-zero input falls back to the identity, with
    a warning.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError(f"samples must be n_s x m with m >= 1, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    n_s = s.shape[0]
    if not np.any(s):
        warnings.warn("all-zero spectral samples; falling back to identity basis")
        return SpectralBasis(np.eye(n_s))
    w, v = np.linalg.eigh(s @ s.T)
    v = v[:, ::-1]  # descending eigenvalue order
    peaks = np.abs(v).argmax(axis=0)
    signs = np.where(v[peaks, np.arange(n_s)] < 0, -1.0, 1.0)
    return SpectralBasis(v * signs)


def basis_apply(basis, m, mode):
    """Apply the basis to an n_s-row matrix.

    modes: analysis (Psi^T), pinv_synthesis (Psi^-T) and gram_inverse
    ((Psi Psi^T)^-1). For an orthonormal basis pinv_synthesis is Psi and
    gram_inverse returns its input.
    """
    if mode not in basis._maps:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {tuple(basis._maps)}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != basis.n_s:
        raise ValueError(
            f"expected ({basis.n_s}, cols) matrix for this basis, got {m.shape}")
    op = basis._maps[mode]
    return m if op is None else op @ m
