"""Separable compressive measurement operators.

Measurements are Y = Phi_s X Phi_p^T plus optional Gaussian noise. Each
axis stacks a low-pass block of leading sequency-ordered Walsh-Hadamard
coefficients over a seeded Rademacher block with rows scaled to unit norm;
each Rademacher sign is the top bit of one raw Philox word
(rng.negative_signs). Axes longer than MAX_WALSH_LENGTH, counts that
break 1 <= m <= n or 0 <= q <= m, a Rademacher block of more than
_MAX_RADEMACHER_ENTRIES entries, and a given scale that is not finite and
> 0 (or not 1 when q = m), are rejected before anything is built.

The spectral projector is one dense m_s x n_s matrix M (at most 2048 x
2048): its q_s leading Walsh rows over Rademacher rows drawn in row chunks
straight into M, applied as a single product. The spatial projector keeps
the zig-zag-first 2-D Walsh coefficients of each n_v x n_h frame over
Rademacher rows that its constructor draws once and stores packed, one sign
bit per entry, expanded to float64 +/-1 (+/-1/sqrt(2) when log2 n_p is
odd); the rest of 1/sqrt(n_p), a power of two, is a gain on each product,
so every output and scale is that of +/-1/sqrt(n_p) rows bit for bit.
Small spatial rows are also cached as float64; large ones are expanded
chunk by chunk instead of being held whole, once per apply, adjoint or
residual_and_adjoint. That fused pass runs both products of a chunk while
it is expanded: the solvers make one per iterate, and the spatial power
iteration one per step, at y = 0. A pass picks its chunk size from its
row count (see _WORKSET_BYTES).

Both projectors fold in a deterministic spectral normalization: the stacked
matrix is divided by a power-iteration estimate of its largest singular
value, so the combined operator X -> Phi_s X Phi_p^T has norm close to one
and the solvers' fixed step size is stable at every sampling rate. A purely
low-pass projector (q = m) is a partial isometry, so its scale is exactly 1.
A constructor given scale= uses that value instead of the estimate and
draws the same rows: an HSM2 file stores the scales of its acquisition, so
reading one skips the power iteration.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .datacube import frames_from_matrix, matrix_from_frames
from .transforms import _check_pow2, _walsh_rows, zigzag_indices

# Both axes draw their Rademacher rows in _CHUNK_ENTRIES row chunks. The
# spatial rows are kept as packed sign bits; at most _MATERIALIZE_LIMIT
# entries of them are also cached as float64, more are expanded in row
# chunks once per apply, adjoint and fused residual-and-adjoint pass. A pass
# over m input rows whose input, accumulator and product blocks (24 m n_p
# bytes) take at most two thirds of _WORKSET_BYTES fills the rest with each
# chunk, at most _CHUNK_ENTRIES entries, so that both stay in a 2 MiB L2
# cache: 24 rows at 64x64 with m = 8, not 256. Other passes keep
# _CHUNK_ENTRIES chunks, since smaller ones ran slower there: a fused pass at
# 64x64 took 25 and 28 ms in the 12 and 9 rows this rule would give m = 12
# and 13 against 23 and 24 ms in 256, and at 128x128 with m = 8 276 ms in
# 4 rows against 186 ms in 64.
_MATERIALIZE_LIMIT = 1 << 22
_CHUNK_ENTRIES = 1 << 20
_WORKSET_BYTES = 3 << 19
_NORM_ITERATIONS = 50
# Largest Rademacher block a projector may draw: 256 MiB of packed spatial
# signs, enough for 128x128 frames at any rate and 256x256 at r_p <= 0.5.
_MAX_RADEMACHER_ENTRIES = 1 << 31


def check_rates(r_p, r_s):
    for rate, what in ((r_p, "spatial"), (r_s, "spectral")):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"{what} rate must be in (0, 1], got {rate}")


def rates_to_counts(r_p, r_s, n_p, n_s):
    """Projection counts (m_p, m_s) for rates in (0, 1], round-half-up."""
    check_rates(r_p, r_s)
    counts = []
    for rate, n, what in ((r_p, n_p, "spatial"), (r_s, n_s, "spectral")):
        if n < 1:
            raise ValueError(f"{what} dimension must be >= 1, got {n}")
        counts.append(min(n, max(1, int(math.floor(rate * n + 0.5)))))
    return counts[0], counts[1]


def default_lowpass_counts(n_p, n_s, m_p, m_s, q_p=None, q_s=None):
    """Default low-pass block sizes: ten percent of n_p, five percent of n_s.

    Counts are clamped to the projection budget (with a warning) since the
    low-pass block cannot exceed the total row count. At full rate (m = n)
    the complete orthonormal transform is used instead, making acquisition
    an isometry. A count given as q_p or q_s is returned as it is, and only
    a count that is not given is defaulted or warned about.
    """
    out = []
    for frac, n, m, q, what in ((0.1, n_p, m_p, q_p, "spatial"),
                                (0.05, n_s, m_s, q_s, "spectral")):
        if q is None and m == n:
            q = n
        elif q is None:
            q = int(math.floor(frac * n + 0.5))
            if q > m:
                warnings.warn(
                    f"{what} low-pass count {q} exceeds the projection "
                    f"budget {m}; clamping to {m}")
                q = m
        out.append(q)
    return out[0], out[1]


def _power_norm(gram_fn, dim, gen):
    """Largest singular value estimate by power iteration on a Gram map."""
    v = rng.gaussian(gen, (dim,))
    v /= np.linalg.norm(v)
    sigma2 = 1.0
    for _ in range(_NORM_ITERATIONS):
        w = gram_fn(v)
        sigma2 = np.linalg.norm(w)
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
    return float(np.sqrt(sigma2))


def _check_counts(n, m, q, scale, what):
    if m < 1 or m > n:
        raise ValueError(
            f"{what} projection count must satisfy 1 <= m <= {n}, got {m}")
    if q < 0 or q > m:
        raise ValueError(
            f"{what} low-pass count must satisfy 0 <= q <= m={m}, got {q}")
    if (m - q) * n > _MAX_RADEMACHER_ENTRIES:
        raise ValueError(f"{what} Rademacher block of {m - q} x {n} entries "
                         f"exceeds {_MAX_RADEMACHER_ENTRIES}")
    if scale is None:
        return
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"{what} scale must be finite and > 0, got {scale}")
    if q == m and scale != 1.0:
        raise ValueError(f"{what} scale must be 1 on a purely low-pass axis "
                         f"(q = m = {m}), got {scale}")


class SpatialProjector:
    """Pixel-axis projector on n_v x n_h frames flattened column-major: q_p
    zig-zag 2-D WHT coefficients over (m_p - q_p) Rademacher rows of
    +/-1/sqrt(n_p), held as packed signs and expanded to +/-u, all
    multiplied by scale (by default the inverse of a power-iteration
    estimate of the stacked matrix's norm), acting on (bands, n_p) matrices."""

    def __init__(self, n_v, n_h, m_p, q_p, seed, *, scale=None):
        _check_pow2(n_v, "frame rows")
        _check_pow2(n_h, "frame cols")
        self.n_v, self.n_h, self.n_p = n_v, n_h, n_v * n_h
        _check_counts(self.n_p, m_p, q_p, scale, "spatial")
        self.m_p, self.q_p, self.seed = m_p, q_p, rng.check_seed(seed)
        # the zig-zag prefix lies in the leading rows and columns of the grid
        self._rows, self._cols = zigzag_indices(n_v, n_h, q_p).T
        self._wv = _walsh_rows(n_v, self._rows.max(initial=-1) + 1)
        self._wh = _walsh_rows(n_h, self._cols.max(initial=-1) + 1)
        rows = m_p - q_p
        # 1/sqrt(n_p) is 2^-k * u exactly, k = floor(log2(n_p) / 2), u = 1 or
        # 1/sqrt(2): the products carry 2^-k, which commutes with rounding
        k = (self.n_p.bit_length() - 1) // 2
        self._unit, self._gain = 1.0 / np.sqrt(self.n_p >> 2 * k), 2.0 ** -k
        self._chunk = max(1, _CHUNK_ENTRIES // self.n_p)
        gen = rng.stream(self.seed, rng.SPATIAL_RADEMACHER)
        self._signs = np.empty((rows, (self.n_p + 7) // 8), np.uint8)
        for lo in range(0, rows, self._chunk):
            hi = min(lo + self._chunk, rows)
            # one expression: no draw outlives its packing
            self._signs[lo:hi] = np.packbits(
                rng.negative_signs(gen, (hi - lo, self.n_p)), axis=1)
        self._cache = None
        if rows * self.n_p <= _MATERIALIZE_LIMIT:
            self._cache = self._expand(0, rows, np.empty((rows, self.n_p)))
        self.scale = 1.0 if scale is None else float(scale)
        if scale is None and q_p < m_p:
            # at scale 1 the fused pass at y = 0 is -adjoint(apply(v)) bit
            # for bit, and the norm ignores the sign
            zero = np.zeros(m_p)
            gen = rng.stream(self.seed, rng.SPATIAL_NORM)
            self.scale = 1.0 / _power_norm(
                lambda v: self.residual_and_adjoint(zero, v)[1], self.n_p, gen)

    def _expand(self, lo, hi, out):
        """Rademacher rows lo:hi as float64 +/-u into out: a plain cast of
        the signs when u = 1, one multiply when log2 n_p is odd."""
        signs = np.unpackbits(self._signs[lo:hi], axis=1,
                              count=self.n_p).view(np.int8)
        signs *= -2
        signs += 1  # 1 - 2b in place: +1 or -1, one float64 pass below
        if self._unit == 1.0:
            np.copyto(out, signs)
            return out
        return np.multiply(signs, self._unit, out=out)

    def _blocks(self, m):
        """(first output row, Rademacher rows) pairs for a pass over m input
        rows: the cached block when there is one, else chunks sized by the
        _WORKSET_BYTES rule, expanded into one buffer reused per call."""
        q = self.q_p
        if self._cache is not None:
            yield q, self._cache
            return
        rows, n = self.m_p - q, self.n_p
        chunk = self._chunk
        if 3 * 24 * m * n <= 2 * _WORKSET_BYTES:
            chunk = min((_WORKSET_BYTES - 24 * m * n) // (8 * n), chunk)
        buf = np.empty((min(chunk, rows), n))
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            yield q + lo, self._expand(lo, hi, buf[:hi - lo])

    def _low(self, x):
        coeff = self._wv @ frames_from_matrix(x, self.n_v, self.n_h) @ self._wh.T
        return coeff[..., self._rows, self._cols]

    def _low_adjoint(self, y):
        coeff = np.zeros(y.shape[:-1] + (len(self._wv), len(self._wh)))
        coeff[..., self._rows, self._cols] = y
        return matrix_from_frames(self._wv.T @ coeff @ self._wh)

    def apply(self, x):
        """x: (..., n_p) -> (..., m_p)."""
        out = np.empty(x.shape[:-1] + (self.m_p,))
        out[..., :self.q_p] = self._low(x)
        for lo, block in self._blocks(math.prod(x.shape[:-1])):
            np.multiply(x @ block.T, self._gain,
                        out=out[..., lo:lo + len(block)])
        return self.scale * out

    def adjoint(self, y):
        """y: (..., m_p) -> (..., n_p)."""
        back = np.zeros(y.shape[:-1] + (self.n_p,))
        for lo, block in self._blocks(math.prod(y.shape[:-1])):
            back += y[..., lo:lo + len(block)] @ block
        back *= self._gain
        return self.scale * (self._low_adjoint(y[..., :self.q_p]) + back)

    def residual_and_adjoint(self, y, x):
        """(y - apply(x), adjoint(y - apply(x))) bit for bit, expanding each
        Rademacher chunk once for both products."""
        q = self.q_p
        resid = np.empty(y.shape)
        resid[..., :q] = y[..., :q] - self.scale * self._low(x)
        back = np.zeros(x.shape[:-1] + (self.n_p,))
        gain = self.scale * self._gain
        for lo, block in self._blocks(math.prod(x.shape[:-1])):
            hi = lo + len(block)
            np.subtract(y[..., lo:hi], gain * (x @ block.T),
                        out=resid[..., lo:hi])
            back += resid[..., lo:hi] @ block
        back *= self._gain
        return resid, self.scale * (self._low_adjoint(resid[..., :q]) + back)


class SpectralProjector:
    """Band-axis projector: one dense m_s x n_s matrix M, q_s leading
    sequency WHT rows over (m_s - q_s) Rademacher rows, multiplied by scale
    (by default the inverse of a power-iteration estimate of its norm),
    acting on (n_s, cols) matrices."""

    def __init__(self, n_s, m_s, q_s, seed, *, scale=None):
        _check_pow2(n_s, "band count")
        _check_counts(n_s, m_s, q_s, scale, "spectral")
        self.n_s, self.m_s, self.q_s = n_s, m_s, q_s
        self.seed = rng.check_seed(seed)
        gen = rng.stream(self.seed, rng.SPECTRAL_RADEMACHER)
        self._m = np.empty((m_s, n_s))
        self._m[:q_s] = _walsh_rows(n_s, q_s)
        s = 1.0 / np.sqrt(n_s)
        chunk = max(1, _CHUNK_ENTRIES // n_s)
        for lo in range(q_s, m_s, chunk):  # the Rademacher rows, +/-s
            hi = min(lo + chunk, m_s)
            self._m[lo:hi] = np.where(rng.negative_signs(gen, (hi - lo, n_s)),
                                      -s, s)
        self.scale = 1.0 if scale is None else float(scale)
        if scale is None and q_s < m_s:
            gen = rng.stream(self.seed, rng.SPECTRAL_NORM)
            self.scale = 1.0 / _power_norm(
                lambda v: self._m.T @ (self._m @ v), n_s, gen)

    def apply(self, x):
        """x: (n_s, cols) -> (m_s, cols)."""
        return self.scale * (self._m @ x)

    def adjoint(self, y):
        """y: (m_s, cols) -> (n_s, cols)."""
        return self.scale * (self._m.T @ y)


@dataclass(frozen=True, eq=False)
class Measurements:
    """Acquired matrix plus everything needed to rebuild the operators."""

    y: np.ndarray
    spectral: SpectralProjector
    spatial: SpatialProjector
    sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        sp, pp = self.spectral, self.spatial
        y = _check_shape(self.y, (sp.m_s, pp.m_p), "measurement shape")
        check_noise_level(self.sigma)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "noise_seed", rng.check_seed(self.noise_seed))


def check_noise_level(sigma):
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"noise level must be finite and >= 0, got {sigma}")


def _check_shape(a, shape, noun):
    """a as float64, refused unless its shape is the projectors' shape."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{noun} {a.shape} does not match projectors {shape}")
    return a


def project(x, sp, pp):
    """Phi_s X Phi_p^T via the fast operators."""
    x = _check_shape(x, (sp.n_s, pp.n_p), "band-by-pixel matrix shape")
    return pp.apply(sp.apply(x))


def adjoint(y, sp, pp):
    """Phi_s^T Y Phi_p via the fast operators."""
    y = _check_shape(y, (sp.m_s, pp.m_p), "measurement shape")
    return sp.adjoint(pp.adjoint(y))


def residual_and_adjoint(y, x, sp, pp):
    """(y - project(x), adjoint(y - project(x))) bit for bit, expanding each
    chunk of a chunked spatial Rademacher block once instead of twice."""
    x = _check_shape(x, (sp.n_s, pp.n_p), "band-by-pixel matrix shape")
    y = _check_shape(y, (sp.m_s, pp.m_p), "measurement shape")
    resid, z = pp.residual_and_adjoint(y, sp.apply(x))
    return resid, sp.adjoint(z)


def acquire(x, sp, pp, sigma, noise_seed=0):
    """Noisy acquisition: project(x) plus i.i.d. zero-mean Gaussian noise."""
    check_noise_level(sigma)
    y = project(x, sp, pp)
    if sigma > 0:
        y = y + rng.gaussian(rng.stream(noise_seed, rng.NOISE), y.shape, sigma)
    return Measurements(y=y, spectral=sp, spatial=pp, sigma=float(sigma),
                        noise_seed=noise_seed)


def operator_norm_estimate(sp, pp):
    """Power-iteration estimate of the combined operator's spectral norm, on
    the fused pass at y = 0: -adjoint(project(v)) bit for bit."""
    shape, zero = (sp.n_s, pp.n_p), np.zeros((sp.m_s, pp.m_p))
    return _power_norm(
        lambda v: residual_and_adjoint(zero, v.reshape(shape), sp, pp)[1].ravel(),
        sp.n_s * pp.n_p, rng.stream(0, rng.COMBINED_NORM))
