"""Separable compressive measurement operators.

Each axis gets a projector with two stacked blocks: a low-pass block made of
leading sequency-ordered Walsh-Hadamard coefficients (zig-zag-selected 2-D
coefficients on the spatial axis, leading rows on the spectral axis) and a
seeded Rademacher block with rows scaled to unit norm. Measurements are
Y = Phi_s X Phi_p^T plus optional Gaussian noise.

Both projectors fold in a deterministic spectral normalization: the stacked
matrix is divided by a power-iteration estimate of its largest singular
value, so the combined operator X -> Phi_s X Phi_p^T has norm close to one
and the solvers' fixed step size is stable at every sampling rate. A purely
low-pass projector (q = m) is a partial isometry, so its scale is exactly 1.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .transforms import _check_pow2, _walsh_axis, zigzag_indices

# Rademacher blocks larger than this many entries are regenerated in row
# chunks per call instead of being cached.
_MATERIALIZE_LIMIT = 1 << 22
_CHUNK_ENTRIES = 1 << 20
_NORM_ITERATIONS = 50


def rates_to_counts(r_p, r_s, n_p, n_s):
    """Projection counts (m_p, m_s) for rates in (0, 1], round-half-up."""
    counts = []
    for rate, n, what in ((r_p, n_p, "spatial"), (r_s, n_s, "spectral")):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"{what} rate must be in (0, 1], got {rate}")
        if n < 1:
            raise ValueError(f"{what} dimension must be >= 1, got {n}")
        counts.append(min(n, max(1, int(math.floor(rate * n + 0.5)))))
    return counts[0], counts[1]


def default_lowpass_counts(n_p, n_s, m_p, m_s):
    """Default low-pass block sizes: ten percent of n_p, five percent of n_s.

    Counts are clamped to the projection budget (with a warning) since the
    low-pass block cannot exceed the total row count. At full rate (m = n)
    the complete orthonormal transform is used instead, making acquisition
    an isometry.
    """
    out = []
    for frac, n, m, what in ((0.1, n_p, m_p, "spatial"), (0.05, n_s, m_s, "spectral")):
        if m == n:
            out.append(n)
            continue
        q = int(math.floor(frac * n + 0.5))
        if q > m:
            warnings.warn(
                f"{what} low-pass count {q} exceeds the projection budget {m}; "
                f"clamping to {m}")
            q = m
        out.append(q)
    return out[0], out[1]


class _RademacherBlock:
    """Seeded unit-row-norm +/-1/sqrt(n) block, materialized only when small."""

    def __init__(self, rows, n, seed, purpose):
        self.rows = rows
        self.n = n
        self.seed = seed
        self.purpose = purpose
        self._cache = None

    def _generate(self):
        gen = rng.stream(self.seed, self.purpose)
        scale = 1.0 / np.sqrt(self.n)
        chunk = max(1, _CHUNK_ENTRIES // self.n)
        done = 0
        while done < self.rows:
            take = min(chunk, self.rows - done)
            yield rng.rademacher(gen, (take, self.n)) * scale
            done += take

    def _matrix(self):
        if self._cache is None:
            # fill in place: the chunks never coexist with the whole block
            matrix = np.empty((self.rows, self.n))
            done = 0
            for block in self._generate():
                matrix[done:done + block.shape[0]] = block
                done += block.shape[0]
            self._cache = matrix
        return self._cache

    def apply(self, x):
        """x: (..., n) -> (..., rows)."""
        if self.rows == 0:
            return np.zeros(x.shape[:-1] + (0,))
        if self.rows * self.n <= _MATERIALIZE_LIMIT:
            return x @ self._matrix().T
        out = np.empty(x.shape[:-1] + (self.rows,))
        done = 0
        for block in self._generate():
            out[..., done:done + block.shape[0]] = x @ block.T
            done += block.shape[0]
        return out

    def adjoint(self, y):
        """y: (..., rows) -> (..., n)."""
        if self.rows == 0:
            return np.zeros(y.shape[:-1] + (self.n,))
        if self.rows * self.n <= _MATERIALIZE_LIMIT:
            return y @ self._matrix()
        out = np.zeros(y.shape[:-1] + (self.n,))
        done = 0
        for block in self._generate():
            out += y[..., done:done + block.shape[0]] @ block
            done += block.shape[0]
        return out


def _power_norm(apply_fn, adjoint_fn, dim, gen, iterations=_NORM_ITERATIONS):
    """Largest singular value estimate by power iteration on the gram map."""
    v = rng.gaussian(gen, (dim,))
    v /= np.linalg.norm(v)
    sigma2 = 1.0
    for _ in range(iterations):
        w = adjoint_fn(apply_fn(v))
        sigma2 = np.linalg.norm(w)
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
    return float(np.sqrt(sigma2))


def _validate_counts(n, m, q, what):
    if m < 1 or m > n:
        raise ValueError(f"{what} projection count must satisfy 1 <= m <= {n}, got {m}")
    if q < 0 or q > m:
        raise ValueError(f"{what} low-pass count must satisfy 0 <= q <= m={m}, got {q}")


class SpatialProjector:
    """Pixel-axis projector: q_p zig-zag 2-D WHT coefficients over
    (m_p - q_p) Rademacher rows, all scaled by the spectral normalization."""

    def __init__(self, n_v, n_h, m_p, q_p, seed):
        _check_pow2(n_v, "frame rows")
        _check_pow2(n_h, "frame cols")
        n_p = n_v * n_h
        _validate_counts(n_p, m_p, q_p, "spatial")
        self.n_v, self.n_h, self.n_p = n_v, n_h, n_p
        self.m_p, self.q_p = m_p, q_p
        self.seed = int(seed)
        zz = zigzag_indices(n_v, n_h, q_p)
        self.zigzag_rows = zz[:, 0]
        self.zigzag_cols = zz[:, 1]
        self._rad = _RademacherBlock(m_p - q_p, n_p, self.seed,
                                     rng.SPATIAL_RADEMACHER)
        if q_p == m_p:
            self.scale = 1.0
        else:
            est = _power_norm(self._apply_raw_vec, self._adjoint_raw_vec, n_p,
                              rng.stream(self.seed, rng.SPATIAL_NORM))
            self.scale = 1.0 / est

    def _frames(self, x):
        return x.reshape(x.shape[0], self.n_h, self.n_v).swapaxes(1, 2)

    def _apply_raw(self, x):
        """x: (bands, n_p) -> (bands, m_p), unscaled."""
        coeff = _walsh_axis(_walsh_axis(self._frames(x), 1), 2)
        low = coeff[:, self.zigzag_rows, self.zigzag_cols]
        return np.concatenate([low, self._rad.apply(x)], axis=1)

    def _adjoint_raw(self, y):
        """y: (bands, m_p) -> (bands, n_p), unscaled."""
        coeff = np.zeros((y.shape[0], self.n_v, self.n_h))
        coeff[:, self.zigzag_rows, self.zigzag_cols] = y[:, :self.q_p]
        spread = _walsh_axis(_walsh_axis(coeff, 1), 2)  # transform is self-inverse
        low = spread.swapaxes(1, 2).reshape(y.shape[0], self.n_p)
        return low + self._rad.adjoint(y[:, self.q_p:])

    def _apply_raw_vec(self, v):
        return self._apply_raw(v[None, :])[0]

    def _adjoint_raw_vec(self, v):
        return self._adjoint_raw(v[None, :])[0]

    def apply(self, x):
        return self.scale * self._apply_raw(x)

    def adjoint(self, y):
        return self.scale * self._adjoint_raw(y)


class SpectralProjector:
    """Band-axis projector: q_s leading sequency WHT rows over
    (m_s - q_s) Rademacher rows, scaled like the spatial projector."""

    def __init__(self, n_s, m_s, q_s, seed):
        _check_pow2(n_s, "band count")
        _validate_counts(n_s, m_s, q_s, "spectral")
        self.n_s, self.m_s, self.q_s = n_s, m_s, q_s
        self.seed = int(seed)
        self._rad = _RademacherBlock(m_s - q_s, n_s, self.seed,
                                     rng.SPECTRAL_RADEMACHER)
        if q_s == m_s:
            self.scale = 1.0
        else:
            est = _power_norm(self._apply_raw_vec, self._adjoint_raw_vec, n_s,
                              rng.stream(self.seed, rng.SPECTRAL_NORM))
            self.scale = 1.0 / est

    def _apply_raw(self, x):
        """x: (n_s, cols) -> (m_s, cols), unscaled."""
        low = _walsh_axis(x, 0)[:self.q_s]
        rad = self._rad.apply(x.T).T
        return np.concatenate([low, rad], axis=0)

    def _adjoint_raw(self, y):
        """y: (m_s, cols) -> (n_s, cols), unscaled."""
        padded = np.zeros((self.n_s, y.shape[1]))
        padded[:self.q_s] = y[:self.q_s]
        low = _walsh_axis(padded, 0)
        return low + self._rad.adjoint(y[self.q_s:].T).T

    def _apply_raw_vec(self, v):
        return self._apply_raw(v[:, None])[:, 0]

    def _adjoint_raw_vec(self, v):
        return self._adjoint_raw(v[:, None])[:, 0]

    def apply(self, x):
        return self.scale * self._apply_raw(x)

    def adjoint(self, y):
        return self.scale * self._adjoint_raw(y)


@dataclass(frozen=True, eq=False)
class Measurements:
    """Acquired matrix plus everything needed to rebuild the operators."""

    y: np.ndarray
    spectral: SpectralProjector
    spatial: SpatialProjector
    sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        expected = (self.spectral.m_s, self.spatial.m_p)
        if y.shape != expected:
            raise ValueError(f"measurement shape {y.shape} does not match "
                             f"projector output {expected}")
        object.__setattr__(self, "y", y)


def _check_cube_shape(x, sp, pp):
    if x.shape != (sp.n_s, pp.n_p):
        raise ValueError(f"band-by-pixel matrix shape {x.shape} does not match "
                         f"projectors ({sp.n_s}, {pp.n_p})")


def project(x, sp, pp):
    """Phi_s X Phi_p^T via the fast operators."""
    x = np.asarray(x, dtype=np.float64)
    _check_cube_shape(x, sp, pp)
    return pp.apply(sp.apply(x))


def adjoint(y, sp, pp):
    """Phi_s^T Y Phi_p via the fast operators."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sp.m_s, pp.m_p):
        raise ValueError(f"measurement shape {y.shape} does not match "
                         f"projector output ({sp.m_s}, {pp.m_p})")
    return sp.adjoint(pp.adjoint(y))


def acquire(x, sp, pp, sigma, noise_seed=0):
    """Noisy acquisition: project(x) plus i.i.d. zero-mean Gaussian noise."""
    if sigma < 0:
        raise ValueError(f"noise standard deviation must be >= 0, got {sigma}")
    y = project(x, sp, pp)
    if sigma > 0:
        y = y + rng.gaussian(rng.stream(noise_seed, rng.NOISE), y.shape, sigma)
    return Measurements(y=y, spectral=sp, spatial=pp, sigma=float(sigma),
                        noise_seed=int(noise_seed))


def operator_norm_estimate(sp, pp, iterations=_NORM_ITERATIONS, seed=0):
    """Power-iteration estimate of the combined operator's spectral norm."""
    def apply_fn(v):
        return project(v.reshape(sp.n_s, pp.n_p), sp, pp).ravel()

    def adjoint_fn(w):
        return adjoint(w.reshape(sp.m_s, pp.m_p), sp, pp).ravel()

    gen = rng.stream(seed, rng.COMBINED_NORM)
    return _power_norm(apply_fn, adjoint_fn, sp.n_s * pp.n_p, gen, iterations)
