"""Hyperspectral datacube container and its band-by-pixel matrix view.

A cube holds n_v x n_h spatial frames over n_s spectral bands. The solvers
work on the band-by-pixel matrix whose row k is frame k flattened
column-major (vertical index fastest), so pixel (i, j) sits at column
i + j * n_v.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Datacube:
    """Immutable-shape cube; data indexed [row, column, band], float64."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"cube data must be 3-d, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"cube dimensions must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cube data must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def n_v(self):
        return self.data.shape[0]

    @property
    def n_h(self):
        return self.data.shape[1]

    @property
    def n_s(self):
        return self.data.shape[2]

    @property
    def n_p(self):
        return self.data.shape[0] * self.data.shape[1]


def frames_from_matrix(x, n_v, n_h):
    """Unchecked view of (..., n_v * n_h) rows as (..., n_v, n_h) frames."""
    return x.reshape(x.shape[:-1] + (n_h, n_v)).swapaxes(-1, -2)


def checked_frames(x, n_v, n_h):
    """x as float64 (rows, n_v, n_h) frames; a ValueError unless x is a 2-d
    matrix of n_v * n_h columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_v * n_h:
        raise ValueError(f"matrix shape {x.shape} does not match a {n_v}x{n_h} grid")
    return frames_from_matrix(x, n_v, n_h)


def matrix_from_frames(frames):
    """Inverse of frames_from_matrix: each frame flattened column-major."""
    return frames.swapaxes(-1, -2).reshape(frames.shape[:-2] + (-1,))


def as_band_pixel_matrix(cube):
    """n_s x n_p matrix; row k is frame k flattened column-major."""
    return matrix_from_frames(np.moveaxis(cube.data, 2, 0))


def cube_from_matrix(x, n_v, n_h):
    """Inverse of as_band_pixel_matrix."""
    return Datacube(np.moveaxis(checked_frames(x, n_v, n_h), 0, 2))
