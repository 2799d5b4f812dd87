"""Binary file formats for datacubes and measurement sets.

Cube files ("HSC1"): magic, then n_v, n_h, n_s as little-endian uint32,
then the band-by-pixel matrix as little-endian float32 in row-major order
(band-major, column-major pixels within each band).

Measurement files ("HSM2"): magic, the projector shape counts and grid
dimensions as uint32, the three generator seeds as uint64, then the noise
level and the spectral and spatial projector scales as float64 (80 bytes
in all), followed by the measurement matrix as little-endian float32 in
row-major order. The projector matrices are not stored; they are rebuilt
from the seeds on read, which keeps files small. The scales are stored
because estimating one takes 50 power-iteration passes over the rows, most
of a build, and its last bit depends on the BLAS thread count: a reader
given the acquisition's scales skips that work and rebuilds exactly the
operators used at acquisition time.

The older "HSM1" layout, the same header without the two scales (64
bytes), is still read; its scales are estimated on read as before.

Both writers refuse a payload that is not finite as float32 before they
open the file, as read_measurements and Datacube refuse one on read, so
neither writer leaves a file that its reader refuses.

A measurement file is refused, before any large allocation, if it declares
a cube of more than 2^27 entries or a Rademacher block, (m - q) rows of n
entries on either axis, of more than 2^31 entries (256 MiB of packed
spatial signs; sensing._MAX_RADEMACHER_ENTRIES). No projector over that
bound can be built, so no written file declares one.
"""

import struct

import numpy as np

from .datacube import as_band_pixel_matrix, cube_from_matrix
from .sensing import Measurements, SpatialProjector, SpectralProjector

_CUBE_MAGIC = b"HSC1"
_CUBE_HEADER = struct.Struct("<4s3I")
_MEAS_MAGIC = b"HSM2"
# the header after the magic: HSM2 ends in sigma and the two scales
_MEAS_FIELDS = {b"HSM1": struct.Struct("<7I3Qd"),
                _MEAS_MAGIC: struct.Struct("<7I3Q3d")}
# Largest cube a measurement file may declare: 1 GiB of float64 samples.
_MAX_CUBE_ENTRIES = 1 << 27


def _float32_payload(path, a):
    """a as contiguous little-endian float32; a ValueError unless every
    sample is finite there."""
    with np.errstate(over="ignore"):
        x = np.ascontiguousarray(a, dtype="<f4")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: payload is not finite in float32")
    return x


def write_cube(path, cube):
    x = _float32_payload(path, as_band_pixel_matrix(cube))
    with open(path, "wb") as fh:
        fh.write(_CUBE_HEADER.pack(_CUBE_MAGIC, cube.n_v, cube.n_h, cube.n_s))
        fh.write(x.tobytes())


def read_cube(path):
    with open(path, "rb") as fh:
        header = fh.read(_CUBE_HEADER.size)
        if len(header) < _CUBE_HEADER.size:
            raise ValueError(f"{path}: truncated cube header")
        magic, n_v, n_h, n_s = _CUBE_HEADER.unpack(header)
        if magic != _CUBE_MAGIC:
            raise ValueError(f"{path}: not a cube file (bad magic {magic!r})")
        payload = fh.read()
    expected = n_v * n_h * n_s
    x = np.frombuffer(payload, dtype="<f4")
    if x.size != expected:
        raise ValueError(f"{path}: expected {expected} samples, found {x.size}")
    return cube_from_matrix(x.astype(np.float64).reshape(n_s, n_v * n_h), n_v, n_h)


def write_measurements(path, meas):
    sp, pp = meas.spectral, meas.spatial
    seeds = (sp.seed, pp.seed, meas.noise_seed)
    # checked before the file is opened: a bad header or payload leaves none
    if not all(0 <= seed < 1 << 64 for seed in seeds):
        raise ValueError(f"{path}: seeds must lie in [0, 2^64), got {seeds}")
    y = _float32_payload(path, meas.y)
    header = _MEAS_FIELDS[_MEAS_MAGIC].pack(
        sp.m_s, pp.m_p, sp.q_s, pp.q_p, pp.n_v, pp.n_h, sp.n_s, *seeds,
        meas.sigma, sp.scale, pp.scale)
    with open(path, "wb") as fh:
        fh.write(_MEAS_MAGIC + header)
        fh.write(y.tobytes())


def read_measurements(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        fields = _MEAS_FIELDS.get(magic)
        if fields is None:
            raise ValueError(f"{path}: not a measurement file (bad magic {magic!r})")
        header = fh.read(fields.size)
        if len(header) < fields.size:
            raise ValueError(f"{path}: truncated measurement header")
        (m_s, m_p, q_s, q_p, n_v, n_h, n_s, spectral_seed, spatial_seed,
         noise_seed, sigma, *scales) = fields.unpack(header)
        if n_v * n_h * n_s > _MAX_CUBE_ENTRIES:
            raise ValueError(f"{path}: declared cube {n_v}x{n_h}x{n_s} exceeds "
                             f"{_MAX_CUBE_ENTRIES} entries")
        payload = fh.read()
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"{path}: noise level must be finite and >= 0, got {sigma}")
    y = np.frombuffer(payload, dtype="<f4")
    if y.size != m_s * m_p:
        raise ValueError(f"{path}: expected {m_s * m_p} samples, found {y.size}")
    y = _float32_payload(path, y)
    # an HSM1 file stores no scales: the constructors estimate them
    spectral_scale, spatial_scale = scales or (None, None)
    sp = SpectralProjector(n_s, m_s, q_s, spectral_seed, scale=spectral_scale)
    pp = SpatialProjector(n_v, n_h, m_p, q_p, spatial_seed, scale=spatial_scale)
    return Measurements(y=y.astype(np.float64).reshape(m_s, m_p),
                        spectral=sp, spatial=pp,
                        sigma=sigma, noise_seed=noise_seed)
