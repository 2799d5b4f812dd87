"""Binary file formats for datacubes and measurement sets.

Every file is a 4-byte magic, a header of little-endian fields and a
payload of little-endian float32 samples in row-major order. _LAYOUTS is
the one table of headers, which one reader, one payload decoder, one
header packer and one writer serve:

  HSC1  n_v n_h n_s (u32)                                  16 bytes in all
  HSM2  m_s m_p q_s q_p n_v n_h n_s (u32), the spectral, spatial and noise
        seeds (u64), sigma, the spectral and spatial scales (f64)  80

A cube file holds the band-by-pixel matrix (band-major, column-major pixels
within each band), a measurement file the m_s x m_p measurements. The
projector matrices are not stored but rebuilt from the seeds on read,
which keeps files small. HSM2 stores the scales because estimating one
takes 50 power-iteration passes over the rows, most of a build, and its
last bit depends on the BLAS thread count: given the acquisition's
scales, no read runs the power iteration, and each rebuilds exactly the
operators used at acquisition time.

Before they open the file, the writers check the seeds, refuse a header
field its layout cannot hold (a count set to -1 after construction, say)
and refuse a payload that is not finite in float32, as the readers do, so
neither leaves a file its reader refuses. Every ValueError of the four
file functions starts with the file's path, once.

A measurement file is refused, before any large allocation, if it declares
a cube of more than 2^27 entries (check_cube_size) or a Rademacher block,
(m - q) rows of n entries on either axis, of more than 2^31 entries (256
MiB of packed spatial signs; sensing._MAX_RADEMACHER_ENTRIES). The writer
refuses the same cube before it opens the file, and no projector over the
Rademacher bound can be built, so no written file declares either.
"""
import functools
import struct

import numpy as np

from . import rng
from .datacube import as_band_pixel_matrix, cube_from_matrix
from .sensing import (Measurements, SpatialProjector, SpectralProjector,
                      check_noise_level)

_LAYOUTS = {b"HSC1": struct.Struct("<3I"),
            b"HSM2": struct.Struct("<7I3Q3d")}
# Largest cube a measurement file may declare: 1 GiB of float64 samples.
_MAX_CUBE_ENTRIES = 1 << 27


def check_cube_size(n_v, n_h, n_s):
    if n_v * n_h * n_s > _MAX_CUBE_ENTRIES:
        raise ValueError(f"declared cube {n_v}x{n_h}x{n_s} exceeds "
                         f"{_MAX_CUBE_ENTRIES} entries")


def _names_file(fn):
    """fn(path, ...) with the path put in front of each ValueError it raises."""
    @functools.wraps(fn)
    def named(path, *args, **kwargs):
        try:
            return fn(path, *args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return named


def _float32_payload(a):
    """a as contiguous little-endian float32; a ValueError unless every
    sample is finite there."""
    with np.errstate(over="ignore"):
        x = np.ascontiguousarray(a, dtype="<f4")
    if not np.all(np.isfinite(x)):
        raise ValueError("payload is not finite in float32")
    return x


def _read(path, magic):
    """(header fields, payload bytes) of the file at path; a ValueError
    unless it starts with magic and its header is whole."""
    layout = _LAYOUTS[magic]
    with open(path, "rb") as fh:
        found, header = fh.read(4), fh.read(layout.size)
        if found != magic:
            raise ValueError(f"bad magic {found!r}; expected {magic.decode()}")
        if len(header) < layout.size:
            raise ValueError(f"truncated {magic.decode()} header")
        return layout.unpack(header), fh.read()


def _decode(payload, count):
    """payload as count float64 samples; a ValueError unless it holds
    exactly count float32 samples, all finite."""
    if len(payload) != 4 * count:
        raise ValueError(f"expected {count} samples, found {len(payload)} bytes")
    return _float32_payload(np.frombuffer(payload, "<f4")).astype(np.float64)


def _pack(magic, fields):
    """magic and the header fields as bytes; a ValueError for a field its
    layout cannot hold."""
    try:
        return magic + _LAYOUTS[magic].pack(*fields)
    except struct.error as exc:
        raise ValueError(f"{magic.decode()} header field out of range: {exc}")


def _write(path, header, x):
    """header, then the float32 samples x; the writers check and pack both
    before they call it, so a refusal leaves no file."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(x.tobytes())


@_names_file
def write_cube(path, cube):
    x = _float32_payload(as_band_pixel_matrix(cube))
    _write(path, _pack(b"HSC1", (cube.n_v, cube.n_h, cube.n_s)), x)


@_names_file
def read_cube(path):
    (n_v, n_h, n_s), payload = _read(path, b"HSC1")
    x = _decode(payload, n_v * n_h * n_s)
    return cube_from_matrix(x.reshape(n_s, n_v * n_h), n_v, n_h)


@_names_file
def write_measurements(path, meas):
    x = _float32_payload(meas.y)
    sp, pp = meas.spectral, meas.spatial
    seeds = map(rng.check_seed, (sp.seed, pp.seed, meas.noise_seed))
    header = _pack(b"HSM2", (sp.m_s, pp.m_p, sp.q_s, pp.q_p, pp.n_v, pp.n_h,
                             sp.n_s, *seeds, meas.sigma, sp.scale, pp.scale))
    check_cube_size(pp.n_v, pp.n_h, sp.n_s)  # as the reader does
    _write(path, header, x)


@_names_file
def read_measurements(path):
    (m_s, m_p, q_s, q_p, n_v, n_h, n_s, spectral_seed, spatial_seed,
     noise_seed, sigma, spectral_scale, spatial_scale), payload = _read(
        path, b"HSM2")
    check_cube_size(n_v, n_h, n_s)
    check_noise_level(sigma)
    y = _decode(payload, m_s * m_p)
    sp = SpectralProjector(n_s, m_s, q_s, spectral_seed, scale=spectral_scale)
    pp = SpatialProjector(n_v, n_h, m_p, q_p, spatial_seed, scale=spatial_scale)
    return Measurements(y=y.reshape(m_s, m_p), spectral=sp, spatial=pp,
                        sigma=sigma, noise_seed=noise_seed)
