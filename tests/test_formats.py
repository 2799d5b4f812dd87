import dataclasses
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsrec.formats as formats
import hsrec.sensing as sensing
from hsrec.datacube import Datacube, as_band_pixel_matrix
from hsrec.formats import (read_cube, read_measurements, write_cube,
                           write_measurements)
from hsrec.harness import PhantomSpec, generate_phantom
from hsrec.sensing import (SpatialProjector, SpectralProjector, acquire,
                           adjoint, project)

# the HSM2 magic and header as one struct format, 80 bytes
_HSM2 = "<4s7I3Q3d"
# the committed HSC1 cube and its HSM2 measurement file
DATA = Path(__file__).parent / "data"
_FIXTURES = {name: (DATA / name).read_bytes()
             for name in ("cube.hsc", "meas_hsm2.hsm")}


def _cube():
    return generate_phantom(PhantomSpec(8, 4, 2, seed=6))


# ---------------------------------------------------------------- cubes

def test_cube_round_trip_bytes(tmp_path):
    path = tmp_path / "cube.hsc"
    write_cube(path, _cube())
    first = path.read_bytes()
    cube = read_cube(path)
    write_cube(path, cube)
    assert path.read_bytes() == first
    assert cube.data.shape == (8, 4, 2)


def test_cube_header_layout(tmp_path):
    path = tmp_path / "cube.hsc"
    write_cube(path, _cube())
    raw = path.read_bytes()
    magic, n_v, n_h, n_s = struct.unpack_from("<4s3I", raw)
    assert magic == b"HSC1"
    assert (n_v, n_h, n_s) == (8, 4, 2)
    payload = raw[struct.calcsize("<4s3I"):]
    assert len(payload) == 4 * n_v * n_h * n_s  # float32 samples
    # payload is the band-by-pixel matrix in row-major order
    x32 = np.frombuffer(payload, dtype="<f4").reshape(n_s, n_v * n_h)
    assert np.allclose(x32, as_band_pixel_matrix(_cube()), atol=1e-6)


def test_cube_values_quantized_to_float32(tmp_path):
    data = np.random.default_rng(7).normal(size=(4, 4, 2))
    path = tmp_path / "cube.hsc"
    write_cube(path, Datacube(data))
    got = read_cube(path)
    assert np.array_equal(got.data, data.astype(np.float32).astype(np.float64))


def test_cube_write_rejects_float32_overflow(tmp_path):
    data = np.random.default_rng(7).normal(size=(4, 4, 2))
    data[1, 2, 0] = 1e300  # finite in float64, inf in float32
    path = tmp_path / "cube.hsc"
    with pytest.raises(ValueError, match="float32"):
        write_cube(path, Datacube(data))
    assert not path.exists()


def test_cube_read_rejects_corrupt_files(tmp_path):
    path = tmp_path / "cube.hsc"
    write_cube(path, _cube())
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.hsc"
    bad_magic.write_bytes(b"XXX1" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_cube(bad_magic)

    truncated = tmp_path / "t.hsc"
    truncated.write_bytes(bytes(raw[:-5]))
    with pytest.raises(ValueError):
        read_cube(truncated)

    stub = tmp_path / "s.hsc"
    stub.write_bytes(b"HS")
    with pytest.raises(ValueError):
        read_cube(stub)

    padded = tmp_path / "p.hsc"
    padded.write_bytes(bytes(raw) + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        read_cube(padded)


def test_cube_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_cube(tmp_path / "absent.hsc")


# ---------------------------------------------------------------- measurements

def _measurements(sigma=0.01):
    cube = generate_phantom(PhantomSpec(4, 8, 4, seed=8))
    x = as_band_pixel_matrix(cube)
    pp = SpatialProjector(4, 8, 12, 3, seed=21)
    sp = SpectralProjector(4, 2, 1, seed=22)
    return acquire(x, sp, pp, sigma=sigma, noise_seed=17)


def test_measurements_round_trip(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    got = read_measurements(path)
    assert np.allclose(got.y, meas.y, atol=1e-6)  # float32 payload
    assert got.sigma == meas.sigma
    assert got.noise_seed == meas.noise_seed
    # rebuilt projectors are operationally identical to the originals
    x = np.random.default_rng(9).normal(size=(4, 32))
    assert np.array_equal(project(x, got.spectral, got.spatial),
                          project(x, meas.spectral, meas.spatial))
    y = np.random.default_rng(10).normal(size=(2, 12))
    assert np.array_equal(adjoint(y, got.spectral, got.spatial),
                          adjoint(y, meas.spectral, meas.spatial))


def test_measurements_write_is_stable(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    first = path.read_bytes()
    write_measurements(path, read_measurements(path))
    assert path.read_bytes() == first


def test_measurements_write_rejects_float32_overflow(tmp_path):
    meas = _measurements()
    y = meas.y.copy()
    y[1, 5] = 1e300  # finite in float64, inf in float32
    meas = dataclasses.replace(meas, y=y)
    path = tmp_path / "meas.hsm"
    with pytest.raises(ValueError, match="not finite in float32"):
        write_measurements(path, meas)
    assert not path.exists()


def test_measurements_write_refuses_a_cube_its_reader_refuses(tmp_path,
                                                              monkeypatch):
    # the reader's cube bound, lowered to 4x8x4 - 1 entries
    meas = _measurements()
    written = tmp_path / "at_bound.hsm"
    write_measurements(written, meas)
    monkeypatch.setattr(formats, "_MAX_CUBE_ENTRIES", 4 * 8 * 4 - 1)
    with pytest.raises(ValueError) as read:
        read_measurements(written)
    path = tmp_path / "over.hsm"
    with pytest.raises(ValueError) as wrote:
        write_measurements(path, meas)
    assert not path.exists()
    message = "declared cube 4x8x4 exceeds 127 entries"
    assert (str(read.value), str(wrote.value)) == (f"{written}: {message}",
                                                   f"{path}: {message}")


def test_measurements_header_layout(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    raw = path.read_bytes()
    fields = struct.unpack_from(_HSM2, raw)
    assert fields[0] == b"HSM2"
    assert fields[1:8] == (2, 12, 1, 3, 4, 8, 4)  # m_s m_p q_s q_p n_v n_h n_s
    assert fields[8:11] == (22, 21, 17)  # spectral, spatial, noise seeds
    assert fields[11] == 0.01
    assert fields[12:] == (meas.spectral.scale, meas.spatial.scale)
    assert struct.calcsize(_HSM2) == 80
    assert len(raw) - 80 == 4 * 2 * 12  # the float32 payload


def test_measurements_hsm2_stores_the_acquisition_scales(tmp_path, monkeypatch):
    # a read takes the stored scales and runs no power iteration
    meas = _measurements()
    norms = []
    original = sensing._power_norm

    def spy(*args):
        norms.append(args[1])
        return original(*args)

    monkeypatch.setattr(sensing, "_power_norm", spy)
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    norms.clear()
    got = read_measurements(path)
    assert norms == []
    assert got.spectral.scale == meas.spectral.scale
    assert got.spatial.scale == meas.spatial.scale
    assert np.array_equal(got.y, meas.y.astype(np.float32))


def test_measurements_read_rejects_corrupt_files(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    raw = path.read_bytes()
    bad = tmp_path / "bad.hsm"
    bad.write_bytes(b"ZZZ9" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_measurements(bad)
    short = tmp_path / "short.hsm"
    short.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        read_measurements(short)


def _with_sigma(raw, sigma):
    out = bytearray(raw)
    struct.pack_into("<d", out, struct.calcsize("<4s7I3Q"), sigma)
    return bytes(out)


def test_measurements_read_rejects_bad_noise_level(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    raw = path.read_bytes()
    for sigma in (float("nan"), float("inf"), -0.5):
        path.write_bytes(_with_sigma(raw, sigma))
        with pytest.raises(ValueError, match="noise level"):
            read_measurements(path)
    path.write_bytes(_with_sigma(raw, 0.0))
    assert read_measurements(path).sigma == 0.0


def test_measurements_read_rejects_non_finite_payload(tmp_path):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    header = path.read_bytes()[:struct.calcsize(_HSM2)]
    for value in (np.nan, np.inf, -np.inf):
        y = meas.y.astype("<f4")
        y[1, 5] = value
        path.write_bytes(header + y.tobytes())
        with pytest.raises(ValueError, match="not finite"):
            read_measurements(path)


@pytest.mark.parametrize("offset, axis", [(64, "spectral"), (72, "spatial")])
def test_measurements_read_rejects_bad_scales(tmp_path, offset, axis):
    meas = _measurements()
    path = tmp_path / "meas.hsm"
    write_measurements(path, meas)
    raw = bytearray(path.read_bytes())
    for scale in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        struct.pack_into("<d", raw, offset, scale)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"{axis} scale"):
            read_measurements(path)


def test_measurements_read_large_declared_grid_is_fast(tmp_path):
    # 84 bytes declaring a 2048x2048 grid with one structured row per axis,
    # so both scales are 1: the reader builds only the one zig-zag
    # coefficient it keeps
    path = tmp_path / "tiny.hsm"
    path.write_bytes(struct.pack(_HSM2, b"HSM2", 1, 1, 1, 1, 2048, 2048,
                                 1, 0, 0, 0, 0.0, 1.0, 1.0)
                     + np.ones(1, dtype="<f4").tobytes())
    assert path.stat().st_size == 84
    start = time.perf_counter()
    meas = read_measurements(path)
    elapsed = time.perf_counter() - start
    assert meas.spatial.n_p == 2048 * 2048
    assert elapsed < 0.3


def test_measurements_read_large_declared_grid_hsm2_is_fast(tmp_path):
    # the HSM2 twin, with one Rademacher row per axis: the given scales
    # skip the power iteration over the 2048x2048 spatial row
    path = tmp_path / "tiny.hsm"
    path.write_bytes(struct.pack(_HSM2, b"HSM2", 1, 1, 0, 0, 2048, 2048,
                                 1, 0, 0, 0, 0.0, 1.0, 0.5)
                     + np.ones(1, dtype="<f4").tobytes())
    assert path.stat().st_size == 84
    start = time.perf_counter()
    meas = read_measurements(path)
    elapsed = time.perf_counter() - start
    assert meas.spatial.n_p == 2048 * 2048
    assert (meas.spectral.scale, meas.spatial.scale) == (1.0, 0.5)
    assert elapsed < 0.3


def test_measurements_read_checks_spectral_counts_before_building(tmp_path):
    # a header-only file whose m_s * m_p = 0 samples match its empty payload:
    # the counts are rejected before a (2^32 - 1) x 2048 M is allocated
    path = tmp_path / "counts.hsm"
    path.write_bytes(struct.pack(_HSM2, b"HSM2", 2**32 - 1, 0, 0, 0,
                                 1, 1, 2048, 0, 0, 0, 0.0, 1.0, 1.0))
    start = time.perf_counter()
    with pytest.raises(ValueError,
                       match="spectral projection count must satisfy"):
        read_measurements(path)
    assert time.perf_counter() - start < 0.3


def test_measurements_write_refuses_a_seed_set_after_construction(tmp_path):
    meas = _measurements()
    meas.spatial.seed = 1.5  # struct.pack would raise struct.error
    path = tmp_path / "meas.hsm"
    with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\^64\)") as info:
        write_measurements(path, meas)
    assert str(info.value).startswith(f"{path}: ")
    assert not path.exists()


@pytest.mark.parametrize("field, value", [("m_p", -1), ("n_v", 2**32)])
def test_measurements_write_refuses_a_header_field_out_of_range(tmp_path, field,
                                                                value):
    meas = _measurements()
    setattr(meas.spatial, field, value)  # struct.pack would raise struct.error
    path = tmp_path / "meas.hsm"
    with pytest.raises(ValueError, match="header field out of range") as info:
        write_measurements(path, meas)
    assert str(info.value).startswith(f"{path}: ")
    assert not path.exists()


# ---------------------------------------------------------------- named errors

def _patched(name, fmt, offset, value):
    raw = bytearray(_FIXTURES[name])
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


# malformed files by case: (reader, bytes); the header fields after the
# magic are u32s at 4, 8, ..., n_v at 20, then the seeds, sigma and scales
_MALFORMED = {
    "cube of inf": (read_cube, struct.pack("<4s3I", b"HSC1", 2, 2, 1)
                    + np.full(4, np.inf, dtype="<f4").tobytes()),
    "cube with n_v = 0": (read_cube, struct.pack("<4s3I", b"HSC1", 0, 2, 1)),
    "cube cut short": (read_cube, _FIXTURES["cube.hsc"][:-5]),
    "HSM2 header cut short": (read_measurements,
                              _FIXTURES["meas_hsm2.hsm"][:40]),
    "HSM2 cut short": (read_measurements, _FIXTURES["meas_hsm2.hsm"][:-5]),
    "HSM2 with n_v = 3": (read_measurements,
                          _patched("meas_hsm2.hsm", "<I", 20, 3)),
    "HSM2 with m_s = 2^32 - 1": (read_measurements, struct.pack(
        _HSM2, b"HSM2", 2**32 - 1, 0, 0, 0, 1, 1, 2048, 0, 0, 0, 0.0, 1.0,
        1.0)),
    "HSM2 with a zero scale": (read_measurements,
                               _patched("meas_hsm2.hsm", "<d", 64, 0.0)),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_read_errors_name_the_file_once(tmp_path, case):
    read, raw = _MALFORMED[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        read(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1


# ---------------------------------------------------------------- fuzzing

# per magic: the reader, the header's u32 count, its f64 offsets (sigma and
# the scales) and its size
_FUZZ = {b"HSC1": (read_cube, 3, (), 16),
         b"HSM2": (read_measurements, 7, (56, 64, 72), 80)}


@st.composite
def _mutated_files(draw):
    """A committed file with one mutation: a header u32 in [0, 40] (every
    declared grid stays at 32x32 or less), sigma or a scale set to a hostile
    float, one payload byte flipped, or a cut at any offset."""
    raw = bytearray(_FIXTURES[draw(st.sampled_from(sorted(_FIXTURES)))])
    read, n_u32, f64_offsets, header = _FUZZ[bytes(raw[:4])]
    kinds = ("u32", "f64", "flip", "cut") if f64_offsets else ("u32", "flip", "cut")
    kind = draw(st.sampled_from(kinds))
    if kind == "u32":
        struct.pack_into("<I", raw, 4 + 4 * draw(st.integers(0, n_u32 - 1)),
                         draw(st.integers(0, 40)))
    elif kind == "f64":
        struct.pack_into("<d", raw, draw(st.sampled_from(f64_offsets)),
                         draw(st.sampled_from(
                             (np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0))))
    elif kind == "flip":
        raw[draw(st.integers(header, len(raw) - 1))] ^= draw(st.integers(1, 255))
    else:
        del raw[draw(st.integers(0, len(raw) - 1)):]
    return read, bytes(raw)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_mutated_files())
def test_readers_return_or_name_the_file(case):
    read, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.bin"
        path.write_bytes(raw)
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
