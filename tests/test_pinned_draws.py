"""Random draws, the measurement header and committed files, pinned.

A change to the Philox key layout, the purpose tags, the sign rule, the
sign packing or the HSM2 header layout fails here. The SHA-256 literals
are raw words, sign bits or header bytes, none computed through BLAS, so
they hold on any host.

tests/data holds committed files: a 16x16x8 HSC1 phantom, the HSM2 file
acquired from it at rates (0.5, 0.5) with seed 3 and two 20-iteration
hybrid recoveries from it, one in the spectral basis learned from the
phantom and one in the Walsh basis. expected.json lists the commands that
made them and what a read must give back. Counts, seeds, signs and stored
scales are compared exactly. What runs through BLAS gets a tolerance:
scales estimated again by acquire within rtol 1e-12, and cubes within
rtol 1e-6 (about 16 float32 quanta of 6e-8) with atol 1e-7 near zero. The
recovery runs 20 iterations only: over hundreds, rounding differences
between BLAS builds grow through the TV subgradient.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hsrec import harness, rng
from hsrec.cli import main
from hsrec.datacube import as_band_pixel_matrix
from hsrec.formats import read_cube, read_measurements, write_measurements
from hsrec.sensing import SpatialProjector, SpectralProjector, acquire

DATA = Path(__file__).parent / "data"
EXPECTED = json.loads((DATA / "expected.json").read_text())
MEAS_FILES = ("meas_hsm2.hsm",)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_draws_and_header_match_pinned_digests(tmp_path):
    assert (rng.PHANTOM, rng.SPECTRAL_RADEMACHER, rng.SPATIAL_RADEMACHER,
            rng.NOISE, rng.BASIS_SAMPLE, rng.SPECTRAL_NORM,
            rng.SPATIAL_NORM) == tuple(range(7))
    # the first 4 raw words of purposes 0-7 at both ends of the seed range:
    # the Philox keying, whatever tags are in use
    words = b"".join(
        rng.stream(seed, purpose).bit_generator.random_raw(4)
        .astype("<u8").tobytes()
        for seed in (0, (1 << 64) - 1) for purpose in range(8))
    assert _sha256(words) == (
        "cd66e122470e635aafc72ba016fefbe1791be85a5f75fa83ec357d6a465b7067")

    pp = SpatialProjector(8, 8, 40, 6, seed=3)
    assert _sha256(pp._signs.tobytes()) == (
        "294b04ea39197fad2f95a7e6b47682e182ca90131b8b9dffa34d4c1d40c477b5")
    sp = SpectralProjector(16, 12, 1, seed=3)
    assert _sha256(np.packbits(sp._m[sp.q_s:] < 0).tobytes()) == (
        "ac23392f148b9a7817bf3f2eb7cdd959439a1f542053efcc0c412d8652479499")

    # magic, counts, grid, the three seeds and sigma: bytes 0:64 of HSM2
    sp = SpectralProjector(16, 12, 1, seed=5)
    path = tmp_path / "pinned.hsm"
    write_measurements(path, acquire(np.ones((16, 64)), sp, pp, 0.05,
                                     noise_seed=7))
    assert _sha256(path.read_bytes()[:64]) == (
        "1d03851db8470d01ab1c8dbc5075e5f89e1302aad01ba0663a74a7e662fb411e")


def _assert_cubes_close(got, want):
    np.testing.assert_allclose(as_band_pixel_matrix(got),
                               as_band_pixel_matrix(want), rtol=1e-6,
                               atol=1e-7)


def test_committed_cube_is_the_phantom():
    want = harness.generate_phantom(
        harness.PhantomSpec(*EXPECTED["grid"], seed=0))
    _assert_cubes_close(read_cube(DATA / "cube.hsc"), want)


@pytest.mark.parametrize("name", MEAS_FILES)
def test_committed_measurements_read_back_their_operators(name):
    meas = read_measurements(DATA / name)
    sp, pp = meas.spectral, meas.spatial
    assert {"m_s": sp.m_s, "q_s": sp.q_s, "m_p": pp.m_p,
            "q_p": pp.q_p} == EXPECTED["counts"]
    assert [pp.n_v, pp.n_h, sp.n_s] == EXPECTED["grid"]
    assert {"spectral": sp.seed, "spatial": pp.seed,
            "noise": meas.noise_seed} == EXPECTED["seeds"]
    assert meas.sigma == EXPECTED["sigma"]
    assert _sha256(pp._signs.tobytes()) == EXPECTED["spatial_signs_sha256"]
    assert _sha256(np.packbits(sp._m[sp.q_s:] < 0).tobytes()) == (
        EXPECTED["spectral_sign_mask_sha256"])
    assert {"spectral": sp.scale, "spatial": pp.scale} == EXPECTED["scales"]


def test_acquire_rewrites_the_committed_header(tmp_path):
    out = tmp_path / "meas.hsm"
    assert main(["acquire", "--cube", str(DATA / "cube.hsc"), "--rp", "0.5",
                 "--rs", "0.5", "--seed", "3", "--out", str(out)]) == 0
    raw, want = out.read_bytes(), (DATA / "meas_hsm2.hsm").read_bytes()
    assert raw[:64] == want[:64]
    np.testing.assert_allclose(np.frombuffer(raw[64:80], "<f8"),
                               np.frombuffer(want[64:80], "<f8"), rtol=1e-12)
    np.testing.assert_allclose(np.frombuffer(raw[80:], "<f4"),
                               np.frombuffer(want[80:], "<f4"), rtol=1e-6,
                               atol=1e-7)


@pytest.mark.parametrize("name", MEAS_FILES)
def test_recover_from_each_committed_file(tmp_path, name):
    out = tmp_path / "rec.hsc"
    assert main(["recover", "--meas", str(DATA / name), "--truth",
                 str(DATA / "cube.hsc"), "--max-iters", "20",
                 "--out", str(out)]) == 0
    _assert_cubes_close(read_cube(out), read_cube(DATA / "recovered.hsc"))
    # without --truth the spectral basis is the full sequency Walsh matrix
    assert main(["recover", "--meas", str(DATA / name), "--max-iters", "20",
                 "--out", str(out)]) == 0
    _assert_cubes_close(read_cube(out),
                        read_cube(DATA / "recovered_walsh.hsc"))
