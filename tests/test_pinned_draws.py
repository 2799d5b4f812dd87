"""Random draws and the measurement header pinned to SHA-256 literals.

A change to the Philox key layout, the purpose tags, the sign rule, the
sign packing or the HSM2 header layout fails here. Every pinned value is
raw words, sign bits or header bytes, none computed through BLAS, so the
literals hold on any host. The stored scales (bytes 64:80 of an HSM2
file) depend on the BLAS thread count and are not pinned.
"""

import hashlib

import numpy as np

from hsrec import rng
from hsrec.formats import write_measurements
from hsrec.sensing import SpatialProjector, SpectralProjector, acquire


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_draws_and_header_match_pinned_digests(tmp_path):
    assert (rng.PHANTOM, rng.SPECTRAL_RADEMACHER, rng.SPATIAL_RADEMACHER,
            rng.NOISE, rng.BASIS_SAMPLE, rng.SPECTRAL_NORM, rng.SPATIAL_NORM,
            rng.COMBINED_NORM) == tuple(range(8))
    # the first 4 raw words of every purpose stream at both ends of the
    # seed range
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
