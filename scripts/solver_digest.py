"""Print a SHA-256 digest of every solver's iterate and cost trace.

Calls the solve of each harness.METHODS entry (apg_bpdn and recover_hybrid)
directly, at its default_config() (sigma 0.01, truth-trained basis), on the
32x32x16 reference phantom at rates (0.3, 0.25) and (0.5, 0.5), on a
64x64x32 phantom at (0.5, 0.25) and (0.3, 0.25) and on a 32x16x16 phantom
at (0.5, 0.5), for each measurement seed. The 64x64x32 spatial Rademacher
block at r_p = 0.5 has more than _MATERIALIZE_LIMIT entries, so that case
runs the chunked path throughout. The one at r_p = 0.3 has more than
_KEEP_LIMIT: its norm is estimated on a float64 cache, which the build then
drops, so that case is solved from packed signs. The others run the cached
path. On the 32x16 grid log2 n_p is odd, so its rows are expanded to
+/-1/sqrt(2) rather than +/-1.
One line per run: method, grid, rates, seed, iterations, stop reason, the
repr of both projectors' scales, then the digests of the returned matrix
and of Trace.cost. Then, per seed, one line for a SpectralProjector(2048,
1843, 460, seed) build: its 1383 Rademacher rows are drawn in 44 chunks of
at most 32 rows, and the line gives the digest of sp.apply(I) and the repr
of its scale. Two source trees give the same
numbers exactly when their outputs match line for line under the same BLAS
thread count. The acquisitions and their scales here do not depend on
that count, but a solve may once a cached spatial pass takes the whole
cache, as at m_s = 8 on a 64x64 block of up to 256 rows, and the
2048-band spectral scale does. Between one and two OpenBLAS threads on a
2-vCPU VM every solve line matched, and the seed-1 spectral line differed
in the last bit of its scale; the 64x64x32 (0.3, 0.25) lines differed too
while that block kept its float64 cache:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python3 scripts/solver_digest.py --seeds 0,1,2 > a.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=/other/tree/src \
        python3 scripts/solver_digest.py --seeds 0,1,2 > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib

import numpy as np

from hsrec import harness, sensing, transforms
from hsrec.datacube import as_band_pixel_matrix

CASES = (((32, 32, 16), ((0.3, 0.25), (0.5, 0.5))),
         ((64, 64, 32), ((0.5, 0.25), (0.3, 0.25))),
         ((32, 16, 16), ((0.5, 0.5),)))
SPECTRAL_BUILD = (2048, 1843, 460)  # n_s, m_s, q_s


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    seeds = [int(tok) for tok in args.seeds.split(",")]
    for (n_v, n_h, n_s), rates in CASES:
        cube = harness.generate_phantom(
            harness.PhantomSpec(n_v, n_h, n_s, seed=0))
        x = as_band_pixel_matrix(cube)
        for r_p, r_s in rates:
            for seed in seeds:
                meas = harness.acquire_at_rates(cube, r_p, r_s, 0.01, seed)
                basis = transforms.learn_spectral_basis(
                    harness.sample_training_columns(x, seed))
                for name, method in harness.METHODS.items():
                    x_hat, trace = method.solve(meas, basis,
                                                method.default_config())
                    print(f"{name} {n_v}x{n_h}x{n_s} {r_p},{r_s} "
                          f"seed={seed} iters={trace.iterations} {trace.reason} "
                          f"scales={meas.spatial.scale!r},"
                          f"{meas.spectral.scale!r} "
                          f"x={_digest(x_hat)} cost={_digest(trace.cost)}")
    n_s, m_s, q_s = SPECTRAL_BUILD
    for seed in seeds:
        sp = sensing.SpectralProjector(n_s, m_s, q_s, seed)
        print(f"spectral {n_s},{m_s},{q_s} seed={seed} "
              f"M={_digest(sp.apply(np.eye(n_s)))} scale={sp.scale!r}")


if __name__ == "__main__":
    main()
