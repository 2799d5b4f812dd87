"""Print a SHA-256 digest of every solver's iterate and cost trace.

Runs apg_bpdn and recover_hybrid, through harness.recover, with the default
configs (sigma 0.01, truth-trained basis) on the 32x32x16 reference phantom
at rates (0.3, 0.25) and (0.5, 0.5), on a 64x64x32 phantom at (0.5, 0.25)
and (0.3, 0.25) and on a 32x16x16 phantom at (0.5, 0.5), for each
measurement seed. The 64x64x32 spatial Rademacher block at r_p = 0.5 has
more than _MATERIALIZE_LIMIT entries, so that case runs the chunked path;
the others run the cached one. On the 32x16 grid log2 n_p is odd, so its
rows are expanded to +/-1/sqrt(2) rather than +/-1. One line per run:
method, grid, rates, seed, iterations, stop reason, the repr of both
projectors' scales, then the digests of the returned matrix and of
Trace.cost. Then, per seed, one line for a SpectralProjector(2048, 1843,
460, seed) build: its 1383 Rademacher rows are drawn in three chunks, a
boundary no smaller case crosses, and the line gives the digest of
sp.apply(I) and the repr of its scale. Two source trees give the same
numbers exactly when their outputs match line for line under the same BLAS
thread count (a scale may differ in the last bit across thread counts):

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
    configs = {name: method.default_config()
               for name, method in harness.METHODS.items()}
    for (n_v, n_h, n_s), rates in CASES:
        cube = harness.generate_phantom(
            harness.PhantomSpec(n_v, n_h, n_s, seed=0))
        x = as_band_pixel_matrix(cube)
        for r_p, r_s in rates:
            for seed in seeds:
                meas = harness.acquire_at_rates(cube, r_p, r_s, 0.01, seed)
                basis = transforms.learn_spectral_basis(
                    harness.sample_training_columns(x, seed))
                for method, config in configs.items():
                    x_hat, trace = harness.recover(method, meas, basis, config)
                    print(f"{method} {n_v}x{n_h}x{n_s} {r_p},{r_s} "
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
