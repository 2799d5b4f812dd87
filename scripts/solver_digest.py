"""Print a SHA-256 digest of every solver's iterate and cost trace.

Runs apg_bpdn, recover_hybrid and recover_hybrid_nonortho with the default
configs on the 32x32x16 reference phantom (sigma 0.01, truth-trained basis)
at rates (0.3, 0.25) and (0.5, 0.5), for each measurement seed. One line per
run: method, rates, seed, iterations, stop reason, then the digests of the
returned matrix and of Trace.cost. Two source trees give the same numbers
exactly when their outputs match line for line:

    PYTHONPATH=src python3 scripts/solver_digest.py --seeds 0,1,2 > a.txt
    PYTHONPATH=/other/tree/src python3 scripts/solver_digest.py --seeds 0,1,2 > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib

from hsrec import harness, sensing, solvers, transforms
from hsrec.datacube import as_band_pixel_matrix

RATES = ((0.3, 0.25), (0.5, 0.5))


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    x = as_band_pixel_matrix(
        harness.generate_phantom(harness.PhantomSpec(32, 32, 16, seed=0)))
    hybrid, bpdn = harness.default_hybrid_config(), harness.default_bpdn_config()
    for r_p, r_s in RATES:
        m_p, m_s = sensing.rates_to_counts(r_p, r_s, 1024, 16)
        q_p, q_s = sensing.default_lowpass_counts(1024, 16, m_p, m_s)
        for seed in (int(tok) for tok in args.seeds.split(",")):
            pp = sensing.SpatialProjector(32, 32, m_p, q_p, seed)
            sp = sensing.SpectralProjector(16, m_s, q_s, seed)
            meas = sensing.acquire(x, sp, pp, 0.01, noise_seed=seed)
            basis = transforms.learn_spectral_basis(
                harness.sample_training_columns(x, seed))
            runs = {
                "bpdn": lambda: solvers.apg_bpdn(
                    meas, transforms.HaarBasis(32, 32), basis, bpdn),
                "hybrid": lambda: solvers.recover_hybrid(meas, basis, hybrid),
                "dict": lambda: solvers.recover_hybrid_nonortho(meas, basis, hybrid),
            }
            for method, solve in runs.items():
                x_hat, trace = solve()
                print(f"{method} {r_p},{r_s} seed={seed} iters={trace.iterations} "
                      f"{trace.reason} x={_digest(x_hat)} cost={_digest(trace.cost)}")


if __name__ == "__main__":
    main()
