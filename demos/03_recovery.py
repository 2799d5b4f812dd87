"""
Recovering a datacube from incomplete noisy measurements
=========================================================

Runs the baseline wavelet-domain solver and the hybrid solver (total
variation plus spectral sparsity) on the same measurements and compares
their error against the ground truth.
"""

import numpy as np

from hsrec.datacube import as_band_pixel_matrix
from hsrec.harness import (PhantomSpec, default_bpdn_config,
                           default_hybrid_config, generate_phantom,
                           relative_error, sample_training_columns)
from hsrec.sensing import (SpatialProjector, SpectralProjector, acquire,
                           default_lowpass_counts, rates_to_counts)
from hsrec.solvers import apg_bpdn, recover_hybrid
from hsrec.transforms import HaarBasis, learn_spectral_basis

cube = generate_phantom(PhantomSpec(32, 32, 16, seed=0))
x = as_band_pixel_matrix(cube)

# Keep only 30% of the pixels axis and 25% of the bands axis.
m_p, m_s = rates_to_counts(0.3, 0.25, 1024, 16)
q_p, q_s = default_lowpass_counts(1024, 16, m_p, m_s)
pp = SpatialProjector(32, 32, m_p, q_p, seed=1)
sp = SpectralProjector(16, m_s, q_s, seed=2)
meas = acquire(x, sp, pp, sigma=0.01, noise_seed=3)
print("keeping %d of %d spatial and %d of %d spectral dimensions"
      % (m_p, 1024, m_s, 16))

# The spectral basis is learned from 1% of the ground-truth spectra. In a
# real deployment it would come from archival data of the same sensor.
basis = learn_spectral_basis(sample_training_columns(x, seed=4))

x_bpdn, trace_bpdn = apg_bpdn(meas, HaarBasis(32, 32), basis,
                              default_bpdn_config(), x_truth=x)
x_hyb, trace_hyb = recover_hybrid(meas, basis, default_hybrid_config(),
                                  x_truth=x)

for name, trace, rec in (("baseline", trace_bpdn, x_bpdn),
                         ("hybrid", trace_hyb, x_hyb)):
    print("%-8s %3d iterations (%s), relative error %.4f"
          % (name, trace.iterations, trace.reason, relative_error(x, rec)))

# The hybrid objective exploits the piecewise-constant spatial structure,
# so its error trace should sit below the baseline's from early on.
k = min(trace_bpdn.iterations, trace_hyb.iterations)
marks = range(9, k, max(1, k // 6))
print("\niter   baseline   hybrid")
for i in marks:
    print("%4d   %8.4f   %6.4f"
          % (i + 1, trace_bpdn.truth_error[i], trace_hyb.truth_error[i]))

improvement = relative_error(x, x_bpdn) / relative_error(x, x_hyb)
print("\nhybrid error is %.1fx lower on this instance" % improvement)
