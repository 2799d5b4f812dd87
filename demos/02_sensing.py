"""
Separable compressive acquisition
==================================
"""

import os
import tempfile

import numpy as np

from hsrec.datacube import as_band_pixel_matrix
from hsrec.formats import read_measurements, write_measurements
from hsrec.harness import PhantomSpec, generate_phantom
from hsrec.sensing import (SpatialProjector, SpectralProjector, acquire,
                           adjoint, default_lowpass_counts, project,
                           rates_to_counts)

# A 32x32 cube with 16 bands; each axis gets its own projector.
cube = generate_phantom(PhantomSpec(32, 32, 16, seed=0))
x = as_band_pixel_matrix(cube)
print("band-by-pixel matrix:", x.shape)

# 30% spatial rate, 25% spectral rate. The low-pass block sizes follow the
# ten/five-percent defaults; the rest of each projector is Rademacher.
m_p, m_s = rates_to_counts(0.3, 0.25, 1024, 16)
q_p, q_s = default_lowpass_counts(1024, 16, m_p, m_s)
print("spatial: %d rows (%d structured), spectral: %d rows (%d structured)"
      % (m_p, q_p, m_s, q_s))

pp = SpatialProjector(32, 32, m_p, q_p, seed=1)
sp = SpectralProjector(16, m_s, q_s, seed=2)

# Both projectors are normalized, and the combined operator's matrix is
# Phi_p kron Phi_s, so its norm is the product of the two axis norms: ~1,
# which is what keeps a fixed solver step size safe at every rate.
print("axis operator norms (spectral, spatial):",
      round(np.linalg.norm(sp.apply(np.eye(16)), 2), 4),
      round(np.linalg.norm(pp.apply(np.eye(1024)), 2), 4))

# Noisy acquisition is deterministic given the noise seed.
meas = acquire(x, sp, pp, sigma=0.01, noise_seed=3)
print("measurements:", meas.y.shape)
clean = project(x, sp, pp)
print("noise level (should be near sigma*sqrt(mn)):",
      round(np.linalg.norm(meas.y - clean), 4),
      "vs", round(0.01 * np.sqrt(meas.y.size), 4))

# The adjoint satisfies <P(x), y> = <x, P*(y)> -- the solvers rely on it.
y_probe = np.random.default_rng(4).normal(size=meas.y.shape)
lhs = np.sum(clean * y_probe)
rhs = np.sum(x * adjoint(y_probe, sp, pp))
print("adjoint identity gap:", abs(lhs - rhs))

# Measurement files store the seeds and the two operator scales, not the
# projectors: a read rebuilds them from the seeds and skips the norm estimate.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.hsm")
    write_measurements(path, meas)
    again = read_measurements(path)
print("round trip: sigma=%s, max |Y - Y'| = %.2e"
      % (again.sigma, np.abs(again.y - meas.y).max()))
