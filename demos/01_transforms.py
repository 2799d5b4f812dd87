"""
Orthonormal transforms used throughout the library
===================================================

Walsh-Hadamard in sequency order, the zig-zag scan that picks low-frequency
2-D coefficients, the frame-wise Haar wavelet, and a spectral basis learned
from sample spectra.
"""

import numpy as np

from hsrec.datacube import Datacube, as_band_pixel_matrix, cube_from_matrix
from hsrec.transforms import (HaarBasis, learn_spectral_basis, walsh_rows,
                              zigzag_indices)

# The transform is a product with the orthonormal Walsh matrix. A constant
# vector has all its energy in the zero-sequency coefficient.
v = np.ones(8)
print("fwht of a constant vector:", walsh_rows(8) @ v)

# Sequency ordering sorts rows by their number of sign changes, so row k
# oscillates exactly k times. Natural Hadamard order is scrambled.
signs = np.sign(walsh_rows(8))
print("sign changes per row for n=8:",
      np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1))

impulse = np.zeros(8)
impulse[0] = 1.0
coeffs = walsh_rows(8) @ impulse
print("fwht of an impulse is flat:", coeffs)
print("transform is its own inverse:",
      np.allclose(walsh_rows(8) @ coeffs, impulse))

# The 2-D version transforms columns, then rows, independently.
frame = np.add.outer(np.arange(4.0), np.arange(4.0))
cf = walsh_rows(4) @ frame @ walsh_rows(4).T
print("\n2-D coefficients of a smooth ramp (energy in the corner):")
print(np.round(cf, 3))

# The zig-zag scan walks anti-diagonals from that corner outward; the first
# few entries are the lowest-sequency pairs in both axes.
print("first 6 zig-zag positions on a 4x4 grid:",
      [(int(i), int(j)) for i, j in zigzag_indices(4, 4, 6)])

# Haar analysis concentrates piecewise-constant frames on few coefficients.
# HaarBasis acts on band-by-pixel matrices, one flattened frame per band.
steps = np.kron(np.array([[1.0, 3.0], [2.0, 5.0]]), np.ones((4, 4)))
haar = HaarBasis(8, 8)
x = as_band_pixel_matrix(Datacube(steps[:, :, None]))
hc = haar.analyze(x)
print("\nHaar coefficients of a 2x2 block image: %d of %d are nonzero"
      % (np.count_nonzero(np.abs(hc) > 1e-12), hc.size))
back = cube_from_matrix(haar.synthesize(hc), 8, 8).data[:, :, 0]
print("round trip error:", np.abs(back - steps).max())

# A spectral basis learned from sample spectra diagonalizes their second
# moments; for spectra drawn from two atoms only two directions matter.
gen = np.random.default_rng(0)
atoms = np.array([np.cos(np.linspace(0, np.pi, 16)),
                  np.sin(np.linspace(0, 2 * np.pi, 16))])
samples = (0.5 + gen.random((200, 2))) @ atoms
basis = learn_spectral_basis(samples.T)
energy = np.linalg.norm(basis.matrix.T @ samples.T, axis=1)
print("\nlearned-basis energy per direction (two dominate):")
print(np.round(energy / energy.max(), 4))
