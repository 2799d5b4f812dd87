"""Recovery of hyperspectral datacubes from separable compressive
measurements, with total-variation plus sparsity regularization."""

from .datacube import Datacube, as_band_pixel_matrix, cube_from_matrix
from .formats import read_cube, read_measurements, write_cube, write_measurements
from .harness import (ExperimentSpec, PhantomSpec, generate_phantom,
                      relative_error, run_experiment)
from .regularizers import prox_l1, tv_sum_and_subgradient
from .sensing import (Measurements, SpatialProjector, SpectralProjector, acquire,
                      adjoint, default_lowpass_counts, project, rates_to_counts)
from .solvers import (DivergenceError, SolverConfig, Trace, apg_bpdn,
                      recover_hybrid)
from .transforms import (HaarBasis, SpectralBasis, basis_apply,
                         learn_spectral_basis, walsh_rows, zigzag_indices)

__version__ = "0.1.0"

__all__ = [
    "Datacube", "as_band_pixel_matrix", "cube_from_matrix",
    "read_cube", "read_measurements", "write_cube", "write_measurements",
    "ExperimentSpec", "PhantomSpec", "generate_phantom", "relative_error",
    "run_experiment",
    "prox_l1", "tv_sum_and_subgradient",
    "Measurements", "SpatialProjector", "SpectralProjector", "acquire",
    "adjoint", "default_lowpass_counts", "project", "rates_to_counts",
    "DivergenceError", "SolverConfig", "Trace", "apg_bpdn", "recover_hybrid",
    "HaarBasis", "SpectralBasis", "basis_apply", "learn_spectral_basis",
    "walsh_rows", "zigzag_indices",
    "__version__",
]
