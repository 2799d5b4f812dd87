"""Synthetic phantoms, the pipeline's two shared steps, and experiments.

The phantom is a Voronoi partition of the image plane where every cell
carries a random sparse mixture of smooth spectral atoms. That gives the
two structures the solvers exploit: piecewise-constant frames (small TV)
and a low-rank band-by-pixel matrix (at most one signature per region).
"""

import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datacube import Datacube, as_band_pixel_matrix
from .sensing import (SpatialProjector, SpectralProjector, acquire,
                      check_noise_level, check_rates, default_lowpass_counts,
                      rates_to_counts)
from .solvers import SolverConfig, apg_bpdn, recover_hybrid, relative_error
from .transforms import HaarBasis, learn_spectral_basis


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of the synthetic scene."""

    n_v: int
    n_h: int
    n_s: int
    n_regions: int = 4
    n_atoms: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("n_v", "n_h", "n_s", "n_regions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.n_atoms <= self.n_s:
            raise ValueError(
                f"n_atoms must lie in [1, {self.n_s}], got {self.n_atoms}")


def _spectral_atoms(n_s):
    """Dictionary of raised-cosine bumps, one centered on every band index.

    Width n_s/4 on either side of the center; each atom peaks at 1.
    """
    width = n_s / 4.0
    band = np.arange(n_s, dtype=np.float64)
    offset = band[None, :] - band[:, None]  # row k: distance from center k
    atoms = 0.5 * (1.0 + np.cos(np.pi * offset / width))
    atoms[np.abs(offset) > width] = 0.0
    return atoms


def generate_phantom(spec):
    """Deterministic piecewise-constant datacube with peak value 1."""
    gen = rng.stream(spec.seed, rng.PHANTOM)
    centers = gen.random((spec.n_regions, 2)) * (spec.n_v, spec.n_h)
    rows = np.arange(spec.n_v, dtype=np.float64)[:, None]
    cols = np.arange(spec.n_h, dtype=np.float64)[None, :]
    dist2 = ((rows[..., None] - centers[:, 0]) ** 2
             + (cols[..., None] - centers[:, 1]) ** 2)
    labels = np.argmin(dist2, axis=2)

    atoms = _spectral_atoms(spec.n_s)
    signatures = np.empty((spec.n_regions, spec.n_s))
    for k in range(spec.n_regions):
        chosen = gen.choice(spec.n_s, size=spec.n_atoms, replace=False)
        weights = 0.5 + gen.random(spec.n_atoms)
        signatures[k] = weights @ atoms[chosen]

    data = signatures[labels]  # (n_v, n_h, n_s)
    return Datacube(np.ascontiguousarray(data / data.max()))


def default_bpdn_config():
    """Baseline solver settings used by the experiment runner and the CLI.

    gamma comes from a grid sweep on the 32x32x16 reference phantom at
    sigma 1e-2: the largest weight whose runs still terminate on the
    relative-change threshold within the default iteration budget.
    """
    return SolverConfig(gamma=2e-4)


def default_hybrid_config():
    """Hybrid solver settings used by the experiment runner and the CLI.

    Swept the same way as default_bpdn_config; equal TV and spectral
    weights performed best at this scale.
    """
    return SolverConfig(gamma1=2e-4, gamma2=2e-4)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep over one cube: a grid of sampling rates, several seeds,
    and the solver settings of each method."""

    rates: tuple = ((0.3, 0.25), (0.5, 0.5))
    sigma: float = 0.01
    seeds: tuple = (0, 1, 2, 3, 4)
    bpdn: SolverConfig = field(default_factory=default_bpdn_config)
    hybrid: SolverConfig = field(default_factory=default_hybrid_config)

    def __post_init__(self):
        check_noise_level(self.sigma)
        if not self.rates or not self.seeds:
            raise ValueError("rates and seeds must be non-empty")
        for r_p, r_s in self.rates:
            check_rates(r_p, r_s)


def sample_training_columns(x, seed):
    """Spectral basis training set: 1% of the pixels, at least n_s of them."""
    n_s, n_p = x.shape
    count = min(n_p, max(round(0.01 * n_p), n_s))
    idx = rng.stream(seed, rng.BASIS_SAMPLE).choice(n_p, size=count, replace=False)
    return x[:, np.sort(idx)]


def acquire_at_rates(cube, r_p, r_s, sigma, seed, q_p=None, q_s=None):
    """Acquire cube at rates (r_p, r_s); seed keys both projectors and the
    noise, and q_p, q_s override the default low-pass counts."""
    m_p, m_s = rates_to_counts(r_p, r_s, cube.n_p, cube.n_s)
    q_p, q_s = default_lowpass_counts(cube.n_p, cube.n_s, m_p, m_s, q_p, q_s)
    pp = SpatialProjector(cube.n_v, cube.n_h, m_p, q_p, seed)
    sp = SpectralProjector(cube.n_s, m_s, q_s, seed)
    return acquire(as_band_pixel_matrix(cube), sp, pp, sigma, noise_seed=seed)


def _recover_bpdn(meas, basis, config, x_truth=None):
    haar = HaarBasis(meas.spatial.n_v, meas.spatial.n_h)
    return apg_bpdn(meas, haar, basis, config, x_truth=x_truth)


# Each recovery method by name: its solver, its default settings and the
# SolverConfig weights it reads. recover, run_experiment and the CLI read it.
Method = namedtuple("Method", "solve default_config weights")
METHODS = {"bpdn": Method(_recover_bpdn, default_bpdn_config, ("gamma",)),
           "hybrid": Method(recover_hybrid, default_hybrid_config,
                            ("gamma1", "gamma2"))}


def recover(method, meas, basis, config, x_truth=None):
    """(x_hat, trace) of the METHODS entry named method; bpdn runs over the
    grid's HaarBasis."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected "
                         + " or ".join(map(repr, METHODS)))
    return METHODS[method].solve(meas, basis, config, x_truth=x_truth)


def run_experiment(spec, cube):
    """Run both solvers over the rate/seed grid; returns one row per run.

    Row keys: method, r_p, r_s, seed, relative_error, iterations,
    wall_time_s, reason (the solver's stop reason). The cube is fixed;
    projectors, noise, and the basis training sample are re-drawn per seed.
    """
    x_true = as_band_pixel_matrix(cube)
    rows = []
    for seed in spec.seeds:
        basis = learn_spectral_basis(sample_training_columns(x_true, seed))
        for r_p, r_s in spec.rates:
            meas = acquire_at_rates(cube, r_p, r_s, spec.sigma, seed)
            for method in METHODS:
                start = time.perf_counter()
                x_hat, trace = recover(method, meas, basis,
                                       getattr(spec, method))
                rows.append({
                    "method": method,
                    "r_p": r_p,
                    "r_s": r_s,
                    "seed": seed,
                    "relative_error": relative_error(x_true, x_hat),
                    "iterations": trace.iterations,
                    "wall_time_s": time.perf_counter() - start,
                    "reason": trace.reason,
                })
    return rows
