"""Synthetic phantoms, the pipeline's two shared steps, and experiments.

The phantom is a Voronoi partition of the image plane where every cell
carries a random sparse mixture of smooth spectral atoms. That gives the
two structures the solvers exploit: piecewise-constant frames (small TV)
and a low-rank band-by-pixel matrix (at most one signature per region).
"""

import time
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

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
        for name in ("n_v", "n_h", "n_s", "n_regions", "n_atoms"):
            value = getattr(self, name)
            if not rng.is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
        if self.n_atoms > self.n_s:
            raise ValueError(
                f"n_atoms must lie in [1, {self.n_s}], got {self.n_atoms}")
        rng.check_seed(self.seed)


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


def _recover_bpdn(meas, basis, config, x_truth=None):
    haar = HaarBasis(meas.spatial.n_v, meas.spatial.n_h)
    return apg_bpdn(meas, haar, basis, config, x_truth=x_truth)


# Each recovery method by name: its solver, its default settings, and each
# SolverConfig weight it reads with the term it weighs. Nothing else names one.
Method = namedtuple("Method", "solve default_config weights")
METHODS = {"bpdn": Method(_recover_bpdn, default_bpdn_config, {"gamma": "l1"}),
           "hybrid": Method(recover_hybrid, default_hybrid_config,
                            {"gamma1": "TV", "gamma2": "spectral l1"})}


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep over one cube: a grid of sampling rates and several
    seeds. Each METHODS entry runs at its default_config()."""

    rates: tuple = ((0.3, 0.25), (0.5, 0.5))
    sigma: float = 0.01
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        check_noise_level(self.sigma)
        for name, value in (("rates", self.rates), ("seeds", self.seeds)):
            if not (_is_sequence(value) and value):
                raise ValueError(
                    f"{name} must be a non-empty sequence, got {value!r}")
        for seed in self.seeds:
            rng.check_seed(seed)
        for pair in self.rates:
            if not (_is_sequence(pair) and len(pair) == 2):
                raise ValueError(f"bad rate pair {pair!r}; expected (r_p, r_s)")
            check_rates(*pair)


def _is_sequence(value):
    return isinstance(value, Sequence) and not isinstance(value, str)


def sample_training_columns(x, seed):
    """Spectral basis training set: 1% of the pixels, at least n_s of them."""
    n_s, n_p = x.shape
    count = min(n_p, max(round(0.01 * n_p), n_s))
    idx = rng.stream(seed, rng.BASIS_SAMPLE).choice(n_p, size=count, replace=False)
    return x[:, np.sort(idx)]


def acquire_at_rates(cube, r_p, r_s, sigma, seed, q_p=None, q_s=None):
    """Acquire cube at rates (r_p, r_s); seed keys both projectors and the
    noise, and q_p, q_s override the default low-pass counts."""
    check_noise_level(sigma)  # before the projectors are built
    m_p, m_s = rates_to_counts(r_p, r_s, cube.n_p, cube.n_s)
    q_p, q_s = default_lowpass_counts(cube.n_p, cube.n_s, m_p, m_s, q_p, q_s)
    pp = SpatialProjector(cube.n_v, cube.n_h, m_p, q_p, seed)
    sp = SpectralProjector(cube.n_s, m_s, q_s, seed)
    return acquire(as_band_pixel_matrix(cube), sp, pp, sigma, noise_seed=seed)


def run_experiment(spec, cube):
    """Run each METHODS entry, at the default_config() it holds when the
    sweep runs, over the rate/seed grid; one row per run.

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
            for name, method in METHODS.items():
                start = time.perf_counter()
                x_hat, trace = method.solve(meas, basis, method.default_config())
                rows.append({
                    "method": name,
                    "r_p": r_p,
                    "r_s": r_s,
                    "seed": seed,
                    "relative_error": relative_error(x_true, x_hat),
                    "iterations": trace.iterations,
                    "wall_time_s": time.perf_counter() - start,
                    "reason": trace.reason,
                })
    return rows
