"""Accelerated proximal solvers for datacube recovery.

One loop, _run, serves every solver: a gradient (or subgradient) step on
the data term at the extrapolated iterate, a prox step, then FISTA
extrapolation, stopping on the relative change of the extrapolated iterate.
The loop projects each iterate once; the residual and the TV pair it keeps
give both the iterate's cost and the next gradient step.

- apg_bpdn: least squares plus an l1 penalty on coefficients in an
  orthonormal spectral basis and a frame-wise orthonormal wavelet basis;
  the prox is soft thresholding in the transformed domain.
- recover_hybrid: least squares plus a total-variation term (handled by a
  subgradient inside the gradient step) and an l1 penalty on spectral-basis
  coefficients only. Any invertible spectral basis works: the
  coefficient-space iteration of a non-orthonormal dictionary runs in band
  space through a preconditioned step and an inverse-transpose synthesis,
  both of which reduce to the plain maps for an orthonormal basis.
  recover_hybrid_nonortho is the same function under its older name.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regularizers import prox_l1, tv_sum_and_subgradient
from .sensing import adjoint, project
from .transforms import basis_apply

_DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Raised when the iteration blows up (step size too large for the operator)."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    step_size is the fixed gradient step; gamma weights the BPDN l1 term;
    gamma1/gamma2 weight the hybrid objective's TV and spectral-l1 terms;
    tau is the relative-change stopping threshold; max_iters caps the
    iteration count; accelerate toggles FISTA extrapolation.
    """

    step_size: float = 0.25
    gamma: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    tau: float = 1e-3
    max_iters: int = 200
    accelerate: bool = True

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        for name in ("gamma", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class Trace:
    """Per-iteration diagnostics of one solver run."""

    rel_change: np.ndarray
    cost: np.ndarray
    subgrad_norm: np.ndarray
    truth_error: Optional[np.ndarray]
    reason: str  # "threshold" or "max-iters"

    @property
    def iterations(self):
        return len(self.cost)

    def best_cost(self):
        """Running minimum of the objective (non-increasing by construction)."""
        return np.minimum.accumulate(self.cost)


def fista_momentum(alpha_prev):
    """Next momentum parameter and extrapolation weight.

    alpha_next = (1 + sqrt(1 + 4 alpha_prev^2)) / 2;
    weight = (alpha_prev - 1) / alpha_next. Starting from alpha = 1 the
    first step is unextrapolated.
    """
    if alpha_prev < 1:
        raise ValueError(f"momentum parameter must be >= 1, got {alpha_prev}")
    alpha_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_prev * alpha_prev))
    return alpha_next, (alpha_prev - 1.0) / alpha_next


def relative_change(x_new, x_prev):
    """||x_new - x_prev||_F / ||x_prev||_F with guarded zero cases.

    Zero change reads as 0 regardless of the denominator; a nonzero change
    from a zero previous iterate reads as +inf.
    """
    num = float(np.linalg.norm(x_new - x_prev))
    if num == 0.0:
        return 0.0
    den = float(np.linalg.norm(x_prev))
    return num / den if den > 0.0 else float("inf")


def _truth_metric(x, x_truth, truth_norm2):
    diff = x - x_truth
    return float(np.sum(diff * diff)) / truth_norm2


def _run(measurements, basis, config, tv_weight, prox_fn, penalty_fn, x_truth):
    """The accelerated proximal loop every solver runs.

    Each iterate x is projected once and, when tv_weight > 0, TV-differentiated
    once: the residual y - project(x) and the TV pair give both the cost of x
    and the next gradient step from x. The step is preconditioned by
    (Psi Psi^T)^-1, the identity for an orthonormal basis; penalty_fn(x) is
    the weighted l1 term of the cost.
    """
    y, sp, pp = measurements.y, measurements.spectral, measurements.spatial
    if x_truth is not None:
        x_truth = np.asarray(x_truth, dtype=np.float64)
        truth_norm2 = float(np.sum(x_truth * x_truth))
        if truth_norm2 == 0.0:
            raise ValueError("ground truth is identically zero")

    def data_terms(x):
        resid = y - project(x, sp, pp)
        if tv_weight > 0:
            return (resid, *tv_sum_and_subgradient(x, pp.n_v, pp.n_h))
        return resid, 0.0, None

    x = adjoint(y, sp, pp)
    resid, _, tv_grad = data_terms(x)
    x_tilde_prev = x
    alpha = 1.0
    rels, costs, snorms, terrs = [], [], [], []
    reason = "max-iters"
    # overflow warnings on a diverging run are expected; the guard reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, config.max_iters + 1):
            g = adjoint(resid, sp, pp)
            if tv_grad is not None:
                g = g - tv_weight * tv_grad
                tv_grad = None  # freed before the next iterate's is computed
            x_tilde = prox_fn(
                x + config.step_size * basis_apply(basis, g, "gram_inverse"))
            if config.accelerate:
                alpha, weight = fista_momentum(alpha)
            else:
                weight = 0.0
            x_next = x_tilde + weight * (x_tilde - x_tilde_prev)
            rel = relative_change(x_next, x)
            resid, tv_total, tv_grad = data_terms(x_next)
            cost = (0.5 * float(np.sum(resid * resid)) + tv_weight * tv_total
                    + penalty_fn(x_next))
            rels.append(rel)
            costs.append(cost)
            snorms.append(float(np.linalg.norm(g)))
            if x_truth is not None:
                terrs.append(_truth_metric(x_next, x_truth, truth_norm2))
            # a steady geometric blow-up can run to max-iters before the
            # cost overflows; growth far past the first cost catches it
            if (rel > _DIVERGENCE_LIMIT or not np.isfinite(cost)
                    or cost > _DIVERGENCE_LIMIT * costs[0]):
                raise DivergenceError(
                    f"iteration {n} diverged with step size {config.step_size}: "
                    f"relative change {rel:.3e}, cost {cost:.3e}")
            x_tilde_prev = x_tilde
            x = x_next
            if rel < config.tau:
                reason = "threshold"
                break
    return x, Trace(
        rel_change=np.array(rels),
        cost=np.array(costs),
        subgrad_norm=np.array(snorms),
        truth_error=np.array(terrs) if x_truth is not None else None,
        reason=reason)


def _check_bands(basis, sp):
    if basis.n_s != sp.n_s:
        raise ValueError(f"spectral basis size {basis.n_s} does not "
                         f"match projector bands {sp.n_s}")


def apg_bpdn(measurements, spatial_basis, spectral_basis, config, x_truth=None):
    """Accelerated proximal-gradient BPDN baseline.

    Minimizes the least-squares data term plus config.gamma times the l1
    norm of the coefficients in the given orthonormal spatial wavelet and
    spectral bases. Returns (recovered band-by-pixel matrix, Trace).
    """
    sp, pp = measurements.spectral, measurements.spatial
    if not spectral_basis.orthonormal:
        raise ValueError("apg_bpdn requires an orthonormal spectral basis; "
                         "recover_hybrid accepts general dictionaries")
    _check_bands(spectral_basis, sp)
    if (spatial_basis.n_v, spatial_basis.n_h) != (pp.n_v, pp.n_h):
        raise ValueError("spatial basis grid does not match the projector")
    xi = config.step_size * config.gamma

    def analyze(x):
        return spatial_basis.analyze(basis_apply(spectral_basis, x, "analysis"))

    def prox(z):
        shrunk = prox_l1(analyze(z), xi)
        return basis_apply(spectral_basis, spatial_basis.synthesize(shrunk),
                           "synthesis")

    def penalty(x):
        return config.gamma * float(np.abs(analyze(x)).sum())

    return _run(measurements, spectral_basis, config, 0.0, prox, penalty, x_truth)


def recover_hybrid(measurements, spectral_basis, config, x_truth=None):
    """Accelerated proximal-subgradient solver for the hybrid objective.

    Minimizes the least-squares data term plus config.gamma1 times the TV
    summed over the bands plus config.gamma2 times ||Psi^T X||_1, for any
    invertible spectral basis Psi. The TV term enters through its
    subgradient inside the gradient step. The l1 term enters through the
    coefficient-space prox r -> soft(r) with r = Psi^T x, taken in band
    space: the step is preconditioned by (Psi Psi^T)^-1 and the prox is
    Psi^-T soft(Psi^T z). For an orthonormal Psi both reduce to the plain
    step and Psi soft(Psi^T z). Returns (recovered band-by-pixel matrix, Trace).
    """
    _check_bands(spectral_basis, measurements.spectral)
    xi = config.step_size * config.gamma2

    def prox(z):
        if config.gamma2 == 0:
            return z
        shrunk = prox_l1(basis_apply(spectral_basis, z, "analysis"), xi)
        return basis_apply(spectral_basis, shrunk, "pinv_synthesis")

    def penalty(x):
        coeff = basis_apply(spectral_basis, x, "analysis")
        return config.gamma2 * float(np.abs(coeff).sum())

    return _run(measurements, spectral_basis, config, config.gamma1, prox,
                penalty, x_truth)


# The dictionary route of the paper is recover_hybrid under a
# non-orthonormal basis; the name is kept for existing callers.
recover_hybrid_nonortho = recover_hybrid
