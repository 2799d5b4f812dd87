"""Accelerated proximal solvers for datacube recovery.

One loop, _run, serves every solver. It splits the cost into f, the
least-squares data term plus any weighted TV, and an l1 term: a step along
f's (sub)gradient direction at the extrapolated iterate, the l1 prox, then
FISTA extrapolation, stopping on the relative change of the extrapolated
iterate. Each iterate takes one fused operator pass,
sensing.residual_and_adjoint, which expands each chunk of a chunked spatial
Rademacher block once: with the TV pair it gives both f at the iterate and
the next step direction. The returned iterate takes a plain projection
instead, since no step follows it to use the adjoint.

Both solvers share one nonsmooth step, prox_transformed: the prox of an l1
norm on the coefficients W Psi^T x, with Psi any invertible spectral basis
and W an optional frame-wise spatial basis. The same coefficients give the
l1 term of the cost. For a non-orthonormal Psi the coefficient-space
iteration runs in band space through a preconditioned step and an
inverse-transpose synthesis, the plain maps for an orthonormal basis.

- apg_bpdn: least squares plus an l1 penalty on coefficients in the
  spectral basis and a frame-wise orthonormal wavelet basis.
- recover_hybrid: least squares plus a total-variation term (handled by a
  subgradient inside the gradient step) and an l1 penalty on spectral-basis
  coefficients only.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .regularizers import prox_l1, tv_sum_and_subgradient
from .sensing import adjoint, project, residual_and_adjoint
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
    iteration count. Every run takes FISTA extrapolation.
    """

    step_size: float = 0.25
    gamma: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    tau: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        # a nan or inf never stops the loop or reads as a diverged run
        for name in ("step_size", "gamma", "gamma1", "gamma2", "tau"):
            value = getattr(self, name)
            positive = name in ("step_size", "tau")
            if not (rng.is_real(value) and math.isfinite(value)) or value < 0 or (
                    positive and value == 0):
                raise ValueError(f"{name} must be finite and "
                                 f"{'> 0' if positive else '>= 0'}, got {value}")
        n = self.max_iters
        if not rng.is_integer(n) or n < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {n}")


@dataclass(frozen=True)
class Trace:
    """Per-iterate relative change, cost and (given a truth, else None)
    squared relative error of one solver run, and why the loop stopped."""

    rel_change: np.ndarray
    cost: np.ndarray
    truth_error: Optional[np.ndarray]
    reason: str  # "threshold" or "max-iters"

    @property
    def iterations(self):
        return len(self.cost)


def fista_momentum(alpha_prev):
    """Next momentum parameter and extrapolation weight.

    alpha_next = (1 + sqrt(1 + 4 alpha_prev^2)) / 2;
    weight = (alpha_prev - 1) / alpha_next. Starting from alpha = 1 the
    first step is unextrapolated.
    """
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


def relative_error(x_true, x_rec):
    """||x_true - x_rec||_F^2 / ||x_true||_F^2 (note: squared ratio)."""
    x_true = np.asarray(x_true, dtype=np.float64)
    x_rec = np.asarray(x_rec, dtype=np.float64)
    if x_true.shape != x_rec.shape:
        raise ValueError(f"shapes {x_true.shape} and {x_rec.shape} differ")
    denom = float(np.sum(x_true * x_true))
    if denom == 0.0:
        raise ValueError("ground truth is identically zero")
    diff = x_true - x_rec
    return float(np.sum(diff * diff)) / denom


def _coefficients(x, spectral_basis, spatial_basis):
    """W Psi^T x: the coefficients the l1 term weighs (W omitted when None)."""
    coeff = basis_apply(spectral_basis, x, "analysis")
    return coeff if spatial_basis is None else spatial_basis.analyze(coeff)


def prox_transformed(z, xi, spectral_basis, spatial_basis=None):
    """Band-space prox of xi * ||W Psi^T X||_1: Psi^-T W^T soft(W Psi^T z).

    Psi is the spectral basis and W the frame-wise orthonormal spatial basis
    (a HaarBasis), the identity when omitted. For an orthonormal Psi this
    is the Euclidean prox Psi W^T soft(W Psi^T z). For a general invertible
    Psi it is the coefficient-space prox r -> soft(r), r = Psi^T x, mapped
    back to band space.
    """
    shrunk = prox_l1(_coefficients(z, spectral_basis, spatial_basis), xi)
    if spatial_basis is not None:
        shrunk = spatial_basis.synthesize(shrunk)
    return basis_apply(spectral_basis, shrunk, "pinv_synthesis")


def _run(measurements, spectral_basis, spatial_basis, tv_weight, l1_weight,
         config, x_truth):
    """The FISTA proximal loop every solver runs.

    The cost is f(x) = 0.5 ||y - Phi x||^2 + tv_weight TV(x) plus
    l1_weight ||W Psi^T x||_1. One residual_and_adjoint pass and, when
    tv_weight > 0, one TV differentiation give f(x) and the step direction
    Phi^T (y - Phi x) - tv_weight dTV(x). The last iterate needs only f, so
    it takes y - project(x) alone: the same residual bit for bit. The step
    is preconditioned by (Psi Psi^T)^-1, the identity for an orthonormal
    basis; the l1 term enters through its prox, skipped at a zero weight.
    """
    y, sp, pp = measurements.y, measurements.spectral, measurements.spatial
    if spectral_basis.n_s != sp.n_s:
        raise ValueError(f"spectral basis size {spectral_basis.n_s} does not "
                         f"match projector bands {sp.n_s}")
    if (spatial_basis is not None
            and (spatial_basis.n_v, spatial_basis.n_h) != (pp.n_v, pp.n_h)):
        raise ValueError("spatial basis grid does not match the projector")
    xi = config.step_size * l1_weight

    def f_and_direction(x, last=False):
        # f(x) and, unless x is the last iterate, its step direction
        if last:
            resid, d = y - project(x, sp, pp), None
        else:
            resid, d = residual_and_adjoint(y, x, sp, pp)
        f = 0.5 * float(np.sum(resid * resid))
        if tv_weight > 0:
            tv_total, tv_grad = tv_sum_and_subgradient(x, pp.n_v, pp.n_h)
            f += tv_weight * tv_total
            if not last:
                # both in the subgradient's buffer, which is dead after it
                tv_grad *= tv_weight
                d -= tv_grad
        return f, d

    x = adjoint(y, sp, pp)
    _, d = f_and_direction(x)
    # the extrapolation overwrites it, and x is still read at n = 1
    x_tilde_prev = x.copy()
    alpha = 1.0
    rels, costs, terrs = [], [], []
    reason = "max-iters"
    # Each step writes into a buffer that is dead after it, with the operands
    # of every IEEE operation as in the plain expressions, so the bits are
    # theirs, and at most three cube-sized arrays live across the steps.
    # Overflow warnings on a diverging run are expected; the guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, config.max_iters + 1):
            # x + step_size * G d, in the direction's buffer
            x_tilde = np.multiply(
                basis_apply(spectral_basis, d, "gram_inverse"),
                config.step_size, out=d)
            x_tilde += x
            del d
            if l1_weight > 0:
                x_tilde = prox_transformed(x_tilde, xi, spectral_basis,
                                           spatial_basis)
            alpha, weight = fista_momentum(alpha)
            # x_tilde + weight * (x_tilde - x_tilde_prev), in x_tilde_prev
            x_next = np.subtract(x_tilde, x_tilde_prev, out=x_tilde_prev)
            x_next *= weight
            x_next += x_tilde
            rel = relative_change(x_next, x)
            x = x_next
            cost, d = f_and_direction(
                x, rel < config.tau or n == config.max_iters)
            if l1_weight > 0:
                cost += l1_weight * float(np.abs(_coefficients(
                    x, spectral_basis, spatial_basis)).sum())
            rels.append(rel)
            costs.append(cost)
            if x_truth is not None:
                terrs.append(relative_error(x_truth, x))
            # a steady geometric blow-up can run to max-iters before the
            # cost overflows; growth far past the first cost catches it
            if (rel > _DIVERGENCE_LIMIT or not np.isfinite(cost)
                    or cost > _DIVERGENCE_LIMIT * costs[0]):
                raise DivergenceError(
                    f"iteration {n} diverged with step size {config.step_size}: "
                    f"relative change {rel:.3e}, cost {cost:.3e}")
            x_tilde_prev = x_tilde
            if rel < config.tau:
                reason = "threshold"
                break
    return x, Trace(
        rel_change=np.array(rels),
        cost=np.array(costs),
        truth_error=np.array(terrs) if x_truth is not None else None,
        reason=reason)


def apg_bpdn(measurements, spatial_basis, spectral_basis, config, x_truth=None):
    """Accelerated proximal-gradient BPDN baseline.

    Minimizes the least-squares data term plus config.gamma times the l1
    norm of W Psi^T X: W a frame-wise orthonormal wavelet basis, Psi any
    invertible spectral basis. Returns (recovered band-by-pixel matrix, Trace).
    """
    return _run(measurements, spectral_basis, spatial_basis, 0.0, config.gamma,
                config, x_truth)


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
    return _run(measurements, spectral_basis, None, config.gamma1,
                config.gamma2, config, x_truth)


# The dictionary route's old name; its one caller is hsbench/workloads.py.
recover_hybrid_nonortho = recover_hybrid
