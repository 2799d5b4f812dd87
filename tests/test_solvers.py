import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hsrec
import hsrec.sensing as sensing
import hsrec.solvers as solvers
from hsrec.datacube import as_band_pixel_matrix
from hsrec.harness import (METHODS, PhantomSpec, acquire_at_rates,
                           default_bpdn_config, default_hybrid_config,
                           generate_phantom, relative_error,
                           sample_training_columns)
from hsrec.regularizers import prox_l1, tv_sum_and_subgradient
from hsrec.sensing import (Measurements, SpatialProjector, SpectralProjector,
                           acquire, adjoint, default_lowpass_counts, project,
                           rates_to_counts)
from hsrec.solvers import (DivergenceError, SolverConfig, Trace, apg_bpdn,
                           fista_momentum, recover_hybrid, relative_change)
from hsrec.transforms import HaarBasis, SpectralBasis, learn_spectral_basis
from oracles import haar_matrix, spatial_matrix, spectral_matrix


def _desk_measurements(r_p=0.5, r_s=0.5, phantom_seed=1, seed=4, sigma=0.01):
    """Frozen 16x16x8 instance used across the solver tests."""
    cube = generate_phantom(PhantomSpec(16, 16, 8, seed=phantom_seed))
    x = as_band_pixel_matrix(cube)
    m_p, m_s = rates_to_counts(r_p, r_s, 256, 8)
    q_p, q_s = default_lowpass_counts(256, 8, m_p, m_s)
    pp = SpatialProjector(16, 16, m_p, q_p, seed=seed)
    sp = SpectralProjector(8, m_s, q_s, seed=1000 + seed)
    meas = acquire(x, sp, pp, sigma=sigma, noise_seed=seed)
    basis = learn_spectral_basis(sample_training_columns(x, seed=seed))
    return x, meas, basis


def _small_measurements(sigma=0.01):
    gen = np.random.default_rng(11)
    x = gen.normal(size=(8, 64))
    pp = SpatialProjector(8, 8, 32, 6, seed=3)
    sp = SpectralProjector(8, 4, 1, seed=4)
    return x, acquire(x, sp, pp, sigma=sigma, noise_seed=9)


# ---------------------------------------------------------------- momentum

def test_fista_momentum_frozen_sequence():
    alpha, weight = fista_momentum(1.0)
    assert alpha == pytest.approx(1.618033988749895, rel=1e-12)
    assert weight == 0.0
    alpha, weight = fista_momentum(alpha)
    assert alpha == pytest.approx(2.193527085331054, rel=1e-12)
    assert weight == pytest.approx(0.28175352512532087, rel=1e-12)
    alpha, weight = fista_momentum(alpha)
    assert alpha == pytest.approx(2.749791340120445, rel=1e-12)
    assert weight == pytest.approx(0.434042782780302, rel=1e-12)


def test_fista_momentum_growth():
    alpha = 1.0
    prev_weight = -1.0
    for n in range(1, 101):
        alpha, weight = fista_momentum(alpha)
        assert alpha >= (n + 2) / 2.0  # classical lower bound
        assert 0.0 <= weight < 1.0
        assert weight > prev_weight
        prev_weight = weight


# ---------------------------------------------------------------- stopping

def test_relative_change_conventions():
    assert relative_change(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_change(np.ones(3), np.ones(3)) == 0.0
    assert relative_change(np.ones(3), np.zeros(3)) == math.inf
    got = relative_change(np.array([1.1, 0.0]), np.array([1.0, 0.0]))
    assert got == pytest.approx(0.1, rel=1e-9)


# ---------------------------------------------------------------- config

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=-1e-4)
    with pytest.raises(ValueError):
        SolverConfig(gamma1=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma2=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=2.5)  # range() would fail only inside the loop
    # non-finite values: nan never stops the loop, inf reads as divergence
    for name in ("step_size", "gamma", "gamma1", "gamma2", "tau"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})


# ---------------------------------------------------------------- costs
# Trace.cost[-1] is the objective at the returned iterate; a one-iteration
# solve lands on a generic point where a dense oracle checks it.

def test_cost_bpdn_matches_dense_oracle():
    gen = np.random.default_rng(20)
    pp = SpatialProjector(4, 4, 6, 2, seed=30)
    sp = SpectralProjector(8, 4, 1, seed=31)
    y = gen.normal(size=(4, 6))
    q, _ = np.linalg.qr(gen.normal(size=(8, 8)))
    gamma = 0.3
    x, trace = apg_bpdn(Measurements(y=y, spectral=sp, spatial=pp),
                        HaarBasis(4, 4), SpectralBasis(q),
                        SolverConfig(gamma=gamma, max_iters=1))
    assert x.any()

    resid = y - spectral_matrix(sp) @ x @ spatial_matrix(pp).T
    h = haar_matrix(4)
    z = q.T @ x
    l1 = sum(np.abs(h @ z[k].reshape(4, 4, order="F") @ h.T).sum()
             for k in range(8))
    want = 0.5 * np.sum(resid ** 2) + gamma * l1
    assert trace.cost[-1] == pytest.approx(want, rel=1e-10)


def test_cost_hybrid_matches_dense_oracle():
    gen = np.random.default_rng(21)
    pp = SpatialProjector(4, 4, 6, 2, seed=32)
    sp = SpectralProjector(8, 4, 1, seed=33)
    y = gen.normal(size=(4, 6))
    q, _ = np.linalg.qr(gen.normal(size=(8, 8)))
    gamma1, gamma2 = 0.2, 0.05
    x, trace = recover_hybrid(Measurements(y=y, spectral=sp, spatial=pp),
                              SpectralBasis(q),
                              SolverConfig(gamma1=gamma1, gamma2=gamma2,
                                           max_iters=1))
    assert x.any()

    resid = y - spectral_matrix(sp) @ x @ spatial_matrix(pp).T
    tv_total = 0.0
    for k in range(8):
        f = x[k].reshape(4, 4, order="F")
        dv = np.zeros((4, 4))
        dh = np.zeros((4, 4))
        dv[:-1] = f[1:] - f[:-1]
        dh[:, :-1] = f[:, 1:] - f[:, :-1]
        tv_total += np.sqrt(dv ** 2 + dh ** 2).sum()
    want = (0.5 * np.sum(resid ** 2) + gamma1 * tv_total
            + gamma2 * np.abs(q.T @ x).sum())
    assert trace.cost[-1] == pytest.approx(want, rel=1e-10)


def _count_calls(monkeypatch, names):
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)
    return calls


def test_each_iterate_is_projected_and_differentiated_once(monkeypatch):
    # one adjoint gives the start; then each iterate costs one fused
    # residual-and-adjoint pass and one TV pair, shared between its cost
    # and the next step. The last iterate is only projected: no step
    # follows it to use an adjoint
    _, meas, basis = _desk_measurements()
    names = ("residual_and_adjoint", "project", "adjoint",
             "tv_sum_and_subgradient")
    n = 7
    calls = _count_calls(monkeypatch, names)
    _, trace = recover_hybrid(meas, basis, SolverConfig(
        gamma1=2e-4, gamma2=2e-4, tau=1e-30, max_iters=n))
    assert trace.iterations == n
    assert calls == {"residual_and_adjoint": n, "project": 1, "adjoint": 1,
                     "tv_sum_and_subgradient": n + 1}
    calls = _count_calls(monkeypatch, names)
    _, trace = apg_bpdn(meas, HaarBasis(16, 16), basis, SolverConfig(
        gamma=1e-3, tau=1e-30, max_iters=n))
    assert trace.iterations == n
    assert calls == {"residual_and_adjoint": n, "project": 1, "adjoint": 1}
    # a run that stops on the threshold projects its last iterate alike
    calls = _count_calls(monkeypatch, names)
    _, trace = recover_hybrid(meas, basis, SolverConfig(
        gamma1=2e-4, gamma2=2e-4, tau=1e-2, max_iters=200))
    assert trace.reason == "threshold"
    assert calls == {"residual_and_adjoint": trace.iterations, "project": 1,
                     "adjoint": 1,
                     "tv_sum_and_subgradient": trace.iterations + 1}


def test_solve_expands_each_spatial_chunk_once_per_iterate(monkeypatch):
    # a chunked spatial block: the start adjoint, n fused passes and the
    # last iterate's projection expand each chunk n + 2 times; the
    # spectral rows live in M
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 5 * 256)
    _, meas, basis = _desk_measurements()
    pp = meas.spatial
    assert pp._cache is None and pp._chunk == 5
    calls = Counter()
    original = SpatialProjector._expand

    def spy(self, lo, hi, out):
        assert self is pp
        calls[lo] += 1
        return original(self, lo, hi, out)

    monkeypatch.setattr(SpatialProjector, "_expand", spy)
    n = 4
    for solve in (
            lambda config: recover_hybrid(meas, basis, config),
            lambda config: apg_bpdn(meas, HaarBasis(16, 16), basis, config)):
        calls.clear()
        _, trace = solve(SolverConfig(gamma=1e-3, gamma1=2e-4, gamma2=2e-4,
                                      tau=1e-30, max_iters=n))
        assert trace.iterations == n
        assert calls == dict.fromkeys(range(0, pp.m_p - pp.q_p, pp._chunk),
                                      n + 2)


def test_solve_peak_stays_within_cube_budget():
    # an uncached 64x64x32 (0.5, 0.25) instance: three cube-sized arrays
    # live across the steps, plus TV's three or the Haar prox's temporaries
    # and the expanded chunk (6.3 and 6.1 cubes; 7.1 for hybrid while TV
    # held four, and 10.1 and 8.1 with a new array per step). Hybrid keeps
    # the bound of 8: 7 would leave 0.7 cube for other numpy versions'
    # temporaries. test_tv_holds_three_cube_sized_arrays bounds TV's own
    cube = generate_phantom(PhantomSpec(64, 64, 32, seed=0))
    x = as_band_pixel_matrix(cube)
    meas = acquire_at_rates(cube, 0.5, 0.25, 0.01, 0)
    assert meas.spatial._cache is None
    basis = learn_spectral_basis(sample_training_columns(x, 0))
    for name, budget in (("hybrid", 8), ("bpdn", 7)):
        method = METHODS[name]
        config = dataclasses.replace(method.default_config(), tau=1e-30,
                                     max_iters=4)
        tracemalloc.start()
        try:
            method.solve(meas, basis, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget * x.nbytes, (name, peak / x.nbytes)


@pytest.mark.parametrize("method", ["hybrid", "bpdn"])
def test_loop_matches_written_out_fista_bit_for_bit(method):
    # the loop's in-place steps against the plain expressions they replace
    x_true, meas, basis = _desk_measurements()
    y, sp, pp = meas.y, meas.spectral, meas.spatial
    tv_weight, l1_weight, haar = 2e-4, 1e-3, None
    if method == "bpdn":
        tv_weight, haar = 0.0, HaarBasis(16, 16)
    config = SolverConfig(gamma=l1_weight, gamma1=tv_weight, gamma2=l1_weight,
                          tau=1e-30, max_iters=6)
    if method == "bpdn":
        x_got, trace = apg_bpdn(meas, haar, basis, config)
    else:
        x_got, trace = recover_hybrid(meas, basis, config)

    def f_and_direction(x, last):
        if last:
            resid, d = y - project(x, sp, pp), None
        else:
            resid, d = sensing.residual_and_adjoint(y, x, sp, pp)
        f = 0.5 * float(np.sum(resid * resid))
        if tv_weight > 0:
            total, grad = tv_sum_and_subgradient(x, 16, 16)
            f += tv_weight * total
            if not last:
                d = d - tv_weight * grad
        f += l1_weight * float(np.abs(solvers._coefficients(
            x, basis, haar)).sum())
        return f, d

    x = adjoint(y, sp, pp)
    _, d = f_and_direction(x, False)
    x_tilde_prev, alpha, costs = x, 1.0, []
    for n in range(1, 7):
        x_tilde = solvers.prox_transformed(
            x + 0.25 * d, 0.25 * l1_weight, basis, haar)
        alpha, weight = fista_momentum(alpha)
        x_next = x_tilde + weight * (x_tilde - x_tilde_prev)
        cost, d = f_and_direction(x_next, n == 6)
        costs.append(cost)
        x_tilde_prev, x = x_tilde, x_next
    assert x_got.tobytes() == x.tobytes()
    assert trace.cost.tobytes() == np.array(costs).tobytes()


def test_rule_sized_chunks_drift_within_tolerance(monkeypatch):
    # the 4-row passes of a 16x16x8 solve take 6-row chunks under the rule
    # and 16-row chunks with _WORKSET_BYTES = 0: only the adjoint's summation
    # order differs. Ten iterations agree to 1e-12 of the largest entry; a
    # full default run stops alike, though TV's subgradient can grow the
    # rounding to 1e-3 there, so its error to the truth agrees to 1e-4
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 16 * 256)
    rule = (24 * 4 + 8 * 6) * 256
    x, meas, basis = _desk_measurements()
    assert meas.spatial._cache is None and meas.y.shape[0] == 4
    for short in (True, False):
        runs = []
        for workset in (rule, 0):
            monkeypatch.setattr(sensing, "_WORKSET_BYTES", workset)
            configs = [default_hybrid_config(), default_bpdn_config()]
            if short:
                configs = [dataclasses.replace(c, tau=1e-30, max_iters=10)
                           for c in configs]
            runs.append([recover_hybrid(meas, basis, configs[0]),
                         apg_bpdn(meas, HaarBasis(16, 16), basis, configs[1])])
        for (x_rule, t_rule), (x_old, t_old) in zip(*runs):
            assert (t_rule.iterations, t_rule.reason) == (t_old.iterations,
                                                          t_old.reason)
            assert not np.array_equal(x_rule, x_old)
            if short:
                assert (np.max(np.abs(x_rule - x_old))
                        <= 1e-12 * np.max(np.abs(x_old)))
            else:
                assert relative_error(x, x_rule) == pytest.approx(
                    relative_error(x, x_old), rel=1e-4)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_cached_slices_drift_within_tolerance(monkeypatch, seed):
    # the 4-row passes of a 16x16x8 solve read the cached 102-row block in
    # 6-row slices at this budget and whole with _WORKSET_BYTES = 0: only the
    # adjoint's summation order differs. A default hybrid run stops alike,
    # and its error to the truth agrees to 1e-4, the benchmark's gate
    x, meas, basis = _desk_measurements(seed=seed)
    assert meas.spatial._cache is not None and meas.y.shape[0] == 4
    runs = []
    for workset in (2 * (24 * 4 + 8 * 6) * 256, 0):
        monkeypatch.setattr(sensing, "_WORKSET_BYTES", workset)
        runs.append(recover_hybrid(meas, basis, default_hybrid_config()))
    (x_sliced, t_sliced), (x_whole, t_whole) = runs
    assert (t_sliced.iterations, t_sliced.reason) == (t_whole.iterations,
                                                      t_whole.reason)
    assert not np.array_equal(x_sliced, x_whole)
    assert relative_error(x, x_sliced) == pytest.approx(
        relative_error(x, x_whole), rel=1e-4)


def test_zero_l1_weight_skips_the_prox(monkeypatch):
    _, meas = _small_measurements()
    ident = SpectralBasis(np.eye(8))
    calls = _count_calls(monkeypatch, ("prox_l1",))
    recover_hybrid(meas, ident, SolverConfig(gamma1=2e-4, max_iters=5))
    apg_bpdn(meas, HaarBasis(8, 8), ident, SolverConfig(max_iters=5))
    assert not calls
    apg_bpdn(meas, HaarBasis(8, 8), ident, SolverConfig(gamma=1e-3,
                                                        tau=1e-30, max_iters=5))
    assert calls == {"prox_l1": 5}


# ---------------------------------------------------------------- apg_bpdn

def test_apg_bpdn_zero_measurements_fixed_point():
    _, meas = _small_measurements()
    zero = acquire(np.zeros((8, 64)), meas.spectral, meas.spatial, sigma=0.0)
    x_rec, trace = apg_bpdn(zero, HaarBasis(8, 8), SpectralBasis(np.eye(8)),
                            SolverConfig(gamma=1e-3))
    assert not x_rec.any()
    assert trace.iterations == 1
    assert trace.reason == "threshold"
    assert trace.rel_change[0] == 0.0


def test_apg_bpdn_full_sampling_recovers():
    cube = generate_phantom(PhantomSpec(8, 8, 8, seed=0))
    x = as_band_pixel_matrix(cube)
    pp = SpatialProjector(8, 8, 64, 64, seed=0)
    sp = SpectralProjector(8, 8, 8, seed=1)
    meas = acquire(x, sp, pp, sigma=0.0)
    x_rec, _ = apg_bpdn(meas, HaarBasis(8, 8), SpectralBasis(np.eye(8)),
                        SolverConfig(gamma=1e-6))
    assert relative_error(x, x_rec) <= 1e-3


def test_apg_bpdn_desk_scale_terminates_by_threshold():
    _, meas, basis = _desk_measurements(r_p=0.5, r_s=0.5)
    _, trace = apg_bpdn(meas, HaarBasis(16, 16), basis, default_bpdn_config())
    assert trace.reason == "threshold"
    assert trace.iterations <= 200


def test_apg_bpdn_rejects_bad_bases():
    _, meas = _small_measurements()
    with pytest.raises(ValueError):
        apg_bpdn(meas, HaarBasis(8, 8), SpectralBasis(np.eye(4)),
                 SolverConfig())
    with pytest.raises(ValueError):
        apg_bpdn(meas, HaarBasis(4, 4), SpectralBasis(np.eye(8)),
                 SolverConfig())


# ---------------------------------------------------------------- recover_hybrid

def test_recover_hybrid_pure_least_squares_full_sampling():
    cube = generate_phantom(PhantomSpec(8, 8, 8, seed=2))
    x = as_band_pixel_matrix(cube)
    pp = SpatialProjector(8, 8, 64, 64, seed=2)
    sp = SpectralProjector(8, 8, 8, seed=3)
    meas = acquire(x, sp, pp, sigma=0.0)
    x_rec, trace = recover_hybrid(meas, SpectralBasis(np.eye(8)),
                                  SolverConfig(gamma1=0.0, gamma2=0.0))
    assert relative_error(x, x_rec) <= 1e-3
    assert trace.reason == "threshold"


def test_recover_hybrid_beats_bpdn_at_low_rates():
    x, meas, basis = _desk_measurements(r_p=0.3, r_s=0.25)
    x_b, _ = apg_bpdn(meas, HaarBasis(16, 16), basis, default_bpdn_config())
    x_h, _ = recover_hybrid(meas, basis, default_hybrid_config())
    assert relative_error(x, x_h) < relative_error(x, x_b)


def test_recover_hybrid_cost_non_increasing():
    _, meas, basis = _desk_measurements()
    _, trace = recover_hybrid(meas, basis, default_hybrid_config())
    assert np.all(np.diff(trace.cost) <= 0.0)
    assert np.all(np.isfinite(trace.cost))


def test_recover_hybrid_truth_trace():
    x, meas, basis = _desk_measurements()
    x_rec, trace = recover_hybrid(meas, basis, default_hybrid_config(),
                                  x_truth=x)
    assert trace.truth_error is not None
    assert len(trace.truth_error) == trace.iterations
    assert trace.truth_error[-1] == pytest.approx(relative_error(x, x_rec),
                                                  rel=1e-12)
    # omitting the truth leaves the channel empty
    _, bare = recover_hybrid(meas, basis, default_hybrid_config())
    assert bare.truth_error is None
    with pytest.raises(ValueError):
        recover_hybrid(meas, basis, default_hybrid_config(),
                       x_truth=np.zeros_like(x))


def test_solvers_deterministic():
    _, meas, basis = _desk_measurements()
    cfg = default_hybrid_config()
    a, ta = recover_hybrid(meas, basis, cfg)
    b, tb = recover_hybrid(meas, basis, cfg)
    assert np.array_equal(a, b)
    assert np.array_equal(ta.cost, tb.cost)
    assert np.array_equal(ta.rel_change, tb.rel_change)


def test_divergence_reports_step_size():
    _, meas = _small_measurements()
    with pytest.raises(DivergenceError, match="step size 100"):
        recover_hybrid(meas, SpectralBasis(np.eye(8)),
                       SolverConfig(step_size=100.0, gamma1=2e-4, gamma2=2e-4))


# ---------------------------------------------------------------- nonortho

def test_nonortho_matches_orthonormal_route():
    # the dictionary route is recover_hybrid itself; on an orthonormal basis
    # it takes the plain maps, which negating the basis leaves exact:
    # (-Q) soft(-Q^T z) = Q soft(Q^T z) bit for bit
    _, meas = _small_measurements()
    q, _ = np.linalg.qr(np.random.default_rng(40).normal(size=(8, 8)))
    cfg = SolverConfig(gamma1=2e-4, gamma2=2e-4, tau=1e-30)
    x_orth, trace_orth = recover_hybrid(meas, SpectralBasis(q), cfg)
    x_gen, trace_gen = recover_hybrid(meas, SpectralBasis(-q), cfg)
    assert trace_orth.iterations == cfg.max_iters
    assert np.array_equal(x_orth, x_gen)
    assert np.array_equal(trace_orth.cost, trace_gen.cost)


def _solve_dictionary(method, meas, basis, l1_weight, **config):
    """One solve on a general spectral basis: recover_hybrid with TV weight
    2e-4, or apg_bpdn with the Haar spatial basis."""
    if method == "bpdn":
        return apg_bpdn(meas, HaarBasis(8, 8), basis,
                        SolverConfig(gamma=l1_weight, **config))
    return recover_hybrid(
        meas, basis, SolverConfig(gamma1=2e-4, gamma2=l1_weight, **config))


@pytest.mark.parametrize("method", ["hybrid", "bpdn"])
def test_nonortho_matches_coefficient_space_iteration(method):
    # the band-space iteration is FISTA on the coefficients r = Psi^T x:
    # gradient step through Psi^-1, soft threshold (of the Haar coefficients
    # W r for bpdn), x = Psi^-T r
    _, meas = _small_measurements()
    sp, pp = meas.spectral, meas.spatial
    psi = np.eye(8) + 0.2 * np.random.default_rng(42).normal(size=(8, 8))
    x_got, _ = _solve_dictionary(method, meas, SpectralBasis(psi), 2e-4,
                                 tau=1e-30, max_iters=20)

    step, haar = SolverConfig().step_size, HaarBasis(8, 8)
    inv = np.linalg.inv(psi)
    x = adjoint(meas.y, sp, pp)
    r = r_tilde_prev = psi.T @ x
    alpha = 1.0
    for _ in range(20):
        g = adjoint(meas.y - project(x, sp, pp), sp, pp)
        if method == "hybrid":
            g = g - 2e-4 * tv_sum_and_subgradient(x, 8, 8)[1]
        z = r + step * inv @ g
        if method == "bpdn":
            r_tilde = haar.synthesize(prox_l1(haar.analyze(z), step * 2e-4))
        else:
            r_tilde = prox_l1(z, step * 2e-4)
        alpha, weight = fista_momentum(alpha)
        r = r_tilde + weight * (r_tilde - r_tilde_prev)
        r_tilde_prev = r_tilde
        x = inv.T @ r
    assert np.abs(x_got - x).max() <= 1e-10 * np.abs(x).max()


@pytest.mark.parametrize("method", ["hybrid", "bpdn"])
def test_nonortho_scaled_identity_equivalence(method):
    # scaling the dictionary by c is absorbed exactly by rescaling the
    # step size by 1/c^2 and the l1 weight by c
    _, meas = _small_measurements()
    c = 2.0
    x_scaled, trace_scaled = _solve_dictionary(
        method, meas, SpectralBasis(c * np.eye(8)), 2e-4, step_size=0.25)
    x_plain, trace_plain = _solve_dictionary(
        method, meas, SpectralBasis(np.eye(8)), c * 2e-4,
        step_size=0.25 / c ** 2)
    assert np.array_equal(x_scaled, x_plain)
    assert np.array_equal(trace_scaled.cost, trace_plain.cost)


def test_nonortho_rejects_rank_deficient_dictionary():
    _, meas = _small_measurements()
    psi = np.eye(8)
    psi[7] = psi[6]
    with pytest.raises(np.linalg.LinAlgError):
        recover_hybrid(meas, SpectralBasis(psi), SolverConfig())


def test_nonortho_well_conditioned_dictionary_runs():
    x, meas, _ = _desk_measurements()
    gen = np.random.default_rng(41)
    psi = np.eye(8) + 0.2 * gen.normal(size=(8, 8))
    assert np.linalg.cond(psi) < 10
    x_rec, trace = recover_hybrid(meas, SpectralBasis(psi),
                                  default_hybrid_config())
    assert trace.reason in ("threshold", "max-iters")
    assert np.all(np.isfinite(trace.cost))
    assert np.all(np.diff(trace.cost) <= 0.0)
    assert np.isfinite(relative_error(x, x_rec))


# ---------------------------------------------------------------- scalar oracle

def test_scalar_problem_matches_hand_rolled_oracle():
    # 1 pixel, 1 band, full sampling: the iteration is soft-thresholded
    # gradient descent on a scalar with FISTA extrapolation
    pp = SpatialProjector(1, 1, 1, 1, seed=0)
    sp = SpectralProjector(1, 1, 1, seed=0)
    truth = np.array([[0.8]])
    meas = acquire(truth, sp, pp, sigma=0.0)
    lam, gamma, tau, budget = 0.25, 0.1, 1e-12, 50
    cfg = SolverConfig(step_size=lam, gamma=gamma, tau=tau, max_iters=budget)
    x_rec, trace = apg_bpdn(meas, HaarBasis(1, 1), SpectralBasis(np.eye(1)),
                            cfg)

    y = float(meas.y[0, 0])
    x = x_tilde_prev = y
    alpha = 1.0
    seen = []
    for _ in range(budget):
        z = x + lam * (y - x)
        xi = lam * gamma
        x_tilde = z - xi if z > xi else (z + xi if z < -xi else 0.0)
        alpha_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha * alpha))
        x_new = x_tilde + (alpha - 1.0) / alpha_next * (x_tilde - x_tilde_prev)
        alpha, x_tilde_prev = alpha_next, x_tilde
        rel = 0.0 if x_new == x else (abs(x_new - x) / abs(x) if x != 0.0
                                      else math.inf)
        seen.append(x_new)
        x = x_new
        if rel < tau:
            break
    assert float(x_rec[0, 0]) == x
    assert trace.iterations == len(seen)


# ---------------------------------------------------------------- trace

def test_trace_shape_invariants():
    _, meas, basis = _desk_measurements()
    _, trace = recover_hybrid(meas, basis, default_hybrid_config())
    assert isinstance(trace, Trace)
    n = trace.iterations
    assert len(trace.rel_change) == n
    assert len(trace.cost) == n
    assert trace.reason in ("threshold", "max-iters")
    if trace.reason == "threshold":
        assert trace.rel_change[-1] < default_hybrid_config().tau


# ---------------------------------------------------------------- BLAS threads

_THREAD_CHILD = """
import dataclasses, sys
import numpy as np
from hsrec import harness, transforms
from hsrec.datacube import as_band_pixel_matrix
cube = harness.generate_phantom(harness.PhantomSpec(64, 64, 32, seed=0))
meas = harness.acquire_at_rates(cube, 0.15, 0.25, 0.01, 0)
basis = transforms.learn_spectral_basis(
    harness.sample_training_columns(as_band_pixel_matrix(cube), 0))
out = {"y": meas.y, "scales": np.array([meas.spatial.scale,
                                        meas.spectral.scale])}
for name, method in harness.METHODS.items():
    config = dataclasses.replace(method.default_config(), max_iters=10)
    out[name] = method.solve(meas, basis, config)[0]
np.savez(sys.argv[1], **out)
"""


def test_blas_thread_count_moves_solves_but_not_acquisitions(tmp_path):
    # at r_p = 0.15 on 64x64 the spatial block keeps its 204 x 4096 float64
    # copy, and at m_s = 8 the fused pass multiplies by all of it at once,
    # a product that a BLAS may split by its thread count. The acquisition
    # and both scales keep their bytes. After 10 iterations the outputs at
    # 1 and 2 OpenBLAS threads were equal byte for byte on a 2-vCPU VM, as
    # were those of r_p = 0.3, whose 819 rows are swept from packed signs
    # in 24-row chunks; with those rows cached whole they differed by
    # 1.0e-14 (bpdn) and 6.9e-15 (hybrid) of their largest entry. BLAS
    # promises no equal bytes, and a gap grows with the iterations, so the
    # bound holds for this count only
    env = dict(os.environ, PYTHONPATH=str(Path(hsrec.__file__).parents[1]))
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", _THREAD_CHILD,
             str(path)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
            timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        with np.load(path) as saved:
            runs.append(dict(saved))
    one, two = runs
    assert one["y"].tobytes() == two["y"].tobytes()
    assert one["scales"].tobytes() == two["scales"].tobytes()
    for name in METHODS:
        gap = np.abs(one[name] - two[name]).max()
        assert gap <= 1e-12 * np.abs(one[name]).max(), name
