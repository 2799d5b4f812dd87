"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
with the measured quantity, and enforces a wall-clock budget. Run with -s
(or read captured output) to see the lines.
"""

import time

import numpy as np

from hsrec.datacube import as_band_pixel_matrix
from hsrec.harness import (ExperimentSpec, PhantomSpec, default_bpdn_config,
                           default_hybrid_config, generate_phantom,
                           relative_error, run_experiment,
                           sample_training_columns)
from hsrec.regularizers import prox_l1, prox_transformed, tv, tv_subgradient
from hsrec.sensing import (SpatialProjector, SpectralProjector, acquire,
                           adjoint, default_lowpass_counts, project,
                           rates_to_counts)
from hsrec.solvers import (SolverConfig, apg_bpdn, recover_hybrid,
                           recover_hybrid_nonortho)
from hsrec.transforms import (HaarBasis, SpectralBasis, fwht_sequency, haar2d,
                              identity_basis, learn_spectral_basis,
                              zigzag_indices)
from oracles import (haar_matrix, prox_l1_grid, prox_transformed_error,
                     spatial_matrix, spectral_matrix)

STANDARD = PhantomSpec(32, 32, 16, seed=0)


def _report(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def _standard_instance(r_p, r_s, sigma, seed):
    cube = generate_phantom(STANDARD)
    x = as_band_pixel_matrix(cube)
    n_p, n_s = 1024, 16
    m_p, m_s = rates_to_counts(r_p, r_s, n_p, n_s)
    q_p, q_s = default_lowpass_counts(n_p, n_s, m_p, m_s)
    pp = SpatialProjector(32, 32, m_p, q_p, seed=seed)
    sp = SpectralProjector(16, m_s, q_s, seed=10_000 + seed)
    meas = acquire(x, sp, pp, sigma=sigma, noise_seed=seed)
    basis = learn_spectral_basis(sample_training_columns(x, seed=seed))
    return x, meas, basis


def test_criterion_1_projection_count_reproduction():
    t0 = time.monotonic()
    got = [rates_to_counts(0.1, 0.05, n_p, n_s)
           for n_p, n_s in ((262144, 128), (1048576, 32), (65536, 128),
                            (262144, 64))]
    want = [(26214, 6), (104858, 2), (6554, 6), (26214, 3)]
    elapsed = time.monotonic() - t0
    ok = got == want and elapsed < 1.0
    _report(1, "projection counts at the four reference sizes", ok,
            f"{got}, {elapsed:.3f}s")
    assert got == want
    assert elapsed < 1.0


def test_criterion_2_prox_against_numeric_minimizer():
    t0 = time.monotonic()
    gen = np.random.default_rng(100)
    worst_plain = 0.0
    worst_transformed = 0.0
    for k in range(50):
        z = gen.normal(size=(4, 4))
        xi = float(0.05 + 0.4 * gen.random())
        worst_plain = max(worst_plain,
                          np.abs(prox_l1(z, xi) - prox_l1_grid(z, xi)).max())
        qa, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        qb, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        worst_transformed = max(worst_transformed, prox_transformed_error(
            prox_transformed(z, xi, qa, qb), z, xi, qa, qb))
    elapsed = time.monotonic() - t0
    ok = worst_plain <= 1e-3 and worst_transformed <= 1e-3 and elapsed < 10.0
    _report(2, "prox oracle over 50 random instances", ok,
            f"plain {worst_plain:.2e}, transformed {worst_transformed:.2e}, "
            f"{elapsed:.1f}s")
    assert worst_plain <= 1e-3
    assert worst_transformed <= 1e-3
    assert elapsed < 10.0


def test_criterion_3_tv_subgradient_oracle():
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(100):
        # strictly monotone frames keep every difference pair nonzero,
        # so tv is differentiable there
        frm = np.cumsum(np.cumsum(0.5 + gen.random((8, 8)), axis=0), axis=1)
        g = tv_subgradient(frm)
        fd = np.zeros_like(frm)
        for i in range(8):
            for j in range(8):
                e = np.zeros_like(frm)
                e[i, j] = h
                fd[i, j] = (tv(frm + e) - tv(frm - e)) / (2 * h)
        worst_rel = max(worst_rel,
                        np.linalg.norm(g - fd) / np.linalg.norm(fd))
    worst_slack = np.inf
    for _ in range(200):
        v = gen.normal(size=(8, 8))
        w = gen.normal(size=(8, 8))
        slack = tv(w) - tv(v) - float(np.sum(tv_subgradient(v) * (w - v)))
        worst_slack = min(worst_slack, slack)
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-5 and worst_slack >= -1e-9 and elapsed < 10.0
    _report(3, "TV subgradient vs finite differences", ok,
            f"rel {worst_rel:.2e}, min slack {worst_slack:.2e}, "
            f"{elapsed:.1f}s")
    assert worst_rel <= 1e-5
    assert worst_slack >= -1e-9
    assert elapsed < 10.0


def test_criterion_4_operator_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(102)
    shapes = [(2 ** a, 2 ** b) for a in range(7) for b in range(7)
              if 2 ** (a + b) <= 64]

    def count_cases(n):
        # low-pass block sizes probing both block boundaries plus interior
        m_values = sorted({1, max(1, n // 2), n})
        cases = []
        for m in m_values:
            for q in sorted({0, m // 2, m}):
                cases.append((m, q))
        return cases

    worst = 0.0
    worst_ip = 0.0
    checked = 0
    for n_v, n_h in shapes:
        n_p = n_v * n_h
        for n_s in (1, 2, 4, 16):
            sp_mid = SpectralProjector(
                n_s, max(1, n_s // 2), max(1, n_s // 2) // 2, seed=7)
            pp_mid = SpatialProjector(
                n_v, n_h, max(1, n_p // 2), max(1, n_p // 2) // 2, seed=8)
            pairs = ([(SpatialProjector(n_v, n_h, m, q, seed=9), sp_mid)
                      for m, q in count_cases(n_p)]
                     + [(pp_mid, SpectralProjector(n_s, m, q, seed=10))
                        for m, q in count_cases(n_s)])
            for pp, sp in pairs:
                s_mat, p_mat = spectral_matrix(sp), spatial_matrix(pp)
                x = gen.normal(size=(n_s, n_p))
                y = gen.normal(size=(sp.m_s, pp.m_p))
                fwd = project(x, sp, pp)
                bwd = adjoint(y, sp, pp)
                worst = max(worst,
                            np.abs(fwd - s_mat @ x @ p_mat.T).max(),
                            np.abs(bwd - s_mat.T @ y @ p_mat).max())
                worst_ip = max(worst_ip,
                               abs(float(np.sum(fwd * y))
                                   - float(np.sum(x * bwd))))
                checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and worst_ip <= 1e-10 and elapsed < 30.0
    _report(4, "fast operators vs dense matrices", ok,
            f"{checked} configurations, max dev {worst:.2e}, "
            f"inner-product dev {worst_ip:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert worst_ip <= 1e-10
    assert elapsed < 30.0


def test_criterion_5_transform_suite():
    t0 = time.monotonic()
    gen = np.random.default_rng(103)
    ok_inverse = True
    ok_sequency = True
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        v = gen.normal(size=n)
        ok_inverse &= bool(np.allclose(fwht_sequency(fwht_sequency(v)), v,
                                       atol=1e-12))
        mat = np.array([fwht_sequency(row) for row in np.eye(n)]).T
        for k in range(n):
            signs = np.sign(mat[k])
            ok_sequency &= int(np.sum(signs[1:] != signs[:-1])) == k
    f = gen.normal(size=(16, 16))
    hm = haar_matrix(16)
    ok_haar = bool(
        np.allclose(haar2d(haar2d(f), direction="synthesis"), f, atol=1e-12)
        and np.allclose(haar2d(f), hm @ f @ hm.T, atol=1e-12))
    ok_zigzag = True
    for n_v, n_h in ((4, 4), (8, 2), (1, 16), (16, 16)):
        idx = zigzag_indices(n_v, n_h)
        ok_zigzag &= len({(i, j) for i, j in idx}) == n_v * n_h
        ok_zigzag &= bool(np.all(np.diff(idx.sum(axis=1)) >= 0))
    elapsed = time.monotonic() - t0
    ok = ok_inverse and ok_sequency and ok_haar and ok_zigzag and elapsed < 10.0
    _report(5, "transform suite", ok,
            f"inverse {ok_inverse}, sequency {ok_sequency}, haar {ok_haar}, "
            f"zigzag {ok_zigzag}, {elapsed:.1f}s")
    assert ok_inverse and ok_sequency and ok_haar and ok_zigzag
    assert elapsed < 10.0


def test_criterion_6_full_sampling_sanity():
    t0 = time.monotonic()
    x, meas, _ = _standard_instance(1.0, 1.0, sigma=0.0, seed=0)
    x_b, trace_b = apg_bpdn(meas, HaarBasis(32, 32), identity_basis(16),
                            SolverConfig(gamma=1e-8))
    x_h, trace_h = recover_hybrid(meas, identity_basis(16),
                                  SolverConfig(gamma1=1e-8, gamma2=1e-8))
    err_b, err_h = relative_error(x, x_b), relative_error(x, x_h)
    elapsed = time.monotonic() - t0
    ok = (err_b <= 1e-3 and err_h <= 1e-3 and trace_b.iterations <= 200
          and trace_h.iterations <= 200 and elapsed < 60.0)
    _report(6, "full-sampling recovery", ok,
            f"bpdn {err_b:.2e} in {trace_b.iterations} iters, "
            f"hybrid {err_h:.2e} in {trace_h.iterations} iters, "
            f"{elapsed:.1f}s")
    assert err_b <= 1e-3 and err_h <= 1e-3
    assert trace_b.iterations <= 200 and trace_h.iterations <= 200
    assert elapsed < 60.0


def test_criterion_7_hybrid_outperforms_baseline():
    t0 = time.monotonic()
    spec = ExperimentSpec(phantom=STANDARD,
                          rates=((0.3, 0.25), (0.5, 0.5)),
                          sigma=0.01, seeds=(0, 1, 2, 3, 4))
    rows = run_experiment(spec)
    err = {(r["method"], r["r_p"], r["seed"]): r["relative_error"]
           for r in rows}
    wins = {}
    means = {}
    for r_p in (0.3, 0.5):
        wins[r_p] = sum(err[("hybrid", r_p, s)] < err[("bpdn", r_p, s)]
                        for s in spec.seeds)
        for method in ("bpdn", "hybrid"):
            means[(method, r_p)] = float(np.mean(
                [err[(method, r_p, s)] for s in spec.seeds]))
    trend = (means[("bpdn", 0.5)] < means[("bpdn", 0.3)]
             and means[("hybrid", 0.5)] < means[("hybrid", 0.3)])
    elapsed = time.monotonic() - t0
    ok = wins[0.3] >= 4 and wins[0.5] >= 4 and trend and elapsed < 300.0
    _report(7, "hybrid beats baseline across seeds", ok,
            f"wins {wins[0.3]}/5 and {wins[0.5]}/5, means bpdn "
            f"{means[('bpdn', 0.3)]:.3f}->{means[('bpdn', 0.5)]:.3f}, hybrid "
            f"{means[('hybrid', 0.3)]:.3f}->{means[('hybrid', 0.5)]:.3f}, "
            f"{elapsed:.1f}s")
    assert wins[0.3] >= 4 and wins[0.5] >= 4
    assert trend
    assert elapsed < 300.0


def test_criterion_8_convergence_diagnostics():
    t0 = time.monotonic()
    traces = []
    for r_p, r_s in ((0.3, 0.25), (0.5, 0.5)):
        x, meas, basis = _standard_instance(r_p, r_s, sigma=0.01, seed=0)
        traces.append(apg_bpdn(meas, HaarBasis(32, 32), basis,
                               default_bpdn_config())[1])
        traces.append(recover_hybrid(meas, basis, default_hybrid_config())[1])
    monotone = all(np.all(np.diff(t.best_cost()) <= 0.0) for t in traces)
    bounded = all(np.all(np.isfinite(t.subgrad_norm)) for t in traces)

    # non-accelerated fixed-step run must flatten out within the budget
    x, meas, basis = _standard_instance(1.0, 1.0, sigma=0.01, seed=0)
    _, plateau_trace = recover_hybrid(
        meas, basis,
        SolverConfig(gamma1=2e-4, gamma2=2e-4, tau=1e-16, max_iters=200,
                     accelerate=False))
    best = plateau_trace.best_cost()
    improvement = (best[-21] - best[-1]) / best[-21]
    elapsed = time.monotonic() - t0
    ok = (monotone and bounded and plateau_trace.iterations == 200
          and improvement < 1e-6 and elapsed < 120.0)
    _report(8, "convergence diagnostics", ok,
            f"best-cost monotone {monotone}, subgradients bounded {bounded}, "
            f"final-20 improvement {improvement:.2e}, {elapsed:.1f}s")
    assert monotone and bounded
    assert plateau_trace.iterations == 200
    assert improvement < 1e-6
    assert elapsed < 120.0


def test_criterion_9_dictionary_route_reduction():
    t0 = time.monotonic()
    gen = np.random.default_rng(104)
    x = gen.normal(size=(8, 64))
    pp = SpatialProjector(8, 8, 32, 6, seed=3)
    sp = SpectralProjector(8, 4, 1, seed=4)
    meas = acquire(x, sp, pp, sigma=0.01, noise_seed=9)
    q, _ = np.linalg.qr(gen.normal(size=(8, 8)))
    cfg = SolverConfig(gamma1=2e-4, gamma2=2e-4, tau=1e-30, max_iters=20)
    x_orth, trace_orth = recover_hybrid(meas, SpectralBasis(q), cfg)
    x_dict, trace_dict = recover_hybrid_nonortho(meas, SpectralBasis(q), cfg)
    dev = float(np.abs(x_orth - x_dict).max())
    cost_dev = float(np.abs(trace_orth.cost - trace_dict.cost).max())
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-12 and cost_dev <= 1e-10 and elapsed < 30.0
    _report(9, "dictionary route reduces to the orthonormal one", ok,
            f"iterate dev {dev:.2e}, cost dev {cost_dev:.2e}, {elapsed:.1f}s")
    assert dev <= 1e-12
    assert cost_dev <= 1e-10
    assert elapsed < 30.0
