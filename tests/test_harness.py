import dataclasses

import numpy as np
import pytest

from hsrec.datacube import as_band_pixel_matrix
from hsrec.harness import (METHODS, ExperimentSpec, PhantomSpec,
                           acquire_at_rates, default_bpdn_config,
                           default_hybrid_config, generate_phantom, recover,
                           relative_error, run_experiment,
                           sample_training_columns)
from hsrec.regularizers import tv_sum_and_subgradient
from hsrec.sensing import check_rates
from hsrec.solvers import SolverConfig
from hsrec.transforms import learn_spectral_basis


# ---------------------------------------------------------------- error metric

def test_relative_error_reference_points():
    t = np.random.default_rng(0).normal(size=(4, 9))
    assert relative_error(t, t) == 0.0
    assert relative_error(t, np.zeros_like(t)) == pytest.approx(1.0)
    assert relative_error(t, 2.0 * t) == pytest.approx(1.0)


def test_relative_error_is_quadratic_in_the_residual():
    t = np.random.default_rng(1).normal(size=(3, 5))
    d = np.random.default_rng(2).normal(size=(3, 5))
    small = relative_error(t, t + 0.1 * d)
    large = relative_error(t, t + 0.3 * d)
    assert large == pytest.approx(9.0 * small, rel=1e-12)


def test_relative_error_refuses_unequal_shapes():
    # (1, 3) against (4, 3) would broadcast to a meaningless 0.0
    for a, b in ((np.ones((1, 3)), np.ones((4, 3))),
                 (np.ones((4, 3)), np.ones((1, 3)))):
        with pytest.raises(ValueError, match="differ"):
            relative_error(a, b)


def test_relative_error_rejects_zero_truth():
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------- phantom

def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(0, 4, 4)
    with pytest.raises(ValueError):
        PhantomSpec(4, 4, 4, n_regions=0)
    with pytest.raises(ValueError):
        PhantomSpec(4, 4, 4, n_atoms=0)
    with pytest.raises(ValueError):
        PhantomSpec(4, 4, 4, n_atoms=5)  # more atoms than bands


def test_phantom_deterministic_and_normalized():
    spec = PhantomSpec(16, 16, 8, seed=9)
    a = generate_phantom(spec)
    b = generate_phantom(spec)
    c = generate_phantom(PhantomSpec(16, 16, 8, seed=10))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.data.max() == pytest.approx(1.0)
    assert a.data.min() >= 0.0
    assert a.data.shape == (16, 16, 8)


def test_phantom_band_matrix_rank_bounded_by_regions():
    cube = generate_phantom(PhantomSpec(16, 16, 8, n_regions=4, n_atoms=2,
                                        seed=0))
    x = as_band_pixel_matrix(cube)
    assert np.linalg.matrix_rank(x) <= 4


def test_phantom_single_region_is_flat():
    cube = generate_phantom(PhantomSpec(8, 8, 4, n_regions=1, seed=3))
    x = as_band_pixel_matrix(cube)
    total, sub = tv_sum_and_subgradient(x, 8, 8)
    assert total == 0.0
    assert not sub.any()
    # every band is a constant frame
    assert np.all(x.max(axis=1) == x.min(axis=1))


# ---------------------------------------------------------------- training sample

def test_sample_training_columns_count_and_determinism():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(8, 1024))
    cols = sample_training_columns(x, seed=5)
    assert cols.shape == (8, 10)  # 1% of 1024, rounded
    assert np.array_equal(cols, sample_training_columns(x, seed=5))
    assert not np.array_equal(cols, sample_training_columns(x, seed=6))
    # every sampled column is an actual column of x
    matches = (cols[:, :, None] == x[:, None, :]).all(axis=0)
    assert matches.any(axis=1).all()


def test_sample_training_columns_floor_is_band_count():
    x = np.random.default_rng(5).normal(size=(8, 64))
    assert sample_training_columns(x, seed=0).shape == (8, 8)
    tiny = np.random.default_rng(6).normal(size=(4, 4))
    assert sample_training_columns(tiny, seed=0).shape == (4, 4)


# ---------------------------------------------------------------- experiments

def test_experiment_spec_validation():
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise level"):
            ExperimentSpec(sigma=sigma)
    with pytest.raises(ValueError):
        ExperimentSpec(rates=())
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=())
    for rate in ((0.0, 0.5), (0.5, 1.5), (-0.1, 0.5)):
        # the rate rule's own message, as rates_to_counts gives it
        with pytest.raises(ValueError) as rule:
            check_rates(*rate)
        with pytest.raises(ValueError, match=r"rate must be in \(0, 1\]") as spec:
            ExperimentSpec(rates=((0.5, 0.5), rate))
        assert str(spec.value) == str(rule.value)


def test_run_experiment_row_grid():
    spec = ExperimentSpec(
        rates=((0.5, 0.5), (0.75, 0.75)),
        seeds=(0, 1),
        bpdn=SolverConfig(gamma=2e-4, max_iters=30),
        hybrid=SolverConfig(gamma1=2e-4, gamma2=2e-4, max_iters=30))
    rows = run_experiment(spec, generate_phantom(PhantomSpec(8, 8, 4, seed=0)))
    assert len(rows) == 2 * 2 * 2  # methods x rates x seeds
    keys = {"method", "r_p", "r_s", "seed", "relative_error", "iterations",
            "wall_time_s", "reason"}
    for row in rows:
        assert keys <= set(row)
        assert row["method"] in ("bpdn", "hybrid")
        # 30 iterations stop no run of this grid on the threshold
        assert (row["iterations"], row["reason"]) == (30, "max-iters")
        assert row["relative_error"] >= 0.0
        assert row["wall_time_s"] >= 0.0
    assert {(r["r_p"], r["r_s"]) for r in rows} == {(0.5, 0.5), (0.75, 0.75)}


def test_run_experiment_repeatable_per_seed():
    spec = ExperimentSpec(
        rates=((0.5, 0.5),),
        seeds=(7, 7),
        bpdn=SolverConfig(gamma=2e-4, max_iters=20),
        hybrid=SolverConfig(gamma1=2e-4, gamma2=2e-4, max_iters=20))
    rows = run_experiment(spec, generate_phantom(PhantomSpec(8, 8, 4, seed=1)))
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row["relative_error"])
    for errs in by_method.values():
        assert errs[0] == errs[1]


def test_run_experiment_full_sampling_near_exact():
    spec = ExperimentSpec(
        rates=((1.0, 1.0),),
        sigma=0.0,
        seeds=(0,),
        bpdn=SolverConfig(gamma=1e-8),
        hybrid=SolverConfig(gamma1=1e-8, gamma2=1e-8))
    cube = generate_phantom(PhantomSpec(8, 8, 4, seed=2))
    for row in run_experiment(spec, cube):
        assert row["relative_error"] <= 1e-3
        assert row["reason"] == "threshold"


def test_run_experiment_rows_are_acquire_then_recover():
    # run_experiment and the CLI share acquire_at_rates and recover
    cube = generate_phantom(PhantomSpec(8, 8, 4, seed=3))
    spec = ExperimentSpec(
        rates=((0.5, 0.5),),
        seeds=(5,),
        bpdn=SolverConfig(gamma=2e-4, max_iters=20),
        hybrid=SolverConfig(gamma1=2e-4, gamma2=2e-4, max_iters=20))
    x = as_band_pixel_matrix(cube)
    basis = learn_spectral_basis(sample_training_columns(x, 5))
    meas = acquire_at_rates(cube, 0.5, 0.5, spec.sigma, 5)
    rows = run_experiment(spec, cube)
    assert [row["method"] for row in rows] == ["bpdn", "hybrid"]
    for row in rows:
        method = row["method"]
        x_hat, _ = recover(method, meas, basis, getattr(spec, method))
        assert row["relative_error"] == relative_error(x, x_hat)


def test_recover_rejects_unknown_methods():
    cube = generate_phantom(PhantomSpec(8, 8, 4, seed=3))
    meas = acquire_at_rates(cube, 0.5, 0.5, 0.01, 0)
    basis = learn_spectral_basis(
        sample_training_columns(as_band_pixel_matrix(cube), 0))
    with pytest.raises(ValueError, match="'dict'"):
        recover("dict", meas, basis, default_hybrid_config())


@pytest.mark.parametrize("name", list(METHODS))
def test_methods_read_exactly_their_weights(name):
    # the CLI refuses a weight flag its method ignores by METHODS' list
    cube = generate_phantom(PhantomSpec(8, 8, 4, seed=3))
    meas = acquire_at_rates(cube, 0.5, 0.5, 0.01, 0)
    basis = learn_spectral_basis(
        sample_training_columns(as_band_pixel_matrix(cube), 0))
    config = dataclasses.replace(METHODS[name].default_config(), max_iters=5)
    x0, _ = recover(name, meas, basis, config)
    for weight in ("gamma", "gamma1", "gamma2"):
        x, _ = recover(name, meas, basis,
                       dataclasses.replace(config, **{weight: 0.05}))
        assert (weight in METHODS[name].weights) == (not np.array_equal(x, x0))


def test_default_configs():
    assert default_bpdn_config().gamma == pytest.approx(2e-4)
    hybrid = default_hybrid_config()
    assert hybrid.gamma1 == pytest.approx(2e-4)
    assert hybrid.gamma2 == pytest.approx(2e-4)
    for cfg in (default_bpdn_config(), hybrid):
        assert cfg.step_size == 0.25
        assert cfg.tau == 1e-3
        assert cfg.max_iters == 200
        assert cfg.accelerate
