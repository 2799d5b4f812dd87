import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hsrec.sensing as sensing
from hsrec import rng
from hsrec.datacube import Datacube
from hsrec.formats import read_measurements
from hsrec.harness import ExperimentSpec, acquire_at_rates
from hsrec.sensing import (Measurements, SpatialProjector, SpectralProjector,
                           acquire, adjoint, default_lowpass_counts, project,
                           rates_to_counts)
from hsrec.transforms import walsh_rows, zigzag_indices
from oracles import (rademacher_draw, spatial_matrix, spectral_matrix,
                     walsh_matrix)


# ---------------------------------------------------------------- counts

def test_rates_to_counts_reference_sizes():
    assert rates_to_counts(0.1, 0.05, 262144, 128) == (26214, 6)
    assert rates_to_counts(0.1, 0.05, 1048576, 32) == (104858, 2)
    assert rates_to_counts(0.1, 0.05, 65536, 64) == (6554, 3)
    assert rates_to_counts(1.0, 1.0, 16, 8) == (16, 8)
    # tiny rates still produce at least one projection
    assert rates_to_counts(1e-9, 1e-9, 64, 8) == (1, 1)


def test_rates_to_counts_rejects_bad_rates():
    # a bool is not read as 1, and a rate that is not a real number is
    # refused by the rate rule, not by a failed comparison
    for r_p, r_s in ((0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (0.5, 1.5),
                     (True, 0.5), (0.5, np.True_), ("0.3", 0.25), (0.5, None)):
        with pytest.raises(ValueError, match=r"rate must be in \(0, 1\]"):
            rates_to_counts(r_p, r_s, 64, 8)


def test_rates_to_counts_rejects_empty_dimensions():
    for n_p, n_s, what in ((0, 8, "spatial"), (64, 0, "spectral")):
        with pytest.raises(ValueError, match=f"{what} dimension must be >= 1"):
            rates_to_counts(0.5, 0.5, n_p, n_s)


def test_default_lowpass_counts_rule():
    assert default_lowpass_counts(1024, 64, 512, 16) == (102, 3)
    # full rate keeps the complete orthonormal transform
    assert default_lowpass_counts(256, 16, 256, 8) == (256, 1)
    assert default_lowpass_counts(256, 16, 128, 16) == (26, 16)


def test_default_lowpass_counts_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        q_p, q_s = default_lowpass_counts(1024, 64, 50, 16)
    assert (q_p, q_s) == (50, 3)


def test_default_lowpass_counts_keeps_a_given_count_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_lowpass_counts(1024, 64, 50, 16, q_p=7) == (7, 3)
        assert default_lowpass_counts(1024, 64, 512, 16, q_s=0) == (102, 0)
        assert default_lowpass_counts(256, 16, 256, 8, 9, 2) == (9, 2)
    with pytest.warns(UserWarning, match="spatial low-pass count 102"):
        assert default_lowpass_counts(1024, 64, 50, 16, q_s=1) == (50, 1)


# ---------------------------------------------------------------- projectors

def test_projector_count_validation():
    for make, message in (
            (lambda: SpatialProjector(4, 4, 0, 0, seed=1),
             "spatial projection count must satisfy 1 <= m <= 16, got 0"),
            (lambda: SpatialProjector(4, 4, 17, 0, seed=1),
             "spatial projection count must satisfy 1 <= m <= 16, got 17"),
            (lambda: SpatialProjector(4, 4, 8, 9, seed=1),
             "spatial low-pass count must satisfy 0 <= q <= m=8, got 9"),
            (lambda: SpatialProjector(4, 4, 8, -1, seed=1),
             "spatial low-pass count must satisfy 0 <= q <= m=8, got -1"),
            (lambda: SpectralProjector(8, 0, 0, seed=1),
             "spectral projection count must satisfy 1 <= m <= 8, got 0"),
            (lambda: SpectralProjector(8, 9, 0, seed=1),
             "spectral projection count must satisfy 1 <= m <= 8, got 9"),
            (lambda: SpectralProjector(8, 4, 5, seed=1),
             "spectral low-pass count must satisfy 0 <= q <= m=4, got 5"),
            (lambda: SpectralProjector(8, 4, -1, seed=1),
             "spectral low-pass count must satisfy 0 <= q <= m=4, got -1"),
            (lambda: SpatialProjector(3, 4, 2, 0, seed=1), "power of two"),
            (lambda: SpectralProjector(6, 2, 0, seed=1), "power of two")):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_projector_scale_validation(monkeypatch):
    # a given scale is checked with the counts, before any row is drawn
    def no_draw(gen, shape):
        raise AssertionError("a row was drawn before the scale was checked")

    monkeypatch.setattr(rng, "negative_signs", no_draw)
    for scale in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
        for make, what in (
                (lambda s: SpatialProjector(4, 4, 8, 2, seed=1, scale=s),
                 "spatial"),
                (lambda s: SpectralProjector(8, 4, 1, seed=1, scale=s),
                 "spectral")):
            with pytest.raises(ValueError, match=re.escape(
                    f"{what} scale must be finite and > 0, got {scale}")):
                make(scale)
    # q = m: the rows are orthonormal, so the scale is exactly 1
    for make, what in (
            (lambda s: SpatialProjector(4, 4, 8, 8, seed=1, scale=s), "spatial"),
            (lambda s: SpectralProjector(8, 4, 4, seed=1, scale=s), "spectral")):
        with pytest.raises(ValueError, match=f"{what} scale must be 1 on a "
                                             "purely low-pass axis"):
            make(0.5)
        assert make(1.0).scale == 1.0
    with pytest.raises(TypeError):
        SpatialProjector(4, 4, 8, 2, 1, 0.5)  # scale is keyword-only


def test_project_matches_dense_reference_instance():
    # 8-band 4x4 cube, m_p=6 with 2 low-pass rows, m_s=4 with 1 low-pass row
    pp = SpatialProjector(4, 4, 6, 2, seed=11)
    sp = SpectralProjector(8, 4, 1, seed=12)
    x = np.random.default_rng(0).normal(size=(8, 16))
    want = spectral_matrix(sp) @ x @ spatial_matrix(pp).T
    assert np.allclose(project(x, sp, pp), want, atol=1e-12)


def test_adjoint_matches_dense():
    pp = SpatialProjector(4, 8, 12, 3, seed=21)
    sp = SpectralProjector(16, 6, 2, seed=22)
    y = np.random.default_rng(1).normal(size=(6, 12))
    want = spectral_matrix(sp).T @ y @ spatial_matrix(pp)
    assert np.allclose(adjoint(y, sp, pp), want, atol=1e-12)


def test_zero_maps_to_zero():
    pp = SpatialProjector(4, 4, 6, 2, seed=3)
    sp = SpectralProjector(8, 4, 1, seed=4)
    assert not project(np.zeros((8, 16)), sp, pp).any()
    assert not adjoint(np.zeros((4, 6)), sp, pp).any()


def test_adjoint_inner_product_identity():
    pp = SpatialProjector(4, 4, 10, 2, seed=5)
    sp = SpectralProjector(8, 4, 1, seed=6)
    gen = np.random.default_rng(2)
    x = gen.normal(size=(8, 16))
    y = gen.normal(size=(4, 10))
    lhs = float(np.sum(project(x, sp, pp) * y))
    rhs = float(np.sum(x * adjoint(y, sp, pp)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_full_sampling_is_an_isometry():
    pp = SpatialProjector(4, 4, 16, 16, seed=7)
    sp = SpectralProjector(8, 8, 8, seed=8)
    assert pp.scale == 1.0 and sp.scale == 1.0
    x = np.random.default_rng(3).normal(size=(8, 16))
    y = project(x, sp, pp)
    assert np.isclose(np.linalg.norm(y), np.linalg.norm(x), atol=1e-10)
    assert np.allclose(adjoint(y, sp, pp), x, atol=1e-10)


def test_pure_lowpass_rows_are_walsh_coefficients():
    # q = m: spectral rows are the leading sequency coefficients
    sp = SpectralProjector(8, 3, 3, seed=9)
    x = np.random.default_rng(4).normal(size=(8, 5))
    assert np.allclose(sp.apply(x), (walsh_rows(8) @ x)[:3], atol=1e-12)
    # spatial q = m: rows are zig-zag ordered 2-D coefficients
    pp = SpatialProjector(4, 4, 5, 5, seed=9)
    frame = np.random.default_rng(5).normal(size=(4, 4))
    cf = walsh_matrix(4) @ frame @ walsh_matrix(4).T
    got = pp.apply(frame.flatten(order="F")[None, :])[0]
    want = [cf[i, j] for i, j in zigzag_indices(4, 4, 5)]
    assert np.allclose(got, want, atol=1e-12)


def test_pure_rademacher_projector():
    sp = SpectralProjector(8, 4, 0, seed=10)
    mat = spectral_matrix(sp)
    assert set(np.unique(np.round(mat / sp.scale * np.sqrt(8), 9))) == {-1.0, 1.0}
    x = np.random.default_rng(6).normal(size=(8, 3))
    assert np.allclose(sp.apply(x), mat @ x, atol=1e-12)


def test_adjacent_seeds_differ():
    a = spectral_matrix(SpectralProjector(8, 4, 0, seed=0))
    b = spectral_matrix(SpectralProjector(8, 4, 0, seed=1))
    assert not np.allclose(a, b)


def test_scale_normalizes_spectral_norm():
    pp = SpatialProjector(4, 4, 6, 2, seed=13)
    sp = SpectralProjector(8, 4, 1, seed=14)
    for mat, proj in ((spatial_matrix(pp), pp), (spectral_matrix(sp), sp)):
        top = np.linalg.svd(mat / proj.scale, compute_uv=False)[0]
        assert proj.scale == pytest.approx(1.0 / top, rel=1e-6)
        assert np.linalg.svd(mat, compute_uv=False)[0] == pytest.approx(
            1.0, rel=1e-6)


def test_chunked_apply_matches_materialized(monkeypatch):
    pp_full = SpatialProjector(4, 8, 20, 4, seed=15)
    x = np.random.default_rng(7).normal(size=(3, 32))
    y = np.random.default_rng(8).normal(size=(3, 20))
    want_apply = pp_full.apply(x)
    want_adj = pp_full.adjoint(y)
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 1)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 64)
    pp_chunked = SpatialProjector(4, 8, 20, 4, seed=15)
    assert pp_chunked.scale == pytest.approx(pp_full.scale, rel=1e-12)
    assert np.allclose(pp_chunked.apply(x), want_apply, atol=1e-12)
    assert np.allclose(pp_chunked.adjoint(y), want_adj, atol=1e-12)


def test_chunked_block_draws_philox_once(monkeypatch):
    drawn = []
    original = rng.negative_signs

    def spy(gen, shape):
        drawn.append(int(np.prod(shape)))
        return original(gen, shape)

    monkeypatch.setattr(rng, "negative_signs", spy)
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 96)
    monkeypatch.setattr(sensing, "_DRAW_BYTES", 2 * 8 * 32)
    pp = SpatialProjector(4, 8, 20, 4, seed=15)
    gen = np.random.default_rng(11)
    for _ in range(5):
        pp.apply(gen.normal(size=(3, 32)))
        pp.adjoint(gen.normal(size=(3, 20)))
    assert drawn == [2 * 32] * 8


@pytest.mark.parametrize("limit, keep, unpacked, widened", [
    # 16 rows in chunks of 3: each step unpacks 6 chunks into float64
    (0, 0, {"float64": sensing._NORM_ITERATIONS * 6},
     {"float64": sensing._NORM_ITERATIONS * 6}),
    # unpacked once into the float64 cache, in the constructor
    (sensing._MATERIALIZE_LIMIT, sensing._KEEP_LIMIT, {"float64": 1},
     {"float64": 1}),
    # unpacked once into an int8 copy for the estimate, then dropped: each
    # step casts the copy's four slices of 5 rows into float64
    (sensing._MATERIALIZE_LIMIT, 0, {"int8": 1},
     {"int8": 1, "float64": sensing._NORM_ITERATIONS * 4}),
], ids=["chunked", "cached", "dropped"])
def test_power_iteration_expands_each_chunk_once_per_step(monkeypatch, limit,
                                                          keep, unpacked,
                                                          widened):
    # each Gram step is one fused pass at y = 0; the counts are per dtype of
    # the rows written
    unpacks, widens, passes = Counter(), Counter(), []
    expand = SpatialProjector._expand
    widen = SpatialProjector._widen
    fused = SpatialProjector.residual_and_adjoint

    def spy_expand(self, lo, hi, out):
        unpacks[out.dtype.name] += 1
        return expand(self, lo, hi, out)

    def spy_widen(self, signs, out):
        widens[out.dtype.name] += 1
        return widen(self, signs, out)

    def spy_fused(self, y, x):
        passes.append(x.shape)
        return fused(self, y, x)

    monkeypatch.setattr(SpatialProjector, "_expand", spy_expand)
    monkeypatch.setattr(SpatialProjector, "_widen", spy_widen)
    monkeypatch.setattr(SpatialProjector, "residual_and_adjoint", spy_fused)
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", limit)
    monkeypatch.setattr(sensing, "_KEEP_LIMIT", keep)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 3 * 32)
    # a cached 1-row pass takes 5-row slices; a chunk stays at 3 rows
    monkeypatch.setattr(sensing, "_WORKSET_BYTES", 2 * (24 + 8 * 5) * 32)
    pp = SpatialProjector(4, 8, 20, 4, seed=15)
    assert pp.scale != 1.0 and (pp._cache is None) == (keep == 0)
    assert (unpacks, widens) == (unpacked, widened)
    assert passes == [(32,)] * sensing._NORM_ITERATIONS


@pytest.mark.parametrize("limit", [sensing._MATERIALIZE_LIMIT, 0],
                         ids=["cached", "chunked"])
def test_given_scale_builds_the_estimated_operators(monkeypatch, limit):
    # the same rows and the same scale: only the power iteration is skipped
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", limit)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 3 * 32)
    pp = SpatialProjector(4, 8, 20, 4, seed=15)
    sp = SpectralProjector(16, 9, 2, seed=16)
    assert (pp._cache is None) == (limit == 0)

    def no_estimate(*args):
        raise AssertionError("the power iteration ran")

    monkeypatch.setattr(sensing, "_power_norm", no_estimate)
    pp2 = SpatialProjector(4, 8, 20, 4, seed=15, scale=pp.scale)
    sp2 = SpectralProjector(16, 9, 2, seed=16, scale=sp.scale)
    assert (pp2.scale, sp2.scale) == (pp.scale, sp.scale)
    gen = np.random.default_rng(3)
    x, y = gen.normal(size=(16, 32)), gen.normal(size=(9, 20))
    for built, given, x_in, y_in in ((pp, pp2, x, y),
                                     (sp, sp2, x[:, :3], y[:, :3])):
        assert np.array_equal(given.apply(x_in), built.apply(x_in))
        assert np.array_equal(given.adjoint(y_in), built.adjoint(y_in))
    for got, want in zip(sensing.residual_and_adjoint(y, x, sp2, pp2),
                         sensing.residual_and_adjoint(y, x, sp, pp)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make, rows, n, purpose, chunk_rows", [
    (lambda: SpatialProjector(4, 8, 20, 0, seed=15), 20, 32,
     rng.SPATIAL_RADEMACHER, 3),
])
def test_chunked_block_values_are_exact(monkeypatch, make, rows, n, purpose,
                                        chunk_rows):
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", chunk_rows * n)
    proj = make()  # q = 0: scale times the Rademacher block alone
    gen = np.random.default_rng(12)
    x = gen.normal(size=(5, n))
    y = gen.normal(size=(5, rows))
    want_apply, want_adjoint = np.empty((5, rows)), np.zeros((5, n))
    rad = rng.stream(proj.seed, purpose)  # redrawn as the projector draws it
    for lo in range(0, rows, chunk_rows):
        take = min(chunk_rows, rows - lo)
        block = rademacher_draw(rad, (take, n)) / np.sqrt(n)
        want_apply[:, lo:lo + take] = x @ block.T
        want_adjoint += y[:, lo:lo + take] @ block

    for _ in range(3):  # every call expands the same stored signs
        assert np.array_equal(proj.apply(x), proj.scale * want_apply)
        assert np.array_equal(proj.adjoint(y), proj.scale * want_adjoint)


def test_spectral_matrix_values_are_exact(monkeypatch):
    # Rademacher rows drawn one per chunk straight into M
    monkeypatch.setattr(sensing, "_DRAW_BYTES", 8 * 4)
    sp = SpectralProjector(4, 3, 1, seed=16)
    redraw = rademacher_draw(rng.stream(sp.seed, rng.SPECTRAL_RADEMACHER), (2, 4))
    mat = np.vstack([walsh_matrix(4)[:1], redraw / np.sqrt(4)])
    assert np.array_equal(sp._m, mat)  # Walsh row over the redrawn rows
    gen = np.random.default_rng(12)
    x = gen.normal(size=(4, 5))
    y = gen.normal(size=(3, 5))
    for _ in range(3):  # one dense product, the same every call
        assert np.array_equal(sp.apply(x), sp.scale * (mat @ x))
        assert np.array_equal(sp.adjoint(y), sp.scale * (mat.T @ y))


@pytest.mark.parametrize("n_v, n_h, rows", [
    (1, 1, 1),  # widths under one packed byte: the rows carry padding bits
    (1, 2, 2),
    (2, 2, 3),
    (8, 16, 5),
    (64, 64, 9),
])
def test_expand_matches_written_out_signs(n_v, n_h, rows):
    # unit signs: +/-1, or +/-1/sqrt(2) when log2 n_p is odd; the power of
    # two that makes them +/-1/sqrt(n_p) is the products' gain
    pp = SpatialProjector(n_v, n_h, rows, 0, seed=17)
    n = n_v * n_h
    negative = np.unpackbits(pp._signs, axis=1, count=n)
    u = 1.0 / np.sqrt(2) if (n.bit_length() - 1) % 2 else 1.0
    assert u * pp._gain == 1.0 / np.sqrt(n)
    want = np.where(negative, -u, u)
    for lo, hi in ((0, rows), (rows // 2, rows), (0, rows - 1), (1, 1)):
        got = pp._expand(lo, hi, np.empty((hi - lo, n)))
        assert got.tobytes() == want[lo:hi].tobytes()
        assert np.array_equal(np.signbit(got), negative[lo:hi].astype(bool))
    assert pp._cache.tobytes() == want.tobytes()


def _written_out_passes(pp, rad, chunk_rows, x, y):
    """apply(x), adjoint(y) and residual_and_adjoint(y, x) of pp written out:
    pp's own Walsh low-pass part, then chunk-by-chunk products with the
    dense Rademacher rows rad, times pp.scale as the docstrings state."""
    q, s = pp.q_p, pp.scale
    applied = np.empty(x.shape[:-1] + (pp.m_p,))
    applied[..., :q] = pp._low(x)
    resid = np.empty(y.shape)
    resid[..., :q] = y[..., :q] - s * pp._low(x)
    back, fused_back = np.zeros(y.shape[:-1] + (pp.n_p,)), np.zeros(x.shape)
    for lo in range(0, len(rad), chunk_rows):
        block = rad[lo:lo + chunk_rows]
        cols = slice(q + lo, q + lo + len(block))
        applied[..., cols] = x @ block.T
        back += y[..., cols] @ block
        resid[..., cols] = y[..., cols] - s * (x @ block.T)
        fused_back += resid[..., cols] @ block
    return (s * applied, s * (pp._low_adjoint(y[..., :q]) + back),
            resid, s * (pp._low_adjoint(resid[..., :q]) + fused_back))


@pytest.mark.parametrize("layout",
                         ["cached", "cached-sliced", "chunked", "rule-sized"])
@pytest.mark.parametrize("n_v, n_h, m_p, q_p", [
    (8, 8, 20, 0), (8, 8, 20, 5),      # log2 n_p even: +/-1 rows
    (8, 16, 40, 0), (8, 16, 40, 7),    # log2 n_p odd: +/-1/sqrt(2) rows
    (1, 2, 2, 0), (1, 2, 2, 1),
])
def test_operator_bits_match_written_out_dense_rows(monkeypatch, layout,
                                                    n_v, n_h, m_p, q_p):
    # however the rows are held and expanded, the public operator gives the
    # bits of the products with +/-1/sqrt(n_p) rows, and its default scale
    # those of a power iteration run on them
    n, rows = n_v * n_h, m_p - q_p
    pass_rows = norm_rows = rows
    if layout == "cached-sliced":
        # a cached slice gets half the budget: the 3-row passes below take
        # 5-row slices of the cache and the 1-row norm passes 11-row ones
        pass_rows, norm_rows = 5, 11
        monkeypatch.setattr(sensing, "_WORKSET_BYTES", 2 * (24 * 3 + 8 * 5) * n)
    elif layout != "cached":
        pass_rows = norm_rows = 3
        monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 3 * n)
    if layout == "rule-sized":
        # the rule gives the 3-row passes below 5-row chunks and the 1-row
        # norm passes 11-row ones, under the 12-row cap
        pass_rows, norm_rows = 5, 11
        monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 12 * n)
        monkeypatch.setattr(sensing, "_WORKSET_BYTES", (24 * 3 + 8 * 5) * n)
    pp = SpatialProjector(n_v, n_h, m_p, q_p, seed=19)
    unit = SpatialProjector(n_v, n_h, m_p, q_p, seed=19, scale=1.0)
    assert (pp._cache is None) == (not layout.startswith("cached"))
    rad = spatial_matrix(unit)[q_p:]  # the dense +/-1/sqrt(n_p) rows
    gen = np.random.default_rng(20)
    x, y = gen.normal(size=(3, n)), gen.normal(size=(3, m_p))
    want = _written_out_passes(pp, rad, pass_rows, x, y)
    got = (pp.apply(x), pp.adjoint(y), *pp.residual_and_adjoint(y, x))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    resid = y - pp.apply(x)
    assert got[2].tobytes() == resid.tobytes()
    assert got[3].tobytes() == pp.adjoint(resid).tobytes()

    zero = np.zeros(m_p)
    v = rng.gaussian(rng.stream(pp.seed, rng.SPATIAL_NORM), (n,))
    v /= np.linalg.norm(v)
    for _ in range(sensing._NORM_ITERATIONS):
        w = _written_out_passes(unit, rad, norm_rows, v, zero)[3]
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    assert pp.scale == 1.0 / float(np.sqrt(sigma2))


@pytest.mark.parametrize("cached, lead, chunk_rows", [
    # (B - 24 * 8 * 64) // (8 * 64): the blocks take 2/3 of B
    pytest.param(False, (8,), 12, id="m=8"),
    # m is the product of the leading axes
    pytest.param(False, (2, 4), 12, id="m=2x4"),
    # a 1-row pass, as in the norm estimate, is sized too
    pytest.param(False, (), 33, id="m=1"),
    # 24 * 9 * 64 > 2/3 B: the rule's 9 rows are not used
    pytest.param(False, (9,), 40, id="m=9"),
    pytest.param(True, (8,), 12, id="cached-m=8"),
    pytest.param(True, (2, 4), 12, id="cached-m=2x4"),
    pytest.param(True, (), 33, id="cached-m=1"),
    pytest.param(True, (9,), 64, id="cached-m=9"),
])
def test_pass_chunks_follow_the_workset_rule(monkeypatch, cached, lead,
                                             chunk_rows):
    # the budget B is _WORKSET_BYTES for an expanded chunk and half of it
    # for a slice of the cached block; past the rule's bound a pass takes
    # _CHUNK_ENTRIES chunks or the whole cache
    budget = (24 * 8 + 8 * 12) * 64
    monkeypatch.setattr(sensing, "_WORKSET_BYTES", budget * (1 + cached))
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 64 * 64 * cached)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 40 * 64)
    pp = SpatialProjector(8, 8, 64, 0, seed=15, scale=0.5)
    assert pp._chunk == 40 and (pp._cache is not None) == cached
    calls = []
    blocks = SpatialProjector._blocks

    def spy(self, m):
        for lo, block in blocks(self, m):
            # a cached slice is a view of the cache, never a copy
            assert (block.base is self._cache) == cached
            calls.append((lo, lo + len(block)))
            yield lo, block

    monkeypatch.setattr(SpatialProjector, "_blocks", spy)
    want = [(lo, min(lo + chunk_rows, 64)) for lo in range(0, 64, chunk_rows)]
    gen = np.random.default_rng(21)
    x, y = gen.normal(size=lead + (64,)), gen.normal(size=lead + (64,))
    for run in (lambda: pp.apply(x), lambda: pp.adjoint(y),
                lambda: pp.residual_and_adjoint(y, x)):
        calls.clear()
        run()
        assert calls == want


def test_rademacher_block_bound_is_checked_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("signs were drawn")

    monkeypatch.setattr(sensing, "_MAX_RADEMACHER_ENTRIES", 4 * 16)
    assert SpatialProjector(4, 4, 5, 1, seed=0).m_p == 5  # 4 x 16: at the bound
    monkeypatch.setattr(rng, "negative_signs", no_draw)
    with pytest.raises(ValueError, match="spatial Rademacher block of 5 x 16"):
        SpatialProjector(4, 4, 6, 1, seed=0)


def test_spectral_build_draws_its_rows_once(monkeypatch):
    # the Rademacher rows are drawn straight into M: never packed, never
    # expanded, and the same bytes whatever the chunk size
    drawn, expanded = [], []
    original = rng.negative_signs

    def spy(gen, shape):
        drawn.append(shape)
        return original(gen, shape)

    monkeypatch.setattr(rng, "negative_signs", spy)
    monkeypatch.setattr(SpatialProjector, "_expand",
                        lambda *args: expanded.append(args))
    sp = SpectralProjector(64, 32, 3, seed=18)
    assert sum(r * n for r, n in drawn) == (32 - 3) * 64
    del drawn[:]
    monkeypatch.setattr(sensing, "_DRAW_BYTES", 8 * 64)  # one row per draw
    by_row = SpectralProjector(64, 32, 3, seed=18)
    assert drawn == [(1, 64)] * (32 - 3)
    assert not expanded
    assert by_row._m.tobytes() == sp._m.tobytes()
    assert by_row.scale == sp.scale


@pytest.mark.parametrize("budget", [1, 8 * 32, 3 * 8 * 32],
                         ids=["below-a-row", "one-row", "three-rows"])
def test_draw_budget_leaves_every_byte(monkeypatch, budget):
    # draws split in rows consume the stream like one whole draw, and the
    # cache filled chunk by chunk is the whole-block expansion; 32 x 16 has
    # an odd log2 n_p, so its cache takes the multiply by 1/sqrt(2)
    def built():
        out = []
        for proj in (SpatialProjector(4, 8, 20, 4, seed=15),
                     SpatialProjector(32, 16, 40, 3, seed=16),
                     SpectralProjector(32, 20, 2, seed=17)):
            held = (getattr(proj, name, None)
                    for name in ("_signs", "_cache", "_m"))
            out.append((proj.scale, [a if a is None else a.tobytes()
                                     for a in held]))
        return out

    want = built()
    monkeypatch.setattr(sensing, "_DRAW_BYTES", budget)
    assert built() == want


def _drawn_blocks():
    # the committed file's two projectors, a 64 x 64 x 32 (0.5, 0.25)
    # spatial build and a 2048-band spectral one, given their scales so
    # that only the draws run
    meas = read_measurements(Path(__file__).parent / "data" / "meas_hsm2.hsm")
    pp = SpatialProjector(64, 64, 2048, 410, seed=1, scale=1.0)
    sp = SpectralProjector(2048, 1843, 460, seed=1, scale=1.0)
    return [meas.spatial._signs.tobytes(), meas.spectral._m.tobytes(),
            pp._signs.tobytes(), sp._m.tobytes()]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_draws_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # every block drawn on 1, 2, 3 or 5 workers, each drawing one range of
    # rows from a stream started at the range's first word, holds the bytes
    # of the sequential draw; the fixture's 4 spectral rows take at most 4
    # workers. A short switch interval makes the workers' chunks interleave
    monkeypatch.setattr(sensing, "_cpus", lambda: 1)
    want = _drawn_blocks()
    monkeypatch.setattr(sensing, "_WORKER_ENTRIES", 1)
    monkeypatch.setattr(sensing, "_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _drawn_blocks() == want
    finally:
        sys.setswitchinterval(interval)


def test_a_failed_draw_thread_fails_the_build(monkeypatch):
    # an error in a drawing thread is raised in the caller, not left as
    # unwritten rows
    original = rng.negative_signs

    def fails_off_main(gen, shape):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no room for a draw chunk")
        return original(gen, shape)

    monkeypatch.setattr(rng, "negative_signs", fails_off_main)
    monkeypatch.setattr(sensing, "_cpus", lambda: 2)
    with pytest.raises(MemoryError, match="no room"):
        SpatialProjector(64, 64, 1229, 410, seed=2, scale=1.0)


@pytest.mark.parametrize("starts", [0, 1])
def test_a_thread_that_cannot_start_leaves_its_rows_to_the_caller(
        monkeypatch, starts):
    # under a thread or process limit a range whose thread does not start
    # is drawn by the caller with every range after it: the same bytes, and
    # every thread that did start is joined before the build returns
    monkeypatch.setattr(sensing, "_cpus", lambda: 1)
    want = SpatialProjector(64, 64, 1229, 410, seed=2, scale=1.0)._signs
    started = []

    class Limited(threading.Thread):
        def start(self):
            if len(started) == starts:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Limited)
    monkeypatch.setattr(sensing, "_cpus", lambda: 3)  # 819 rows, 3 workers
    got = SpatialProjector(64, 64, 1229, 410, seed=2, scale=1.0)._signs
    assert got.tobytes() == want.tobytes()
    assert len(started) == starts
    assert not any(thread.is_alive() for thread in started)


def test_spatial_build_transient_stays_small():
    # a scale-given 64 x 64 build beyond its packed signs and float64 cache:
    # one draw chunk of raw words with its mask and packed rows, or one
    # chunk of the cache fill (0.6 and 0.1 MiB), where a whole-chunk draw
    # held 9 MiB and a whole-block cache fill 3.2 MiB. The 200 rows of
    # m_p = 610 are cached; the 819 of r_p = 0.3 are past the keep limit,
    # so a build given their scale fills no 26.8 MB copy, nor does r_p = 0.5.
    # A default build of those 819 rows estimates its norm on an int8 copy
    # of 3.4 MB and one pass buffer of 21 float64 rows, where a float64 copy
    # held 26.8 MB
    SpatialProjector(4, 4, 4, 2, seed=0)  # stream setup outside the count
    for m_p, scale, cached in ((610, 0.5, True), (1229, 0.5, False),
                               (2048, 0.5, False), (1229, None, False)):
        tracemalloc.start()
        try:
            pp = SpatialProjector(64, 64, m_p, 410, seed=1, scale=scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (pp._cache is not None) == cached
        held = pp._signs.nbytes + (pp._cache.nbytes if cached else 0)
        if scale is None:
            held += (m_p - 410) * 4096  # one byte per Rademacher entry
        assert peak - held <= 2 << 20


def test_large_block_estimates_its_norm_on_a_transient_copy(monkeypatch):
    # r_p = 0.3 at 64 x 64: the power iteration sweeps slices of an int8
    # copy of the 819 x 4096 block, each cast into one float64 buffer, and
    # the build then drops the copy, so the scale is that of a build that
    # keeps a float64 cache bit for bit, and later passes expand the packed
    # signs
    pp = SpatialProjector(64, 64, 1229, 410, seed=1)
    assert pp._cache is None
    monkeypatch.setattr(sensing, "_KEEP_LIMIT", sensing._MATERIALIZE_LIMIT)
    kept = SpatialProjector(64, 64, 1229, 410, seed=1)
    assert kept._cache is not None
    assert pp.scale == kept.scale
    gen = np.random.default_rng(23)
    x, y = gen.normal(size=(8, 4096)), gen.normal(size=(8, 1229))
    for got, want in ((pp.apply(x), kept.apply(x)),
                      (pp.adjoint(y), kept.adjoint(y))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_odd_grid_estimates_its_norm_on_the_int8_copy(monkeypatch):
    # 32 x 64, log2 n_p odd: each slice of the int8 copy is multiplied by
    # 1/sqrt(2) as the cache's rows are, so the scale is that of a build
    # that keeps its float64 cache; r_p = 0.6 gives 1024 rows, 2^21 entries
    copies = set()
    fused = SpatialProjector.residual_and_adjoint

    def spy_fused(self, y, x):
        copies.add(self._cache.dtype.name)
        return fused(self, y, x)

    monkeypatch.setattr(SpatialProjector, "residual_and_adjoint", spy_fused)
    pp = SpatialProjector(32, 64, 1229, 205, seed=4)
    assert pp._cache is None and copies == {"int8"}
    copies.clear()
    monkeypatch.setattr(sensing, "_KEEP_LIMIT", sensing._MATERIALIZE_LIMIT)
    kept = SpatialProjector(32, 64, 1229, 205, seed=4)
    assert kept._cache is not None and copies == {"float64"}
    assert pp.scale == kept.scale


def test_spectral_build_peak_stays_near_m():
    # the widest band axis, built cold: next to the 16 MiB M a build holds
    # its q_s Walsh rows and their temporaries, one draw chunk of raw words,
    # its sign mask and its +/-s rows, and nothing else (1.21 M)
    tracemalloc.start()
    try:
        sp = SpectralProjector(2048, 1024, 102, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * sp._m.nbytes


def test_spatial_build_holds_only_the_walsh_rows_it_applies():
    empty = SpatialProjector(8, 8, 4, 0, seed=0)
    assert empty._wv.size == empty._wh.size == 0
    # a fresh interpreter, so no transform an earlier test built is counted:
    # one zig-zag row of a 2048 x 2048 grid needs one Walsh row per axis,
    # 16 KiB each, not the two 32 MiB matrices. numpy.random, which numpy
    # may import on first use, is imported before the count starts.
    child = ("import tracemalloc\n"
             "import numpy.random\n"
             "from hsrec.sensing import SpatialProjector\n"
             "tracemalloc.start()\n"
             "pp = SpatialProjector(2048, 2048, 1, 1, seed=0)\n"
             "print(len(pp._wv), len(pp._wh), "
             "tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    rows_v, rows_h, peak = map(int, out)
    assert (rows_v, rows_h) == (1, 1)
    assert peak < 1 << 20


def test_residual_and_adjoint_checks_shapes():
    pp = SpatialProjector(4, 4, 8, 2, seed=19)
    sp = SpectralProjector(4, 2, 1, seed=20)
    x, y = np.zeros((4, 16)), np.zeros((2, 8))
    with pytest.raises(ValueError, match="band-by-pixel matrix shape"):
        sensing.residual_and_adjoint(y, x[:, :8], sp, pp)
    with pytest.raises(ValueError, match="measurement shape"):
        sensing.residual_and_adjoint(y[:, :4], x, sp, pp)


# ---------------------------------------------------------------- acquire

def test_acquire_noiseless_is_exact_projection():
    pp = SpatialProjector(4, 4, 6, 2, seed=16)
    sp = SpectralProjector(8, 4, 1, seed=17)
    x = np.random.default_rng(9).normal(size=(8, 16))
    meas = acquire(x, sp, pp, sigma=0.0)
    assert np.array_equal(meas.y, project(x, sp, pp))
    assert meas.sigma == 0.0


def test_acquire_deterministic():
    pp = SpatialProjector(4, 4, 6, 2, seed=18)
    sp = SpectralProjector(8, 4, 1, seed=19)
    x = np.random.default_rng(10).normal(size=(8, 16))
    a = acquire(x, sp, pp, sigma=0.01, noise_seed=42)
    b = acquire(x, sp, pp, sigma=0.01, noise_seed=42)
    c = acquire(x, sp, pp, sigma=0.01, noise_seed=43)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_acquire_noise_statistics():
    pp = SpatialProjector(16, 16, 200, 20, seed=20)
    sp = SpectralProjector(512, 512, 512, seed=21)
    x = np.zeros((512, 256))
    meas = acquire(x, sp, pp, sigma=0.01, noise_seed=0)
    noise = meas.y.ravel()  # 102400 pure-noise samples
    n = noise.size
    assert abs(noise.mean()) < 3 * 0.01 / np.sqrt(n)
    assert noise.std() == pytest.approx(0.01, rel=0.02)


def test_acquire_rejects_negative_sigma():
    pp = SpatialProjector(4, 4, 6, 2, seed=22)
    sp = SpectralProjector(8, 4, 1, seed=23)
    for sigma in (-0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            acquire(np.zeros((8, 16)), sp, pp, sigma=sigma)


def test_acquire_checks_the_noise_level_before_it_projects():
    # the cube's shape is wrong too: the noise level is refused first
    pp = SpatialProjector(4, 4, 6, 2, seed=22)
    sp = SpectralProjector(8, 4, 1, seed=23)
    with pytest.raises(ValueError, match="noise level must be finite and >= 0"):
        acquire(np.zeros((8, 15)), sp, pp, sigma=float("nan"))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0, 10**400])
def test_measurements_reject_bad_sigma(sigma):
    # built directly, it would be written as a file the HSM2 reader refuses
    pp = SpatialProjector(4, 4, 6, 2, seed=24)
    sp = SpectralProjector(8, 4, 1, seed=25)
    with pytest.raises(ValueError, match="finite and >= 0"):
        Measurements(y=np.zeros((4, 6)), spectral=sp, spatial=pp, sigma=sigma)


@pytest.mark.parametrize("sigma", [True, "0.1", None, 0.1j])
def test_noise_level_must_be_a_real_number(sigma):
    # the rate rule's type check: the rule's ValueError, not numpy's TypeError
    pp = SpatialProjector(4, 4, 6, 2, seed=24)
    sp = SpectralProjector(8, 4, 1, seed=25)
    with pytest.raises(ValueError, match="noise level"):
        ExperimentSpec(sigma=sigma)
    with pytest.raises(ValueError, match="noise level"):
        acquire(np.zeros((8, 16)), sp, pp, sigma=sigma)
    with pytest.raises(ValueError, match="noise level"):
        Measurements(y=np.zeros((4, 6)), spectral=sp, spatial=pp, sigma=sigma)


def test_measurements_shape_validation():
    pp = SpatialProjector(4, 4, 6, 2, seed=24)
    sp = SpectralProjector(8, 4, 1, seed=25)
    with pytest.raises(ValueError):
        Measurements(y=np.zeros((4, 7)), spectral=sp, spatial=pp)
    with pytest.raises(ValueError):
        project(np.zeros((8, 15)), sp, pp)
    with pytest.raises(ValueError):
        adjoint(np.zeros((5, 6)), sp, pp)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0)])
def test_non_integral_seeds_are_refused(seed):
    # int() would alias them onto seeds 1 and 2
    pp = SpatialProjector(4, 4, 6, 2, seed=1)
    sp = SpectralProjector(8, 4, 1, seed=1)
    entry_points = [
        lambda: rng.stream(seed, rng.NOISE),
        lambda: SpatialProjector(4, 4, 6, 2, seed=seed),
        lambda: SpectralProjector(8, 4, 1, seed=seed),
        lambda: acquire(np.zeros((8, 16)), sp, pp, sigma=0.0, noise_seed=seed),
        lambda: Measurements(y=np.zeros((4, 6)), spectral=sp, spatial=pp,
                             noise_seed=seed),
    ]
    message = r"seeds must lie in \[0, 2\^64\)"
    for call in entry_points:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_seeds_draw_like_plain_ints(kind):
    assert np.array_equal(rng.stream(kind(7), rng.NOISE).random(8),
                          rng.stream(7, rng.NOISE).random(8))
    x = np.random.default_rng(11).normal(size=(8, 16))
    ys = []
    for seed in (kind(7), 7):
        pp = SpatialProjector(4, 4, 6, 2, seed=seed)
        sp = SpectralProjector(8, 4, 1, seed=seed)
        meas = acquire(x, sp, pp, sigma=0.01, noise_seed=seed)
        assert (pp.seed, sp.seed, meas.noise_seed) == (7, 7, 7)
        ys.append(meas.y)
    assert np.array_equal(*ys)


def test_combined_norm_is_the_product_of_the_axis_norms():
    # on column-major vec(X), X -> Phi_s X Phi_p^T is Phi_p kron Phi_s, whose
    # top singular value is the product of the axes'
    pp = SpatialProjector(4, 4, 6, 2, seed=26)
    sp = SpectralProjector(8, 4, 1, seed=27)
    phi_s, phi_p = sp.apply(np.eye(8)), pp.apply(np.eye(16)).T
    dense = np.stack([project(e.reshape(8, 16, order="F"), sp, pp)
                      .ravel(order="F") for e in np.eye(8 * 16)], axis=1)
    np.testing.assert_allclose(dense, np.kron(phi_p, phi_s), rtol=0,
                               atol=1e-12)
    assert np.linalg.norm(dense, 2) == pytest.approx(
        np.linalg.norm(phi_s, 2) * np.linalg.norm(phi_p, 2), rel=1e-12)
    # each axis is divided by a power-iteration estimate, which reads from
    # below, so on the reference sweep every normalized axis norm is >= 1
    spec, cube = ExperimentSpec(), Datacube(np.zeros((32, 32, 16)))
    for r_p, r_s in spec.rates:
        for seed in spec.seeds:
            meas = acquire_at_rates(cube, r_p, r_s, 0.0, seed)
            for norm in (np.linalg.norm(meas.spectral.apply(np.eye(16)), 2),
                         np.linalg.norm(meas.spatial.apply(np.eye(1024)), 2)):
                assert 1.0 - 1e-12 <= norm <= 1.02
