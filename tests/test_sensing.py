import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsrec.sensing as sensing
from hsrec import rng
from hsrec.sensing import (Measurements, SpatialProjector, SpectralProjector,
                           acquire, adjoint, default_lowpass_counts,
                           operator_norm_estimate, project, rates_to_counts)
from hsrec.transforms import fwht_sequency, zigzag_indices
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
    for r_p, r_s in ((0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError):
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
    coeff = np.array([fwht_sequency(x[:, c]) for c in range(5)]).T
    assert np.allclose(sp.apply(x), coeff[:3], atol=1e-12)
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
    pp = SpatialProjector(4, 8, 20, 4, seed=15)
    gen = np.random.default_rng(11)
    for _ in range(5):
        pp.apply(gen.normal(size=(3, 32)))
        pp.adjoint(gen.normal(size=(3, 20)))
    assert sum(drawn) == (20 - 4) * 32


@pytest.mark.parametrize("limit, expansions", [
    (0, sensing._NORM_ITERATIONS * 6),  # 16 rows in chunks of 3: 6 chunks
    (sensing._MATERIALIZE_LIMIT, 1),  # cached once, in the constructor
], ids=["chunked", "cached"])
def test_power_iteration_expands_each_chunk_once_per_step(monkeypatch, limit,
                                                          expansions):
    # each Gram step is one fused pass at y = 0
    calls, passes = [], []
    expand = SpatialProjector._expand
    fused = SpatialProjector.residual_and_adjoint

    def spy_expand(self, lo, hi, out):
        calls.append((lo, hi))
        return expand(self, lo, hi, out)

    def spy_fused(self, y, x):
        passes.append(x.shape)
        return fused(self, y, x)

    monkeypatch.setattr(SpatialProjector, "_expand", spy_expand)
    monkeypatch.setattr(SpatialProjector, "residual_and_adjoint", spy_fused)
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", limit)
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 3 * 32)
    pp = SpatialProjector(4, 8, 20, 4, seed=15)
    assert pp.scale != 1.0
    assert len(calls) == expansions
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
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 1 * 4)
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


@pytest.mark.parametrize("chunked", [False, True], ids=["cached", "chunked"])
@pytest.mark.parametrize("n_v, n_h, m_p, q_p", [
    (8, 8, 20, 0), (8, 8, 20, 5),      # log2 n_p even: +/-1 rows
    (8, 16, 40, 0), (8, 16, 40, 7),    # log2 n_p odd: +/-1/sqrt(2) rows
    (1, 2, 2, 0), (1, 2, 2, 1),
])
def test_operator_bits_match_written_out_dense_rows(monkeypatch, chunked,
                                                    n_v, n_h, m_p, q_p):
    # however the rows are held and expanded, the public operator gives the
    # bits of the products with +/-1/sqrt(n_p) rows, and its default scale
    # those of a power iteration run on them
    n, rows = n_v * n_h, m_p - q_p
    chunk_rows = 3 if chunked else rows
    if chunked:
        monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", chunk_rows * n)
    pp = SpatialProjector(n_v, n_h, m_p, q_p, seed=19)
    unit = SpatialProjector(n_v, n_h, m_p, q_p, seed=19, scale=1.0)
    assert (pp._cache is None) == chunked
    rad = spatial_matrix(unit)[q_p:]  # the dense +/-1/sqrt(n_p) rows
    gen = np.random.default_rng(20)
    x, y = gen.normal(size=(3, n)), gen.normal(size=(3, m_p))
    want = _written_out_passes(pp, rad, chunk_rows, x, y)
    got = (pp.apply(x), pp.adjoint(y), *pp.residual_and_adjoint(y, x))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()

    zero = np.zeros(m_p)
    v = rng.gaussian(rng.stream(pp.seed, rng.SPATIAL_NORM), (n,))
    v /= np.linalg.norm(v)
    for _ in range(sensing._NORM_ITERATIONS):
        w = _written_out_passes(unit, rad, chunk_rows, v, zero)[3]
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    assert pp.scale == 1.0 / float(np.sqrt(sigma2))


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
    monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 64)  # one row per chunk
    by_row = SpectralProjector(64, 32, 3, seed=18)
    assert drawn == [(1, 64)] * (32 - 3)
    assert not expanded
    assert by_row._m.tobytes() == sp._m.tobytes()
    assert by_row.scale == sp.scale


def test_spectral_build_peak_stays_near_m():
    # the widest band axis, built cold: next to the 16 MiB M a build holds
    # its q_s Walsh rows, one draw chunk of raw words, its sign mask and its
    # +/-s rows, and nothing else
    tracemalloc.start()
    try:
        sp = SpectralProjector(2048, 1024, 102, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.65 * sp._m.nbytes


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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_measurements_reject_bad_sigma(sigma):
    # built directly, it would be written as a file the HSM1 reader refuses
    pp = SpatialProjector(4, 4, 6, 2, seed=24)
    sp = SpectralProjector(8, 4, 1, seed=25)
    with pytest.raises(ValueError, match="finite and >= 0"):
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


def test_operator_norm_estimate_near_one(monkeypatch):
    pp = SpatialProjector(4, 4, 6, 2, seed=26)
    sp = SpectralProjector(8, 4, 1, seed=27)
    est = operator_norm_estimate(sp, pp)
    assert 0.0 < est <= 1.6
    # the fused pass at y = 0 negates adjoint(project(v)) exactly and the
    # norm ignores the sign: a cached and a chunked build give the estimate
    # of the adjoint(project(.)) route to the last bit
    for (n_v, n_h, n_s), limit in (((32, 32, 16), sensing._MATERIALIZE_LIMIT),
                                   ((16, 16, 8), 0)):
        monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", limit)
        monkeypatch.setattr(sensing, "_CHUNK_ENTRIES", 16 * n_v * n_h)
        m_p, m_s = rates_to_counts(0.3, 0.25, n_v * n_h, n_s)
        pp = SpatialProjector(n_v, n_h, m_p, n_v * n_h // 10, seed=1)
        sp = SpectralProjector(n_s, m_s, 1, seed=1)
        assert (pp._cache is None) == (limit == 0)
        routed = sensing._power_norm(
            lambda v: adjoint(project(v.reshape(n_s, pp.n_p), sp, pp), sp,
                              pp).ravel(),
            n_s * pp.n_p, rng.stream(0, rng.COMBINED_NORM))
        assert operator_norm_estimate(sp, pp) == routed
