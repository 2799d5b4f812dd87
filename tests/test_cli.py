import csv
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsrec
from hsrec import formats, harness
from hsrec.cli import main
from hsrec.datacube import Datacube, as_band_pixel_matrix, cube_from_matrix
from hsrec.formats import (read_cube, read_measurements, write_cube,
                           write_measurements)
from hsrec.transforms import SpectralBasis, _walsh_rows
from oracles import hsm1_bytes


def _make_phantom(tmp_path, name="cube.hsc", nv=16, nh=16, ns=8, seed=1,
                  regions=None):
    path = tmp_path / name
    argv = ["phantom", "--out", str(path), "--nv", str(nv), "--nh", str(nh),
            "--ns", str(ns), "--seed", str(seed)]
    if regions is not None:
        argv += ["--regions", str(regions)]
    assert main(argv) == 0
    return path


def _acquire(tmp_path, cube, name="meas.hsm", rp=0.3, rs=0.25, sigma=0.01,
             seed=4):
    path = tmp_path / name
    assert main(["acquire", "--cube", str(cube), "--rp", str(rp),
                 "--rs", str(rs), "--sigma", str(sigma), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


def _read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- phantom

def test_phantom_deterministic_bytes(tmp_path):
    a = _make_phantom(tmp_path, "a.hsc")
    b = _make_phantom(tmp_path, "b.hsc")
    assert a.read_bytes() == b.read_bytes()


def test_phantom_flags_default_to_the_phantom_spec(tmp_path):
    # --regions, --atoms and --seed omitted: PhantomSpec's own defaults
    path = tmp_path / "cube.hsc"
    assert main(["phantom", "--out", str(path), "--nv", "16", "--nh", "8",
                 "--ns", "8"]) == 0
    want = tmp_path / "want.hsc"
    write_cube(want, harness.generate_phantom(harness.PhantomSpec(16, 8, 8)))
    assert path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("command", ["phantom", "sweep"])
def test_phantom_refuses_a_grid_over_the_cube_bound(tmp_path, capsys,
                                                    monkeypatch, command):
    # the bound a measurement file's cube must keep, checked before the
    # phantom is generated: 8x8x4 stands in for 2048x2048x64
    def no_phantom(spec):
        raise AssertionError("the phantom was generated")
    monkeypatch.setattr(formats, "_MAX_CUBE_ENTRIES", 8 * 8 * 4 - 1)
    monkeypatch.setattr(harness, "generate_phantom", no_phantom)
    out = tmp_path / "out"
    rc = main([command, "--nv", "8", "--nh", "8", "--ns", "4",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: declared cube 8x8x4 exceeds 255 entries\n")
    assert not out.exists()


def test_phantom_single_region_constant_frames(tmp_path):
    path = _make_phantom(tmp_path, regions=1, nv=8, nh=8, ns=4)
    x = as_band_pixel_matrix(read_cube(path))
    assert np.all(x.max(axis=1) == x.min(axis=1))


def test_module_entry_runs_a_command(tmp_path):
    # python -m hsrec.cli is the same command line as the hsrec script
    out = tmp_path / "cube.hsc"
    env = dict(os.environ, PYTHONPATH=str(Path(hsrec.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "hsrec.cli", "phantom", "--out", str(out),
         "--nv", "8", "--nh", "8", "--ns", "4"],
        env=env, cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    cube = read_cube(out)
    assert (cube.n_v, cube.n_h, cube.n_s) == (8, 8, 4)


def test_phantom_rejects_non_power_of_two(tmp_path, capsys):
    rc = main(["phantom", "--out", str(tmp_path / "bad.hsc"), "--nv", "3",
               "--nh", "4", "--ns", "4"])
    assert rc == 2
    assert "power of two" in capsys.readouterr().err


def test_phantom_rejects_axes_over_2048(tmp_path, capsys):
    # acquire would refuse the cube, so phantom writes none
    out = tmp_path / "long.hsc"
    rc = main(["phantom", "--out", str(out), "--nv", "4096", "--nh", "1",
               "--ns", "2"])
    assert rc == 2
    assert "--nv must be at most 2048" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["phantom", "--seed", "-1"],
    ["sweep", "--rates", "0.5:0.5", "--seeds", "-1"],
], ids=["phantom", "sweep"])
def test_commands_reject_seeds_outside_64_bits(tmp_path, capsys, argv):
    # -1 used to alias 2^64 - 1 and run
    out = tmp_path / "out"
    rc = main(argv + ["--nv", "8", "--nh", "8", "--ns", "4", "--out", str(out)])
    assert rc == 2
    assert "seeds must lie in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- acquire

def test_acquire_full_sampling_preserves_norm(tmp_path):
    cube = _make_phantom(tmp_path)
    meas = _acquire(tmp_path, cube, rp=1.0, rs=1.0, sigma=0.0)
    y = read_measurements(meas).y
    x = as_band_pixel_matrix(read_cube(cube))
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-6)


def test_acquire_five_percent_spectral_rate(tmp_path):
    cube = _make_phantom(tmp_path, nv=4, nh=4, ns=128)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.05)
    got = read_measurements(meas)
    assert got.spectral.m_s == 6
    assert got.spectral.q_s == 6  # five-percent rule caps the low-pass block


def test_acquire_rejects_negative_sigma(tmp_path, capsys):
    # the reader would refuse nan or inf, and nan would add no noise at all
    cube = _make_phantom(tmp_path)
    out = tmp_path / "m.hsm"
    for sigma in ("-1", "nan", "inf"):
        rc = main(["acquire", "--cube", str(cube), "--rp", "0.5", "--rs", "0.5",
                   "--sigma", sigma, "--out", str(out)])
        assert rc == 2
        assert "finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_acquire_rejects_seeds_the_header_cannot_store(tmp_path, capsys, seed):
    cube = _make_phantom(tmp_path)
    out = tmp_path / "m.hsm"
    rc = main(["acquire", "--cube", str(cube), "--rp", "0.5", "--rs", "0.5",
               "--seed", seed, "--out", str(out)])
    assert rc == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


def test_acquire_lowpass_overrides(tmp_path):
    cube = _make_phantom(tmp_path)
    path = tmp_path / "m.hsm"
    assert main(["acquire", "--cube", str(cube), "--rp", "0.5", "--rs", "0.5",
                 "--qp", "10", "--qs", "0", "--out", str(path)]) == 0
    got = read_measurements(path)
    assert got.spatial.q_p == 10
    assert got.spectral.q_s == 0


@pytest.mark.parametrize("flags, overrides", [
    ([], {}), (["--qp", "10", "--qs", "1"], {"q_p": 10, "q_s": 1})])
def test_acquire_writes_the_harness_acquisition(tmp_path, flags, overrides):
    # the CLI and run_experiment share harness.acquire_at_rates
    cube = _make_phantom(tmp_path)
    path = tmp_path / "m.hsm"
    assert main(["acquire", "--cube", str(cube), "--rp", "0.5", "--rs", "0.5",
                 "--seed", "3", "--out", str(path)] + flags) == 0
    want = harness.acquire_at_rates(read_cube(cube), 0.5, 0.5, 0.01, 3,
                                    **overrides)
    got = read_measurements(path)
    assert np.array_equal(got.y, want.y.astype(np.float32))

    def counts(meas):
        return (meas.spectral.m_s, meas.spectral.q_s, meas.spatial.m_p,
                meas.spatial.q_p)
    assert counts(got) == counts(want)
    if overrides:
        assert (got.spatial.q_p, got.spectral.q_s) == (10, 1)


@pytest.mark.parametrize("q_p, err", [
    (3, ""),
    (None, "warning: spatial low-pass count 26 exceeds the projection "
           "budget 13; clamping to 13\n")], ids=["given", "defaulted"])
@pytest.mark.filterwarnings("default::UserWarning")  # its line under -W error too
def test_acquire_warns_only_about_a_defaulted_count(tmp_path, capsys, q_p,
                                                    err):
    # a library warning prints as one line; a given --qp is not warned about
    cube = _make_phantom(tmp_path)
    capsys.readouterr()
    path = tmp_path / "m.hsm"
    flags = [] if q_p is None else ["--qp", str(q_p)]
    assert main(["acquire", "--cube", str(cube), "--rp", "0.05", "--rs", "0.5",
                 "--seed", "3", "--out", str(path)] + flags) == 0
    assert capsys.readouterr().err == err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = harness.acquire_at_rates(read_cube(cube), 0.05, 0.5, 0.01, 3,
                                        q_p=q_p)
    write_measurements(tmp_path / "want.hsm", want)
    assert path.read_bytes() == (tmp_path / "want.hsm").read_bytes()


def test_acquire_exits_2_on_a_warning_escalated_to_an_error(tmp_path, capsys):
    # as under python -W error: one error line, exit 2 and no file
    cube = _make_phantom(tmp_path)
    capsys.readouterr()
    out = tmp_path / "m.hsm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["acquire", "--cube", str(cube), "--rp", "0.05", "--rs", "0.5",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: spatial low-pass count 26 exceeds the projection budget 13; "
        "clamping to 13\n")
    assert not out.exists()


def test_acquire_refuses_measurements_that_overflow_float32(tmp_path, capsys):
    # the cube is finite in float32, its projections are not: the reader
    # would refuse the payload, so the writer leaves no file
    cube = tmp_path / "big.hsc"
    write_cube(cube, Datacube(np.full((8, 8, 4), 3e38)))
    out = tmp_path / "m.hsm"
    rc = main(["acquire", "--cube", str(cube), "--rp", "0.5", "--rs", "0.5",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "float32" in err[0] and "not finite" in err[0]
    assert not out.exists()


def test_acquire_missing_cube_file(tmp_path):
    rc = main(["acquire", "--cube", str(tmp_path / "nope.hsc"), "--rp", "0.5",
               "--rs", "0.5", "--out", str(tmp_path / "m.hsm")])
    assert rc == 2


# ---------------------------------------------------------------- recover

def test_recover_hybrid_end_to_end(tmp_path):
    cube = _make_phantom(tmp_path)
    meas = _acquire(tmp_path, cube)
    out = tmp_path / "rec.hsc"
    trace = tmp_path / "trace.csv"
    rc = main(["recover", "--meas", str(meas), "--method", "hybrid",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    rows = _read_trace(trace)
    assert rows
    assert list(rows[0]) == ["iter", "rel_change", "cost"]
    assert [int(r["iter"]) for r in rows] == list(range(1, len(rows) + 1))
    assert read_cube(out).data.shape == (16, 16, 8)


@pytest.mark.parametrize("method", list(harness.METHODS))
def test_recover_runs_the_harness_method_with_its_defaults(tmp_path, method):
    # no weight flag: the METHODS entry's default settings, over a Walsh basis
    cube = _make_phantom(tmp_path, nv=8, nh=8, ns=4)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.5)
    out = tmp_path / "r.hsc"
    assert main(["recover", "--meas", str(meas), "--method", method,
                 "--out", str(out)]) == 0
    x_hat, _ = harness.recover(
        method, read_measurements(meas),
        SpectralBasis(_walsh_rows(4)),
        harness.METHODS[method].default_config())
    want = tmp_path / "want.hsc"
    write_cube(want, cube_from_matrix(x_hat, 8, 8))
    assert out.read_bytes() == want.read_bytes()


def test_recover_hybrid_beats_bpdn_with_truth(tmp_path):
    cube = _make_phantom(tmp_path, nv=32, nh=32, ns=16, seed=0)
    meas = _acquire(tmp_path, cube, seed=0)
    finals = {}
    for method in ("bpdn", "hybrid"):
        out = tmp_path / f"{method}.hsc"
        trace = tmp_path / f"{method}.csv"
        rc = main(["recover", "--meas", str(meas), "--method", method,
                   "--truth", str(cube), "--out", str(out),
                   "--trace", str(trace)])
        assert rc == 0
        rows = _read_trace(trace)
        assert list(rows[0]) == ["iter", "rel_change", "cost", "rel_error"]
        finals[method] = float(rows[-1]["rel_error"])
    assert finals["hybrid"] < finals["bpdn"]


def test_recover_has_no_dictionary_alias(tmp_path, capsys):
    # hybrid-dict ran the hybrid code path with the same orthonormal basis
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--meas", str(tmp_path / "m.hsm"),
              "--method", "hybrid-dict", "--out", str(tmp_path / "r.hsc")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("method, flags", [
    ("hybrid", ["--gamma", "5"]),
    ("bpdn", ["--gamma1", "5"]),
    ("bpdn", ["--gamma1", "5", "--gamma2", "7"]),
    ("bpdn", ["--gamma2", "7"]),
], ids=["hybrid-gamma", "bpdn-gamma1", "bpdn-gamma1-gamma2",
        "bpdn-gamma2"])
def test_recover_rejects_weights_the_method_ignores(tmp_path, capsys, method,
                                                     flags):
    # the run would otherwise write the same bytes as one without the flag
    cube = _make_phantom(tmp_path, nv=8, nh=8, ns=4)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.5)
    out = tmp_path / "r.hsc"
    rc = main(["recover", "--meas", str(meas), "--method", method, *flags,
               "--out", str(out)])
    assert rc == 2
    assert f"{flags[0]} does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_recover_basis_sample_seed_needs_truth(tmp_path, capsys):
    # without --truth no basis is trained, so the seed would change nothing
    cube = _make_phantom(tmp_path, nv=8, nh=8, ns=4)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.5)
    out = tmp_path / "r.hsc"
    rc = main(["recover", "--meas", str(meas), "--basis-sample-seed", "7",
               "--max-iters", "20", "--out", str(out)])
    assert rc == 2
    assert "--basis-sample-seed does not apply" in capsys.readouterr().err
    assert not out.exists()
    # with --truth the omitted flag still draws with seed 0
    written = []
    for extra in ([], ["--basis-sample-seed", "0"]):
        path = tmp_path / f"r{len(written)}.hsc"
        assert main(["recover", "--meas", str(meas), "--truth", str(cube),
                     "--max-iters", "20", "--out", str(path), *extra]) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_recover_refuses_a_truth_cube_of_another_grid(tmp_path, capsys):
    cube = _make_phantom(tmp_path, nv=8, nh=8, ns=4)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.5)
    other = _make_phantom(tmp_path, "other.hsc", nv=8, nh=8, ns=8)
    out = tmp_path / "r.hsc"
    rc = main(["recover", "--meas", str(meas), "--truth", str(other),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: truth cube is 8x8x8, measurements describe 8x8x4\n")
    assert not out.exists()


def test_recover_divergence_exit_code(tmp_path, capsys):
    cube = _make_phantom(tmp_path)
    meas = _acquire(tmp_path, cube)
    rc = main(["recover", "--meas", str(meas), "--method", "hybrid",
               "--lambda", "100", "--out", str(tmp_path / "r.hsc")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_recover_slow_blow_up_exits_3_without_a_file(tmp_path, capsys):
    # the cost grows geometrically and would stay finite in float64 for 50
    # iterations, but not in the float32 file
    cube = _make_phantom(tmp_path)
    meas = _acquire(tmp_path, cube, rp=0.3, rs=0.5)
    out = tmp_path / "r.hsc"
    rc = main(["recover", "--meas", str(meas), "--method", "hybrid",
               "--lambda", "100", "--max-iters", "50", "--out", str(out)])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


def test_recover_rejects_non_finite_measurement_files(tmp_path, capsys):
    cube = _make_phantom(tmp_path, nv=8, nh=8, ns=4)
    meas = _acquire(tmp_path, cube, rp=0.5, rs=0.5)
    hsm2 = meas.read_bytes()
    sigma_at = struct.calcsize("<4s7I3Q")  # the same in both layouts
    for raw, header_size in ((hsm2, struct.calcsize("<4s7I3Q3d")),
                             (hsm1_bytes(hsm2), struct.calcsize("<4s7I3Qd"))):
        nan_sigma = tmp_path / "nan_sigma.hsm"
        nan_sigma.write_bytes(raw[:sigma_at] + struct.pack("<d", np.nan)
                              + raw[sigma_at + 8:])
        nan_payload = tmp_path / "nan_payload.hsm"
        nan_payload.write_bytes(raw[:header_size] + np.float32(np.nan).tobytes()
                                + raw[header_size + 4:])
        for path, message in ((nan_sigma, "noise level"),
                              (nan_payload, "not finite")):
            rc = main(["recover", "--meas", str(path), "--method", "hybrid",
                       "--out", str(tmp_path / "r.hsc")])
            assert rc == 2
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ((32768, 32768, 1), "exceeds"),      # 2^30-entry cube
    ((2048, 2048, 64), "exceeds"),       # every axis in range, cube too large
    ((4096, 1, 1), "at most 2048"),      # small cube, axis too long
])
def test_recover_rejects_oversized_grids_fast(tmp_path, capsys, grid, message):
    # 68 bytes: one measurement from one Rademacher row per axis
    path = tmp_path / "hostile.hsm"
    path.write_bytes(struct.pack("<4s7I3Qd", b"HSM1", 1, 1, 0, 0, *grid,
                                 0, 0, 0, 0.0)
                     + np.ones(1, dtype="<f4").tobytes())
    start = time.perf_counter()
    rc = main(["recover", "--meas", str(path), "--method", "hybrid",
               "--out", str(tmp_path / "r.hsc")])
    assert time.perf_counter() - start < 0.1
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("q_p, scales", [
    (0, (float("nan"), 1.0)), (0, (float("inf"), 1.0)),
    (0, (1.0, float("-inf"))), (0, (1.0, 0.0)), (0, (1.0, -1.0)),
    (1, (1.0, 0.5)),                     # q_p = m_p: the scale must be 1
])
def test_recover_rejects_bad_stored_scales_fast(tmp_path, capsys, q_p, scales):
    # 84 bytes: an HSM2 header over a 2048x2048 grid with one spatial row
    path = tmp_path / "hostile.hsm"
    path.write_bytes(struct.pack("<4s7I3Q3d", b"HSM2", 1, 1, 0, q_p,
                                 2048, 2048, 1, 0, 0, 0, 0.0, *scales)
                     + np.ones(1, dtype="<f4").tobytes())
    start = time.perf_counter()
    rc = main(["recover", "--meas", str(path), "--method", "hybrid",
               "--out", str(tmp_path / "r.hsc")])
    assert time.perf_counter() - start < 0.1
    assert rc == 2
    assert "scale" in capsys.readouterr().err


def test_recover_rejects_an_oversized_rademacher_block_fast(tmp_path, capsys):
    # 16,464 bytes: a 2048x2048x1 grid whose 4096 spatial Rademacher rows
    # (2^34 entries, 2 GiB packed) match a 4096-sample payload; the counts
    # are refused before the signs are allocated or drawn
    path = tmp_path / "hostile.hsm"
    path.write_bytes(struct.pack("<4s7I3Q3d", b"HSM2", 1, 4096, 0, 0,
                                 2048, 2048, 1, 0, 0, 0, 0.0, 1.0, 1.0)
                     + np.ones(4096, dtype="<f4").tobytes())
    assert path.stat().st_size == 16464
    start = time.perf_counter()
    rc = main(["recover", "--meas", str(path), "--method", "hybrid",
               "--out", str(tmp_path / "r.hsc")])
    assert time.perf_counter() - start < 0.1
    assert rc == 2
    assert "spatial Rademacher block of 4096 x 4194304 entries exceeds" in (
        capsys.readouterr().err)


# ---------------------------------------------------------------- eval

def test_eval_identical_and_zero(tmp_path, capsys):
    cube = _make_phantom(tmp_path)
    capsys.readouterr()  # drop the phantom command's status line
    assert main(["eval", "--truth", str(cube), "--recovered",
                 str(cube)]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0

    zero = tmp_path / "zero.hsc"
    data = read_cube(cube)
    from hsrec.datacube import Datacube
    from hsrec.formats import write_cube
    write_cube(zero, Datacube(np.zeros_like(data.data)))
    assert main(["eval", "--truth", str(cube), "--recovered", str(zero)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_eval_names_the_bad_cube(tmp_path, capsys):
    cube = _make_phantom(tmp_path)
    bad = tmp_path / "inf.hsc"
    bad.write_bytes(struct.pack("<4s3I", b"HSC1", 2, 2, 1)
                    + np.full(4, np.inf, dtype="<f4").tobytes())
    capsys.readouterr()  # drop the phantom command's status line
    rc = main(["eval", "--truth", str(cube), "--recovered", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: payload is not finite in float32\n")


def test_eval_dimension_mismatch(tmp_path, capsys):
    big = _make_phantom(tmp_path, "big.hsc")
    small = _make_phantom(tmp_path, "small.hsc", nv=8, nh=8, ns=4)
    rc = main(["eval", "--truth", str(big), "--recovered", str(small)])
    assert rc == 2
    assert capsys.readouterr().err


# ---------------------------------------------------------------- render

def test_render_constant_cube_uniform_gray(tmp_path):
    from hsrec.datacube import Datacube
    from hsrec.formats import write_cube
    cube = tmp_path / "flat.hsc"
    write_cube(cube, Datacube(np.full((4, 6, 3), 0.7)))
    out = tmp_path / "img.ppm"
    assert main(["render", "--cube", str(cube), "--bands", "0,1,2",
                 "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P6\n6 4\n255\n")
    body = raw[len(b"P6\n6 4\n255\n"):]
    assert body == bytes([128]) * (4 * 6 * 3)


def test_render_band_out_of_range(tmp_path, capsys):
    cube = _make_phantom(tmp_path, nv=4, nh=4, ns=4)
    rc = main(["render", "--cube", str(cube), "--bands", "0,1,9",
               "--out", str(tmp_path / "img.ppm")])
    assert rc == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("bands, message", [
    ("0,1,x", "--bands expects integers, got '0,1,x'"),
    ("0,1", "--bands expects exactly three comma-separated indices")])
def test_render_rejects_malformed_bands(tmp_path, capsys, bands, message):
    cube = _make_phantom(tmp_path, nv=4, nh=4, ns=4)
    capsys.readouterr()
    out = tmp_path / "img.ppm"
    rc = main(["render", "--cube", str(cube), "--bands", bands,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_render_deterministic_bytes(tmp_path):
    cube = _make_phantom(tmp_path)
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    for out in (a, b):
        assert main(["render", "--cube", str(cube), "--bands", "0,3,7",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- sweep

def _run_sweep(tmp_path, rates, seeds):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--nv", "8", "--nh", "8", "--ns", "4",
               "--rates", rates, "--seeds", seeds, "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_single_pair_two_rows(tmp_path):
    rows = _run_sweep(tmp_path, "0.5:0.5", "0")
    assert len(rows) == 2
    assert {r["method"] for r in rows} == {"bpdn", "hybrid"}
    assert list(rows[0]) == ["method", "r_p", "r_s", "seed", "relative_error",
                             "iterations", "wall_time_s", "reason"]


def test_sweep_flags_default_to_the_experiment_spec(tmp_path):
    # no --rates, --sigma or --seeds: the rows of run_experiment on
    # ExperimentSpec(), in its order
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nv", "8", "--nh", "8", "--ns", "4",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cube = harness.generate_phantom(harness.PhantomSpec(8, 8, 4))
    want = harness.run_experiment(harness.ExperimentSpec(), cube)
    assert len(rows) == len(want) == 20
    for row, expected in zip(rows, want):
        assert (row["method"], float(row["r_p"]), float(row["r_s"]),
                int(row["seed"]), row["relative_error"]) == (
            expected["method"], expected["r_p"], expected["r_s"],
            expected["seed"], f"{expected['relative_error']:.12e}")


def test_sweep_rejects_a_rate_pair_without_a_colon(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--nv", "8", "--nh", "8", "--ns", "4",
               "--rates", "0.5:0.5,0.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad rate pair '0.5'; expected rp:rs\n")
    assert not out.exists()


def test_sweep_grid_cardinality(tmp_path):
    rows = _run_sweep(tmp_path, "0.3:0.25,0.5:0.5,0.75:0.75", "0,1")
    assert len(rows) == 12
    # the stop reason column: bpdn reaches tau on some runs, hybrid on none
    assert {r["reason"] for r in rows} == {"threshold", "max-iters"}
    for row in rows:
        assert (row["reason"] == "max-iters") == (row["iterations"] == "200")
        if row["method"] == "hybrid":
            assert row["reason"] == "max-iters"


def test_sweep_on_a_one_band_cube(tmp_path):
    # a given cube is swept as it is: no phantom spec is built or checked
    cube = tmp_path / "one_band.hsc"
    write_cube(cube, Datacube(np.random.default_rng(0).uniform(size=(8, 8, 1))))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--cube", str(cube), "--rates", "0.5:1",
                 "--seeds", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_sweep_repeated_seeds_identical_errors(tmp_path):
    rows = _run_sweep(tmp_path, "0.5:0.5", "3,3")
    errs = {}
    for row in rows:
        errs.setdefault(row["method"], []).append(row["relative_error"])
    for values in errs.values():
        assert values[0] == values[1]
