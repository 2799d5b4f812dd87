"""Time the sensing operator at paper scale and print one JSON line.

At seed 1, on 128x128x32 unless --grid names another size and at rates
(0.3, 0.25) unless --rates names others, this acquires the phantom
through harness.acquire_at_rates and times the spatial projector's build
(spatial_build_s, a default build with its 50-step power-iteration norm
estimate) and a build given the estimated scale (draw_s: the Philox
draw, the sign packing and, for at most _KEEP_LIMIT Rademacher entries,
their float64 cache, but no power iteration). A large block is drawn on
up to one thread per CPU the process may use (sensing._WORKER_ENTRIES),
and the line reports their count as cpus beside draw_s and read_s: run the
probe under `taskset -c 0` for the one-CPU times. The probe fails
unless that build applies bit for bit like the default one. norm_s, the
norm estimate's share, is their difference. It then times one pass over
the spatial Rademacher rows as a solver's operator calls see them
(expand_s: the chunk expansion alone, in the chunks a pass over the m_s
spectral rows expands, near 0 when the rows are cached as float64),
`project`, `adjoint`, one fused `residual_and_adjoint` pass (the
solvers' per-iterate operator call), `read_measurements` of an HSM2 file
of its own acquisition (read_s; the probe fails unless both stored
scales read back equal) and one hybrid iteration on the default weights:
hybrid_iter_s is (T_11 - T_1) / 10, with T_k the time of a k-iteration
solve: the mean of the ten iterations after the first, without the
solver's setup. calib_s
times a fixed float64 product, a seeded (8, 4096) @ (4096, 1024) that
does not depend on --grid: a time divided by it can be compared across
hosts and sessions. Every time except norm_s is the median of 5 runs.
After the timings, so that no time moves, tracemalloc takes two peaks:
build_peak_mib, of one default spatial build (its packed signs and any
cache or estimate copy included), and solve_peak_per_cube, of the
11-iteration hybrid solve, in float64 cubes (x.nbytes). held_mib is what
the acquired spatial projector keeps, from nbytes: its packed signs plus
its float64 cache, kept only up to _KEEP_LIMIT entries (every 32x32 block,
64x64 ones of up to 256 rows). A default build of more, up to
_MATERIALIZE_LIMIT, estimates its norm on an int8 copy of the signs,
which it casts slice by slice and then drops.
Fix the BLAS thread count in the environment for comparable numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/operator_probe.py
    PYTHONPATH=src python3 scripts/operator_probe.py --grid 32x32x16
    PYTHONPATH=src python3 scripts/operator_probe.py --grid 32x32x16 \
        --rates 0.5:0.5
"""

import argparse
import collections
import dataclasses
import json
import os
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from hsrec import formats, harness, sensing, solvers, transforms
from hsrec.datacube import as_band_pixel_matrix


SEED = 1
REPEATS = 5
EXTRA_ITERS = 10
CALIB_SHAPES = ((8, 4096), (4096, 1024))


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_seconds(fn):
    return statistics.median(_seconds(fn) for _ in range(REPEATS))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="128x128x32",
                        help="n_v x n_h x n_s (default 128x128x32)")
    parser.add_argument("--rates", default="0.3:0.25",
                        help="r_p:r_s (default 0.3:0.25)")
    args = parser.parse_args()
    n_v, n_h, n_s = (int(tok) for tok in args.grid.split("x"))
    r_p, r_s = (float(tok) for tok in args.rates.split(":"))
    cube = harness.generate_phantom(
        harness.PhantomSpec(n_v, n_h, n_s, seed=0))
    x = as_band_pixel_matrix(cube)
    meas = harness.acquire_at_rates(cube, r_p, r_s, 0.01, SEED)
    sp, pp = meas.spectral, meas.spatial

    def build(**scale):
        return sensing.SpatialProjector(n_v, n_h, pp.m_p, pp.q_p, SEED, **scale)

    if build(scale=pp.scale).apply(x).tobytes() != pp.apply(x).tobytes():
        raise SystemExit("a build given the scale is not the estimated one")
    spatial_build_s = _median_seconds(build)
    draw_s = _median_seconds(lambda: build(scale=pp.scale))

    expand_s = _median_seconds(
        lambda: collections.deque(pp._blocks(sp.m_s), 0))
    project_s = _median_seconds(lambda: sensing.project(x, sp, pp))
    adjoint_s = _median_seconds(lambda: sensing.adjoint(meas.y, sp, pp))
    residual_adjoint_s = _median_seconds(
        lambda: sensing.residual_and_adjoint(meas.y, x, sp, pp))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.hsm")
        formats.write_measurements(path, meas)
        back = formats.read_measurements(path)
        if (back.spectral.scale, back.spatial.scale) != (sp.scale, pp.scale):
            raise SystemExit("the HSM2 file does not read back its scales")
        read_s = _median_seconds(lambda: formats.read_measurements(path))

    basis = transforms.learn_spectral_basis(
        harness.sample_training_columns(x, SEED))

    def solve(iters):
        # a tiny tau: every run goes to max_iters
        config = dataclasses.replace(harness.default_hybrid_config(),
                                     max_iters=iters, tau=1e-300)
        return lambda: solvers.recover_hybrid(meas, basis, config)

    one = _median_seconds(solve(1))
    more = _median_seconds(solve(1 + EXTRA_ITERS))
    gen = np.random.default_rng(0)
    a, b = (gen.standard_normal(shape) for shape in CALIB_SHAPES)
    calib_s = _median_seconds(lambda: a @ b)
    build_peak = _traced_peak(build)
    held = pp._signs.nbytes + (0 if pp._cache is None else pp._cache.nbytes)
    solve_peak = _traced_peak(solve(1 + EXTRA_ITERS))
    print(json.dumps({
        "grid": args.grid, "rates": [r_p, r_s], "seed": SEED,
        "counts": {"m_p": pp.m_p, "q_p": pp.q_p, "m_s": sp.m_s, "q_s": sp.q_s},
        "rademacher_entries": (pp.m_p - pp.q_p) * pp.n_p,
        "spatial_build_s": spatial_build_s, "cpus": sensing._cpus(),
        "draw_s": draw_s, "norm_s": spatial_build_s - draw_s,
        "expand_s": expand_s, "project_s": project_s, "adjoint_s": adjoint_s,
        "residual_adjoint_s": residual_adjoint_s, "read_s": read_s,
        "hybrid_iter_s": (more - one) / EXTRA_ITERS, "calib_s": calib_s,
        "build_peak_mib": build_peak / 2**20, "held_mib": held / 2**20,
        "solve_peak_per_cube": solve_peak / x.nbytes, "repeats": REPEATS,
    }))


if __name__ == "__main__":
    main()
