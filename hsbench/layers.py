"""Per-layer metrics of a traced run.

Two sources, one per kind of question:

- Spans recorded around the workload's own calls (tracing.py) give what
  happens inside a solve or a read: iterations, calls per iteration,
  self-time shares, projector build times and the payload part of a read.
- Isolated probes time one public call at a time at the workload's sizes
  and report the median over repeats: the operator blocks, the transforms,
  the regularizers, the file writers and the phantom.

A workload that does not run a solver method gets a probe solve of that
method, capped at PROBE_ITERS iterations, on its own measurements, so every
workload reports every solver metric.
"""

import dataclasses
import statistics
import time

import numpy as np

from hsrec import formats, harness, regularizers, rng, sensing, transforms

import tracing
import workloads

PROBE_ITERS = 10
PROBE_BUDGET_S = 0.3     # target time per probe; at least MIN_REPEATS calls
MIN_REPEATS = 3
MAX_REPEATS = 50
RADEMACHER_PROBE_SHAPE = (256, 4096)  # 1 Mi entries per call
# Rademacher storage at this commit: float64, cached whole up to this many
# entries, otherwise regenerated in chunks of CHUNK_ENTRIES per call.
MATERIALIZE_LIMIT = 1 << 22
CHUNK_ENTRIES = 1 << 20


def _median_ms(fn):
    """Median wall time of fn() in ms over an adaptive number of repeats."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    repeats = int(min(MAX_REPEATS, max(MIN_REPEATS, PROBE_BUDGET_S / max(first, 1e-9))))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def rademacher_bytes(meas):
    """Bytes of Rademacher entries the operators hold (computed)."""
    total = 0
    for rows, n in ((meas.spatial.m_p - meas.spatial.q_p, meas.spatial.n_p),
                    (meas.spectral.m_s - meas.spectral.q_s, meas.spectral.n_s)):
        if rows * n <= MATERIALIZE_LIMIT:
            total += 8 * rows * n
        else:
            total += 8 * min(rows, max(1, CHUNK_ENTRIES // n)) * n
    return total


def probe(setting, x, meas, seed, work_dir):
    """Isolated timings of the public calls at the workload's sizes."""
    sp, pp = meas.spectral, meas.spatial
    n_v, n_h, n_s = setting.shape
    out = {}
    out["sensing.project_ms"] = _median_ms(lambda: sensing.project(x, sp, pp))
    out["sensing.adjoint_ms"] = _median_ms(lambda: sensing.adjoint(meas.y, sp, pp))
    xs = sp.apply(x)  # what the spatial projector sees inside project()
    # q_p = m_p: the low-pass block alone, a partial isometry (no power iteration)
    walsh = sensing.SpatialProjector(n_v, n_h, pp.q_p, pp.q_p, pp.seed)
    out["sensing.spatial_walsh_ms"] = _median_ms(lambda: walsh.adjoint(walsh.apply(xs)))
    # q_p = 0 with the same seed and row count: the same Rademacher rows alone
    rad = sensing.SpatialProjector(n_v, n_h, pp.m_p - pp.q_p, 0, pp.seed)
    out["sensing.spatial_rademacher_ms"] = _median_ms(lambda: rad.adjoint(rad.apply(xs)))
    out["sensing.spectral_ms"] = _median_ms(lambda: sp.adjoint(sp.apply(x)))
    out["sensing.acquire_ms"] = _median_ms(
        lambda: sensing.acquire(x, sp, pp, setting.sigma, noise_seed=seed))
    out["sensing.rademacher_bytes"] = float(rademacher_bytes(meas))
    entries = np.prod(RADEMACHER_PROBE_SHAPE) / 1e6
    out["rng.rademacher_ms_per_Mentry"] = _median_ms(
        lambda: rng.rademacher(rng.stream(seed, rng.SPATIAL_RADEMACHER),
                               RADEMACHER_PROBE_SHAPE)) / entries

    haar = transforms.HaarBasis(n_v, n_h)
    coeff = haar.analyze(x)
    out["transforms.haar_analyze_ms"] = _median_ms(lambda: haar.analyze(x))
    out["transforms.haar_synthesize_ms"] = _median_ms(lambda: haar.synthesize(coeff))
    sample = harness.sample_training_columns(x, seed)
    out["transforms.learn_basis_ms"] = _median_ms(
        lambda: transforms.learn_spectral_basis(sample))
    basis = transforms.learn_spectral_basis(sample)
    out["transforms.basis_apply_ms"] = _median_ms(
        lambda: transforms.basis_apply(basis, x, "analysis"))
    out["transforms.zigzag_ms"] = _median_ms(
        lambda: transforms.zigzag_indices(n_v, n_h, pp.q_p))

    config = setting.configs()["hybrid"]
    xi = config.step_size * config.gamma2
    out["regularizers.tv_ms"] = _median_ms(
        lambda: regularizers.tv_sum_and_subgradient(x, n_v, n_h))
    out["regularizers.prox_l1_ms"] = _median_ms(lambda: regularizers.prox_l1(x, xi))

    meas_path = work_dir / "probe.hsm"
    cube_path = work_dir / "probe.hsc"
    cube = harness.generate_phantom(harness.PhantomSpec(n_v, n_h, n_s, seed=seed))
    out["formats.write_measurements_ms"] = _median_ms(
        lambda: formats.write_measurements(meas_path, meas))
    out["formats.write_cube_ms"] = _median_ms(lambda: formats.write_cube(cube_path, cube))
    out["formats.read_cube_ms"] = _median_ms(lambda: formats.read_cube(cube_path))
    out["harness.phantom_ms"] = _median_ms(
        lambda: harness.generate_phantom(harness.PhantomSpec(n_v, n_h, n_s, seed=seed)))
    return out


def probe_solves(setting, x, meas, seed, tracer):
    """Capped solves, traced, of the methods the workload does not run."""
    missing = [m for m in workloads.METHODS if m not in setting.methods]
    if not missing:
        return
    configs = {m: dataclasses.replace(c, max_iters=PROBE_ITERS)
               for m, c in setting.configs().items()}
    basis = transforms.learn_spectral_basis(harness.sample_training_columns(x, seed))
    haar = tracing.trace_haar(tracer, transforms.HaarBasis(*setting.shape[:2]))
    with tracing.installed(tracer):
        for method in missing:
            with tracer.span("solve." + method, probe=True) as attrs:
                _, trace = workloads.solve(method, meas, basis, haar, configs[method])
                attrs.update(iters=trace.iterations, reason=trace.reason,
                             rises=workloads.raw_cost_rises(trace))


def unit_of(name):
    if name.endswith("_per_Mentry"):
        return "ms/Mentry"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if "share" in name or name.endswith("_frac"):
        return "fraction"
    return "count"


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def from_spans(spans):
    """Solver, build and read metrics from the recorded spans."""
    durations, self_time, _ = tracing.analyze(spans)
    out = {}
    solve_of = tracing.nearest(spans, lambda n: n.startswith("solve."))
    project_of = tracing.nearest(spans, lambda n: n == "project")
    # solves that completed (a failed one has no iteration count)
    iters_of = {i: attrs["iters"] for i, (name, _, _, _, attrs) in enumerate(spans)
                if name.startswith("solve.") and "iters" in attrs}
    for method in workloads.METHODS:
        solves = [i for i in iters_of if spans[i][0] == "solve." + method]
        out[f"solvers.{method}_iter_ms"] = statistics.median(
            1e3 * durations[i] / spans[i][4]["iters"] for i in solves)
        out[f"solvers.{method}_iters"] = float(statistics.median(
            spans[i][4]["iters"] for i in solves))
        out[f"solvers.{method}_threshold_share"] = _mean(
            [spans[i][4]["reason"] == "threshold" for i in solves])
    for method in ("hybrid", "bpdn"):
        out[f"solvers.cost_{method}_ms"] = 1e3 * _mean(
            [durations[i] for i, s in enumerate(spans) if s[0] == "cost." + method])
    hybrid = {i for i in iters_of if spans[i][0] == "solve.hybrid"}
    hybrid_iters = sum(iters_of[i] for i in hybrid)
    for name in ("project", "adjoint", "tv"):
        calls = sum(1 for i, s in enumerate(spans)
                    if s[0] == name and solve_of[i] in hybrid)
        out[f"solvers.{name}_calls_per_iter"] = calls / hybrid_iters
    out["solvers.raw_cost_rises"] = _mean(
        [spans[i][4]["rises"] for i in iters_of])
    for share, value in tracing.solve_shares(spans, durations, self_time).items():
        out[f"solvers.self_share.{share}"] = value

    projects = {i for i, s in enumerate(spans)
                if s[0] == "project" and solve_of[i] >= 0}
    entries = sum(s[4]["entries"] for i, s in enumerate(spans)
                  if s[0] == "rademacher" and project_of[i] in projects)
    out["sensing.rademacher_entries_per_project"] = entries / max(1, len(projects))
    for axis in ("spatial", "spectral"):
        out[f"sensing.{axis}_build_s"] = statistics.median(
            durations[i] for i, s in enumerate(spans) if s[0] == "build." + axis)
    reads = [i for i, s in enumerate(spans) if s[0] == "read_measurements"]
    builds = [0.0] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name.startswith("build.") and parent >= 0:
            builds[parent] += durations[i]
    out["formats.read_payload_ms"] = 1e3 * statistics.median(
        durations[i] - builds[i] for i in reads)
    out["trace.spans"] = float(len(spans))
    return out
