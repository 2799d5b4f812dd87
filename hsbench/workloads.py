"""The benchmark's workloads: settings, input generation, the timed units of
work and the checks on their outputs.

A run is closed-loop from one process: one unit of work at a time, the next
starting when the previous one has finished. The first unit is a warm-up
whose time is reported on its own and kept out of the steady medians.
"""

import dataclasses
import hashlib
import random
import statistics
import sys
import time
import traceback
from typing import Optional

import numpy as np

from hsrec import datacube, formats, harness, sensing, solvers, transforms

import tracing

# Relative tolerance of a final relative error against its recorded reference.
REFERENCE_RTOL = 1e-4
# Criterion 9: the dictionary route reproduces recover_hybrid under an
# orthonormal basis, checked as the acceptance test states it: over its
# first CRITERION9_ITERS iterations. Rounding differences between the two
# routes grow through the TV subgradient; on the reference phantom they
# pass 1e-10 between iterations 80 and 120 and reach about 2e-3 at 200, so
# the full-length deviation is reported (dict_hybrid_max_dev), not gated.
DICT_MATCH_ATOL = 1e-10
CRITERION9_ITERS = 20
# The reference phantom seed; recover workloads vary only the measurements.
PHANTOM_SEED = 0


@dataclasses.dataclass(frozen=True)
class Setting:
    """Fixed parameters of one workload."""

    name: str
    kind: str                     # "recover" or "acquire"
    shape: tuple                  # (n_v, n_h, n_s)
    rates: tuple                  # ((r_p, r_s), ...)
    sigma: float = 0.01
    methods: tuple = ()
    max_iters: Optional[int] = None   # None: the library's default configs
    reads: int = 1                # read_measurements calls per unit
    pool: int = 0                 # measurement seeds with recorded references
    hybrid_beats_bpdn: bool = False
    warmup: Optional["Setting"] = None  # None: warm up on this setting

    def counts(self, rate_index):
        n_v, n_h, n_s = self.shape
        r_p, r_s = self.rates[rate_index]
        m_p, m_s = sensing.rates_to_counts(r_p, r_s, n_v * n_h, n_s)
        q_p, q_s = sensing.default_lowpass_counts(n_v * n_h, n_s, m_p, m_s)
        return m_p, q_p, m_s, q_s

    def configs(self):
        hybrid = harness.default_hybrid_config()
        bpdn = harness.default_bpdn_config()
        if self.max_iters is not None:
            hybrid = dataclasses.replace(hybrid, max_iters=self.max_iters)
            bpdn = dataclasses.replace(bpdn, max_iters=self.max_iters)
        return {"hybrid": hybrid, "bpdn": bpdn, "dict": hybrid}


REF = Setting("ref-recover", "recover", (32, 32, 16), ((0.3, 0.25), (0.5, 0.5)),
              methods=("hybrid", "bpdn", "dict"), reads=5, pool=16,
              hybrid_beats_bpdn=True)
WORKLOADS = {
    "ref-recover": REF,
    "scale-recover": Setting(
        "scale-recover", "recover", (64, 64, 32), ((0.5, 0.25),),
        methods=("hybrid", "bpdn"), max_iters=10, reads=1, pool=8,
        warmup=REF),
    "acquire-batch": Setting(
        "acquire-batch", "acquire", (64, 64, 32), ((0.3, 0.25),)),
}
METHODS = ("hybrid", "bpdn", "dict")


def reference_key(setting, rate_index, mseed, method):
    r_p, r_s = setting.rates[rate_index]
    return f"{setting.name}|{r_p},{r_s}|{mseed}|{method}"


def solve(method, meas, basis, haar, config):
    if method == "hybrid":
        return solvers.recover_hybrid(meas, basis, config)
    if method == "bpdn":
        return solvers.apg_bpdn(meas, haar, basis, config)
    return solvers.recover_hybrid_nonortho(meas, basis, config)


def raw_cost_rises(trace):
    return int(np.count_nonzero(np.diff(trace.cost) > 0))


def f32(a):
    """What a float32 file stores for a float64 array."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


class RecoverBench:
    """HSM1 file -> read -> truth-trained basis -> solves -> HSC1 files."""

    def __init__(self, setting, references, work_dir):
        self.setting = setting
        self.references = references
        self.work_dir = work_dir
        n_v, n_h, n_s = setting.shape
        cube = harness.generate_phantom(
            harness.PhantomSpec(n_v, n_h, n_s, seed=PHANTOM_SEED))
        self.x_true = datacube.as_band_pixel_matrix(cube)
        self.configs = setting.configs()

    def keys(self, seed):
        """Endless (rate_index, measurement seed) sequence for a workload seed;
        measurement seeds cycle through the recorded pool from a seeded start."""
        start = random.Random(seed).randrange(self.setting.pool)
        j = 0
        while True:
            for rate_index in range(len(self.setting.rates)):
                yield rate_index, (start + j) % self.setting.pool
            j += 1

    def prepare(self, key):
        """Acquire and write the unit's HSM1 file; not timed."""
        rate_index, mseed = key
        n_v, n_h, n_s = self.setting.shape
        m_p, q_p, m_s, q_s = self.setting.counts(rate_index)
        pp = sensing.SpatialProjector(n_v, n_h, m_p, q_p, mseed)
        sp = sensing.SpectralProjector(n_s, m_s, q_s, mseed)
        meas = sensing.acquire(self.x_true, sp, pp, self.setting.sigma,
                               noise_seed=mseed)
        path = self.work_dir / f"{self.setting.name}-{rate_index}-{mseed}.hsm"
        formats.write_measurements(path, meas)
        return path, meas

    def unit(self, key, prepared, tracer):
        rate_index, mseed = key
        path, _ = prepared
        n_v, n_h, _ = self.setting.shape
        read_s = []
        for _ in range(self.setting.reads - 1):
            start = time.perf_counter()
            formats.read_measurements(path)
            read_s.append(time.perf_counter() - start)
        out = {"rate": rate_index, "mseed": mseed, "solve_s": {}, "iters": {},
               "reason": {}, "rises": {}, "x": {}}
        t0 = time.perf_counter()
        with tracer.span("read_measurements"):
            meas = formats.read_measurements(path)
        read_s.append(time.perf_counter() - t0)
        with tracer.span("learn_basis"):
            basis = transforms.learn_spectral_basis(
                harness.sample_training_columns(self.x_true, mseed))
        haar = tracing.trace_haar(tracer, transforms.HaarBasis(n_v, n_h))
        for method in self.setting.methods:
            start = time.perf_counter()
            with tracer.span("solve." + method) as attrs:
                x_hat, trace = solve(method, meas, basis, haar,
                                     self.configs[method])
                attrs.update(iters=trace.iterations, reason=trace.reason,
                             rises=raw_cost_rises(trace))
            out["solve_s"][method] = time.perf_counter() - start
            with tracer.span("write_cube"):
                formats.write_cube(self.work_dir / f"{method}.hsc",
                                   datacube.cube_from_matrix(x_hat, n_v, n_h))
            out["iters"][method] = trace.iterations
            out["reason"][method] = trace.reason
            out["rises"][method] = raw_cost_rises(trace)
            out["x"][method] = x_hat
        out["result_s"] = time.perf_counter() - t0
        out["read_s"] = read_s
        out["rel_error"] = {m: harness.relative_error(self.x_true, x)
                            for m, x in out["x"].items()}
        out["meas"] = meas
        out["basis"] = basis
        out["truth"] = self.x_true
        return out

    def check(self, key, prepared, out):
        rate_index, mseed = key
        _, acquired = prepared
        problems = check_roundtrip(acquired, out["meas"])
        for method, x_hat in out["x"].items():
            back = datacube.as_band_pixel_matrix(
                formats.read_cube(self.work_dir / f"{method}.hsc"))
            if back.shape != x_hat.shape or not np.array_equal(back, f32(x_hat)):
                problems.append(f"{method}: HSC1 file does not read back as "
                                "float32 of the output")
        errors = out["rel_error"]
        for method, err in errors.items():
            ref = self.references.get(
                reference_key(self.setting, rate_index, mseed, method))
            if ref is None:
                problems.append(f"{method}: no reference error recorded")
            elif not abs(err - ref) <= REFERENCE_RTOL * abs(ref):
                problems.append(f"{method}: rel_error {err:.9g} is not within "
                                f"{REFERENCE_RTOL:g} of the reference {ref:.9g}")
        if (self.setting.hybrid_beats_bpdn
                and not errors["hybrid"] < errors["bpdn"]):
            problems.append(f"hybrid rel_error {errors['hybrid']:.6g} is not "
                            f"below bpdn {errors['bpdn']:.6g}")
        if "dict" in out["x"] and "hybrid" in out["x"]:
            out["dict_dev"] = float(np.abs(out["x"]["dict"] - out["x"]["hybrid"]).max())
            config = dataclasses.replace(self.configs["hybrid"], tau=1e-30,
                                         max_iters=CRITERION9_ITERS)
            x_h, _ = solve("hybrid", out["meas"], out["basis"], None, config)
            x_d, _ = solve("dict", out["meas"], out["basis"], None, config)
            dev = float(np.abs(x_d - x_h).max())
            if not dev <= DICT_MATCH_ATOL:
                problems.append(f"dict output differs from hybrid by {dev:.3g} "
                                f"after {CRITERION9_ITERS} iterations")
        return problems

    @staticmethod
    def same(a, b):
        """Traced and untraced units of one input agree exactly."""
        return a["rel_error"] == b["rel_error"]


class AcquireBench:
    """phantom -> both projector constructors -> acquire -> HSM1 + HSC1."""

    def __init__(self, setting, references, work_dir):
        self.setting = setting
        self.work_dir = work_dir

    def keys(self, seed):
        gen = random.Random(seed)
        while True:
            yield 0, gen.randrange(1 << 31)

    def prepare(self, key):
        return None

    def unit(self, key, prepared, tracer):
        _, seed = key
        n_v, n_h, n_s = self.setting.shape
        m_p, q_p, m_s, q_s = self.setting.counts(0)
        meas_path = self.work_dir / "acquired.hsm"
        cube_path = self.work_dir / "phantom.hsc"
        t0 = time.perf_counter()
        with tracer.span("phantom"):
            cube = harness.generate_phantom(
                harness.PhantomSpec(n_v, n_h, n_s, seed=seed))
        x = datacube.as_band_pixel_matrix(cube)
        with tracer.span("build.spatial"):
            pp = sensing.SpatialProjector(n_v, n_h, m_p, q_p, seed)
        with tracer.span("build.spectral"):
            sp = sensing.SpectralProjector(n_s, m_s, q_s, seed)
        with tracer.span("acquire"):
            meas = sensing.acquire(x, sp, pp, self.setting.sigma, noise_seed=seed)
        with tracer.span("write_measurements"):
            formats.write_measurements(meas_path, meas)
        with tracer.span("write_cube"):
            formats.write_cube(cube_path, cube)
        acquire_s = time.perf_counter() - t0
        start = time.perf_counter()
        with tracer.span("read_measurements"):
            back = formats.read_measurements(meas_path)
        read_s = time.perf_counter() - start
        return {"rate": 0, "seed": seed, "result_s": acquire_s,
                "read_s": [read_s], "meas": meas, "back": back, "truth": x,
                "y_sha256": hashlib.sha256(meas.y.tobytes()).hexdigest()}

    def check(self, key, prepared, out):
        problems = check_roundtrip(out["meas"], out["back"])
        back = datacube.as_band_pixel_matrix(
            formats.read_cube(self.work_dir / "phantom.hsc"))
        if not np.array_equal(back, f32(out["truth"])):
            problems.append("phantom HSC1 file does not read back as float32")
        return problems

    @staticmethod
    def same(a, b):
        return a["y_sha256"] == b["y_sha256"]


def check_roundtrip(written, read):
    """An HSM1 file reads back as float32(y) with the same operators."""
    problems = []
    if not np.array_equal(read.y, f32(written.y)):
        problems.append("HSM1 payload does not read back as float32(y)")
    for axis in ("spectral", "spatial"):
        a, b = getattr(written, axis), getattr(read, axis)
        if a.scale != b.scale:
            problems.append(f"{axis} operator scale {b.scale!r} read back, "
                            f"{a.scale!r} written")
    if (read.sigma, read.noise_seed) != (written.sigma, written.noise_seed):
        problems.append("HSM1 noise parameters do not read back")
    return problems


# Unit outputs that hold arrays or operators; only the last unit keeps them.
HEAVY = ("meas", "back", "truth", "basis", "x")


def slim(out):
    return {k: v for k, v in out.items() if k not in HEAVY}


def make_bench(setting, references, work_dir):
    cls = RecoverBench if setting.kind == "recover" else AcquireBench
    return cls(setting, references, work_dir)


class Outcome:
    """Units run, with every failure counted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len({unit for unit, _ in self.failures})

    def attempt(self, bench, key, tracer, prepared=None):
        """Prepare (unless given) and run one unit, then check it. Returns
        (prepared, out); out is None when the unit raised."""
        index = self.attempted
        self.attempted += 1
        try:
            if prepared is None:
                prepared = bench.prepare(key)
            with tracing.installed(tracer):
                out = bench.unit(key, prepared, tracer)
            problems = bench.check(key, prepared, out)
        except Exception as exc:  # a failing unit is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
            out = None
        for problem in problems:
            self.failures.append((index, f"{bench.setting.name} {key}: {problem}"))
        return prepared, out


def run(setting, seed, seconds, trace, work_dir, references):
    """Warm up, then run units for `seconds`. With trace, each input runs
    untraced and then traced, and the two must agree exactly.

    Returns (outcome, warm-up unit, steady untraced units, (untraced,
    traced) pairs of one input, the Tracer or None, the last steady unit).
    """
    outcome = Outcome()
    null = tracing.NullTracer()
    warm_bench = make_bench(setting.warmup or setting, references, work_dir)
    _, warm = outcome.attempt(warm_bench, next(warm_bench.keys(seed)), null)
    warm = slim(warm) if warm else None
    bench = warm_bench if setting.warmup is None else make_bench(
        setting, references, work_dir)
    keys = bench.keys(seed)
    if setting.warmup is None:
        next(keys)  # the warm-up consumed the first key
    tracer = tracing.Tracer() if trace else None
    steady, pairs = [], []
    last = None
    start = time.perf_counter()
    # at least one steady unit of every rate
    while (len(steady) < len(setting.rates)
           or time.perf_counter() - start < seconds):
        key = next(keys)
        prepared, out = outcome.attempt(bench, key, null)
        if out is None:
            if time.perf_counter() - start >= seconds:
                break
            continue
        last = out
        steady.append(slim(out))
        if trace:
            _, out_t = outcome.attempt(bench, key, tracer, prepared)
            if out_t is not None:
                pairs.append((slim(out), slim(out_t)))
                if not bench.same(out, out_t):
                    outcome.failures.append(
                        (outcome.attempted - 1,
                         f"{setting.name} {key}: traced output differs "
                         "from untraced"))
    return outcome, warm, steady, pairs, tracer, last


def median(values):
    return statistics.median(values) if values else float("nan")


def high_percentile(values):
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None, None
    ordered = sorted(values)
    return best, ordered[min(n - 1, int(np.ceil(best / 100 * n)) - 1)]


def timing(units, field, setting, method=None):
    """Per-rate timing statistics and their mean of medians.

    Rates differ in cost, so one median over a mix of rates would sit
    between two clusters; each rate gets its own median instead.
    """
    per_rate = []
    for rate_index in range(len(setting.rates)):
        samples = []
        for u in units:
            if u["rate"] != rate_index:
                continue
            value = u[field] if method is None else u[field].get(method)
            if value is None:
                continue
            samples.extend(value if isinstance(value, list) else [value])
        pct, hi = high_percentile(samples)
        per_rate.append({"rate": list(setting.rates[rate_index]),
                         "median": median(samples), "n": len(samples),
                         "high_percentile": pct, "high_value": hi})
    value = statistics.fmean(r["median"] for r in per_rate if r["n"])
    return value, per_rate


def record_references(setting, work_dir):
    """Final relative error of every method on every pool seed and rate."""
    bench = RecoverBench(setting, {}, work_dir)
    refs = {}
    null = tracing.NullTracer()
    for mseed in range(setting.pool):
        for rate_index in range(len(setting.rates)):
            key = (rate_index, mseed)
            out = bench.unit(key, bench.prepare(key), null)
            for method, err in out["rel_error"].items():
                refs[reference_key(setting, rate_index, mseed, method)] = err
    return refs
