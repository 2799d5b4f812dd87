#!/usr/bin/env python3
"""Benchmark of the hsrec pipeline: phantom -> acquire -> HSM1 file -> recover.

Run from the repository root:

    python3 hsbench/run.py --workload ref-recover --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and self-time shares of a traced run. Report lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full report (and, traced, the spans) is
written under .bench_out/ in the repository root.

    python3 hsbench/run.py --record-references

recomputes hsbench/references.json, the final relative errors the runs are
checked against.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads; one thread keeps reduction
# order, and so the relative errors, reproducible and timings steady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    if not args.record_references and args.workload is None:
        p.error("--workload is required")
    return args


def provenance(seed):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    lines, digest = 0, hashlib.sha256()
    for path in sorted((SRC / "hsrec").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "workload_seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_hsrec_lines": lines,
    }


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setting, steady, warm):
    """Every named end-to-end metric of the workload, with its statistics."""
    import workloads
    report = {}
    result_name = "recover_s" if setting.kind == "recover" else "acquire_s"
    value, per_rate = workloads.timing(steady, "read_s", setting)
    report["setup_s"] = {"value": value, "unit": "s", "per_rate": per_rate}
    value, per_rate = workloads.timing(steady, "result_s", setting)
    report[result_name] = {"value": value, "unit": "s", "per_rate": per_rate}
    for method in setting.methods:
        value, per_rate = workloads.timing(steady, "solve_s", setting, method)
        report[f"{method}_solve_s"] = {"value": value, "unit": "s",
                                       "per_rate": per_rate}
        errors = [u["rel_error"][method] for u in steady]
        report[f"{method}_rel_error"] = {
            "value": sum(errors) / len(errors), "unit": "ratio", "n": len(errors)}
        iters = [u["iters"][method] for u in steady]
        reasons = sorted({u["reason"][method] for u in steady})
        report[f"{method}_iters"] = {"value": statistics.median_low(iters),
                                     "unit": "count", "stop": reasons}
    devs = [u["dict_dev"] for u in steady if "dict_dev" in u]
    if devs:
        report["dict_hybrid_max_dev"] = {"value": max(devs), "unit": "abs",
                                         "n": len(devs)}
    if warm is not None:
        report["warmup.first_unit_s"] = {"value": warm["result_s"], "unit": "s"}
        if "hybrid" in warm.get("solve_s", {}):
            report["warmup.first_hybrid_solve_s"] = {
                "value": warm["solve_s"]["hybrid"], "unit": "s"}
    return report, result_name


def print_report(title, entries):
    print(f"== {title}")
    for name, entry in entries.items():
        line = f"  {name:42s} {entry['value']:.6g} {entry['unit']}"
        for rate in entry.get("per_rate", []):
            hi = (f", p{rate['high_percentile']:g} {rate['high_value']:.6g}"
                  if rate["high_percentile"] is not None else
                  ", no percentile with 10 samples beyond it")
            line += (f"\n      rate {tuple(rate['rate'])}: median "
                     f"{rate['median']:.6g}{hi}, n={rate['n']}")
        if "stop" in entry:
            line += f" (stop: {', '.join(entry['stop'])})"
        print(line)


def record(work_dir):
    import workloads
    refs = {}
    for setting in workloads.WORKLOADS.values():
        if setting.kind == "recover":
            print(f"recording {setting.name}: {setting.pool} seeds", flush=True)
            refs.update(workloads.record_references(setting, work_dir))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {REFERENCES}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hsrec" / "__init__.py").is_file():
        print(f"error: no hsrec sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import layers
    import tracing
    import workloads

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_references:
            return record(work_dir)
        return bench(args, work_dir, workloads, layers, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def trace_metrics(setting, seed, work_dir, out, pairs, tracer, warm, layers):
    """Per-layer metrics: spans of the traced units and probe solves, the
    isolated probes on the last unit's input, the warm-up and the tracing
    overhead (median traced / untraced unit time of one input, minus one)."""
    layers.probe_solves(setting, out["truth"], out["meas"], seed, tracer)
    metrics = layers.from_spans(tracer.spans)
    metrics.update(layers.probe(setting, out["truth"], out["meas"], seed, work_dir))
    metrics["trace.overhead_frac"] = statistics.median(
        t["result_s"] / u["result_s"] for u, t in pairs) - 1.0
    metrics["warmup.first_unit_s"] = warm["result_s"] if warm else 0.0
    return {name: {"value": value, "unit": layers.unit_of(name)}
            for name, value in sorted(metrics.items())}


def bench(args, work_dir, workloads, layers, tracing):
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setting = workloads.WORKLOADS[args.workload]
    spec = json.loads(BENCHMARK.read_text())
    references = json.loads(REFERENCES.read_text())
    outcome, warm, steady, pairs, tracer, last = workloads.run(
        setting, args.seed, args.seconds, bool(args.trace), work_dir, references)
    if not steady:
        for _, problem in outcome.failures:
            print(problem, file=sys.stderr)
        print("error: no unit of work completed", file=sys.stderr)
        return 1
    report = {"workload": setting.name, "provenance": provenance(args.seed),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": [p for _, p in outcome.failures]}
    named, result_name = end_to_end(setting, steady, warm)
    named["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    named["failed_frac"] = {"value": outcome.failed / outcome.attempted,
                            "unit": "fraction"}
    report["end_to_end"] = named
    print(f"hsbench {setting.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(json.dumps(report["provenance"]))
    print_report("end to end (untraced units; warm-up excluded from medians)",
                 named)

    if args.trace:
        metrics = trace_metrics(setting, args.seed, work_dir, last, pairs,
                                tracer, warm, layers)
        report["per_layer"] = metrics
        by_name = tracing.analyze(tracer.spans)[2]
        report["spans_by_name"] = by_name
        print_report("per layer (traced run)", metrics)
        print("== self time by span name (s): count, total, self")
        for name, e in sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:24s} {e['count']:8d} {e['total_s']:10.4f} "
                  f"{e['self_s']:10.4f}")
        spans_path = OUT / f"spans-{setting.name}-seed{args.seed}.jsonl"
        tracing.dump(tracer.spans, spans_path)
        result_metrics = {m["name"]: metrics[m["name"]] for m in spec["per_layer"]}
    else:
        generic = dict(named, result_s=named[result_name])
        result_metrics = {m["name"]: generic[m["name"]] for m in spec["end_to_end"]}

    for problem in report["failures"]:
        print(f"FAILED {problem}")
    report_path = OUT / f"report-{setting.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report: {report_path}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in result_metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
