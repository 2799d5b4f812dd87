"""Self-test of the benchmark at a tiny size (8x8x4).

Runs every workload's code path once, untraced and traced, checks that each
metric BENCHMARK.json names is emitted with its unit, and that a wrong
output is counted as failed. Run from the repository root:

    python3 -m pytest -q hsbench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from hsrec import formats, sensing, solvers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# At 8x8x4 hybrid does not always beat bpdn (criterion 7 is a claim about
# the reference size), so the tiny setting does not check it.
TINY_REF = dataclasses.replace(workloads.WORKLOADS["ref-recover"],
                               name="tiny-ref", shape=(8, 8, 4), pool=2, reads=2,
                               hybrid_beats_bpdn=False)
TINY = {
    "ref-recover": TINY_REF,
    "scale-recover": dataclasses.replace(
        workloads.WORKLOADS["scale-recover"], name="tiny-scale",
        shape=(8, 8, 4), rates=((0.5, 0.5),), max_iters=5, pool=2,
        warmup=TINY_REF),
    "acquire-batch": dataclasses.replace(
        workloads.WORKLOADS["acquire-batch"], name="tiny-acquire",
        shape=(8, 8, 4)),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, their references, and outputs under tmp_path."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    # the scale workload's point is the regeneration path; force it here
    monkeypatch.setattr(sensing, "_MATERIALIZE_LIMIT", 16)
    refs = {}
    for setting in TINY.values():
        if setting.kind == "recover":
            refs.update(workloads.record_references(setting, tmp_path))
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    out, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if workload == "scale-recover" and trace:
        assert result["metrics"]["sensing.rademacher_entries_per_project"]["value"] > 0
    # every named end-to-end metric of the workload is in the report lines
    names = ["setup_s", "peak_rss_mb", "failed_frac"]
    names += (["recover_s"] + [f"{m}_solve_s" for m in TINY[workload].methods]
              + [f"{m}_rel_error" for m in TINY[workload].methods]
              if TINY[workload].kind == "recover" else ["acquire_s"])
    for name in names:
        assert f"  {name} " in out


def test_wrong_recovery_is_counted_as_failed(tiny, capsys, monkeypatch):
    original = solvers.recover_hybrid

    def wrong(*args, **kwargs):
        x, trace = original(*args, **kwargs)
        return 1.5 * x, trace

    monkeypatch.setattr(solvers, "recover_hybrid", wrong)
    out, result = bench(capsys, "ref-recover", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "FAILED" in out and "reference" in out


def test_wrong_readback_is_counted_as_failed(tiny, capsys, monkeypatch):
    original = formats.read_measurements

    def wrong(path):
        meas = original(path)
        return dataclasses.replace(meas, y=meas.y + 1e-3)

    monkeypatch.setattr(formats, "read_measurements", wrong)
    _, result = bench(capsys, "acquire-batch", 0)
    assert not result["correct"] and result["failed"] >= 1


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ref-recover", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
