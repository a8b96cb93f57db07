"""Tests of the benchmark itself, at sizes that run in about a second.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from seaweeds import classify, report  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("run "))[4:])
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["sl4", "sp2", "so5"])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(workload, trace, section):
    info, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and info["failed_frac"] == 0
    assert result["attempted"] == info["summary"]["records"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["env"]["backend"] and info["env"]["nproc"] >= 1


def _report(family: str, n: int) -> dict:
    records = classify(family, n, seed=0, embed_certificates=True)
    return json.loads(report(records, "json"))


@pytest.fixture(scope="module")
def sl4():
    return _report("SL", 4)


def test_gate_accepts_a_real_report(sl4):
    assert gate.check_report(sl4, "SL", 4) == (64, [])


def test_gate_counts_missing_records():
    attempted, failures = gate.check_report({"records": []}, "SL", 4)
    assert attempted == 64 and len(failures) == 64


def _first(doc: dict, pred) -> dict:
    return next(rec for rec in doc["records"] if pred(rec))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda rec: rec.update(index=rec["index"] + 2),
        lambda rec: rec.update(verdict="UNRESOLVED"),
        lambda rec: rec.pop("certificates"),
        lambda rec: rec["certificates"]["contact"]["form"].__setitem__(0, "7/1"),
        lambda rec: rec["certificates"]["stability"].update(intersection_dim=1),
    ],
)
def test_gate_fails_exactly_the_tampered_record(sl4, tamper):
    doc = copy.deepcopy(sl4)
    tamper(_first(doc, lambda rec: rec["index"] == 1 and rec["dim"] > 3))
    _, failures = gate.check_report(doc, "SL", 4)
    assert len(failures) == 1


def test_gate_checks_parity_off_type_a():
    doc = _report("SO", 5)
    assert gate.check_report(doc, "SO", 5) == (16, [])
    _first(doc, lambda rec: rec["index"] > 1)["index"] -= 1
    assert len(gate.check_report(doc, "SO", 5)[1]) == 1


def test_missing_wrapped_name_drops_its_metrics(monkeypatch, tmp_path):
    wrapped = tuple(
        (module, "no_such_name" if name == "lie.index" else attr, name)
        for module, attr, name in spans.WRAPPED
    )
    monkeypatch.setattr(spans, "WRAPPED", wrapped)
    tracer, traced, problems = run.traced_run("SL", 4, 0, str(tmp_path))
    assert problems == [] and tracer.missing == {"lie.index"}
    metrics = run.layer_metrics(tracer, json.loads(traced), traced, 1.0, 0.1)
    assert "lie.index.calls" not in metrics and "lie.index.busy_s" not in metrics
    assert metrics["construct.seaweed.calls"] == (64, "count")


def test_gauge_scales_by_the_reference_kernel_time(monkeypatch):
    assert calib.kernel() == calib.kernel()
    times = iter([0.010, 0.020])
    monkeypatch.setattr(calib, "kernel_time", lambda: next(times))
    gauge = calib.Gauge.__new__(calib.Gauge)
    gauge.last = next(times)
    factor = gauge.scale()
    assert factor == pytest.approx(calib.REFERENCE_S / 0.015) and gauge.last == 0.020
    child = run.Child(2.0, 1.5, 20.0, 0, "", "", factor)
    assert child.ref_wall == pytest.approx(2.0 * factor) and child.ref_cpu == pytest.approx(1.5 * factor)
