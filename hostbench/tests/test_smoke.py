"""Minimal-length runs of the benchmark command (one round each)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from cells import WORKLOADS
from run import END_TO_END_UNITS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END_UNITS)
    for name, metric in metrics.items():
        assert metric["unit"] == END_TO_END_UNITS[name]
        assert metric["value"] > 0


def test_traced_smoke_run_reports_layers():
    result = _result(_run(ROOT, "--workload", "zoo-sweep", "--seed", "2", "--seconds", "0", "--trace", "1"))
    assert result["correct"] is True
    metrics = result["metrics"]
    for name in (
        "zoo.pythia.self_us_per_rec",
        "core.filter.calls_per_rec",
        "engine.batched.advance_us_per_rec",
        "sim.suite.overhead_us_per_cell",
        "trace.coverage_frac",
        "trace.overhead_frac",
        "host.calib_ns",
    ):
        assert metrics[name]["value"] > 0, name
    assert metrics["sim.suite.cache_hit_rate"]["value"] == 1.0


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "ppf-single", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
