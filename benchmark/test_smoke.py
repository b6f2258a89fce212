"""Smoke tests of the benchmark: every workload at tiny sizes with all checks on.

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("workload", ["exact-presentation", "converse-desk", "infinite-order"])
def test_tiny_traced_job_passes_every_check(workload):
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", "7",
           "--mode", "trace", "--size", "tiny", "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=run._child_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in result, proc.stderr
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == []
    assert [name for name, _ in tracing.PER_LAYER] == list(result["per_layer"])
    assert result["per_layer"]["trace.spans"]["value"] > 0


def test_untraced_job_reports_times_at_the_reference_speed():
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", "exact-presentation", "--seed", "7",
           "--mode", "job", "--size", "tiny", "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=run._child_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["checks"]["failed"] == []
    assert result["host_speed"] > 0
    assert result["time_to_result_s"] == pytest.approx(result["wall_s"] * result["host_speed"])
    assert 0 < result["setup_s"] and 0 < result["setup_wall_s"]


def test_probe_rescales_by_the_mean_sample():
    with hostspeed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert probe.inside_s == pytest.approx(sum(probe.samples))
    mean = sum(probe.samples) / len(probe.samples)
    assert probe.to_reference(1.0) == pytest.approx((1.0 - probe.inside_s) * hostspeed.REFERENCE_PROBE_S / mean)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.PREDICTIONS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "converse-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
