"""Tests of the benchmark itself, at tiny input sizes.

Each worker runs in its own process (it pins the kernel backend and
patches layer entry points, neither of which may leak into the test
process).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from bench_common import (CAL_REF_S, ROOT, Calibrator,  # noqa: E402
                          last_json_line, measured_env)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def worker(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--scale", "tiny",
         "--seconds", "0.2", "--seed", "3", *args],
        cwd=ROOT, env=measured_env(), stdout=subprocess.PIPE, text=True,
        timeout=120, check=True)
    return last_json_line(out.stdout)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    return name, worker("--workload", name), worker("--workload", name,
                                                    "--trace", "1")


def test_every_metric_is_emitted(runs):
    name, plain, traced = runs
    assert plain["correct"], plain.get("errors")
    assert traced["correct"], traced.get("errors")
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(plain["e2e"])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(traced["layers"])
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    for key, value in plain["e2e"].items():
        assert value > 0, (name, key)


def test_traced_and_untraced_digests_agree(runs):
    _, plain, traced = runs
    assert plain["digest"] == traced["digest"]


def test_layer_split_matches_workload(runs):
    name, _, traced = runs
    layers = traced["layers"]
    if name != "table1-quick":
        assert layers["lp.calls"] == 0
        assert layers["greedy.passes"] == 0
    else:
        assert layers["lp.calls"] > 0 and layers["greedy.passes"] > 0
    if name == "daemon-open":
        assert layers["service.solves_degraded"] == 0
        assert layers["service.solves_full"] > 0


def test_failing_operation_raises_error_rate():
    rec = worker("--workload", "daemon-open", "--trace", "1", "--bad-delete")
    assert rec["failed"] >= 1
    assert rec["layers"]["error_rate"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_run_prints_metrics_with_units(name):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         name, "--seed", "2", "--seconds", "0.2", "--trace", "0",
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    record = last_json_line(out.stdout)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_calibrator_scales_by_nearby_samples():
    cal = Calibrator()
    # Twice the reference time early on, the reference time later.
    cal.samples = [2 * CAL_REF_S] * 4 + [CAL_REF_S] * 4
    cal.times = [float(t) for t in range(8)]
    assert cal.factor_at(0.5) == pytest.approx(0.5)
    assert cal.factor_at(7.0) == pytest.approx(1.0)
    assert cal.factor_between(4.0, 7.0) == pytest.approx(1.0)
    assert cal.factor_between(2.5, 2.6) == pytest.approx(
        cal.factor_at(2.55))
    assert cal.factor() == pytest.approx(2 / 3)
