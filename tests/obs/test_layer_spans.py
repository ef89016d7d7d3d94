"""The per-node layers trace one span per call: ``allocation.improve``
(every heuristic's closing ``improve_yields`` pass) and
``sharing.evaluate`` (the §6 sharing evaluation), each tagged with the
kernel backend, the service count and the node count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels, obs
from repro.core import Allocation, ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.sharing import evaluate_actual_yields

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(str(path))
    yield path
    obs.disable()


def spans(path, name):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [r for r in records if r.get("kind") == "span"
            and r["name"] == name]


def instance(J=6, H=3):
    cap = np.full((H, 2), 1.0)
    req = np.full((J, 2), 0.05)
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(req, req, req, req))


def test_improve_emits_one_tagged_span_per_call(sink):
    alloc = Allocation.uniform(instance(), np.arange(6) % 3, 0.0)
    alloc.improve_yields()
    alloc.improve_yields()
    recorded = spans(sink, "allocation.improve")
    assert len(recorded) == 2
    assert recorded[0]["tags"] == {"backend": kernels.current_backend_name(),
                                   "services": 6, "nodes": 3}


def test_sharing_emits_one_tagged_span_per_call(sink):
    evaluate_actual_yields(instance(), np.arange(6) % 3, "ALLOCWEIGHTS")
    (record,) = spans(sink, "sharing.evaluate")
    assert record["tags"] == {"backend": kernels.current_backend_name(),
                              "policy": "ALLOCWEIGHTS", "services": 6,
                              "nodes": 3}


def test_a_traced_dynamic_run_reports_both_layers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop(obs.ENV_VAR, None)
    trace = tmp_path / "t.jsonl"

    def repro(*argv):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    repro("--workers", "1", "--obs-log", str(trace), "dynamic", "--hosts",
          "4", "--horizon", "6", "--periods", "1")
    report = repro("obs", "report", str(trace))
    assert "allocation.improve" in report
    assert "sharing.evaluate" in report
