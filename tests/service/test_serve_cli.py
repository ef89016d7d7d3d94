"""`repro serve --port 0` as a real subprocess: ephemeral-port binding,
stdout port announcement, live endpoints, clean shutdown."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

PORT_LINE = re.compile(
    r"repro serve: listening on http://([0-9.]+):(\d+)")


@pytest.fixture
def daemon():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--seed", "7",
         "serve", "--port", "0", "--hosts", "4"],
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = ""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line or proc.poll() is not None:
                break
        match = PORT_LINE.search(line)
        assert match, (
            f"no port announcement; stdout={line!r} "
            f"stderr={proc.stderr.read() if proc.poll() is not None else ''!r}")
        yield proc, match.group(1), int(match.group(2))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def get_json(host: str, port: int, path: str, data: bytes | None = None):
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def test_port_zero_prints_real_bound_port_and_serves(daemon):
    proc, host, port = daemon
    assert port > 0  # the *actual* port, not the literal 0 we asked for
    health = get_json(host, port, "/healthz")
    assert health["status"] == "ok"

    admitted = get_json(host, port, "/alloc",
                        data=json.dumps({"sample": True}).encode())
    assert admitted["active"] == 1
    metrics = get_json(host, port, "/metrics?format=json")
    assert metrics["admission"]["admitted"] == 1

    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=15) == 0


def test_a_bad_cpu_need_scale_exits_before_binding():
    """The controller refuses the scale, so the daemon never listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--hosts", "4", "--cpu-need-scale", "-1"],
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("repro serve: --cpu-need-scale: ")
