"""Daemon lifecycle: SIGTERM drain, journal flush, crash-and-recover.

Real ``repro serve`` subprocesses, as in ``test_serve_cli``: these
assert the *process-level* durability contract — a drained daemon exits
0 with a complete journal, and a restart (clean or after an injected
crash) replays to a digest-identical cluster state.
"""

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

from repro.service import CRASH_EXIT_CODE, load_journal
from .conftest import make_controller

PORT_LINE = re.compile(r"repro serve: listening on http://([0-9.]+):(\d+)")
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def spawn_daemon(journal=None, faults=None, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("PYTHONUNBUFFERED", "1")
    cmd = [sys.executable, "-m", "repro.cli", "--seed", "7",
           "serve", "--port", "0", "--hosts", "4"]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    if faults is not None:
        cmd += ["--faults", faults]
    cmd += list(extra)
    return subprocess.Popen(cmd, cwd=REPO_ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def await_port(proc):
    deadline = time.monotonic() + 60
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            break
        lines.append(line)
        match = PORT_LINE.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError(
        f"no port announcement; stdout={lines!r} "
        f"stderr={proc.stderr.read() if proc.poll() is not None else ''!r}")


def request(host, port, method, path, body=None):
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"}
        if body is not None else {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


@pytest.fixture
def reaper():
    procs = []
    yield procs.append
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def offline_digest(journal_path) -> str:
    """The ground truth: replay the journal into an in-process
    controller built from the daemon's platform (seed 7, 4 hosts)."""
    ctl = make_controller(hosts=4, seed=7, rng=123)
    ctl.replay_events(load_journal(journal_path))
    return ctl.state.digest()


class TestSigtermDrain:
    def test_sigterm_flushes_journal_and_exits_zero(self, tmp_path,
                                                    reaper):
        journal = tmp_path / "events.jsonl"
        proc = spawn_daemon(journal=journal)
        reaper(proc)
        host, port = await_port(proc)
        for _ in range(3):
            request(host, port, "POST", "/alloc", {"sample": True})
        state = request(host, port, "GET", "/state")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        out = proc.stdout.read()
        assert "drained and stopped" in out
        events = load_journal(journal)
        assert len(events) == 3
        assert state["digest"] == offline_digest(journal)

    def test_restart_replays_to_identical_state(self, tmp_path, reaper):
        journal = tmp_path / "events.jsonl"
        first = spawn_daemon(journal=journal)
        reaper(first)
        host, port = await_port(first)
        for _ in range(4):
            request(host, port, "POST", "/alloc", {"sample": True})
        request(host, port, "DELETE", "/alloc/svc-0")
        request(host, port, "POST", "/nodes/0/drain")
        before = request(host, port, "GET", "/state")
        first.send_signal(signal.SIGTERM)
        assert first.wait(timeout=30) == 0

        second = spawn_daemon(journal=journal)
        reaper(second)
        host2, port2 = await_port(second)
        after = request(host2, port2, "GET", "/state")
        assert after["digest"] == before["digest"]
        assert after["active"] == before["active"]
        second.send_signal(signal.SIGTERM)
        assert second.wait(timeout=30) == 0


class TestCrashRecovery:
    def test_injected_crash_then_restart_recovers(self, tmp_path, reaper):
        journal = tmp_path / "events.jsonl"
        proc = spawn_daemon(journal=journal, faults="crash_at_event=2")
        reaper(proc)
        host, port = await_port(proc)
        crashed = False
        for _ in range(6):
            try:
                request(host, port, "POST", "/alloc", {"sample": True})
            except Exception:
                crashed = True
                break
        assert crashed, "crash_at_event=2 never fired"
        assert proc.wait(timeout=30) == CRASH_EXIT_CODE

        events = load_journal(journal)
        assert len(events) >= 3  # seq 2 committed before the crash
        survivor = spawn_daemon(journal=journal)
        reaper(survivor)
        host2, port2 = await_port(survivor)
        state = request(host2, port2, "GET", "/state")
        assert state["digest"] == offline_digest(journal)
        assert state["active"] == len(events)
        # the recovered daemon keeps serving and journaling
        request(host2, port2, "POST", "/alloc", {"sample": True})
        survivor.send_signal(signal.SIGTERM)
        assert survivor.wait(timeout=30) == 0
        assert len(load_journal(journal)) == len(events) + 1

    def test_environment_cannot_arm_faults(self, tmp_path, reaper,
                                           monkeypatch):
        """``--faults`` is the one way to inject faults: a stray
        ``REPRO_FAULTS`` in the daemon's environment is ignored."""
        monkeypatch.setenv("REPRO_FAULTS", "crash_at_event=1")
        journal = tmp_path / "events.jsonl"
        proc = spawn_daemon(journal=journal)
        reaper(proc)
        host, port = await_port(proc)
        for _ in range(3):
            request(host, port, "POST", "/alloc", {"sample": True})
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert len(load_journal(journal)) == 3
