"""daemon-open: the allocation daemon under a seeded open-loop schedule.

One generator process drives a ``repro serve`` subprocess over two
keep-alive connections: writes (admit/depart, about half each, so the
live set stays near its prefilled size) go on one connection in
schedule order, in bursts of :data:`WRITE_BURST` due at once, with
seeded jitter between bursts; evenly paced ``GET /state`` reads go on
the other.  Every request is timed from the moment it was due, so a
stall delays the requests queued behind it too; how late the generator
itself ran is reported as well.

The daemon's keep-alive stall (headers and body sent as two segments:
Nagle plus delayed ACK, about 40 ms) hits a reply to a request sent
right after the previous reply on its connection: the second and later
writes of a burst.  :meth:`DaemonOpen.probe_network` also measures it
directly, back to back on ``/healthz``.

Service vectors are sampled locally from the daemon's own platform and
workload model and sent explicitly, so the run can be replayed offline
through an in-process ``AllocationController``: the daemon's final
``/state`` digest must equal the replay's.

The prefilled services reach the daemon as an event journal that
``repro serve --journal`` replays before it starts listening: set-up is
a restart from a journal.  An in-process controller writes it with
greedy admits closed by one full solve of the whole set, so the replay
costs one solve, whatever the seed, instead of one per service.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

from bench_common import (BACKEND, BENCH_DIR, BUILD_DIR, Calibrator,
                          measured_env, process_peak_rss_mb)

PORT_LINE = re.compile(r"repro serve: listening on http://([0-9.]+):(\d+)")
#: A write counts towards throughput only when it completes within this.
WRITE_LIMIT_MS = 1000.0
#: Generous per-request socket timeout; a timeout counts as a failure.
REQUEST_TIMEOUT_S = 30.0

PARAMS = {
    # hosts, prefilled services, writes/s, reads/s
    "full": dict(hosts=32, prefill=120, write_rate=9.0, read_rate=7.0,
                 idle_reads=10),
    "tiny": dict(hosts=6, prefill=6, write_rate=10.0, read_rate=10.0,
                 idle_reads=3),
}
#: Writes come in bursts of this many, due at the same instant: the
#: first meets an idle connection, the others are sent as soon as the
#: reply before them arrives, so they pay the keep-alive stall.
WRITE_BURST = 3
#: Back-to-back ``/healthz`` requests per keep-alive stall probe.
STALL_PROBES = 12
#: Idle time a read connection needs before a calibration sample.
CAL_GAP_S = 0.03
STRATEGY = "METAHVP"
#: The daemon's platform is the same for every seed; the prefill and the
#: schedule come from the seed.
PLATFORM_SEED = 2012
CPU_NEED_SCALE = 0.3
COV = 0.5


class Session:
    """One running daemon and its temporary directory."""

    def __init__(self, proc: subprocess.Popen, port: int, tmp: str,
                 obs_log: Optional[str], tracer_out: Optional[str]):
        self.proc = proc
        self.port = port
        self.tmp = tmp
        self.obs_log = obs_log
        self.tracer_out = tracer_out
        self.peak_rss_mb = 0.0

    def stop(self) -> None:
        """Stop the daemon (SIGTERM drains it) and remove its files."""
        proc = self.proc
        if proc.poll() is None:
            try:
                self.peak_rss_mb = process_peak_rss_mb(proc.pid)
            except (OSError, RuntimeError):
                pass
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[dict] = None) -> tuple[int, bytes, Optional[str]]:
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    payload = resp.read()
    return resp.status, payload, resp.getheader("X-Repro-Trace")


def _one_shot(port: int, method: str, path: str,
              body: Optional[dict] = None) -> tuple[int, dict]:
    """A request on a fresh connection (set-up and teardown traffic)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        status, payload, _ = _request(conn, method, path, body)
    finally:
        conn.close()
    return status, json.loads(payload)


def _drive(port: int, ops: list, t_start: float, out: list,
           cal: Optional[Calibrator] = None) -> None:
    """Send *ops* ``(offset_s, method, path, body)`` on one keep-alive
    connection, each no earlier than its due time; append one record
    per op to *out*.  With *cal*, take a calibration sample after a
    reply when the next op is not due for :data:`CAL_GAP_S`."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        for i, (offset, method, path, body) in enumerate(ops):
            if cal is not None and i > 0 and (
                    t_start + offset - time.perf_counter() > CAL_GAP_S):
                cal.sample()
            due = t_start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                status, payload, trace = _request(conn, method, path, body)
            except (OSError, http.client.HTTPException):
                status, payload, trace = 0, b"", None
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            done = time.perf_counter()
            out.append({"due": due, "sent": sent, "done": done,
                        "status": status, "trace": trace,
                        "method": method, "path": path,
                        "body": payload if method != "GET" else None})
    finally:
        conn.close()


def _spec_body(spec) -> dict:
    return {"id": spec.sid, "req_elem": list(spec.req_elem),
            "req_agg": list(spec.req_agg), "need_elem": list(spec.need_elem),
            "need_agg": list(spec.need_agg)}


class DaemonOpen:
    name = "daemon-open"

    def __init__(self, seed: int, scale: str = "full",
                 bad_delete: bool = False):
        self.seed = seed
        self.scale = scale
        self.params = PARAMS[scale]
        #: Tests: add one ``DELETE`` of an unknown id to the schedule.
        self.bad_delete = bad_delete

    # -- inputs ----------------------------------------------------------
    def setup(self, seconds: float) -> None:
        """Sample the prefill and the write/read schedule from the seed."""
        from repro.service import AllocationController
        from repro.util.rng import as_generator
        from repro.workloads import generate_platform
        p = self.params
        sampler = AllocationController(
            generate_platform(hosts=p["hosts"], cov=COV, rng=PLATFORM_SEED),
            strategy=STRATEGY, cpu_need_scale=CPU_NEED_SCALE,
            rng=self.seed * 4 + 1)
        coin = as_generator(self.seed * 4 + 2)
        self.prefill = [sampler.sample_spec(f"p{i}")
                        for i in range(p["prefill"])]
        live = [s.sid for s in self.prefill]
        self.writes = []
        n_writes = max(1, int(seconds * p["write_rate"]))
        period = WRITE_BURST / p["write_rate"]
        offset = 0.0
        for i in range(n_writes):
            if i % WRITE_BURST == 0:
                burst = i // WRITE_BURST
                offset = period * (burst + 0.25 * coin.random())
            if live and coin.random() < 0.5:
                sid = live.pop(int(coin.integers(len(live))))
                self.writes.append((offset, "DELETE", f"/alloc/{sid}", None))
            else:
                spec = sampler.sample_spec(f"w{i}")
                live.append(spec.sid)
                self.writes.append((offset, "POST", "/alloc", spec))
        if self.bad_delete:
            self.writes.insert(0, (0.0, "DELETE", "/alloc/no-such-id", None))
        n_reads = max(1, int(seconds * p["read_rate"]))
        self.reads = [((i + 0.5) / p["read_rate"], "GET", "/state", None)
                      for i in range(n_reads)]
        self.prefill_journal = None

    def _controller(self):
        """An in-process controller configured like the daemon."""
        from repro.service import AllocationController
        from repro.workloads import generate_platform
        return AllocationController(
            generate_platform(hosts=self.params["hosts"], cov=COV,
                              rng=PLATFORM_SEED),
            strategy=STRATEGY, cpu_need_scale=CPU_NEED_SCALE)

    def _write_prefill_journal(self) -> str:
        """The journal of a controller that admitted the prefill: greedy
        probes, then one full solve of the whole set, so the daemon's
        start-up replay costs one solve.  Written once per process."""
        if self.prefill_journal is None:
            from repro.service import EventJournal, ServiceError, load_journal
            os.makedirs(BUILD_DIR, exist_ok=True)
            fd, path = tempfile.mkstemp(prefix="prefill-", suffix=".jsonl",
                                        dir=BUILD_DIR)
            os.close(fd)
            self.prefill_journal = path
            ctl = self._controller()
            journal = EventJournal(path)
            ctl.attach_journal(journal)
            try:
                for spec in self.prefill[:-1]:
                    try:
                        ctl.admit(spec, mode="greedy")
                    except ServiceError:
                        ctl.admit(spec, mode="full")
                ctl.admit(self.prefill[-1], mode="full")
            finally:
                journal.close()
            self.prefill_events = load_journal(path)
        return self.prefill_journal

    def close(self) -> None:
        if self.prefill_journal is not None:
            os.remove(self.prefill_journal)
            self.prefill_journal = None

    # -- daemon lifecycle ------------------------------------------------
    def start(self, traced: bool) -> Session:
        """Spawn the daemon on a copy of the prefill journal and wait
        until it is healthy."""
        prefill = self._write_prefill_journal()
        tmp = tempfile.mkdtemp(prefix="daemon-", dir=BUILD_DIR)
        journal = os.path.join(tmp, "journal.jsonl")
        shutil.copyfile(prefill, journal)
        p = self.params
        args = ["--seed", str(PLATFORM_SEED),
                "--kernel-backend", BACKEND]
        obs_log = tracer_out = None
        if traced:
            obs_log = os.path.join(tmp, "obs.jsonl")
            tracer_out = os.path.join(tmp, "layers.json")
            args += ["--obs-log", obs_log]
        args += ["serve", "--port", "0", "--hosts", str(p["hosts"]),
                 "--cov", str(COV), "--strategy", STRATEGY,
                 "--cpu-need-scale", str(CPU_NEED_SCALE),
                 "--journal", journal,
                 "--log-level", "warning"]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_host.py"),
                   tracer_out] + args
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        proc = subprocess.Popen(cmd, env=measured_env(),
                                stdout=subprocess.PIPE, text=True)
        session = Session(proc, 0, tmp, obs_log, tracer_out)
        try:
            session.port = self._await_port(proc)
            status, body = _one_shot(session.port, "GET", "/healthz")
            if status != 200 or body["active"] != len(self.prefill):
                raise RuntimeError(f"/healthz answered {status} {body}")
        except BaseException:
            session.stop()
            session.cleanup()
            raise
        return session

    @staticmethod
    def _await_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
        """The port from the daemon's ``listening on`` stdout line."""
        found: queue.Queue = queue.Queue()

        def scan() -> None:
            for line in proc.stdout:
                match = PORT_LINE.search(line)
                if match:
                    found.put(int(match.group(2)))
                    return
            found.put(None)  # stdout closed: the daemon exited

        threading.Thread(target=scan, daemon=True).start()
        try:
            port = found.get(timeout=timeout)
        except queue.Empty:
            port = None
        if port is None:
            raise RuntimeError("daemon did not announce its port (exit "
                               f"code {proc.poll()})")
        return port

    def probe_network(self, session: Session) -> dict:
        """Untimed probes for the per-layer split, before the window:
        paced idle reads (the unloaded read baseline), and ``/healthz``
        sent back to back on one keep-alive connection versus on fresh
        connections (the keep-alive stall)."""
        port = session.port
        period = 1.0 / self.params["read_rate"]
        idle: list = []
        _drive(port, [(i * period, "GET", "/state", None)
                      for i in range(self.params["idle_reads"])],
               time.perf_counter(), idle)
        kept: list = []
        _drive(port, [(0.0, "GET", "/healthz", None)] * (STALL_PROBES + 1),
               time.perf_counter(), kept)
        fresh = []
        for _ in range(STALL_PROBES):
            t0 = time.perf_counter()
            _one_shot(port, "GET", "/healthz")
            fresh.append((time.perf_counter() - t0) * 1e3)
        return {"idle": idle,
                "kept_ms": [(r["done"] - r["sent"]) * 1e3 for r in kept[1:]],
                "fresh_ms": fresh}

    def drive(self, session: Session, seconds: Optional[float] = None
              ) -> dict:
        """The open-loop window; returns the raw request records.

        *seconds* truncates the schedule (the traced run's halves)."""
        port = session.port
        writes = [(o, m, pth, _spec_body(b) if b is not None else None)
                  for o, m, pth, b in self.writes
                  if seconds is None or o < seconds]
        reads = [op for op in self.reads if seconds is None or op[0] < seconds]
        _, before = _one_shot(port, "GET", "/metrics?format=json")
        w_out: list = []
        r_out: list = []
        cal = Calibrator()
        t_start = time.perf_counter() + 0.05
        threads = [threading.Thread(target=_drive,
                                    args=(port, writes, t_start, w_out)),
                   threading.Thread(target=_drive,
                                    args=(port, reads, t_start, r_out, cal))]
        # A calibration sample holding the interpreter lock delays a
        # write reply's handling by at most this.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(switch)
        _, metrics = _one_shot(port, "GET", "/metrics?format=json")
        _, state = _one_shot(port, "GET", "/state")
        return {"t_start": t_start, "writes": w_out, "reads": r_out,
                "cal": cal,
                "metrics_before": before, "metrics": metrics, "state": state,
                "acked": [op for op, rec in zip(self.writes, w_out)
                          if 200 <= rec["status"] < 300]}

    # -- correctness -----------------------------------------------------
    def replay_digest(self, acked: list) -> str:
        """Final-state digest of an in-process controller that replays
        the prefill journal, then every acknowledged write, in order."""
        self._write_prefill_journal()
        ctl = self._controller()
        ctl.replay_events(self.prefill_events)
        for _, method, path, spec in acked:
            if method == "POST":
                ctl.admit(spec)
            else:
                ctl.depart(path[len("/alloc/"):])
        return ctl.snapshot()["digest"]
