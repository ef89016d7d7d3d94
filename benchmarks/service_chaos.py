"""Chaos soak: kill the allocation daemon mid-stream, restart, verify.

Spawns ``repro serve --journal J --faults crash_at_event=N`` as a real
subprocess and drives a seeded admit/depart stream against it.  At the
Nth committed event the injected fault hard-kills the process
(``os._exit(86)``) — exactly the crash a journal exists for.  The
script then

* asserts the daemon died with the crash marker exit code,
* restarts a clean daemon on the *same* journal and keeps driving the
  remaining events,
* drains the survivor with SIGTERM (must exit 0), and
* **replays the journal offline** through an in-process
  :class:`AllocationController`, failing unless the survivor's final
  ``/state`` digest is byte-identical to the replay — recovered state
  must equal the sum of every acknowledged event, nothing more, nothing
  less.

Extra fault knobs (solver delays/failures, journal write failures) can
be layered onto either phase with ``--faults`` / ``--restart-faults``
to confirm recovery still holds when the road is bumpy.

Usage::

    python benchmarks/service_chaos.py --events 60 --crash-at 20
    python benchmarks/service_chaos.py --events 60 --crash-at 20 \
        --faults solver_fail=3 --output benchmarks/output/CHAOS.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import (  # noqa: E402
    CRASH_EXIT_CODE,
    AllocationController,
    load_journal,
)
from repro.util.rng import as_generator  # noqa: E402
from repro.workloads import generate_platform  # noqa: E402

PORT_LINE = re.compile(r"repro serve: listening on http://([0-9.]+):(\d+)")
RECOVER_LINE = re.compile(r"repro serve: recovered (\d+) events")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--events", type=int, default=60,
                   help="total admit/depart events across both phases")
    p.add_argument("--crash-at", type=int, default=None,
                   help="journal seq to crash at (default: events // 3)")
    p.add_argument("--hosts", type=int, default=4)
    p.add_argument("--cov", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--strategy", default="METAHVPLIGHT")
    p.add_argument("--cpu-need-scale", type=float, default=0.1)
    p.add_argument("--depart-prob", type=float, default=0.3)
    p.add_argument("--faults", default="",
                   help="extra fault spec for phase 1, e.g. solver_fail=3 "
                        "(crash_at_event is appended automatically)")
    p.add_argument("--restart-faults", default="",
                   help="fault spec for the restarted daemon (phase 2)")
    p.add_argument("--journal", default=None,
                   help="journal path (default: alongside --output)")
    p.add_argument("--obs-log", default=None, metavar="FILE",
                   help="forward the repro --obs-log flag to both daemons")
    p.add_argument("--output",
                   default=os.path.join(os.path.dirname(__file__),
                                        "output", "CHAOS_service.json"))
    return p.parse_args(argv)


def spawn_daemon(args, journal: str, faults: str):
    cmd = [sys.executable, "-m", "repro.cli", "--seed", str(args.seed)]
    if args.obs_log is not None:
        cmd += ["--obs-log", args.obs_log]
    cmd += ["serve", "--port", "0", "--hosts", str(args.hosts),
            "--cov", str(args.cov), "--strategy", args.strategy,
            "--cpu-need-scale", str(args.cpu_need_scale),
            "--journal", journal]
    if faults:
        cmd += ["--faults", faults]
    env = dict(os.environ)
    env.setdefault("PYTHONUNBUFFERED", "1")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=None, text=True)
    deadline = time.monotonic() + 60
    recovered = 0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            break
        rec = RECOVER_LINE.search(line)
        if rec:
            recovered = int(rec.group(1))
            continue
        match = PORT_LINE.search(line)
        if match:
            return proc, f"http://{match.group(1)}:{match.group(2)}", \
                recovered
    proc.kill()
    raise SystemExit(f"daemon did not announce a port (exit "
                     f"{proc.poll()})")


def request(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def drive(base: str, sampler, coin, active: dict, events: int,
          depart_prob: float) -> tuple[int, bool]:
    """Fire up to *events* requests; returns (fired, daemon_died)."""
    fired = 0
    for _ in range(events):
        try:
            if active and coin.random() < depart_prob:
                sid = list(active)[int(coin.integers(len(active)))]
                status, _ = request(base, "DELETE", f"/alloc/{sid}")
                if status == 200:
                    del active[sid]
            else:
                spec = sampler.sample_spec()
                status, _ = request(base, "POST", "/alloc", {
                    "id": spec.sid,
                    "req_elem": list(spec.req_elem),
                    "req_agg": list(spec.req_agg),
                    "need_elem": list(spec.need_elem),
                    "need_agg": list(spec.need_agg)})
                if status == 200:
                    active[spec.sid] = spec
        except (urllib.error.URLError, ConnectionError, OSError):
            return fired, True
        fired += 1
    return fired, False


def main(argv=None) -> int:
    args = parse_args(argv)
    crash_at = args.crash_at if args.crash_at is not None \
        else max(1, args.events // 3)
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    journal = args.journal or os.path.join(
        os.path.dirname(args.output), "CHAOS_journal.jsonl")
    if os.path.exists(journal):
        os.unlink(journal)

    phase1_faults = ",".join(
        part for part in (args.faults, f"crash_at_event={crash_at}")
        if part)
    sampler = AllocationController(
        generate_platform(hosts=args.hosts, cov=args.cov, rng=args.seed),
        strategy=args.strategy, cpu_need_scale=args.cpu_need_scale,
        rng=args.seed + 1)
    coin = as_generator(args.seed + 2)
    active: dict = {}
    failures: list[str] = []
    t0 = time.monotonic()

    # Phase 1: run straight into the injected crash.
    proc, base, _ = spawn_daemon(args, journal, phase1_faults)
    fired, died = drive(base, sampler, coin, active, args.events,
                        args.depart_prob)
    if not died:
        # the stream ended before the crash seq was reached (too many
        # rejections); the crash is still pending, so count it a config
        # error rather than killing a healthy daemon and calling it chaos
        proc.kill()
        proc.wait()
        raise SystemExit(
            f"crash_at_event={crash_at} never fired in {fired} events; "
            "lower --crash-at")
    exit1 = proc.wait(timeout=30)
    print(f"chaos: phase 1 fired {fired} events, daemon crashed "
          f"(exit {exit1})")
    if exit1 != CRASH_EXIT_CODE:
        failures.append(f"crash phase exited {exit1}, expected the "
                        f"injected-crash marker {CRASH_EXIT_CODE}")
    committed = load_journal(journal)
    if len(committed) < crash_at:
        failures.append(f"journal holds {len(committed)} events, crash "
                        f"was injected at seq {crash_at}")

    # The in-flight request died with the daemon; its fate is unknown to
    # the client, so resync the live-set view from the journal (the
    # acknowledged truth) before continuing.
    live = set()
    for ev in committed:
        if ev["op"] == "admit":
            live.add(ev["service"]["id"])
        elif ev["op"] == "depart":
            live.discard(ev["sid"])
    active = {sid: spec for sid, spec in active.items() if sid in live}

    # Phase 2: restart on the same journal, finish the stream, drain.
    proc, base, recovered = spawn_daemon(args, journal,
                                         args.restart_faults)
    print(f"chaos: phase 2 recovered {recovered} events from the "
          f"journal")
    if recovered != len(committed):
        failures.append(f"restart replayed {recovered} events, journal "
                        f"holds {len(committed)}")
    fired2, died2 = drive(base, sampler, coin, active,
                          args.events - fired, args.depart_prob)
    if died2:
        failures.append("restarted daemon died during phase 2")
        proc.wait(timeout=30)
        state = metrics = None
    else:
        _, state = request(base, "GET", "/state")
        _, metrics = request(base, "GET", "/metrics?format=json")
        proc.send_signal(signal.SIGTERM)
        exit2 = proc.wait(timeout=30)
        if exit2 != 0:
            failures.append(f"SIGTERM drain exited {exit2}, expected 0")
    wall_s = time.monotonic() - t0

    # The verdict: journal replay ≡ survivor state.
    final = load_journal(journal)
    offline = AllocationController(
        generate_platform(hosts=args.hosts, cov=args.cov, rng=args.seed),
        strategy=args.strategy, cpu_need_scale=args.cpu_need_scale,
        rng=args.seed + 99)  # the RNG must not matter to a replay
    offline.replay_events(final)
    replay_digest = offline.state.digest()
    if state is not None and state["digest"] != replay_digest:
        failures.append(
            f"survivor digest {state['digest'][:12]}… != offline replay "
            f"{replay_digest[:12]}… — recovered state diverged from the "
            "journal")

    summary = {
        "events": args.events,
        "crash_at": crash_at,
        "phase1_events": fired,
        "phase2_events": fired2,
        "journal_events": len(final),
        "recovered_on_restart": recovered,
        "wall_s": wall_s,
        "replay_digest": replay_digest,
        "survivor_digest": state["digest"] if state else None,
        "survivor_active": state["active"] if state else None,
        "metrics": metrics,
        "failures": failures,
    }
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=2)

    print(f"chaos: {len(final)} journaled events over "
          f"{fired + fired2} requests in {wall_s:.1f}s; survivor "
          f"active={summary['survivor_active']}")
    print(f"chaos: recovered-state digest identical="
          f"{state is not None and state['digest'] == replay_digest}")
    print(f"chaos: wrote {args.output}")
    for failure in failures:
        print(f"chaos: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
