"""The measured process: sets up one workload, runs its timed window,
checks its outputs and prints one JSON record as its last stdout line.

Started by ``run.py`` in the measured environment (one compute thread,
native kernels pinned).  Modes:

``--warm``
    Import the program and build the native-kernel cache, untimed (the
    page cache and the compiled kernels are then warm for set-up).
``--setup-only``
    Set the workload up and report ``setup_s`` only.
``--canary``
    Print the canary digests of every workload (``digests.json``).
default
    Set up, measure for ``--seconds``, check, report.

``setup_s`` runs from ``--t0`` (``time.monotonic()`` just before the
parent spawned this process) to the first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import (BACKEND, BENCH_DIR, Calibrator,  # noqa: E402
                          digest, emit, median, peak_rss_mb, percentile)
from bench_daemon import WRITE_LIMIT_MS  # noqa: E402
from bench_trace import Tracer, install_layers, layer_metrics  # noqa: E402

DIGESTS = os.path.join(BENCH_DIR, "digests.json")
CANARY_SEED = 0
DAEMON = "daemon-open"
#: Back-to-back calibration samples that give set-up's speed factor.
SETUP_CAL_SAMPLES = 30

#: Per-layer metrics only the daemon produces (zero elsewhere).
SERVICE_LAYERS = ("service.request_ms_p50", "service.solve_ms_p50",
                  "service.journal_ms_p50", "service.net_wait_ms_p50",
                  "service.keepalive_stall_ms", "service.read_wait_ms_p50",
                  "service.read_latency_p50_ms",
                  "service.read_latency_p90_ms", "service.solves_full",
                  "service.solves_degraded", "loadgen.sent",
                  "loadgen.lateness_p90_ms")
#: Per-layer metrics only the in-process workloads produce.
INPROCESS_LAYERS = ("persistence.fsync_ms_p50", "dynamic.self_s",
                    "dynamic.placer_s", "dynamic.migrations",
                    "dynamic.forced_migrations")


def pin_backend() -> str:
    """Select the native kernels; raise rather than fall back."""
    from repro import kernels
    kernels.use_backend(BACKEND)
    name = kernels.current_backend_name()
    if name != BACKEND:
        raise RuntimeError(f"kernel backend is {name!r}, not {BACKEND!r}")
    return name


def environment() -> dict:
    import platform

    import numpy
    import scipy
    return {"backend": pin_backend(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count()}


def reference_setup_s(setup_s: float) -> float:
    """*setup_s* at the reference speed, sampled right after set-up."""
    cal = Calibrator()
    for _ in range(SETUP_CAL_SAMPLES):
        cal.sample()
    return setup_s * cal.factor()


def latency_summary(samples_ms: list[float]) -> dict:
    return {"latency_p50_ms": percentile(samples_ms, 0.5),
            "latency_p90_ms": percentile(samples_ms, 0.9)}


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _rounds(wl, tracer, seconds: float = 0.0,
            count: Optional[int] = None) -> list:
    """Rounds 0, 1, ... until *seconds* have elapsed and the workload's
    minimum is met, or exactly *count* rounds."""
    wl.begin()
    out = []
    start = time.perf_counter()
    while True:
        spent = _calibrating_s(wl)
        t0 = time.perf_counter()
        if tracer is None:
            rnd = wl.run_round(len(out))
        else:
            with tracer.frame(Tracer.ROOT):
                rnd = wl.run_round(len(out))
        rnd.t0, rnd.t1 = t0, time.perf_counter()
        rnd.wall_s = rnd.t1 - t0 - (_calibrating_s(wl) - spent)
        out.append(rnd)
        if count is not None:
            if len(out) >= count:
                return out
        elif (len(out) >= wl.min_rounds
              and time.perf_counter() - start >= seconds):
            return out


def reference_wall_s(rounds: list, cal: Calibrator) -> float:
    """The rounds' summed wall time at the reference speed."""
    return sum(rnd.wall_s * cal.factor_between(rnd.t0, rnd.t1)
               for rnd in rounds)


def _calibrating_s(wl) -> float:
    return wl.cal.spent_s if wl.cal is not None else 0.0


def canary_digest(name: str) -> str:
    """Outputs of a fixed tiny input, untraced."""
    if name == DAEMON:
        from bench_daemon import DaemonOpen
        wl = DaemonOpen(CANARY_SEED, "tiny")
        wl.setup(2.0)
        try:
            return wl.replay_digest(wl.writes)
        finally:
            wl.close()
    from bench_workloads import WORKLOADS
    wl = WORKLOADS[name](CANARY_SEED, "tiny")
    try:
        wl.setup()
        wl.begin()
        return wl.run_round(0).digest
    finally:
        wl.close()


def check_canary(name: str) -> list[str]:
    with open(DIGESTS) as fh:
        expected = json.load(fh)[name]
    got = canary_digest(name)
    if got != expected:
        return [f"canary digest {got} != recorded {expected}"]
    return []


def run_inprocess(args, t0: float) -> dict:
    from bench_workloads import WORKLOADS
    pin_backend()
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, args.scale, tracer)
    try:
        wl.setup()
        setup_s = reference_setup_s(time.monotonic() - t0)
        if args.setup_only:
            return {"setup_s": setup_s, "correct": True}
        if tracer is not None:
            tracer.count("setup.generate_s", tracer.self_s("workloads"))
        cal = wl.cal = Calibrator()
        if tracer is None:
            untraced = _rounds(wl, None, args.seconds)
            traced = []
        else:
            # Half the window untraced, then the same rounds traced.
            wl.tracer = None
            untraced = _rounds(wl, None, args.seconds / 2)
            wl.tracer, wl.cal = tracer, Calibrator()
            install_layers(tracer)
            try:
                traced = _rounds(wl, tracer, count=len(untraced))
            finally:
                tracer.uninstall()
        errors = [f"round {i}: traced outputs differ from untraced"
                  for i, (a, b) in enumerate(zip(untraced, traced))
                  if a.digest != b.digest]
        rounds = untraced + traced
        errors += wl.check(rounds)
        errors += check_canary(wl.name)
        # Timings at the reference speed (see ``Calibrator``).
        samples = [ms * cal.factor_at(t)
                   for rnd in untraced for ms, t in rnd.samples]
        wall = reference_wall_s(untraced, cal)
        e2e = {"setup_s": setup_s,
               "throughput_per_s": (sum(rnd.units for rnd in untraced)
                                    / wall),
               **latency_summary(samples),
               "peak_rss_mb": peak_rss_mb(),
               "success_rate": wl.success_rate(untraced),
               "mean_min_yield": wl.mean_min_yield(untraced)}
        layers = None
        if tracer is not None:
            layers = inprocess_layers(wl, tracer, traced)
            layers["obs.overhead_frac"] = (
                reference_wall_s(traced, wl.cal) / wall - 1.0)
        return {"setup_s": setup_s, "correct": not errors, "errors": errors,
                "attempted": sum(len(rnd.samples) for rnd in rounds),
                "failed": 0, "e2e": e2e, "layers": layers,
                "digest": untraced[0].digest, "samples": len(samples),
                "rounds": len(untraced), "speed_factor": cal.factor(),
                "calibrations": len(cal.samples)}
    finally:
        wl.close()


def inprocess_layers(wl, tracer: Tracer, traced: list) -> dict:
    """Per-layer metrics, per traced round."""
    n = len(traced)
    # Generation in set-up happened once; everything else per round.
    setup_gen = tracer.counters.get("setup.generate_s", 0.0)
    raw = layer_metrics(tracer)
    per_round = {k: v / n for k, v in raw.items()
                if not k.endswith(("_ratio", "_frac", "_mean",
                                   "per_solve", "per_probe"))}
    raw.update(per_round)
    raw["workloads.generate_s"] = (
        (tracer.self_s("workloads") - setup_gen) / n + setup_gen)
    fsync = tracer.stats("persistence").samples
    raw["persistence.fsync_ms_p50"] = (median(fsync) * 1e3 if fsync
                                       else 0.0)
    for name in INPROCESS_LAYERS[1:]:
        raw[name] = 0.0
    raw.update({k: v / n for k, v in wl.layer_extras(traced).items()})
    for name in SERVICE_LAYERS:
        raw[name] = 0.0
    raw["error_rate"] = 0.0
    return raw


# ----------------------------------------------------------------------
# daemon-open
# ----------------------------------------------------------------------
def _ok(rec: dict) -> bool:
    return 200 <= rec["status"] < 300


def _write_latencies_ms(raw: dict) -> list[float]:
    """Each write's latency from its due time, at the reference speed."""
    cal = raw["cal"]
    return [(r["done"] - r["due"]) * 1e3 * cal.factor_at(r["done"])
            for r in raw["writes"]]


def daemon_e2e(raw: dict) -> dict:
    """End-to-end metrics of one window.  Write latencies are reported at
    the reference speed, from the generator's calibration samples (the
    daemon's own speed is not observable from outside; the two processes
    share the machine); throughput is set by the schedule and stays as
    measured."""
    writes = raw["writes"]
    lat = _write_latencies_ms(raw)
    good = sum(1 for r, ms in zip(writes, lat)
               if _ok(r) and ms <= WRITE_LIMIT_MS)
    # The timed window runs from the first write's due time to the last
    # completion, so a daemon that falls behind stretches it.
    window = max(r["done"] for r in writes) - min(r["due"] for r in writes)
    admits = [r for r in writes if r["method"] == "POST"]
    yields = []
    for r in writes:
        if _ok(r):
            y = json.loads(r["body"]).get("minimum_yield")
            if y is not None:
                yields.append(y)
    return {"throughput_per_s": good / window, **latency_summary(lat),
            "success_rate": (sum(1 for r in admits if _ok(r)) / len(admits)
                             if admits else 1.0),
            "mean_min_yield": sum(yields) / len(yields) if yields else 0.0}


def _read_latencies(raw: dict) -> list[float]:
    return [(r["done"] - r["due"]) * 1e3 for r in raw["reads"]]


def _lateness_ms(records: list[dict]) -> list[float]:
    """How late the generator sent each request after it could have:
    its due time, or the previous reply on the same connection."""
    out, ready = [], float("-inf")
    for r in records:
        out.append((r["sent"] - max(r["due"], ready)) * 1e3)
        ready = r["done"]
    return out


def _spans(path: str) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "span":
                out.append(rec)
    return out


def daemon_layers(raw_u: dict, probe: dict, raw_t: dict, session_t
                  ) -> dict:
    """Per-layer metrics: the daemon's own layers and spans from the
    traced session; read latencies, network probes and the tracing
    overhead against the untraced one."""
    with open(session_t.tracer_out) as fh:
        tracer = Tracer.from_json(json.load(fh))
    spans = _spans(session_t.obs_log)
    requests = {s["trace"]: s["dur_ms"] for s in spans
                if s["name"] == "http.request"}
    writes = [r for r in raw_t["writes"] if r["trace"] in requests]
    traces = {r["trace"] for r in writes}
    solve_ms = [s["dur_ms"] for s in spans
                if s["name"] == "service.solve" and s["trace"] in traces]
    window = raw_t["writes"] + raw_t["reads"]
    idle = [(r["done"] - r["sent"]) * 1e3 for r in probe["idle"]]
    reads_u = _read_latencies(raw_u)
    journal = tracer.stats("service.journal").samples
    before, after = (raw_t["metrics_before"]["solver"],
                     raw_t["metrics"]["solver"])
    lat_u = _write_latencies_ms(raw_u)
    lat_t = _write_latencies_ms(raw_t)
    out = layer_metrics(tracer)
    out.update({
        "service.request_ms_p50": median([requests[t] for t in traces]),
        "service.solve_ms_p50": median(solve_ms) if solve_ms else 0.0,
        "service.journal_ms_p50": median(journal) * 1e3 if journal else 0.0,
        "service.net_wait_ms_p50": median(
            [(r["done"] - r["sent"]) * 1e3 - requests[r["trace"]]
             for r in writes]),
        "service.keepalive_stall_ms": (median(probe["kept_ms"])
                                       - median(probe["fresh_ms"])),
        "service.read_wait_ms_p50": median(reads_u) - median(idle),
        "service.read_latency_p50_ms": percentile(reads_u, 0.5),
        "service.read_latency_p90_ms": percentile(reads_u, 0.9),
        "service.solves_full": after["full_solves"] - before["full_solves"],
        "service.solves_degraded": (after["degraded_solves"]
                                    - before["degraded_solves"]),
        "loadgen.sent": len(window),
        "loadgen.lateness_p90_ms": percentile(
            _lateness_ms(raw_t["writes"]) + _lateness_ms(raw_t["reads"]),
            0.9),
        "obs.overhead_frac": median(lat_t) / median(lat_u) - 1.0,
        "persistence.fsync_ms_p50": 0.0,
        "dynamic.self_s": 0.0, "dynamic.placer_s": 0.0,
        "dynamic.migrations": 0, "dynamic.forced_migrations": 0,
    })
    return out


def run_daemon(args, t0: float) -> dict:
    from bench_daemon import DaemonOpen
    pin_backend()
    wl = DaemonOpen(args.seed, args.scale, bad_delete=args.bad_delete)
    wl.setup(args.seconds)
    try:
        return _run_daemon(wl, args, t0)
    finally:
        wl.close()


def _run_daemon(wl, args, t0: float) -> dict:
    # The traced run drives an untraced daemon, then a traced one, each
    # for half the window (the same schedule prefix).
    halves = [(False, args.seconds / 2), (True, args.seconds / 2)] \
        if args.trace else [(False, None)]
    results = []
    setup_s = None
    probe = None
    try:
        for traced, seconds in halves:
            session = wl.start(traced)
            results.append((None, session))
            try:
                if setup_s is None:
                    setup_s = reference_setup_s(time.monotonic() - t0)
                    if args.setup_only:
                        return {"setup_s": setup_s, "correct": True}
                if args.trace and not traced:
                    probe = wl.probe_network(session)
                raw = wl.drive(session, seconds)
            finally:
                session.stop()
            results[-1] = (raw, session)
        errors = []
        raw, session = results[-1]
        digests = {r["state"]["digest"] for r, _ in results}
        if len(digests) != 1:
            errors.append("traced and untraced daemons disagree: "
                          f"{sorted(digests)}")
        replay = wl.replay_digest(raw["acked"])
        if replay != raw["state"]["digest"]:
            errors.append(f"daemon digest {raw['state']['digest']} != "
                          f"offline replay {replay}")
        errors += check_canary(DAEMON)
        raw_u = results[0][0]
        e2e = {"setup_s": setup_s, **daemon_e2e(raw_u),
               "peak_rss_mb": results[0][1].peak_rss_mb}
        ops = [r for r, _ in results for r in r["writes"] + r["reads"]]
        failed = sum(1 for r in ops if not _ok(r))
        layers = None
        if args.trace:
            layers = daemon_layers(raw_u, probe, raw, session)
            layers["error_rate"] = failed / len(ops)
        return {"setup_s": setup_s, "correct": not errors, "errors": errors,
                "attempted": len(ops), "failed": failed, "e2e": e2e,
                "layers": layers, "digest": raw["state"]["digest"],
                "samples": len(raw_u["writes"]),
                "read_samples": len(raw_u["reads"]),
                "speed_factor": raw_u["cal"].factor(),
                "calibrations": len(raw_u["cal"].samples)}
    finally:
        for _, session in results:
            session.cleanup()


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--warm", action="store_true")
    p.add_argument("--canary", action="store_true")
    p.add_argument("--bad-delete", action="store_true",
                   help="daemon-open: add a DELETE of an unknown id")
    args = p.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    if args.warm:
        import repro.cli  # noqa: F401  (page cache)
        import repro.experiments  # noqa: F401
        import repro.service  # noqa: F401
        emit({"env": environment()})
        return 0
    if args.canary:
        from bench_workloads import WORKLOADS
        pin_backend()
        emit({name: canary_digest(name) for name in [*WORKLOADS, DAEMON]})
        return 0
    try:
        run = run_daemon if args.workload == DAEMON else run_inprocess
        record = run(args, t0)
    except Exception:
        traceback.print_exc()
        record = {"correct": False, "errors": ["worker raised"],
                  "attempted": 1, "failed": 1}
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
