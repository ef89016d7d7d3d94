"""The repository's benchmark: one command per (workload, seed) run.

Usage::

    python3 perfbench/run.py --workload table1-quick --seed 1 \
        --seconds 15 --trace 0

Runs from the root of a checkout.  The metric names, units and
workloads are those of ``BENCHMARK.json``.  Steps:

1. one untimed launch of the measured process, which warms the page
   cache and builds the native-kernel cache;
2. ``--trace 0``: two set-up-only launches, then the measured launch;
   ``setup_s`` is the median of the three set-up times, and every other
   end-to-end metric comes from the measured launch;
   ``--trace 1``: one launch that runs half the window untraced and half
   traced and reports the per-layer metrics;
3. the last stdout line is the JSON result
   ``{"correct", "attempted", "failed", "metrics"}``; the lines before
   it record the environment and sample counts.

Timings are reported at a reference machine speed, measured by
calibration samples taken between operations (``bench_common.
Calibrator``); the run line records the speed factor.

Exits non-zero, printing no result, when the program is missing; exits
1 after printing the result when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import (BENCH_DIR, BUILD_DIR, ROOT,  # noqa: E402
                          SETUP_REPEATS, SRC, emit, last_json_line, median,
                          measured_env)

#: Wall-clock budget of the whole run, below the 180 s a run may take.
BUDGET_S = 170.0


class RunFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def launch(args: list[str], deadline: float) -> dict:
    """Run the worker with *args*; its last stdout line, parsed.

    The worker gets its own process group, so a timeout also stops any
    daemon it started."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--t0", repr(t0)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=measured_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"worker {args} exceeded the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker {args} exited {proc.returncode}")
    return last_json_line(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help=argparse.SUPPRESS)  # tiny inputs, for the tests
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # SIGTERM unwinds like Ctrl-C, so launch() stops the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    os.makedirs(BUILD_DIR, exist_ok=True)

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", args.scale]
    try:
        env = launch(["--warm"], deadline)["env"]
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                probe = launch(run_args + ["--setup-only"], deadline)
                setups.append(probe["setup_s"])
        record = launch(run_args + ["--trace", str(args.trace)], deadline)
    except (RunFailed, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        wanted, values = spec["per_layer"], record.get("layers") or {}
    else:
        wanted, values = spec["end_to_end"], dict(record.get("e2e") or {})
        if "setup_s" in record:
            values["setup_s"] = median(setups + [record["setup_s"]])
    correct = bool(record.get("correct"))
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            correct = False
    for err in record.get("errors", []):
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print("perfbench env: " + json.dumps(env))
    print("perfbench run: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups + ([record["setup_s"]]
                                     if "setup_s" in record else []),
        **{k: record[k] for k in ("samples", "read_samples", "rounds",
                                  "speed_factor", "calibrations", "digest")
           if k in record}}))
    emit({"correct": correct,
          "attempted": int(record.get("attempted", 1)),
          "failed": int(record.get("failed", 0)),
          "metrics": metrics})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
