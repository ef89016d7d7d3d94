"""Helpers shared by the benchmark's processes: paths, the measured
process's environment, percentiles, digests and small JSON plumbing.

Imports only the standard library at module level, so the orchestrator
(``run.py``) can import it before it knows whether the program under
test is even present.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Iterable, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in: the benchmark directory's parent.
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Build outputs, caches and temporary directories; ignored by git.
BUILD_DIR = os.path.join(ROOT, ".bench_build")
NATIVE_CACHE = os.path.join(BUILD_DIR, "native-kernels")

#: The kernel backend every measured process is pinned to.
BACKEND = "native"

#: Set-up repetitions per untraced run (their median is ``setup_s``).
SETUP_REPEATS = 3

#: Thread-pool variables capped at one thread in measured processes.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "BLIS_NUM_THREADS")


def measured_env() -> dict:
    """Environment of every process the benchmark measures.

    One compute thread everywhere, the native kernel backend pinned, its
    compile cache inside the checkout, tracing off unless asked for.
    """
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_FAULTS", None)
    for var in _THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    env["REPRO_KERNEL_BACKEND"] = BACKEND
    env["REPRO_NATIVE_CACHE"] = NATIVE_CACHE
    env["TMPDIR"] = BUILD_DIR
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


#: The time one calibration sample takes at the reference speed, and
#: how often the timed window takes one.
CAL_REF_S = 3.0e-3
CAL_EVERY_S = 0.15
#: Samples nearest in time that give one timing's speed factor.
CAL_LOCAL = 4


class Calibrator:
    """The machine's current speed, sampled between timed operations.

    The machines this runs on drift: a fixed Python loop takes 10–15 ms
    from one second to the next, and its mean over a minute moves by
    ±15% or more.  The timed window therefore runs a fixed calibration
    sample about every :data:`CAL_EVERY_S` seconds, between operations,
    and a timing is reported at the reference speed: the measured
    seconds times the speed factor around them (:meth:`factor_at`,
    :meth:`factor_between`).  The sample mixes a bytecode loop, a
    JSON round trip and small-array numpy calls, the three kinds of
    work the program does; on a drifting 2-vCPU machine its time tracked
    a table1-quick task's time with slope 1.05 and correlation 0.99
    (8 windows over 80 s), where the bytecode loop alone gave slope 1.3.
    Time spent calibrating is kept out of every timing (:attr:`spent_s`).
    """

    def __init__(self) -> None:
        import numpy as np
        self._doc = {"a": [{"x": i, "y": [i * 0.5, str(i)], "z": {"k": i}}
                           for i in range(150)]}
        self._arrays = [np.random.default_rng(i).random(60)
                        for i in range(8)]
        self._np = np
        self.samples: list[float] = []
        #: ``time.perf_counter()`` at the end of each sample.
        self.times: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def _work(self) -> None:
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        json.loads(json.dumps(self._doc))
        np = self._np
        for a in self._arrays:
            for _ in range(12):
                order = np.argsort(a)
                np.minimum(a, 0.5).sum()
                a[order[:10]].max()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)
        self.spent_s += t1 - t0
        self._last = t1

    def tick(self) -> None:
        """Sample when the last sample is :data:`CAL_EVERY_S` old."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Reference-speed seconds per measured second, over every sample
        (a window too short to have sampled takes one sample now)."""
        if not self.samples:
            self.sample()
        return CAL_REF_S / mean(self.samples)

    def factor_at(self, t: float) -> float:
        """The factor from the :data:`CAL_LOCAL` samples nearest to the
        ``time.perf_counter()`` value *t*."""
        if not self.samples:
            self.sample()
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - CAL_LOCAL // 2, len(self.samples) - CAL_LOCAL))
        return CAL_REF_S / mean(self.samples[lo:lo + CAL_LOCAL])

    def factor_between(self, t0: float, t1: float) -> float:
        """The factor from the samples taken between *t0* and *t1*."""
        inside = [d for d, t in zip(self.samples, self.times)
                  if t0 <= t <= t1]
        if not inside:
            return self.factor_at((t0 + t1) / 2)
        return CAL_REF_S / mean(inside)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0 ≤ q ≤ 1) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def digest(obj: object) -> str:
    """Stable content hash; floats hash by their exact repr."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def emit(record: dict) -> None:
    """Print *record* as the last line of stdout (the result protocol)."""
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    """Parse the last non-empty stdout line of a child process."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])
