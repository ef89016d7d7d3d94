"""Trace-replay workload: services instantiated from a recorded trace.

A trace is a CSV or JSONL file of raw (pre-scaling, §4) service
descriptors — one row per service with the two marginals every model in
this package produces: ``cores`` (requested cores, the aggregate CPU need
in core units) and ``mem`` (memory fraction, the rigid memory
requirement).  :class:`TraceWorkloadModel` turns such a file back into a
workload model, so real traces — or dumps of synthetic ones — flow
through every experiment driver exactly like the statistical families.

Two modes:

* ``"sample"`` (default) — bootstrap: each instance draws *n* rows with
  replacement from the trace's empirical distribution, using the
  scenario's derived RNG stream.  Different ``instance_index`` values give
  different draws, as experiments expect.
* ``"replay"`` — deterministic: row *j* of the trace becomes service *j*
  (cycling when *n* exceeds the trace length).  The RNG is unused, so
  ``generate → dump_trace → replay`` reproduces the original services
  bit-for-bit.

The file is parsed once per process and cached by path; workers holding
only the (picklable) model regenerate services locally, preserving the
scatter/gather discipline of the experiment runner.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from ..core.service import ServiceArray
from ..util.rng import as_generator
from .google_model import CPU, MEM, services_from_marginals

__all__ = ["TraceWorkloadModel", "dump_trace", "load_trace"]

#: Per-process cache: path -> (cores, mem) arrays.  Keyed by absolute path
#: so relative invocations from different cwds don't alias.
_TRACE_CACHE: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def load_trace(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trace file into ``(cores, mem)`` float arrays.

    ``.csv`` files need a header naming ``cores`` and ``mem`` columns
    (extra columns are ignored); any other extension is read as JSONL with
    one ``{"cores": ..., "mem": ...}`` object per line.  Rows must be
    finite and positive — a trace with a zero-memory service would make
    the §4 slack rescaling degenerate.
    """
    cores: list[float] = []
    mem: list[float] = []
    with open(path, newline="") as fh:
        if path.endswith(".csv"):
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    not {"cores", "mem"} <= set(reader.fieldnames):
                raise ValueError(
                    f"{path}: CSV trace needs 'cores' and 'mem' columns, "
                    f"got {reader.fieldnames}")
            for row in reader:
                cores.append(float(row["cores"]))
                mem.append(float(row["mem"]))
        else:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    cores.append(float(rec["cores"]))
                    mem.append(float(rec["mem"]))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not a trace record ({exc})"
                    ) from exc
    if not cores:
        raise ValueError(f"{path}: empty trace")
    cores_arr = np.asarray(cores, dtype=np.float64)
    mem_arr = np.asarray(mem, dtype=np.float64)
    for name, arr in (("cores", cores_arr), ("mem", mem_arr)):
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise ValueError(f"{path}: {name} values must be finite and > 0")
    return cores_arr, mem_arr


def dump_trace(services: ServiceArray, path: str) -> None:
    """Write *services* as a trace file (CSV or JSONL by extension).

    The inverse of :meth:`TraceWorkloadModel.generate_services` in
    ``"replay"`` mode: only the two marginals every workload model encodes
    — aggregate CPU need in core units and the rigid memory requirement —
    are recorded.  Values are written with full ``repr`` precision so the
    round trip is exact.
    """
    cores = services.need_agg[:, CPU]
    mem = services.req_agg[:, MEM]
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if path.endswith(".csv"):
            writer = csv.writer(fh)
            writer.writerow(("cores", "mem"))
            for c, m in zip(cores, mem):
                writer.writerow((repr(float(c)), repr(float(m))))
        else:
            for c, m in zip(cores, mem):
                fh.write(json.dumps({"cores": float(c), "mem": float(m)})
                         + "\n")


@dataclass(frozen=True)
class TraceWorkloadModel:
    """Workload model backed by a trace file (see module docstring)."""

    path: str
    mode: str = "sample"
    elementary_cpu_requirement: float = 0.01

    def __post_init__(self) -> None:
        if self.mode not in ("sample", "replay"):
            raise ValueError(f"unknown trace mode: {self.mode!r} "
                             "(choose 'sample' or 'replay')")
        if not self.path:
            raise ValueError("trace model needs a path "
                             "(--workload trace:path=FILE)")

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        key = os.path.abspath(self.path)
        cached = _TRACE_CACHE.get(key)
        if cached is None:
            cached = load_trace(self.path)
            _TRACE_CACHE[key] = cached
        return cached

    def __len__(self) -> int:
        return len(self.rows()[0])

    def generate_services(self, n: int,
                          rng: np.random.Generator | int | None = None
                          ) -> ServiceArray:
        if n < 1:
            raise ValueError("need at least one service")
        trace_cores, trace_mem = self.rows()
        if self.mode == "replay":
            idx = np.arange(n) % len(trace_cores)
        else:
            rng = as_generator(rng)
            idx = rng.integers(0, len(trace_cores), size=n)
        return services_from_marginals(trace_cores[idx], trace_mem[idx],
                                       self.elementary_cpu_requirement)
