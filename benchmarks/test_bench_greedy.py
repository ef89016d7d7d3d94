"""Benchmark: METAGREEDY's greedy scan, compiled vs the numpy reference.

Solves one instance of every quick-grid cell (Table 1's 30 cells) with
METAGREEDY twice in the same run: on a compiled kernel backend — the
active one, or the fastest available when the active backend is numpy —
and on the numpy backend, whose ``greedy_scan`` is the per-pass
reference loop.  Both must return identical allocations (placements and
per-service yields).  Gate: the compiled sweep is ≥ ``MIN_GREEDY_SPEEDUP``×
faster than the numpy sweep (a same-run ratio, so it holds on slow CI
hosts); skipped when no compiled backend is available.

Results land in ``benchmarks/output/BENCH_greedy.json``; the committed
baseline ``benchmarks/BENCH_greedy.json`` records the reference
machine's numbers.  Refresh it after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_greedy.py
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import kernels
from repro.algorithms import metagreedy
from repro.experiments import QUICK_GRID
from repro.experiments.report import format_table
from repro.workloads import generate_instance

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_greedy.json")

#: Same-run acceptance floor, compiled vs numpy METAGREEDY (five runs
#: on native, 2 vCPUs, read 37-76x).
MIN_GREEDY_SPEEDUP = 10.0

CONFIGS = list(replace(QUICK_GRID, instances=1).configs())


def _compiled_backend():
    active = kernels.current_backend_name()
    if active != "numpy":
        return active
    available = kernels.available_backends()
    for name in kernels.AUTO_ORDER:
        if name != "numpy" and available[name] is None:
            return name
    return None


def _sweep(backend, instances):
    solve = metagreedy()
    with kernels.kernel_backend(backend):
        solve(instances[0])  # untimed: load/JIT the backend
        allocs, seconds = [], []
        for inst in instances:
            t0 = time.perf_counter()
            allocs.append(solve(inst))
            seconds.append(time.perf_counter() - t0)
    return allocs, seconds


def test_greedy_scan_speedup_and_record(emit, output_dir):
    compiled = _compiled_backend()
    instances = [generate_instance(cfg) for cfg in CONFIGS]
    ref_allocs, ref_seconds = _sweep("numpy", instances)
    sweeps = {"numpy": ref_seconds}
    if compiled is not None:
        allocs, seconds = _sweep(compiled, instances)
        sweeps[compiled] = seconds
        for cfg, ref, got in zip(CONFIGS, ref_allocs, allocs):
            assert (ref is None) == (got is None), cfg.label()
            if ref is not None:
                assert np.array_equal(ref.placement, got.placement), \
                    cfg.label()
                assert np.array_equal(ref.yields, got.yields), cfg.label()

    totals = {name: sum(s) for name, s in sweeps.items()}
    speedup = (None if compiled is None
               else totals["numpy"] / totals[compiled])
    emit("greedy_scan", format_table(
        ("backend", "total", "per instance", "speedup vs numpy"),
        [(name, f"{total:.3f}s", f"{1e3 * total / len(CONFIGS):.2f}ms",
          "-" if name == "numpy" else f"{speedup:.1f}x")
         for name, total in totals.items()],
        title=f"METAGREEDY over {len(CONFIGS)} quick-grid instances"))

    record = {
        "suite": "greedy-scan",
        "compiled_backend": compiled,
        "instances": [
            {"label": cfg.label(),
             "yield": None if a is None else a.minimum_yield(),
             "seconds": {name: s[i] for name, s in sweeps.items()}}
            for i, (cfg, a) in enumerate(zip(CONFIGS, ref_allocs))],
        "total_seconds": {n: round(t, 4) for n, t in totals.items()},
        "speedup_vs_numpy": None if speedup is None else round(speedup, 1),
        "identical_allocations": compiled is not None,  # asserted above
    }
    with open(os.path.join(output_dir, "BENCH_greedy.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if os.environ.get("REPRO_BENCH_UPDATE"):
        with open(BASELINE_PATH, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    if compiled is None:
        pytest.skip("no compiled kernel backend available here")
    assert speedup >= MIN_GREEDY_SPEEDUP, (
        f"{compiled} METAGREEDY is only {speedup:.1f}x faster than numpy "
        f"(acceptance floor {MIN_GREEDY_SPEEDUP}x)")
