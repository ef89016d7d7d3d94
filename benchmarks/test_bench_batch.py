"""Benchmark: the fused engine and batched solving vs the per-strategy
engine.

Part 1 solves the reference METAHVP instances three times under the
active kernel backend — as a loop of
``binary_search_max_yield(inst, MetaProbeEngine(inst, strategies))``
calls (the per-strategy engine, which runs the same numpy packers,
``repro.kernels.packers``, on every backend), as a loop of
``solve_with_hint`` calls
(the engine selector: fused where the backend has the kernel), and
through ``solve_many`` (shared threshold tables, one fused kernel call
per probe) — and asserts the three are interchangeable: identical
certified yields, placements, and probe counts.  The same-run gate
requires ``solve_many`` to be ≥ ``MIN_BATCH_SPEEDUP``× faster than the
per-strategy loop; it is skipped when the backend has no fused
probe-scan kernel (numpy).  ``solve_many`` against the fused
``solve_with_hint`` loop — what batching itself adds — is reported, not
gated.

Part 2 reports the wall-clock of the full Table 1 and Table 2 quick
grids run batched (``batch=32``) plus the solve-seconds spent inside the
batched META* algorithms alone.

Results land in ``benchmarks/output/BENCH_batch.json``; the committed
baseline ``benchmarks/BENCH_batch.json`` records the reference
machine's numbers.  Refresh it after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_batch.py
"""

import json
import os
import time
from collections import defaultdict

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    MetaProbeEngine,
    MetaSolver,
    hvp_strategies,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.experiments import QUICK_GRID
from repro.experiments.report import format_table
from repro.experiments.runner import run_grid
from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS
from repro.experiments.table2 import DEFAULT_TABLE2_ALGORITHMS
from repro.workloads import ScenarioConfig, generate_instance

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_batch.json")

#: Same-run acceptance floor: batched METAHVP sweep vs a loop over the
#: per-strategy engine (the reference machine records ~5-10x).
MIN_BATCH_SPEEDUP = 2.0

REFERENCE_INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=0)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
]

GRID_BATCH = 32


@pytest.fixture(scope="module")
def sweep():
    """The reference METAHVP sweep, three ways, same run."""
    strategies = hvp_strategies()
    solver = MetaSolver(strategies)
    instances = [generate_instance(cfg) for cfg in REFERENCE_INSTANCES]

    def per_strategy(inst, stats):
        return binary_search_max_yield(
            inst, MetaProbeEngine(inst, strategies), stats=stats)

    def timed(solve_all):
        stats = [{} for _ in instances]
        t0 = time.perf_counter()
        allocs = solve_all(stats)
        return {"allocs": allocs, "stats": stats,
                "seconds": time.perf_counter() - t0}

    # Untimed warm-up: fault in kernels and strategy tables.
    per_strategy(instances[0], {})
    solver.solve_with_hint(instances[0])
    solver.solve_many(instances[:1], threads=1)

    return {
        "backend": kernels.get_backend().name,
        "fused": kernels.get_backend().supports_probe_scan,
        "per_strategy": timed(lambda stats: [
            per_strategy(inst, st) for inst, st in zip(instances, stats)]),
        "fused_sequential": timed(lambda stats: [
            solver.solve_with_hint(inst, stats=st)
            for inst, st in zip(instances, stats)]),
        "batched": timed(lambda stats: solver.solve_many(
            instances, stats=stats, threads=1)),
    }


def test_batched_is_interchangeable(sweep):
    """Identical yields, placements, and oracle work per instance."""
    for path in ("per_strategy", "fused_sequential"):
        for cfg, a, b, sa, sb in zip(REFERENCE_INSTANCES,
                                     sweep[path]["allocs"],
                                     sweep["batched"]["allocs"],
                                     sweep[path]["stats"],
                                     sweep["batched"]["stats"]):
            where = (path, cfg.label())
            assert (a is None) == (b is None), where
            if a is not None:
                assert np.array_equal(a.placement, b.placement), where
                assert np.array_equal(a.yields, b.yields), where
            assert sa.get("certified") == sb.get("certified"), where
            assert sa.get("probes") == sb.get("probes"), where


@pytest.fixture(scope="module")
def grid_walls(sweep):
    """Full quick Table 1 + Table 2 grids, run batched."""
    if not sweep["fused"]:
        return None  # meaningless without the fused kernel; gate skips
    walls = {}
    meta_seconds = {}
    for label, algos in (("table1", DEFAULT_TABLE1_ALGORITHMS),
                         ("table2", DEFAULT_TABLE2_ALGORITHMS)):
        warm = label == "table1"  # table2 times standalone solves
        t0 = time.perf_counter()
        results = run_grid(QUICK_GRID.configs(), algos, workers=1,
                           warm_chain=warm, batch=GRID_BATCH)
        walls[label] = time.perf_counter() - t0
        per = defaultdict(float)
        for task in results:
            for r in task.results:
                per[r.algorithm] += r.seconds
        meta_seconds[label] = sum(v for k, v in per.items()
                                  if k.startswith("META") and k != "METAGREEDY")
    return {"walls": walls, "meta_solve_seconds": meta_seconds}


def test_batch_speedup_and_record(sweep, grid_walls, emit, output_dir):
    per = sweep["per_strategy"]["seconds"]
    fused = sweep["fused_sequential"]["seconds"]
    bat = sweep["batched"]["seconds"]
    speedup = per / bat
    over_fused = fused / bat

    rows = [("per-strategy loop", f"{per:.2f}s", "-"),
            ("solve_with_hint loop", f"{fused:.2f}s", f"{per / fused:.1f}x"),
            ("solve_many", f"{bat:.2f}s", f"{speedup:.1f}x")]
    table = format_table(
        ("dispatch", "total", "speedup"),
        rows,
        title=f"METAHVP sweep vs the per-strategy engine "
              f"(backend: {sweep['backend']})")
    emit("batch_solving", table)
    # Ungated: what batching adds on top of the fused engine.
    print(f"solve_many vs fused solve_with_hint: {over_fused:.2f}x")

    record = {
        "suite": "batched-solving",
        "backend": sweep["backend"],
        "fused_probe_scan": sweep["fused"],
        "sweep_seconds": {"per_strategy": round(per, 3),
                          "fused_sequential": round(fused, 3),
                          "batched": round(bat, 3)},
        "speedup": round(speedup, 2),
        "min_gate": MIN_BATCH_SPEEDUP,
        "batched_vs_fused_sequential": round(over_fused, 2),
        "identical_results": True,  # asserted above
        "quick_grid": None if grid_walls is None else {
            "batch": GRID_BATCH,
            "wall_seconds": {k: round(v, 2)
                             for k, v in grid_walls["walls"].items()},
            "meta_solve_seconds": {
                k: round(v, 2)
                for k, v in grid_walls["meta_solve_seconds"].items()},
            "note": ("wall includes the non-kernel baselines "
                     "(RRND/RRNZ/METAGREEDY); meta_solve_seconds is the "
                     "batched META* share"),
        },
    }
    with open(os.path.join(output_dir, "BENCH_batch.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if os.environ.get("REPRO_BENCH_UPDATE"):
        with open(BASELINE_PATH, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    if not sweep["fused"]:
        pytest.skip("backend has no fused probe scan; no speedup to gate")
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched sweep is only {speedup:.2f}x faster than the "
        f"per-strategy engine (acceptance floor {MIN_BATCH_SPEEDUP}x)")
