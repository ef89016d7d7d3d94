"""Benchmark: kernel backends (numpy vs native) + warm-started search.

Part 1 solves the reference METAHVP instances under every *available*
kernel backend, each with the engine its selector builds
(``make_engine``: the fused ``probe_scan`` on a compiled backend, the
per-strategy engine on numpy), and asserts the backends are
interchangeable: identical certified yields, identical probe/strategy-run
counts — the compiled backends may only change wall-clock.  Each timed
solve includes building its engine, as ``solve_with_hint`` does.
Results land in ``benchmarks/output/BENCH_kernels.json``; the committed
baseline ``benchmarks/BENCH_kernels.json`` records the reference
machine's numbers.  Gates:

* a hard same-run wall-clock floor — the best compiled backend must be
  ≥ ``MIN_KERNEL_SPEEDUP``× faster than the numpy backend (a ratio, so
  it holds on slow CI hosts).  Skipped when no compiled backend exists;
* determinism — every backend must report *exactly* the numpy backend's
  yields and oracle work, on every instance.

The per-strategy engine runs the same packers on every backend
(``repro.kernels.packers``), so timing it on a compiled backend would
measure nothing the backend does; its own non-regression is enforced by
``test_bench_meta_speed.py``'s work gate (≤20% strategy-run growth over
its committed baseline).

Part 2 measures the warm-started dynamic simulation: a steady-state
hosting trace re-packed every step, warm vs cold, asserting identical
``SimulationResult`` rows and a ≥ ``MIN_PROBE_REDUCTION``× drop in
oracle probes.

Refresh the committed baseline after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_kernels.py
"""

import json
import os
import time

import pytest

from repro import kernels
from repro.algorithms import metahvp_light
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    StrategyTable,
    hvp_strategies,
    make_engine,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.dynamic import DynamicSimulator, generate_trace
from repro.experiments.report import format_table
from repro.workloads import ScenarioConfig, generate_instance, generate_platform

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_kernels.json")

#: Compiled-backend acceptance floor on the METAHVP sweep (same-run
#: ratio of the selected engines, fused vs numpy's per-strategy one).
MIN_KERNEL_SPEEDUP = 2.0
#: Warm-start acceptance floor on dynamic-simulation oracle probes.
MIN_PROBE_REDUCTION = 2.0

REFERENCE_INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=0)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
]


def _available():
    return [name for name, reason in kernels.available_backends().items()
            if reason is None]


@pytest.fixture(scope="module")
def sweep():
    """Solve every reference instance under every available backend,
    with the engine the backend's selector builds."""
    table = StrategyTable(hvp_strategies())
    backends = _available()
    rows = {name: [] for name in backends}
    for name in backends:
        with kernels.kernel_backend(name):
            # Untimed warm-up: load the backend and compile the strategy
            # table so the timed loop measures steady state.
            warm_inst = generate_instance(REFERENCE_INSTANCES[0])
            binary_search_max_yield(
                warm_inst, make_engine(warm_inst, table), improve=False)
            for cfg in REFERENCE_INSTANCES:
                inst = generate_instance(cfg)
                t0 = time.perf_counter()
                engine = make_engine(inst, table)
                alloc = binary_search_max_yield(inst, engine, improve=False)
                rows[name].append({
                    "label": cfg.label(),
                    "seconds": time.perf_counter() - t0,
                    "engine": ("fused" if isinstance(engine, FusedProbeEngine)
                               else "per-strategy"),
                    "yield": (None if alloc is None
                              else alloc.minimum_yield()),
                    "probes": engine.probes,
                    "strategy_runs": engine.strategy_runs,
                })
    return rows


def test_backends_are_interchangeable(sweep):
    """Identical yields AND identical oracle work on every instance."""
    ref = sweep["numpy"]
    for name, rows in sweep.items():
        for ref_row, row in zip(ref, rows):
            assert row["yield"] == ref_row["yield"], (name, row["label"])
            assert row["probes"] == ref_row["probes"], (name, row["label"])
            assert row["strategy_runs"] == ref_row["strategy_runs"], (
                name, row["label"])


@pytest.fixture(scope="module")
def warm_dynamic():
    """Steady-state dynamic simulation, warm vs cold re-allocation."""
    platform = generate_platform(hosts=8, cov=0.5, rng=11)
    trace = generate_trace(horizon=48, mean_arrivals_per_step=0.5,
                           mean_lifetime_steps=60.0, rng=12,
                           initial_services=16)
    out = {}
    for warm in (False, True):
        sim = DynamicSimulator(platform, trace, placer=metahvp_light(),
                               reallocation_period=1, cpu_need_scale=0.15,
                               rng=0, warm_start=warm)
        t0 = time.perf_counter()
        result = sim.run()
        out[warm] = {
            "seconds": time.perf_counter() - t0,
            "rows": result.as_rows(),
            "probes": sim.search_probes,
            "solves": sim.search_solves,
        }
    return out


def test_warm_start_probe_reduction(warm_dynamic):
    cold, warm = warm_dynamic[False], warm_dynamic[True]
    assert warm["rows"] == cold["rows"], "warm start changed results"
    assert cold["probes"] >= MIN_PROBE_REDUCTION * warm["probes"], (
        f"warm start saved only {cold['probes']}/{warm['probes']} probes "
        f"(floor {MIN_PROBE_REDUCTION}x)")


def test_kernel_speedup_and_record(sweep, warm_dynamic, emit, output_dir):
    totals = {name: sum(r["seconds"] for r in rows)
              for name, rows in sweep.items()}
    compiled = {n: s for n, s in totals.items() if n != "numpy"}
    speedups = {n: totals["numpy"] / s for n, s in compiled.items()}

    table = format_table(
        ("backend", "total", "speedup vs numpy", "probes", "runs"),
        [(name, f"{totals[name]:.2f}s",
          "-" if name == "numpy" else f"{speedups[name]:.1f}x",
          sum(r["probes"] for r in rows),
          sum(r["strategy_runs"] for r in rows))
         for name, rows in sweep.items()],
        title="METAHVP sweep by kernel backend "
              f"(available: {', '.join(sweep)})")
    emit("kernel_backends", table)

    cold, warm = warm_dynamic[False], warm_dynamic[True]
    record = {
        "suite": "kernel-backends",
        "available_backends": sorted(sweep),
        "instances": {name: rows for name, rows in sweep.items()},
        "total_seconds": {n: round(s, 3) for n, s in totals.items()},
        "speedup_vs_numpy": {n: round(s, 2) for n, s in speedups.items()},
        "identical_yields": True,  # asserted above
        "numpy_backend_note": (
            "each backend runs the engine its selector builds: fused "
            "probe_scan on a compiled backend, the per-strategy engine "
            "on numpy, whose packers every backend shares; its work is "
            "gated by BENCH_meta.json (<=20% strategy-run growth)"),
        "warm_start_dynamic": {
            "probes_cold": cold["probes"],
            "probes_warm": warm["probes"],
            "solves": cold["solves"],
            "probe_reduction": round(cold["probes"]
                                     / max(1, warm["probes"]), 2),
            "identical_metrics": warm["rows"] == cold["rows"],
        },
    }
    with open(os.path.join(output_dir, "BENCH_kernels.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if os.environ.get("REPRO_BENCH_UPDATE"):
        with open(BASELINE_PATH, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    if not compiled:
        pytest.skip("no compiled kernel backend available here")
    best = max(speedups.values())
    assert best >= MIN_KERNEL_SPEEDUP, (
        f"best compiled backend is only {best:.2f}x faster than numpy "
        f"(acceptance floor {MIN_KERNEL_SPEEDUP}x)")
