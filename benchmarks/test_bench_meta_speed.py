"""Benchmark: the per-strategy METAHVP engine's work and tracing cost.

Solves the reference instances with the per-strategy engine
(:class:`MetaProbeEngine` — the engine the selector picks on the numpy
backend and for PP codes too wide for an int64), asserts the engine
selector certifies exactly the same results, and records wall-clock and
work numbers to ``benchmarks/output/BENCH_meta.json``.  The committed
baseline ``benchmarks/BENCH_meta.json`` anchors two gates:

* a deterministic work gate — total strategy executions on the
  reference grid are machine-invariant, so growing >20% over the
  committed baseline means the engine structurally regressed (lost
  memoization or adaptive-ordering effectiveness), not that the host was
  noisy;
* a disabled-observability budget — with tracing off, instrumentation
  may cost at most 2% of the sweep (a same-run ratio).

Refresh the committed baseline after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_meta_speed.py
"""

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.algorithms.vector_packing import (
    MetaProbeEngine,
    MetaSolver,
    hvp_strategies,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.experiments.report import format_table
from repro.workloads import ScenarioConfig, generate_instance

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_meta.json")

#: Deterministic regression gate: strategy executions may grow this much.
MAX_WORK_GROWTH = 1.2

REFERENCE_INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=0)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
]


@pytest.fixture(scope="module")
def sweep():
    """Solve every reference instance with the per-strategy engine, timed,
    and with the engine selector, untimed."""
    strategies = hvp_strategies()
    rows = []
    for cfg in REFERENCE_INSTANCES:
        inst = generate_instance(cfg)
        engine = MetaProbeEngine(inst, strategies)
        t0 = time.perf_counter()
        alloc = binary_search_max_yield(inst, engine, improve=False)
        seconds = time.perf_counter() - t0
        selected = MetaSolver(strategies, improve=False)(inst)
        rows.append({
            "label": cfg.label(),
            "seconds": seconds,
            "yield": None if alloc is None else alloc.minimum_yield(),
            "probes": engine.probes,
            "strategy_runs": engine.strategy_runs,
            "_allocs": (alloc, selected),
        })
    return rows


def test_selector_certifies_identical_results(sweep):
    for row in sweep:
        alloc, selected = row["_allocs"]
        assert (alloc is None) == (selected is None), row["label"]
        if alloc is not None:
            assert np.array_equal(alloc.placement, selected.placement), \
                row["label"]
            assert np.array_equal(alloc.yields, selected.yields), \
                row["label"]


def test_strategy_runs_and_record(sweep, emit, output_dir):
    total = sum(r["seconds"] for r in sweep)
    total_runs = sum(r["strategy_runs"] for r in sweep)

    table = format_table(
        ("instance", "yield", "time", "probes", "runs"),
        [(r["label"],
          "-" if r["yield"] is None else f"{r['yield']:.4f}",
          f"{r['seconds']:.2f}s", r["probes"], r["strategy_runs"])
         for r in sweep],
        title=f"METAHVP per-strategy engine — {total_runs} strategy runs, "
              f"{total:.2f}s")
    emit("meta_speed", table)

    record = {
        "suite": "metahvp-per-strategy-engine",
        "engine": "per-strategy MetaProbeEngine: shared-probe factory + "
                  "adaptive strategy ordering + vectorized kernels",
        "instances": [{k: v for k, v in r.items() if not k.startswith("_")}
                      for r in sweep],
        "total_seconds": round(total, 3),
        "strategy_runs": total_runs,
    }
    with open(os.path.join(output_dir, "BENCH_meta.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    if os.environ.get("REPRO_BENCH_UPDATE"):
        with open(BASELINE_PATH, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")

    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        ceiling = MAX_WORK_GROWTH * baseline["strategy_runs"]
        assert total_runs <= ceiling, (
            f"per-strategy engine work regressed: {total_runs} strategy "
            f"executions vs committed baseline {baseline['strategy_runs']} "
            f"(ceiling {ceiling:.0f})")
        # Cross-machine wall-clock drift is informational only — the
        # committed timings were measured on a different host.
        print(f"sweep {total:.2f}s vs committed baseline "
              f"{baseline['total_seconds']:.2f}s")


#: Observability-off budget: instrumentation may cost this fraction of
#: the sweep at most.
MAX_OBS_OVERHEAD = 0.02


def test_disabled_obs_overhead_within_budget(sweep):
    """With no ``--obs-log``, tracing must cost < 2% of the sweep.

    A disabled instrumentation site is one module-global bool check
    (``obs.enabled()``) plus, on the few unguarded sites, the shared
    no-op span singleton.  Measure that fast path's per-hit cost
    directly, scale it by a generous over-count of the instrumented
    events the sweep actually executed (several guards per probe, plus
    per-instance factory/engine/search sites), and compare against the
    sweep's own wall clock — a same-run ratio, so it holds on slow CI
    hosts.
    """
    assert not obs.enabled(), "benchmark must run with tracing disabled"
    reps = 100_000
    t0 = time.perf_counter()
    for _ in range(reps):
        if not obs.enabled():
            pass
        with obs.span("bench.noop"):
            pass
    per_hit = (time.perf_counter() - t0) / reps

    hits = sum(r["probes"] for r in sweep) * 4 + len(sweep) * 8
    overhead = per_hit * hits
    total = sum(r["seconds"] for r in sweep)
    print(f"disabled-obs overhead: {per_hit * 1e9:.0f}ns/hit x {hits} "
          f"hits = {overhead * 1e3:.3f}ms vs sweep {total:.2f}s "
          f"({overhead / total:.4%})")
    assert overhead <= MAX_OBS_OVERHEAD * total, (
        f"disabled instrumentation costs {overhead / total:.2%} of "
        f"the sweep (budget {MAX_OBS_OVERHEAD:.0%})")
