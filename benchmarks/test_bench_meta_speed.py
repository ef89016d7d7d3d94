"""Benchmark: the METAHVP engines' work, the waste cut, and tracing cost.

Solves the reference instances with the per-strategy engine
(:class:`MetaProbeEngine` — the engine the selector picks on the numpy
backend and for PP codes too wide for an int64), asserts the engine
selector certifies exactly the same results, and records wall-clock and
work numbers to ``benchmarks/output/BENCH_meta.json``.  When the backend
has a fused ``probe_scan`` kernel, the grid is solved again with
:class:`FusedProbeEngine`, which must certify the same results; its
record adds the strategy runs of failed probes, the runs (of failed
and feasible probes) that stopped at the waste cut, and the work of the
bin scans (``scanned``: pending entries First-Fit tested plus 2-D PP/CP
walk positions visited).  The committed baseline
``benchmarks/BENCH_meta.json`` anchors four gates:

* a deterministic work gate — total strategy executions on the
  reference grid are machine-invariant, so growing >20% over the
  committed baseline means the engine structurally regressed (lost
  memoization or adaptive-ordering effectiveness), not that the host was
  noisy;
* a deterministic cut gate — the fused engine's cut runs on the grid
  may not fall below 80% of the committed baseline: a failing FF or
  PP/CP run that no longer stops at the cut runs to its end again;
* a deterministic scan gate — the fused engine's ``scanned`` may grow
  at most 20% over the committed baseline (the work gate's rule): a bin
  scan that no longer stops where no item left can fit tests every
  pending item again, with results unchanged;
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

from repro import kernels, obs
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaProbeEngine,
    MetaSolver,
    StrategyTable,
    hvp_strategies,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.experiments.report import format_table
from repro.workloads import ScenarioConfig, generate_instance

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_meta.json")

#: Deterministic regression gates: strategy executions, and the fused bin
#: scans' work, may grow this much.
MAX_WORK_GROWTH = 1.2

#: Deterministic cut gate: the fused engine's cut runs may shrink this much.
MIN_CUT_SHARE = 0.8

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


@pytest.fixture(scope="module")
def fused_sweep(sweep):
    """The grid on the fused engine, timed, with the strategy runs of its
    failed probes counted; ``None`` when the backend has no fused scan."""
    if not kernels.get_backend().supports_probe_scan:
        return None
    strategies = hvp_strategies()
    rows = []
    for cfg, ref in zip(REFERENCE_INSTANCES, sweep):
        inst = generate_instance(cfg)
        engine = FusedProbeEngine(inst, StrategyTable(strategies))
        failed_runs = 0

        def oracle(instance, y):
            nonlocal failed_runs
            before = engine.strategy_runs
            placement = engine(instance, y)
            if placement is None:
                failed_runs += engine.strategy_runs - before
            return placement

        t0 = time.perf_counter()
        alloc = binary_search_max_yield(inst, oracle, improve=False)
        seconds = time.perf_counter() - t0
        rows.append({
            "label": cfg.label(),
            "seconds": seconds,
            "probes": engine.probes,
            "strategy_runs": engine.strategy_runs,
            "failed_probe_runs": failed_runs,
            "cut_runs": engine.cut_runs,
            "scanned": engine.scanned,
            "_allocs": (ref["_allocs"][0], alloc),
        })
    return rows


def test_selector_certifies_identical_results(sweep, fused_sweep):
    for row in sweep + (fused_sweep or []):
        alloc, selected = row["_allocs"]
        assert (alloc is None) == (selected is None), row["label"]
        if alloc is not None:
            assert np.array_equal(alloc.placement, selected.placement), \
                row["label"]
            assert np.array_equal(alloc.yields, selected.yields), \
                row["label"]


def _public(rows):
    return [{k: v for k, v in r.items() if not k.startswith("_")}
            for r in rows]


def test_strategy_runs_and_record(sweep, fused_sweep, emit, output_dir):
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

    fused = None
    if fused_sweep is not None:
        fused = {
            "backend": kernels.get_backend().name,
            "instances": _public(fused_sweep),
            "total_seconds": round(sum(r["seconds"] for r in fused_sweep),
                                   3),
            "failed_probe_runs": sum(r["failed_probe_runs"]
                                     for r in fused_sweep),
            "cut_runs": sum(r["cut_runs"] for r in fused_sweep),
            "scanned": sum(r["scanned"] for r in fused_sweep),
        }
        print(f"fused engine: {fused['cut_runs']} strategy runs stopped "
              f"at the waste cut; failed probes ran "
              f"{fused['failed_probe_runs']}; bin scans visited "
              f"{fused['scanned']}; {fused['total_seconds']:.3f}s")

    record = {
        "suite": "metahvp-per-strategy-engine",
        "engine": "per-strategy MetaProbeEngine: shared-probe factory + "
                  "adaptive strategy ordering + vectorized kernels",
        "instances": _public(sweep),
        "total_seconds": round(total, 3),
        "strategy_runs": total_runs,
        "fused": fused,
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
        if fused is not None and baseline.get("fused"):
            floor = MIN_CUT_SHARE * baseline["fused"]["cut_runs"]
            assert fused["cut_runs"] >= floor, (
                f"the waste cut fires less: {fused['cut_runs']} cut runs "
                f"vs committed baseline {baseline['fused']['cut_runs']} "
                f"(floor {floor:.0f})")
            ceiling = MAX_WORK_GROWTH * baseline["fused"]["scanned"]
            assert fused["scanned"] <= ceiling, (
                f"the bin scans stop later: {fused['scanned']} entries "
                f"and walk positions vs committed baseline "
                f"{baseline['fused']['scanned']} (ceiling {ceiling:.0f})")
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
