"""Benchmark: §5.1 — METAHVPLIGHT vs METAHVP.

The paper's claims: METAHVPLIGHT is ≈10× faster while solving essentially
the same instances at essentially the same average minimum yield (same
100-service set; 21 fewer of 30k+ 250-service instances; identical
500-service set and identical 0.897 average yield).  The yields hold here;
the speed-up does not: at 64 hosts and 100, 250 and 500 services LIGHT is
2.6-2.9× faster (2.6, 5.9 and 10.2 ms against 7.4, 15.2 and 26.4 ms, cold
solves, ``native``).
"""

import numpy as np
import pytest

from repro.algorithms import metahvp, metahvp_light
from repro.experiments.report import format_table
from repro.workloads import ScenarioConfig, generate_instance

INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=idx)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
    for idx in range(2)
]


@pytest.fixture(scope="module")
def solved():
    """Solve every instance with both algorithms once."""
    import time
    rows = []
    for cfg in INSTANCES:
        inst = generate_instance(cfg)
        out = {}
        for algo in (metahvp(), metahvp_light()):
            t0 = time.perf_counter()
            alloc = algo(inst)
            out[algo.name] = (
                None if alloc is None else alloc.minimum_yield(),
                time.perf_counter() - t0)
        rows.append((cfg, out))
    return rows


def test_light_runtime(benchmark):
    inst = generate_instance(INSTANCES[0])
    benchmark.pedantic(metahvp_light(), args=(inst,), rounds=1, iterations=1)


def test_full_runtime(benchmark):
    inst = generate_instance(INSTANCES[0])
    benchmark.pedantic(metahvp(), args=(inst,), rounds=1, iterations=1)


def test_light_vs_full_report(solved, emit):
    table_rows = []
    speedups = []
    for cfg, out in solved:
        full_y, full_t = out["METAHVP"]
        light_y, light_t = out["METAHVPLIGHT"]
        if light_t > 0:
            speedups.append(full_t / light_t)
        table_rows.append((
            cfg.label(),
            "-" if full_y is None else f"{full_y:.4f}",
            "-" if light_y is None else f"{light_y:.4f}",
            f"{full_t:.2f}s", f"{light_t:.2f}s"))
    text = format_table(
        ("instance", "METAHVP yield", "LIGHT yield", "METAHVP t", "LIGHT t"),
        table_rows,
        title="§5.1: METAHVP vs METAHVPLIGHT (quality parity, 2.6-2.9x "
              "runtime gap at paper scale)")
    emit("light_vs_full", text)

    # Quality parity: identical success pattern and near-identical yields.
    for cfg, out in solved:
        full_y, _ = out["METAHVP"]
        light_y, _ = out["METAHVPLIGHT"]
        assert (full_y is None) == (light_y is None)
        if full_y is not None:
            assert abs(full_y - light_y) < 0.02
    # Runtime: LIGHT strictly faster on average (2.6-2.9× at paper scale;
    # reduced instances still show a clear gap).
    assert np.mean(speedups) > 1.5
