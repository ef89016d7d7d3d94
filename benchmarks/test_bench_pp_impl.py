"""Ablation benchmark: improved key-mapping PP vs the original D!-list
implementation (§3.5.2).

The paper replaces Leinberger et al.'s D!-list search with a direct key
mapping, reducing selection cost from O(D!) probes to an O(J·D) scan.
With D = 2 the asymptotic gap is modest but the constant-factor advantage
is already visible; the separate correctness test suite asserts both
produce identical placements.
"""

import numpy as np
import pytest

from repro.algorithms.vector_packing import (
    PackingState,
    permutation_pack,
    rank_from_order,
)
from repro.workloads import ScenarioConfig, generate_instance

from naive_pp import permutation_pack_naive


@pytest.fixture(scope="module")
def packing_inputs():
    inst = generate_instance(ScenarioConfig(
        hosts=16, services=96, cov=0.5, slack=0.6, seed=2012))
    rank = rank_from_order(np.arange(inst.num_services))
    bins = np.arange(inst.num_nodes)
    return inst, rank, bins


def test_pp_fast(benchmark, packing_inputs):
    inst, rank, bins = packing_inputs

    def run():
        state = PackingState(inst, 0.0)
        return permutation_pack(state, rank, bins)

    assert benchmark(run)


def test_pp_naive(benchmark, packing_inputs):
    inst, rank, bins = packing_inputs

    def run():
        state = PackingState(inst, 0.0)
        return permutation_pack_naive(state, rank, bins)

    assert benchmark(run)


def test_binary_search_tolerance_ablation(benchmark, emit, packing_inputs):
    """DESIGN.md ablation 2: sensitivity of runtime/quality to the
    binary-search threshold (paper default 1e-4), timed on the production
    METAHVPLIGHT solver."""
    import time
    from repro.algorithms.vector_packing import (
        MetaSolver,
        hvp_light_strategies,
    )

    inst, _, _ = packing_inputs
    rows = []
    for tol in (1e-2, 1e-3, 1e-4, 1e-5):
        solver = MetaSolver(hvp_light_strategies(), tolerance=tol)
        t0 = time.perf_counter()
        alloc = solver(inst)
        dt = time.perf_counter() - t0
        y = "-" if alloc is None else f"{alloc.minimum_yield():.5f}"
        rows.append((f"{tol:g}", y, f"{dt:.3f}s"))
    emit("tolerance_ablation", _format(rows))
    benchmark.pedantic(
        MetaSolver(hvp_light_strategies(), tolerance=1e-4), args=(inst,),
        rounds=1, iterations=1)


def _format(rows):
    from repro.experiments.report import format_table
    return format_table(("tolerance", "min yield", "time"), rows,
                        title="Binary-search tolerance ablation "
                              "(METAHVPLIGHT packer)")
