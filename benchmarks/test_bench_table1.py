"""Benchmark: Table 1 — pairwise (Y_{A,B}, S_{A,B}) comparisons (§5).

Regenerates the paper's Table 1 at reduced scale (the full grid is
36,900 instances per service count).  The qualitative shape to check in
the printed matrices: METAHVP ≥ METAVP ≥ METAGREEDY ≫ RRNZ on yield;
RRND's success column is the worst of all algorithms.
"""

import pytest

from repro.experiments import GridSpec, format_table1, table1_experiment

BENCH_GRID = GridSpec(
    hosts=12,
    services=(24, 48),
    cov_values=(0.0, 0.5, 1.0),
    slack_values=(0.5,),
    instances=3,
    seed=2012,
)

ALGORITHMS = ("RRND", "RRNZ", "METAGREEDY", "METAVP", "METAHVP")


@pytest.fixture(scope="module")
def table1_data():
    return table1_experiment(BENCH_GRID, ALGORITHMS).run(workers=1)


def test_table1(benchmark, table1_data, emit):
    """Times one grid cell end-to-end; prints the full reduced Table 1."""
    single_cell = GridSpec(
        hosts=BENCH_GRID.hosts, services=(24,), cov_values=(0.5,),
        slack_values=(0.5,), instances=1, seed=2012)
    benchmark.pedantic(
        table1_experiment(single_cell, ALGORITHMS).run,
        kwargs={"workers": 1}, rounds=1, iterations=1)
    emit("table1", format_table1(table1_data))


def test_table1_shape(table1_data):
    """The paper's dominance ordering must hold on common solves."""
    for J, matrix in table1_data.matrices.items():
        hvp_vs_vp = matrix[("METAHVP", "METAVP")]
        if hvp_vs_vp.both_succeed:
            assert hvp_vs_vp.yield_gain_pct >= -1.0  # never meaningfully worse
        vp_vs_greedy = matrix[("METAVP", "METAGREEDY")]
        if vp_vs_greedy.both_succeed:
            assert vp_vs_greedy.yield_gain_pct > 0.0
        greedy_vs_rrnz = matrix[("METAGREEDY", "RRNZ")]
        if greedy_vs_rrnz.both_succeed:
            assert greedy_vs_rrnz.yield_gain_pct > 0.0
