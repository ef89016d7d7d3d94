"""Benchmark: the CoV figure family — Figures 2-4 (headline) and 8-34.

Each figure plots per-instance minimum-yield difference from METAHVP
against platform CoV.  Shape to check in the printed series: METAVP's
average difference ≈ 0 at CoV 0 and drifts negative as CoV grows;
METAGREEDY sits clearly below; RRNZ far below; no competitor average goes
meaningfully above zero.
"""

import dataclasses

import pytest

from repro.experiments import (
    CovFigureSpec,
    cov_figure_experiment,
    format_cov_figure,
)

# Reduced headline spec (paper: 64 hosts, 500 services, 100 instances/CoV).
FIG2_SPEC = CovFigureSpec(
    hosts=12, services=48, slack=0.4, instances=2,
    cov_values=(0.0, 0.2, 0.4, 0.6, 0.8),
    competitors=("RRNZ", "METAGREEDY", "METAVP"),
    seed=2012,
)


def _run_and_emit(benchmark, emit, spec, name):
    data = benchmark.pedantic(cov_figure_experiment(spec).run,
                              kwargs={"workers": 1}, rounds=1, iterations=1)
    emit(name, format_cov_figure(data))
    return data


def test_fig2(benchmark, emit):
    """Figure 2: fully heterogeneous platform."""
    data = _run_and_emit(benchmark, emit, FIG2_SPEC, "fig2_cov")
    # METAVP never meaningfully beats METAHVP (superset strategy pool).
    for _, diff in data.points.get("METAVP", ()):
        assert diff <= 0.01


def test_fig3(benchmark, emit):
    """Figure 3: CPU held homogeneous."""
    spec = dataclasses.replace(FIG2_SPEC, cpu_homogeneous=True)
    _run_and_emit(benchmark, emit, spec, "fig3_cov_cpu_homogeneous")


def test_fig4(benchmark, emit):
    """Figure 4: memory held homogeneous."""
    spec = dataclasses.replace(FIG2_SPEC, mem_homogeneous=True)
    _run_and_emit(benchmark, emit, spec, "fig4_cov_mem_homogeneous")


@pytest.mark.parametrize("services,slack,figure", [
    (24, 0.3, "fig_family_100_low_slack"),    # Figs 8-16 analogue
    (48, 0.5, "fig_family_250_mid_slack"),    # Figs 17-25 analogue
    (72, 0.7, "fig_family_500_high_slack"),   # Figs 26-34 analogue
])
def test_fig_family(benchmark, emit, services, slack, figure):
    """Figures 8-34: the same figure at other (services, slack) cells.

    The paper's 27 additional graphs are this parameterization swept over
    services ∈ {100, 250, 500} × slack 0.1-0.9; we bench one cell per
    service tier.
    """
    spec = dataclasses.replace(
        FIG2_SPEC, services=services, slack=slack,
        cov_values=(0.0, 0.4, 0.8), instances=2)
    _run_and_emit(benchmark, emit, spec, figure)
