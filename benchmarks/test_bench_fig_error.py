"""Benchmark: the error figure family — Figures 5-7 (headline) and 35-66.

Each figure plots average minimum *actual* yield against the maximum
CPU-need estimation error, for eight series: ideal, zero-knowledge, and
ALLOCWEIGHTS / EQUALWEIGHTS at thresholds 0 / 0.1 / 0.3.  Shape to check:
ideal flat on top; mitigated curves between ideal and zero-knowledge over
a wide error range; larger thresholds flatten the curves while lowering
their zero-error value.
"""

import dataclasses

import pytest

from repro.experiments import (
    ErrorFigureSpec,
    error_figure_experiment,
    format_error_figure,
)

# Reduced headline spec (paper: 64 hosts, 100/250/500 services, slack 0.4,
# CoV 0.5, errors 0-0.3 step 0.02).
FIG5_SPEC = ErrorFigureSpec(
    hosts=12, services=36, slack=0.4, cov=0.5,
    error_values=(0.0, 0.05, 0.1, 0.2, 0.3),
    thresholds=(0.0, 0.1, 0.3),
    instances=2, placer="METAHVPLIGHT", seed=2012,
)


def _run_and_emit(benchmark, emit, spec, name):
    data = benchmark.pedantic(error_figure_experiment(spec).run,
                              kwargs={"workers": 1}, rounds=1, iterations=1)
    emit(name, format_error_figure(data))
    return data


def test_fig5(benchmark, emit):
    """Figure 5 analogue (small service count)."""
    data = _run_and_emit(benchmark, emit, FIG5_SPEC, "fig5_error")
    assert data.solved_instances >= 1
    ideal = list(data.series["ideal"].values())
    assert max(ideal) - min(ideal) < 1e-9  # error-independent
    # Ideal dominates every estimate-driven series at every error level.
    for name, curve in data.series.items():
        if name == "ideal":
            continue
        for err, value in curve.items():
            assert value <= data.series["ideal"][err] + 0.02


def test_fig6(benchmark, emit):
    """Figure 6 analogue (mid service count)."""
    spec = dataclasses.replace(FIG5_SPEC, services=48)
    _run_and_emit(benchmark, emit, spec, "fig6_error")


def test_fig7(benchmark, emit):
    """Figure 7 analogue (large service count)."""
    spec = dataclasses.replace(FIG5_SPEC, services=60)
    _run_and_emit(benchmark, emit, spec, "fig7_error")


@pytest.mark.parametrize("slack,cov,figure", [
    (0.2, 0.0, "fig_error_family_slack02_cov0"),   # Figs 35-42 analogue
    (0.6, 0.5, "fig_error_family_slack06_cov05"),  # Figs 43-54 analogue
    (0.8, 1.0, "fig_error_family_slack08_cov1"),   # Figs 55-66 analogue
])
def test_fig_error_family(benchmark, emit, slack, cov, figure):
    """Figures 35-66: the same figure swept over slack × CoV cells."""
    spec = dataclasses.replace(
        FIG5_SPEC, slack=slack, cov=cov,
        error_values=(0.0, 0.1, 0.3), instances=2)
    _run_and_emit(benchmark, emit, spec, figure)


def test_alloccaps_collapse(benchmark, emit):
    """§6.2's ALLOCCAPS observation: with errors well above the mean need,
    hard caps underperform the work-conserving policies."""
    spec = dataclasses.replace(
        FIG5_SPEC, include_caps=True, thresholds=(0.0,),
        error_values=(0.0, 0.3), instances=3)
    data = benchmark.pedantic(error_figure_experiment(spec).run,
                              kwargs={"workers": 1}, rounds=1, iterations=1)
    emit("fig_error_alloccaps", format_error_figure(data))
    caps = data.series.get("caps, min=0.00", {})
    weight = data.series.get("weight, min=0.00", {})
    if 0.3 in caps and 0.3 in weight:
        assert caps[0.3] <= weight[0.3] + 1e-9
