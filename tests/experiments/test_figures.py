"""Integration tests for the CoV and error figure drivers (smoke scale)."""

import os

import pytest

from repro.experiments import (
    CovFigureSpec,
    ErrorFigureSpec,
    cov_figure_experiment,
    error_figure_experiment,
    format_cov_figure,
    format_error_figure,
)

SMOKE_COV = CovFigureSpec(
    hosts=8, services=20, slack=0.5, instances=2,
    cov_values=(0.0, 0.5, 1.0),
    competitors=("METAGREEDY", "METAVP"),
    seed=7,
)

SMOKE_ERROR = ErrorFigureSpec(
    hosts=8, services=20, slack=0.5, cov=0.5,
    error_values=(0.0, 0.1, 0.2),
    thresholds=(0.0, 0.1),
    instances=2, placer="METAHVPLIGHT", seed=7,
)


class TestCovFigure:
    def test_runs_and_structures(self):
        data = cov_figure_experiment(SMOKE_COV).run(workers=1)
        assert set(data.points) == {"METAGREEDY", "METAVP"}
        for pts in data.points.values():
            for cov, diff in pts:
                assert cov in SMOKE_COV.cov_values
                assert -1.0 <= diff <= 1.0

    def test_metavp_never_beats_metahvp_meaningfully(self):
        """§5: points below -0.002 vs METAHVP should be essentially absent
        for METAVP (METAHVP's strategy set is a superset at equal yields up
        to binary-search discretization)."""
        data = cov_figure_experiment(SMOKE_COV).run(workers=1)
        for cov, diff in data.points.get("METAVP", ()):
            assert diff <= 0.01

    def test_averages_consistent_with_points(self):
        data = cov_figure_experiment(SMOKE_COV).run(workers=1)
        for algo, avg in data.averages.items():
            for cov, value in avg.items():
                pts = [d for c, d in data.points[algo] if c == cov]
                assert value == pytest.approx(sum(pts) / len(pts))

    def test_format_and_csv(self, tmp_path):
        data = cov_figure_experiment(SMOKE_COV).run(workers=1)
        text = format_cov_figure(data)
        assert "Min-yield difference" in text
        csv_path = os.path.join(tmp_path, "fig.csv")
        data.to_csv(csv_path)
        assert os.path.exists(csv_path)
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header == "algorithm,cov,yield_diff_vs_metahvp"

    def test_homogeneous_variant_runs(self):
        import dataclasses
        spec = dataclasses.replace(SMOKE_COV, cpu_homogeneous=True,
                                   cov_values=(0.0, 1.0))
        data = cov_figure_experiment(spec).run(workers=1)
        assert data.spec.cpu_homogeneous


class TestErrorFigure:
    def test_runs_and_has_all_series(self):
        data = error_figure_experiment(SMOKE_ERROR).run(workers=1)
        assert data.solved_instances >= 1
        assert "ideal" in data.series
        assert "zero-knowledge" in data.series
        assert "weight, min=0.00" in data.series
        assert "equal, min=0.10" in data.series

    def test_ideal_is_error_independent(self):
        data = error_figure_experiment(SMOKE_ERROR).run(workers=1)
        values = set(round(v, 9) for v in data.series["ideal"].values())
        assert len(values) == 1

    def test_zero_error_weight_matches_ideal(self):
        """With no error and no threshold, ALLOCWEIGHTS realizes the
        perfect-knowledge placement's yield (up to sharing epsilon)."""
        data = error_figure_experiment(SMOKE_ERROR).run(workers=1)
        ideal = next(iter(data.series["ideal"].values()))
        weight0 = data.series["weight, min=0.00"].get(0.0)
        assert weight0 is not None
        assert weight0 >= ideal - 0.02

    def test_yields_within_unit_interval(self):
        data = error_figure_experiment(SMOKE_ERROR).run(workers=1)
        for curve in data.series.values():
            for v in curve.values():
                assert -1e-9 <= v <= 1.0 + 1e-9

    def test_caps_series_optional(self):
        import dataclasses
        spec = dataclasses.replace(SMOKE_ERROR, include_caps=True,
                                   error_values=(0.0, 0.2))
        data = error_figure_experiment(spec).run(workers=1)
        assert "caps, min=0.00" in data.series

    def test_format_and_csv(self, tmp_path):
        data = error_figure_experiment(SMOKE_ERROR).run(workers=1)
        text = format_error_figure(data)
        assert "Min actual yield vs max error" in text
        csv_path = os.path.join(tmp_path, "err.csv")
        data.to_csv(csv_path)
        with open(csv_path) as fh:
            assert fh.readline().strip() == "series,max_error,avg_min_yield"
