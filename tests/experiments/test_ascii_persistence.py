"""Tests for ASCII chart rendering and results persistence."""


import pytest

from repro.experiments import SMOKE_GRID, run_grid
from repro.experiments.ascii_plot import line_chart
from repro.experiments.persistence import (
    TASK_RECORDS,
    load_results,
    read_completed,
)

from .conftest import append_tasks


class TestLineChart:
    def test_renders_series_and_legend(self):
        chart = line_chart(
            {"ideal": {0.0: 0.8, 0.1: 0.8}, "noisy": {0.0: 0.7, 0.1: 0.4}},
            title="demo")
        assert "demo" in chart
        assert "legend:" in chart
        assert "o ideal" in chart
        assert "x noisy" in chart

    def test_empty_series(self):
        assert line_chart({}) == "(no data)"

    def test_single_point(self):
        chart = line_chart({"a": {0.5: 0.5}})
        assert "legend:" in chart

    def test_axis_labels_present(self):
        chart = line_chart({"a": {0.0: 0.0, 1.0: 1.0}}, x_label="error")
        assert "error" in chart
        assert "1.000" in chart


class TestPersistence:
    @pytest.fixture(scope="class")
    def results(self):
        return run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)

    def test_round_trip(self, results, tmp_path):
        path = str(tmp_path / "results.jsonl")
        append_tasks(path, results)
        loaded = load_results(path)
        assert len(loaded) == len(results)
        for a, b in zip(results, loaded):
            assert a.config == b.config
            assert a.results == b.results

    def test_append(self, results, tmp_path):
        path = str(tmp_path / "results.jsonl")
        append_tasks(path, results[:2])
        append_tasks(path, results[2:])
        assert len(load_results(path)) == len(results)

    def test_duplicates_read_once(self, results, tmp_path):
        path = str(tmp_path / "results.jsonl")
        append_tasks(path, results)
        append_tasks(path, results)
        assert len(load_results(path)) == 2 * len(results)
        assert list(read_completed([path], TASK_RECORDS).values()) == results

    def test_merge_first_wins(self, results, tmp_path):
        """Read together, checkpoint files merge with the first file
        listed winning each task they share."""
        from repro.experiments.runner import AlgorithmResult, TaskResult
        modified = [TaskResult(results[0].config,
                               (AlgorithmResult("METAGREEDY", 0.123, 0.0),))]
        fresh = str(tmp_path / "fresh.jsonl")
        stale = str(tmp_path / "stale.jsonl")
        append_tasks(fresh, modified)
        append_tasks(stale, results)
        merged = list(read_completed([fresh, stale], TASK_RECORDS).values())
        assert merged[0].results[0].min_yield == 0.123
        assert merged[1:] == results[1:]

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"v": 99, "config": {}, "results": []}\n')
        with pytest.raises(ValueError):
            load_results(path)

    def test_loaded_results_feed_metrics(self, results, tmp_path):
        """Persisted results drive the same Table-1 pipeline."""
        from repro.experiments.metrics import success_rate
        path = str(tmp_path / "results.jsonl")
        append_tasks(path, results)
        loaded = load_results(path)
        yields = [t.by_algorithm()["METAGREEDY"].min_yield for t in loaded]
        assert 0.0 <= success_rate(yields) <= 1.0
