"""Integration tests: runner, Table 1 / Table 2 drivers, report rendering.

These use SMOKE-scale grids (8 hosts, 16 services) so the full pipeline
runs in seconds while still exercising every code path.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.vector_packing import (
    MetaSolver,
    hvp_strategies,
    vp_strategies,
)
from repro.experiments import (
    QUICK_GRID,
    SMOKE_GRID,
    GridSpec,
    format_table1,
    format_table2,
    run_grid,
    table1_experiment,
    table2_experiment,
)
from repro.experiments.persistence import load_results
from repro.experiments.runner import ALGORITHM_FACTORIES, make_algorithms
from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS

FAST_ALGOS = ("METAGREEDY", "METAVP", "METAHVPLIGHT")


class TestGridSpec:
    def test_paper_grid_dimensions(self):
        from repro.experiments import PAPER_GRID
        assert PAPER_GRID.hosts == 64
        assert PAPER_GRID.services == (100, 250, 500)
        assert len(PAPER_GRID.cov_values) == 41  # 0 to 1 step 0.025
        assert len(PAPER_GRID.slack_values) == 9  # 0.1 to 0.9 step 0.1
        assert PAPER_GRID.instances == 100
        # 3 * 41 * 9 * 100 = 110,700 instances; 12,300 base per the paper
        # counting (cov, instance) pairs: 41 * 100 * 3 = 12,300.
        assert len(PAPER_GRID.cov_values) * PAPER_GRID.instances * 3 == 12300

    def test_configs_enumeration(self):
        grid = GridSpec(hosts=4, services=(8,), cov_values=(0.0, 0.5),
                        slack_values=(0.5,), instances=3)
        configs = list(grid.configs())
        assert len(configs) == 6
        assert {c.cov for c in configs} == {0.0, 0.5}

    def test_configs_filter_by_services(self):
        grid = GridSpec(services=(8, 16), cov_values=(0.0,),
                        slack_values=(0.5,), instances=1)
        assert len(list(grid.configs(services=8))) == 1


class TestRunner:
    def test_make_algorithms_validates(self):
        with pytest.raises(KeyError):
            make_algorithms(["NOPE"])
        algos = make_algorithms(["METAVP", "RRNZ"])
        assert [a.name for a in algos] == ["METAVP", "RRNZ"]

    def test_registry_covers_paper_algorithms(self):
        paper = {"RRND", "RRNZ", "METAGREEDY", "METAVP", "METAHVP",
                 "METAHVPLIGHT"}
        assert paper <= set(ALGORITHM_FACTORIES)
        # Extra baselines beyond the paper:
        assert {"RANDOM", "MILP"} <= set(ALGORITHM_FACTORIES)

    def test_run_grid_smoke(self):
        results = run_grid(SMOKE_GRID.configs(), FAST_ALGOS, workers=1)
        assert len(results) == 4  # 2 cov * 1 slack * 2 instances
        for task in results:
            assert {r.algorithm for r in task.results} == set(FAST_ALGOS)
            for r in task.results:
                assert r.seconds >= 0.0
                if r.min_yield is not None:
                    assert 0.0 <= r.min_yield <= 1.0

    def test_run_grid_deterministic(self):
        a = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        b = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        for ta, tb in zip(a, b):
            assert ta.by_algorithm()["METAGREEDY"].min_yield == \
                tb.by_algorithm()["METAGREEDY"].min_yield

    def test_parallel_matches_serial(self):
        serial = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        parallel = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=2)
        for ts, tp in zip(serial, parallel):
            assert ts.by_algorithm()["METAGREEDY"].min_yield == \
                tp.by_algorithm()["METAGREEDY"].min_yield

    def test_grid_tasks_are_not_batched(self):
        with pytest.raises(ValueError, match="batch must be 1"):
            run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1,
                     batch=2)
        assert len(run_grid(SMOKE_GRID.configs(), ("METAGREEDY",),
                            workers=1, batch=1)) == 4


class TestWarmChain:
    """A warm-chain task seeds each META* search with the best yield an
    earlier META* search certified on the same instance, and with nothing
    else: the rounding and greedy baselines' post-improve yields are not
    certified, and the META* oracle is not monotone."""

    def test_hints_are_certified_yields(self, monkeypatch):
        calls = []
        real = MetaSolver.solve_with_hint

        def recording(self, instance, hint=None, stats=None):
            alloc = real(self, instance, hint=hint, stats=stats)
            calls.append((len(self.strategies), hint, stats["certified"]))
            return alloc

        monkeypatch.setattr(MetaSolver, "solve_with_hint", recording)
        config = next(SMOKE_GRID.configs())
        (task,) = run_grid([config], DEFAULT_TABLE1_ALGORITHMS, workers=1)
        assert [r.algorithm for r in task.results] == \
            list(DEFAULT_TABLE1_ALGORITHMS)
        # The baselines succeed here, so each offered a yield to chain.
        assert all(r.min_yield is not None for r in task.results)
        vp, hvp = calls
        assert vp[:2] == (len(vp_strategies()), None)
        assert vp[2] is not None
        assert hvp[:2] == (len(hvp_strategies()), vp[2])

    @pytest.mark.parametrize("seed, cov, slack, index, metavp", [
        (2012, 1.0, 0.5, 3, 0.5009),
        (1, 0.5, 0.3, 0, 0.4350),
    ])
    def test_metavp_rows_are_their_cold_solves(self, seed, cov, slack,
                                               index, metavp):
        """Two quick-grid instances where a METAVP search seeded with a
        baseline's post-improve yield certified another yield than the
        cold search (0.4610 and 0.5353)."""
        grid = dataclasses.replace(QUICK_GRID, seed=seed, services=(30,),
                                   cov_values=(cov,), slack_values=(slack,))
        config = [c for c in grid.configs() if c.instance_index == index]
        (warm,) = run_grid(config, DEFAULT_TABLE1_ALGORITHMS, workers=1)
        (cold,) = run_grid(config, DEFAULT_TABLE1_ALGORITHMS, workers=1,
                           warm_chain=False)
        row = warm.by_algorithm()["METAVP"].min_yield
        assert row == cold.by_algorithm()["METAVP"].min_yield
        assert row == pytest.approx(metavp, abs=5e-5)


class TestTable1:
    def test_smoke_table1(self):
        data = table1_experiment(SMOKE_GRID, FAST_ALGOS).run(workers=1)
        assert data.algorithms == FAST_ALGOS
        assert set(data.matrices) == {16}
        matrix = data.matrices[16]
        assert len(matrix) == len(FAST_ALGOS) * (len(FAST_ALGOS) - 1)
        # METAHVPLIGHT's yield should be >= METAGREEDY's on common solves.
        cmp = matrix[("METAHVPLIGHT", "METAGREEDY")]
        if cmp.both_succeed:
            assert cmp.yield_gain_pct >= 0.0

    def test_format_table1_renders(self):
        data = table1_experiment(SMOKE_GRID, FAST_ALGOS).run(workers=1)
        text = format_table1(data)
        assert "16 services" in text
        for algo in FAST_ALGOS:
            assert algo in text


class TestTable2:
    def test_smoke_table2(self):
        data = table2_experiment(SMOKE_GRID, FAST_ALGOS).run(workers=1)
        means = data.mean_seconds[16]
        assert set(means) == set(FAST_ALGOS)
        assert all(v >= 0 for v in means.values())

    def test_table2_from_results_reuses_runs(self, tmp_path):
        """Table 2 reads its times off a Table 1 checkpoint of the same
        algorithms: both specs key a task by its cell and algorithm set,
        so ``collect`` needs no new run."""
        path = str(tmp_path / "table1.jsonl")
        table1_experiment(SMOKE_GRID, FAST_ALGOS).run(workers=1,
                                                      checkpoint=path)
        data = table2_experiment(SMOKE_GRID, FAST_ALGOS).collect([path])
        tasks = load_results(path)
        assert data.instance_counts == {16: len(tasks)}
        for algo in FAST_ALGOS:
            seconds = [t.by_algorithm()[algo].seconds for t in tasks]
            assert data.mean_seconds[16][algo] == \
                pytest.approx(np.mean(seconds), rel=1e-12)

    def test_format_table2_renders(self):
        data = table2_experiment(SMOKE_GRID, FAST_ALGOS).run(workers=1)
        text = format_table2(data)
        assert "16 tasks" in text
        assert "METAVP" in text
