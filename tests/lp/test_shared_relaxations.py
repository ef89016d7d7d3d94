"""One LP relaxation per warm-chain task: RRND and RRNZ share it.

HiGHS solves are counted at the one ``run`` call in
``repro.lp.solver._run``, through a subclass of the HiGHS binding.  Inside a
warm-chain grid task both rounding algorithms round the same relaxation
(one solve per instance); cold tasks — the timing tables — still pay one
solve per rounding run.  Sharing changes no result.
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.algorithms import rrnd, rrnz
from repro.core import ProblemInstance
from repro.core.exceptions import InfeasibleProblemError
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.experiments import runner
from repro.experiments.runner import run_grid
from repro.lp import shared_relaxations, solve_relaxation, solver
from repro.lp.formulation import _forbidden_pairs
from repro.workloads import ScenarioConfig, generate_instance

ALGOS = ("RRND", "RRNZ", "METAGREEDY")

CONFIGS = [ScenarioConfig(hosts=6, services=12, cov=0.5, slack=slack,
                          seed=21, instance_index=i)
           for slack in (0.3, 0.6) for i in range(2)]


@pytest.fixture
def highs_calls(monkeypatch):
    calls = []

    class Counting(solver.highs_core._Highs):
        def run(self):
            calls.append(1)
            return super().run()

    monkeypatch.setattr(solver.highs_core, "_Highs", Counting)
    return calls


def _infeasible():
    """The second service's requirement fits no node."""
    agg = np.array([[1.0, 1.0], [1.5, 0.5]])
    req = np.array([[0.2, 0.2], [1.2, 1.2]])
    return ProblemInstance(NodeArray.from_arrays(agg, agg),
                           ServiceArray.from_arrays(req, req, req, req))


def _rows_without_seconds(path):
    rows = []
    for line in open(path):
        row = json.loads(line)
        for result in row.get("results", []):
            result.pop("seconds", None)
        rows.append(row)
    return rows


def test_warm_chain_task_solves_one_lp_per_instance(highs_calls):
    run_grid(CONFIGS, ALGOS, workers=1)
    assert len(highs_calls) == len(CONFIGS)


def test_cold_tasks_solve_one_lp_per_rounding(highs_calls):
    run_grid(CONFIGS, ALGOS, workers=1, warm_chain=False)
    assert len(highs_calls) == 2 * len(CONFIGS)


def test_infeasible_lp_is_solved_once(highs_calls):
    instance = _infeasible()
    with shared_relaxations():
        for _ in range(2):
            with pytest.raises(InfeasibleProblemError):
                solve_relaxation(instance)
        assert rrnd()(instance, rng=0) is None
        assert rrnz()(instance, rng=0) is None
    assert len(highs_calls) == 1


def test_memo_is_scoped_and_keyed_by_identity(highs_calls):
    a = generate_instance(CONFIGS[0])
    b = generate_instance(CONFIGS[0])  # equal, but another object
    with shared_relaxations():
        first = solve_relaxation(a)
        assert solve_relaxation(a) is first
        solve_relaxation(b)
    assert solve_relaxation(a) is not first
    assert len(highs_calls) == 3


def test_rows_identical_with_and_without_sharing(monkeypatch, tmp_path,
                                                 highs_calls):
    shared = str(tmp_path / "shared.jsonl")
    unshared = str(tmp_path / "unshared.jsonl")
    run_grid(CONFIGS, ALGOS, workers=1, checkpoint=shared)
    monkeypatch.setattr(runner, "shared_relaxations", nullcontext)
    run_grid(CONFIGS, ALGOS, workers=1, checkpoint=unshared)
    assert len(highs_calls) == 3 * len(CONFIGS)
    assert _rows_without_seconds(shared) == _rows_without_seconds(unshared)


def test_solution_carries_the_forbidden_mask():
    instance = generate_instance(CONFIGS[0])
    solution = solve_relaxation(instance)
    assert np.array_equal(solution.forbidden, _forbidden_pairs(instance))
