"""The model goes to HiGHS as ``scipy.optimize.milp`` passed it.

``build_formulation`` builds the CSC model directly; on a slice of the
quick grid, hand-built tiny instances and one D = 1 and one D = 3
instance, its arrays must equal, element for element, the ones ``milp``'s
input validation makes from the ``scipy.sparse`` model in
``sparse_reference``.  ``solve_relaxation`` and ``solve_exact`` must
return ``milp``'s solution vector bit for bit, set the options ``milp``
sets, and turn every HiGHS model status into the outcome ``milp`` gave.
A scipy upgrade that moves either side fails here.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core import Node, ProblemInstance, Service
from repro.core.exceptions import InfeasibleProblemError, SolverError
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.experiments.config import QUICK_GRID
from repro.lp import formulation, solve_exact, solve_relaxation, solver
from repro.lp.formulation import build_formulation
from repro.workloads import ScenarioConfig, generate_instance
from tests.lp.sparse_reference import milp_arrays, milp_result

highs_core = solver.highs_core
Status = highs_core.HighsModelStatus


def random_instance(D, J=12, H=4, seed=5):
    """Capacities, requirements and needs at random; the last dimension
    has no needs (explicit zeros in the matrix), and some requirements
    fit no node or only some (forbidden pairs, pruned Eq. 5 rows)."""
    rng = np.random.default_rng(seed)
    elem = rng.uniform(0.3, 1.0, (H, D))
    cores = rng.integers(1, 5, (H, 1))
    req = rng.uniform(0.0, 0.35, (J, D))
    need = rng.uniform(0.0, 0.9, (J, D))
    need[:, -1] = 0.0
    return ProblemInstance(
        NodeArray.from_arrays(elem, elem * cores),
        ServiceArray.from_arrays(req, req * 2, need, need * 2))


def tiny_instances():
    a = Node.multicore(4, 0.8, 1.0)
    b = Node.multicore(2, 1.0, 0.5)
    figure1 = Service.from_vectors([0.5, 0.5], [1.0, 0.5], [0.5, 0.0],
                                   [1.0, 0.0])
    small = Service.from_vectors([0.1, 0.1], [0.2, 0.1], [0.1, 0.0],
                                 [0.2, 0.0])
    big = Service.from_vectors([0.9, 0.1], [0.9, 0.1], [0.1, 0.0],
                               [0.1, 0.0])
    req = np.array([[0.2, 0.2], [1.2, 1.2]])
    agg = np.array([[1.0, 1.0], [1.5, 0.5]])
    return {
        "figure1": ProblemInstance([a, b], [figure1]),
        "two-services": ProblemInstance([a, b], [figure1, small]),
        "forbidden-pair": ProblemInstance(
            [Node.multicore(1, 0.5, 0.5), Node.multicore(2, 1.0, 1.0)],
            [big]),
        "infeasible": ProblemInstance(
            NodeArray.from_arrays(agg, agg),
            ServiceArray.from_arrays(req, req, req, req)),
        "no-services": ProblemInstance(
            NodeArray.from_arrays(agg, agg),
            ServiceArray.from_arrays(*[np.zeros((0, 2))] * 4)),
    }


def model_instances():
    out = {f"quick-{c.services}x{c.hosts}-cov{c.cov}": generate_instance(c)
           for c in QUICK_GRID.configs()
           if c.slack == 0.5 and c.instance_index == 0}
    out.update(tiny_instances())
    out["D1"] = random_instance(1)
    out["D3"] = random_instance(3)
    return out


INSTANCES = model_instances()
IDS = list(INSTANCES)


def x_of(solution):
    return np.concatenate([solution.e.ravel(), solution.y.ravel(),
                           [solution.min_yield]])


def test_the_slice_covers_what_it_claims():
    assert len([k for k in IDS if k.startswith("quick-")]) == 10
    dims = {inst.dims for inst in INSTANCES.values()}
    assert dims == {1, 2, 3}
    forms = [build_formulation(inst) for inst in INSTANCES.values()]
    assert any(f.forbidden.any() for f in forms)
    assert any((f.a_value == 0.0).any() for f in forms)
    # Eq. 5 rows kept, and Eq. 5 rows pruned.
    kept, pruned = [], []
    for f in forms:
        J, H, D = f.instance.num_services, f.instance.num_nodes, f.instance.dims
        n_elem = f.num_rows - (2 * J + J * H + H * D)
        kept.append(n_elem > 0)
        pruned.append(n_elem < J * H * D)
    assert any(kept) and any(pruned)


@pytest.mark.parametrize("integral", [False, True])
@pytest.mark.parametrize("name", IDS)
def test_arrays_equal_milps(name, integral):
    instance = INSTANCES[name]
    form = build_formulation(instance, integral=integral)
    assert form.a_start.dtype == form.a_index.dtype == np.int32
    assert form.integrality.dtype == np.int32
    for field, expected in milp_arrays(instance, integral).items():
        got = getattr(form, field)
        assert got.shape == expected.shape, field
        assert got.tobytes() == np.asarray(expected, got.dtype).tobytes(), \
            field


@pytest.mark.parametrize("name", IDS)
def test_relaxation_is_milps_vertex(name):
    instance = INSTANCES[name]
    expected = milp_result(instance, integral=False)
    if expected.status == 2:
        with pytest.raises(InfeasibleProblemError):
            solve_relaxation(instance)
        return
    assert x_of(solve_relaxation(instance)).tobytes() == expected.x.tobytes()


@pytest.mark.parametrize("index", range(3))
def test_exact_is_milps_solution(index):
    instance = generate_instance(ScenarioConfig(
        hosts=4, services=10, cov=0.5, slack=0.5, seed=3,
        instance_index=index))
    expected = milp_result(instance, integral=True, time_limit=10)
    solution = solve_exact(instance, time_limit=10)
    assert x_of(solution).tobytes() == expected.x.tobytes()


# -- options ------------------------------------------------------------


@pytest.fixture
def option_calls(monkeypatch):
    calls = []

    class Recording(highs_core._Highs):
        def setOptionValue(self, name, value):
            calls.append((name, value))
            return super().setOptionValue(name, value)

    monkeypatch.setattr(highs_core, "_Highs", Recording)
    return calls


def test_the_relaxation_only_silences_the_log(option_calls):
    solve_relaxation(INSTANCES["two-services"])
    assert option_calls == [("log_to_console", False)]


def test_the_milp_passes_its_limits(option_calls):
    solve_exact(INSTANCES["two-services"], time_limit=5, mip_rel_gap=0.01)
    assert option_calls == [("log_to_console", False), ("time_limit", 5.0),
                            ("mip_rel_gap", 0.01)]


def test_a_refused_option_is_an_error():
    with pytest.raises(ValueError, match="time_limit"):
        solve_exact(INSTANCES["two-services"], time_limit=-1)


# -- model statuses -----------------------------------------------------

INFEASIBLE, ERROR, SOLVED = "infeasible", "error", "solved"

#: Each HiGHS model status → the outcome of an LP, of a MILP whose
#: objective is finite (an incumbent exists), and of one whose objective
#: is infinite.
OUTCOMES = {
    Status.kNotset: (ERROR, ERROR, ERROR),
    Status.kLoadError: (ERROR, ERROR, ERROR),
    Status.kModelError: (ERROR, ERROR, ERROR),
    Status.kPresolveError: (ERROR, ERROR, ERROR),
    Status.kSolveError: (ERROR, ERROR, ERROR),
    Status.kPostsolveError: (ERROR, ERROR, ERROR),
    Status.kModelEmpty: (ERROR, ERROR, ERROR),
    Status.kOptimal: (SOLVED, SOLVED, SOLVED),
    Status.kInfeasible: (INFEASIBLE, INFEASIBLE, INFEASIBLE),
    Status.kUnboundedOrInfeasible: (ERROR, ERROR, ERROR),
    Status.kUnbounded: (ERROR, ERROR, ERROR),
    Status.kObjectiveBound: (ERROR, ERROR, ERROR),
    Status.kObjectiveTarget: (ERROR, ERROR, ERROR),
    Status.kTimeLimit: (ERROR, SOLVED, ERROR),
    Status.kIterationLimit: (ERROR, SOLVED, ERROR),
    Status.kUnknown: (ERROR, ERROR, ERROR),
    Status.kSolutionLimit: (ERROR, SOLVED, ERROR),
    Status.kInterrupt: (ERROR, ERROR, ERROR),
    Status.kMemoryLimit: (ERROR, ERROR, ERROR),
    Status.kHighsInterrupt: (ERROR, ERROR, ERROR),
}

#: Where ``milp`` differed: it reported a model HiGHS could not load as
#: infeasible (its status 2).  A load error is a fault in the model, not
#: an infeasibility, so it is a :class:`SolverError` here.
MILP_DIFFERS = {Status.kModelError: (INFEASIBLE, INFEASIBLE, INFEASIBLE)}

CASES = [(False, None), (True, None), (True, highs_core.kHighsInf)]


def forcing(status, objective):
    """A HiGHS that solves, then reports *status* and, unless None,
    *objective* as its objective value."""

    class Forced(highs_core._Highs):
        def getModelStatus(self):
            return status

        def getInfo(self):
            info = super().getInfo()
            if objective is not None:
                info.objective_function_value = objective
            return info

    return Forced


def outcome(call):
    try:
        call()
    except InfeasibleProblemError:
        return INFEASIBLE
    except SolverError:
        return ERROR
    return SOLVED


def milp_outcome(instance, integral):
    """What the ``milp`` path made of its result: status 2 raised
    :class:`InfeasibleProblemError`, a missing ``x`` :class:`SolverError`."""
    res = milp_result(instance, integral)
    if res.status == 2:
        return INFEASIBLE
    return ERROR if res.x is None else SOLVED


def test_the_table_names_every_status():
    assert set(OUTCOMES) == set(Status.__members__.values())


@pytest.mark.parametrize("status", list(OUTCOMES), ids=lambda s: s.name)
def test_each_status_maps_to_milps_outcome(monkeypatch, status):
    instance = INSTANCES["two-services"]
    expected = OUTCOMES[status]
    with_milp = MILP_DIFFERS.get(status, expected)
    for case, (integral, objective) in enumerate(CASES):
        monkeypatch.setattr(highs_core, "_Highs", forcing(status, objective))
        got = outcome(lambda: solver._run(instance, integral, None, None))
        assert got == expected[case], (status, integral, objective)
        assert milp_outcome(instance, integral) == with_milp[case]


class _Refusing(highs_core._Highs):
    def passModel(self, *args):
        return highs_core.HighsStatus.kError


class _Failing(highs_core._Highs):
    def run(self):
        return highs_core.HighsStatus.kError

    def getSolution(self):  # pragma: no cover - must not be reached
        raise AssertionError("read a failed run's solution")


@pytest.mark.parametrize("highs", [_Refusing, _Failing])
def test_a_refused_model_or_failed_run_is_a_solver_error(monkeypatch, highs):
    monkeypatch.setattr(highs_core, "_Highs", highs)
    with pytest.raises(SolverError, match="HiGHS"):
        solve_relaxation(INSTANCES["two-services"])


def test_a_model_too_large_for_highs_is_refused_first(monkeypatch):
    def never():  # pragma: no cover - must not be reached
        raise AssertionError("HiGHS was called")

    instance = INSTANCES["two-services"]
    nnz = build_formulation(instance).a_value.size
    monkeypatch.setattr(highs_core, "_Highs", never)
    monkeypatch.setattr(formulation, "MAX_HIGHS_INDEX", nnz - 1)
    with pytest.raises(SolverError, match=f"{nnz} nonzeros"):
        solve_relaxation(instance)
    monkeypatch.setattr(formulation, "MAX_HIGHS_INDEX", nnz)
    build_formulation(instance)


def test_the_package_has_one_lp_path():
    """Nothing in ``src/repro`` builds or solves the model through
    ``milp``'s ``scipy.sparse`` interface."""
    banned = {"scipy.sparse", "scipy.optimize.milp",
              "scipy.optimize.LinearConstraint", "scipy.optimize.Bounds"}
    src = Path(solver.__file__).resolve().parents[1]
    found = []
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(src)}: {name}" for name in names
                      if any(name == b or name.startswith(b + ".")
                             for b in banned)]
    assert found == []
