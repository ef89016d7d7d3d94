"""The greedy scan kernel: one call runs METAGREEDY's 49 passes.

Every backend must return, pass for pass, the numpy reference's
placement and minimum yield *bit for bit*, and each yield must equal the
object model's ``Allocation.uniform(...).improve_yields().minimum_yield()``.
``loops`` (the uncompiled source) always runs; ``native`` wherever a C
compiler exists.

D = 1 is the case that needs numpy's summation order: a one-column
``sum(axis=0)`` is one contiguous run, which numpy adds pairwise (eight
accumulators once 8 or more elements remain) rather than in order, so a
node with 9 or more services exposes any kernel that sums sequentially.
The pickers' row sums (P2/P4/P6) follow the same rule at D >= 8.
"""

import numpy as np
import pytest

from repro import kernels
from repro.algorithms import greedy
from repro.algorithms.greedy import all_greedy_algorithms, metagreedy
from repro.core import ProblemInstance
from repro.core.allocation import Allocation
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels import _loops
from repro.workloads import ScenarioConfig, generate_instance

AVAILABILITY = kernels.available_backends()
AVAILABILITY["loops"] = None


def _backends():
    out = []
    for name in ("native", "loops"):
        reason = AVAILABILITY.get(name)
        marks = () if reason is None else (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


def synthetic(D, J, H, seed, scale=1.0, elem_scale=1.0):
    """An any-D instance; *scale* shrinks the aggregate capacities."""
    rng = np.random.default_rng(seed + 31 * D)
    agg = rng.uniform(3.0, 6.0, size=(H, D)) * scale
    nodes = NodeArray.from_arrays(agg * elem_scale, agg)
    req = rng.uniform(0.05, 0.6, size=(J, D))
    need = rng.uniform(0.0, 1.2, size=(J, D))
    return ProblemInstance(nodes, ServiceArray.from_arrays(req, req, need,
                                                           need))


def crowded_d1(J, seed=0):
    """D = 1: one big node that first-fit fills with every service, its
    aggregate capacity the binding constraint on their yield."""
    rng = np.random.default_rng(seed)
    agg = np.array([[J * 0.5], [0.5], [2.0]])
    nodes = NodeArray.from_arrays(agg, agg)
    req = rng.uniform(0.01, 0.4, size=(J, 1))
    need = rng.uniform(0.0, 1.5, size=(J, 1))
    return ProblemInstance(nodes, ServiceArray.from_arrays(req, req, need,
                                                           need))


def infeasible():
    """A service whose requirement fits no node: every pass fails."""
    agg = np.array([[1.0, 1.0], [1.5, 0.5]])
    req = np.array([[0.2, 0.2], [1.2, 1.2], [0.1, 0.1]])
    return ProblemInstance(NodeArray.from_arrays(agg, agg),
                           ServiceArray.from_arrays(req, req, req, req))


CASES = {
    "paper-d2-a": generate_instance(ScenarioConfig(
        hosts=6, services=16, cov=0.25, slack=0.4, seed=3)),
    "paper-d2-b": generate_instance(ScenarioConfig(
        hosts=6, services=16, cov=0.8, slack=0.6, seed=9)),
    "d1": synthetic(1, J=16, H=4, seed=1, scale=0.4),
    "d1-crowded": crowded_d1(J=14),
    "d2": synthetic(2, J=16, H=4, seed=2, scale=0.35),
    "d3": synthetic(3, J=14, H=4, seed=3, scale=0.33),
    "d5": synthetic(5, J=14, H=4, seed=5, scale=0.4),
    "d9": synthetic(9, J=12, H=3, seed=9, elem_scale=0.3),
    "infeasible": infeasible(),
}


def scan(instance, backend, passes=greedy._ALL_PASSES):
    with kernels.kernel_backend(backend):
        return kernels.get_backend().greedy_scan(
            greedy._scan_args(instance, passes))


@pytest.fixture(scope="module")
def reference():
    return {name: scan(inst, "numpy") for name, inst in CASES.items()}


def test_cases_cover_failures_and_crowded_nodes(reference):
    """The case list exercises what the scan must get right."""
    feasible = {name: int((ys > -np.inf).sum())
                for name, (_, ys) in reference.items()}
    assert feasible["infeasible"] == 0
    for name in ("d1", "d2", "d3", "d5"):
        assert 0 < feasible[name] < 49, feasible
    placements, ys = reference["d1-crowded"]
    most = max(np.bincount(row).max() for row, y in zip(placements, ys)
               if y > -np.inf)
    assert most >= 9
    assert {inst.dims for inst in CASES.values()} >= {1, 2, 3, 5, 9}


@pytest.mark.parametrize("name", list(CASES))
def test_yields_equal_the_object_model(reference, name):
    instance = CASES[name]
    placements, ys = reference[name]
    for placement, y in zip(placements, ys):
        if y == -np.inf:
            assert (placement == -1).all()
            continue
        alloc = Allocation.uniform(instance, placement, 0.0).improve_yields()
        assert alloc.minimum_yield() == y


@pytest.mark.parametrize("backend", _backends())
class TestBackendsMatchNumpy:
    def test_every_pass(self, backend, reference):
        for name, instance in CASES.items():
            placements, ys = scan(instance, backend)
            ref_placements, ref_ys = reference[name]
            assert np.array_equal(placements, ref_placements), name
            assert np.array_equal(ys, ref_ys), name

    def test_single_pass_subsets(self, backend, reference):
        """A pass list of any length and order picks the same rows."""
        passes = greedy._ALL_PASSES[::-5]
        rows = [greedy._ALL_PASSES.index(p) for p in passes]
        for name, instance in CASES.items():
            placements, ys = scan(instance, backend, passes)
            ref_placements, ref_ys = reference[name]
            assert np.array_equal(placements, ref_placements[rows]), name
            assert np.array_equal(ys, ref_ys[rows]), name

    def test_long_d1_column(self, backend):
        """More than 128 services on one node: numpy's pairwise sum
        splits the column in halves, and so must the kernel."""
        instance = crowded_d1(J=150, seed=4)
        passes = (("S1", "P7"), ("S3", "P7"), ("S2", "P6"))
        ref_placements, ref_ys = scan(instance, "numpy", passes)
        placements, ys = scan(instance, backend, passes)
        assert np.bincount(ref_placements[0]).max() > 128
        assert np.array_equal(placements, ref_placements)
        assert np.array_equal(ys, ref_ys)
        alloc = Allocation.uniform(instance, placements[0], 0.0)
        assert alloc.improve_yields().minimum_yield() == ys[0]

    def test_metagreedy(self, backend):
        for name, instance in CASES.items():
            with kernels.kernel_backend("numpy"):
                ref = metagreedy()(instance)
            with kernels.kernel_backend(backend):
                got = metagreedy()(instance)
            if ref is None:
                assert got is None, name
                continue
            assert np.array_equal(got.placement, ref.placement), name
            assert np.array_equal(got.yields, ref.yields), name
        with kernels.kernel_backend(backend):
            assert metagreedy()(CASES["infeasible"]) is None


def test_metagreedy_keeps_first_best_pass():
    """Same allocation as running the 49 algorithms one by one and
    keeping the first strictly better minimum yield."""
    for name, instance in CASES.items():
        best, best_yield = None, -1.0
        for algo in all_greedy_algorithms():
            alloc = algo(instance)
            if alloc is not None and alloc.minimum_yield() > best_yield:
                best, best_yield = alloc, alloc.minimum_yield()
        got = metagreedy()(instance)
        if best is None:
            assert got is None, name
        else:
            assert np.array_equal(got.placement, best.placement), name
            assert np.array_equal(got.yields, best.yields), name


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(0)
    frames = np.empty((128, 3), np.int64)
    partial = np.empty(64, np.float64)
    for n in list(range(0, 40)) + [127, 128, 129, 136, 255, 256, 300, 1000]:
        values = rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)
        assert _loops.pairwise_sum(values, n, frames, partial) == \
            np.sum(values), n
        column = values.reshape(n, 1)
        assert _loops.pairwise_sum(values, n, frames, partial) == \
            column.sum(axis=0)[0], n
