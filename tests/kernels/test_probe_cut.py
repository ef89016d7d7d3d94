"""The fused probe's waste cut never changes an outcome.

``probe_scan`` hands its bin-major fills (FF, and PP/CP on either path)
the capacity the instance can spare; a run whose closed bins leave more
unused stops as failed.  Every strategy scanned alone must still pack
exactly when ``execute_strategy`` packs it on a fresh state — with the
same placement — on tight instances whose demand is 85–110% of the
capacity, many of them on a 0.05 grid so exact fits happen — and every
strategy of the META*-light list on workload instances, at and around
the yield its search certifies, where runs that pack and runs the cut
stops lie closest together.  ``native`` (wherever a C compiler exists)
and the uncompiled ``loops`` source run.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels, obs
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaProbeEngine,
    PackingState,
    SortStrategy,
    StrategyTable,
    VPStrategy,
    hvp_light_strategies,
    hvp_strategies,
    vp_strategies,
)
from repro.algorithms.vector_packing.sorting import (
    MAX,
    NONE_SORT,
    SUM,
    order_indices,
)
from repro.algorithms.vector_packing.state import capacity_tolerance
from repro.algorithms.vector_packing.strategies import (
    BF,
    CP,
    FF,
    PP,
    execute_strategy,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.workloads import ScenarioConfig, generate_instance

AVAILABILITY = kernels.available_backends()
AVAILABILITY["loops"] = None

DIMS = (1, 2, 3, 5)

#: FF and PP over every item sort and a spread of bin sorts (hetero),
#: windowed homogeneous PP, and Choose-Pack: every fill path of the scan.
STRATEGIES = (hvp_strategies()[::4] + vp_strategies(window=1)[::2]
              + tuple(VPStrategy(CP, SortStrategy(m, descending=True),
                                 bin_sort, hetero=hetero, window=2)
                      for m in (MAX, SUM)
                      for bin_sort in (NONE_SORT, SortStrategy(SUM))
                      for hetero in (False, True)))


def _backends():
    out = []
    for name in ("native", "loops"):
        reason = AVAILABILITY.get(name)
        marks = () if reason is None else (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


def instance_of(cap, items):
    """Nodes with aggregate = elementary = *cap*; rigid services."""
    cap = np.asarray(cap, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    zero = np.zeros_like(items)
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(items, items, zero,
                                                    zero))


@st.composite
def tight_instances(draw, D):
    """Total demand 85–110% of the total capacity, per dimension; about
    half the values on a 0.05 grid."""
    H = draw(st.integers(min_value=2, max_value=6))
    J = draw(st.integers(min_value=2, max_value=14))
    fill = draw(st.floats(min_value=0.85, max_value=1.10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = rng.uniform(0.3, 1.0, size=(H, D))
    snap = rng.random((H, D)) < 0.5
    cap[snap] = np.round(cap[snap] / 0.05) * 0.05
    weights = rng.uniform(0.05, 1.0, size=(J, D))
    items = weights * (fill * cap.sum(axis=0) / weights.sum(axis=0))
    snap = rng.random((J, D)) < 0.5
    items[snap] = np.round(items[snap] / 0.05) * 0.05
    return instance_of(cap, items)


def scan_alone(engine, y, s):
    """``probe_scan`` over strategy *s* alone at yield *y*: ``(scan
    position, assignment, cut runs)``."""
    assignment = np.empty(len(engine.instance.services), dtype=np.int64)
    si, cuts, _ = engine.backend.probe_scan(
        engine._table, y, np.array([s], dtype=np.int64), assignment)
    return si, assignment, cuts


def uncut_run(engine, y, strategy):
    """What the per-strategy path answers: a full run on a fresh state
    with the engine's elementary-fit table; ``(placement, state)``."""
    state = PackingState(engine.instance, y,
                         elem_ok=engine.factory.y_elem_max >= y)
    bin_order = (None if strategy.packer == BF
                 else engine.factory.bin_order(strategy.bin_sort))
    return execute_strategy(state, strategy,
                            order_indices(state.item_agg, strategy.item_sort),
                            bin_order), state


def uncut(engine, y, strategy):
    """The placement of :func:`uncut_run`."""
    return uncut_run(engine, y, strategy)[0]


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("D", DIMS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cut_never_changes_an_outcome(backend, D, data):
    instance = data.draw(tight_instances(D))
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(STRATEGIES))
        for s, strategy in enumerate(STRATEGIES):
            si, assignment, cuts = scan_alone(engine, 0.0, s)
            ref = uncut(engine, 0.0, strategy)
            assert (si == 0) == (ref is not None), strategy.name
            if ref is not None:
                assert np.array_equal(assignment, ref), strategy.name
                assert cuts == 0, strategy.name
            assert cuts <= (1 if strategy.packer != BF else 0)


#: METAHVPLIGHT's strategy list, and workload instances to scan it on.
LIGHT = hvp_light_strategies()
WORKLOAD = tuple(ScenarioConfig(hosts=8, services=30, cov=cov, slack=slack,
                                seed=seed, instance_index=0)
                 for seed in (3, 9)
                 for cov, slack in ((0.25, 0.4), (0.8, 0.6)))


@pytest.fixture(scope="module")
def certified():
    """Each workload instance with the yields to scan it at: 0.9 times
    the yield numpy's META*-light search certifies, that yield (where
    some strategies pack and the cut stops others), and 1e-3 above it
    (where none packs)."""
    out = []
    with kernels.kernel_backend("numpy"):
        for cfg in WORKLOAD:
            instance = generate_instance(cfg)
            stats = {}
            binary_search_max_yield(instance, MetaProbeEngine(instance, LIGHT),
                                    improve=False, stats=stats)
            y = stats["certified"]
            out.append((instance, (0.9 * y, y, y + 1e-3)))
    return out


@pytest.fixture(scope="module")
def light_engines(certified):
    """Per backend, one fused engine of the whole light list per
    workload instance, bound once."""
    cache = {}

    def engines(backend):
        if backend not in cache:
            with kernels.kernel_backend(backend):
                cache[backend] = [FusedProbeEngine(instance,
                                                   StrategyTable(LIGHT))
                                  for instance, _ in certified]
        return cache[backend]
    return engines


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("s", range(len(LIGHT)),
                         ids=[strategy.name for strategy in LIGHT])
def test_light_strategy_around_the_certified_yield(backend, s, certified,
                                                   light_engines):
    """Strategy *s* scanned alone in the whole light table: it packs
    exactly when the numpy packer does, with the same placement, loads
    and load sums; a run that packs is never cut, and only a bin-major
    run is."""
    strategy = LIGHT[s]
    for engine, (instance, yields) in zip(light_engines(backend), certified):
        for y in yields:
            si, assignment, cuts = scan_alone(engine, y, s)
            with kernels.kernel_backend("numpy"):
                ref, state = uncut_run(engine, y, strategy)
            where = (strategy.name, y)
            assert (si == 0) == (ref is not None), where
            if ref is not None:
                t = engine._table
                assert np.array_equal(assignment, ref), where
                assert t.loads.tobytes() == state.loads.tobytes(), where
                assert t.load_sum.tobytes() == state.load_sum.tobytes(), \
                    where
                assert cuts == 0, where
            assert cuts <= (1 if strategy.packer != BF else 0), where


@pytest.mark.parametrize("backend", _backends())
class TestCutFires:
    def test_ff_stops_after_a_wasteful_first_bin(self, backend):
        """Three unit bins, demand 2.9: bin 0 takes one 0.6 and wastes
        0.4 > 0.1 spare, so the run stops before bin 1 opens."""
        instance = instance_of([[1.0], [1.0], [1.0]],
                               [[0.6], [0.6], [0.9], [0.8]])
        ff = VPStrategy(FF, NONE_SORT, NONE_SORT, hetero=True)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([ff]))
            si, assignment, cuts = scan_alone(engine, 0.0, 0)
            assert (si, cuts) == (-1, 1)
            assert assignment.tolist() == [0, -1, -1, -1]
            assert engine(instance, 0.0) is None
            assert (engine.cut_runs, engine.strategy_runs) == (1, 1)
            assert uncut(engine, 0.0, ff) is None

    @pytest.mark.parametrize("packer", (FF, PP))
    def test_exact_fit_above_the_float_sum_still_packs(self, backend,
                                                       packer):
        """Items fill both bins exactly to ``cap_tol``, yet their float
        sum rounds above the bins' float sum: only the margin keeps the
        spare capacity from reading as negative."""
        agg = np.array([[1.8], [1.1]])
        cap_tol = agg + capacity_tolerance(agg)
        items = np.array([[1.05], cap_tol[0] - 1.05,
                          [0.39], cap_tol[1] - 0.39])
        assert items[0] + items[1] == cap_tol[0]
        assert items[2] + items[3] == cap_tol[1]
        assert items.sum(axis=0) > cap_tol.sum(axis=0)
        instance = instance_of(agg, items)
        strategy = VPStrategy(packer, NONE_SORT, NONE_SORT, hetero=True)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([strategy]))
            placement = engine(instance, 0.0)
        assert placement is not None
        assert placement.tolist() == [0, 0, 1, 1]
        assert engine.cut_runs == 0


def test_probe_spans_carry_cut_runs(tmp_path):
    """Each traced ``meta.probe`` span reports its own cut runs and bin
    scan work."""
    rng = np.random.default_rng(5)
    cap = rng.uniform(0.5, 1.0, size=(6, 2))
    req = rng.uniform(0.02, 0.1, size=(20, 2))
    need = rng.uniform(0.1, 0.4, size=(20, 2))
    instance = ProblemInstance(NodeArray.from_arrays(cap, cap),
                               ServiceArray.from_arrays(req, req, need, need))
    path = tmp_path / "trace.jsonl"
    with kernels.kernel_backend("loops"):
        engine = FusedProbeEngine(instance, StrategyTable(STRATEGIES))
        obs.configure(str(path))
        try:
            binary_search_max_yield(instance, engine)
        finally:
            obs.disable()
    spans = [r for r in map(json.loads, path.read_text().splitlines())
             if r["name"] == "meta.probe"]
    assert len(spans) == engine.probes
    assert sum(r["tags"]["cut_runs"] for r in spans) == engine.cut_runs > 0
    assert sum(r["tags"]["scanned"] for r in spans) == engine.scanned > 0
