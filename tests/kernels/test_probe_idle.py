"""The fused probe pays nothing for an idle bin.

A bin is *idle* at a probed yield when no service fits it elementarily:
its per-core capacity is below every service's elementary demand.  No
packing puts anything there, so every packing wastes its whole
capacity.  ``probe_inputs`` marks the busy bins in ``bin_ok`` and takes
the idle bins' ``cap_tol`` off the waste limit up front; the bin-major
fills (First-Fit, the 2-D PP/CP walk and general-D PP/CP) skip an idle
bin without scanning it and without adding its waste again, and
Best-Fit never lists it among its live bins; and a probe whose limit is
then below 0, whose busy bins cannot hold the demand, is refused before
it builds an order or runs a strategy.  Placements and outcomes are
those of the numpy packers, which scan every bin.
``native`` (wherever a C compiler exists) and the uncompiled ``loops``
source run.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    StrategyTable,
    VPStrategy,
)
from repro.algorithms.vector_packing.sorting import NONE_SORT
from repro.algorithms.vector_packing.state import capacity_tolerance
from repro.algorithms.vector_packing.strategies import BF, CP, FF, PP
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from tests.kernels.test_probe_cut import (
    STRATEGIES,
    _backends,
    scan_alone,
    uncut,
)

#: Elementary requirement of every service in the hand-counted cases.
ELEM_REQ = 0.2


def quad_core_instance(agg, items):
    """Nodes of aggregate *agg* with four cores each (per-core capacity
    ``agg / 4``); rigid services of aggregate demand *items* whose
    elementary requirement is :data:`ELEM_REQ` in dimension 0 and a
    tenth of it elsewhere.  A node of aggregate below ``4 * ELEM_REQ``
    is idle."""
    agg = np.asarray(agg, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    req_elem = np.full_like(items, ELEM_REQ / 10)
    req_elem[:, 0] = ELEM_REQ
    zero = np.zeros_like(items)
    return ProblemInstance(NodeArray.from_arrays(agg / 4, agg),
                           ServiceArray.from_arrays(req_elem, items, zero,
                                                    zero))


def rows(first, D):
    """Demand rows: *first* in dimension 0, 0.1 in the others."""
    out = np.full((len(first), D), 0.1)
    out[:, 0] = first
    return out


def strategy(packer, hetero=False):
    return VPStrategy(packer, NONE_SORT, NONE_SORT, hetero=hetero,
                      window=1)


#: Bins of 1, 0.4 and 1 in bin order, the middle one idle; items 0.5,
#: 0.45, 0.6 and 0.3 (0.1 in every other dimension).  The busy bins can
#: spare 2 - 1.85 = 0.15 in dimension 0: counting the idle bin's 0.4
#: again would cut every run before bin 2.
IDLE_MIDDLE = ([1.0, 0.4, 1.0], [0.5, 0.45, 0.6, 0.3])


def idle_middle(D):
    agg, items = IDLE_MIDDLE
    return quad_core_instance(np.repeat(np.array(agg)[:, None], D, axis=1),
                              rows(items, D))


@pytest.mark.parametrize("backend", _backends())
class TestIdleBin:
    def test_ff_skips_the_idle_bin(self, backend):
        """Bin 0 takes 0.5 and 0.45 and stops at position 2 (0.95 + 0.3
        > 1): 3 entries.  Bin 1 is idle and skipped (the full scan tests
        0.6 and 0.3 there, neither fitting a core).  Bin 2 takes 0.6 and
        0.3: 2 entries.  5 tested, no cut."""
        instance = idle_middle(1)
        ff = strategy(FF)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([ff]))
            placement = engine(instance, 0.0)
            t = engine._table
            assert t.bin_ok.tolist() == [1, 0, 1]
            assert placement.tolist() == [0, 0, 2, 2]
            assert (engine.scanned, engine.cut_runs) == (5, 0)
        assert np.array_equal(placement, uncut(engine, 0.0, ff))

    def test_walk_skips_the_idle_bin(self, backend):
        """Both walks list the items in index order.  Bin 0: walk 0 takes
        0.5 at position 0 (1 visit), walk 1 skips it and takes 0.45 (2),
        and its next walk stops at position 1 (0.95 + 0.3 > 1): 4
        visits.  Bin 1 is idle and skipped (the full walk visits
        positions 2 and 3 there).  Bin 2: both marks at position 2,
        walk 0 takes 0.6 (1), walk 1 skips it and takes 0.3 (2): 3.
        7 visits, no cut."""
        instance = idle_middle(2)
        pp = strategy(PP)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([pp]))
            placement = engine(instance, 0.0)
            assert engine._table.bin_ok.tolist() == [1, 0, 1]
            assert placement.tolist() == [0, 0, 2, 2]
            assert (engine.scanned, engine.cut_runs) == (7, 0)
        assert np.array_equal(placement, uncut(engine, 0.0, pp))

    @pytest.mark.parametrize("hetero", (False, True))
    @pytest.mark.parametrize("D", (1, 2, 3))
    def test_bf_tests_only_live_bins(self, backend, D, hetero):
        """Bins of 0.5, 0.4 (idle), 1 and 1, per-core capacity 0.5, 0.1,
        0.25 and 0.25; items 0.45 (per-core 0.3), 0.3, 0.3 and 0.2
        (per-core 0.2), least demand 0.2 throughout.  The live bins start
        as 0, 2 and 3: item 0 fits bin 0 only, and bins 2 and 3, which
        reject it elementarily but are not full, stay live (3 tests).
        Item 1 finds bin 0 too full for the least demand left (0.45 + 0.2
        > 0.5): bin 0 is dropped, wasting 0.05, and bin 2 wins the tie
        with bin 3 on its lower index (3).  Items 2 and 3 test bins 2 and
        3 (2 + 2).  10 tests, where the full scans test 16; no cut."""
        elem = np.array([0.5, 0.1, 0.25, 0.25])
        agg = np.array([0.5, 0.4, 1.0, 1.0])
        req_elem = rows([0.3, 0.2, 0.2, 0.2], D)
        items = rows([0.45, 0.3, 0.3, 0.2], D)
        zero = np.zeros_like(items)
        instance = ProblemInstance(
            NodeArray.from_arrays(np.repeat(elem[:, None], D, axis=1),
                                  np.repeat(agg[:, None], D, axis=1)),
            ServiceArray.from_arrays(req_elem, items, zero, zero))
        bf = strategy(BF, hetero=hetero)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([bf]))
            placement = engine(instance, 0.0)
            assert engine._table.bin_ok.tolist() == [1, 0, 1, 1]
            assert placement.tolist() == [0, 2, 2, 2]
            assert (engine.scanned, engine.cut_runs) == (10, 0)
        assert np.array_equal(placement, uncut(engine, 0.0, bf))

    @pytest.mark.parametrize("packer", (PP, CP))
    def test_general_pp_skips_the_idle_bin(self, backend, packer):
        """D = 3: bin 0 takes 0.5 (least tie rank) and then 0.45 (0.6
        no longer fits), bin 1 is idle, and bin 2 takes 0.6 and 0.3.  No
        walk, so nothing is scanned, and no cut."""
        instance = idle_middle(3)
        pp = strategy(packer)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([pp]))
            placement = engine(instance, 0.0)
            assert engine._table.bin_ok.tolist() == [1, 0, 1]
            assert placement.tolist() == [0, 0, 2, 2]
            assert (engine.scanned, engine.cut_runs) == (0, 0)
        assert np.array_equal(placement, uncut(engine, 0.0, pp))

    @pytest.mark.parametrize("D", (1, 2, 3))
    def test_a_probe_the_busy_bins_cannot_hold_is_refused(self, backend,
                                                          D):
        """One more 0.3 makes the demand 2.15: more than the busy bins'
        2, less than all three bins' 2.4.  The probe returns -1 at once:
        nothing scanned, no order built, and every run counted as cut,
        Best-Fit's included (waste 0 exceeds the limit before its first
        item).  numpy's packers pack nothing either."""
        agg, items = IDLE_MIDDLE
        instance = quad_core_instance(
            np.repeat(np.array(agg)[:, None], D, axis=1),
            rows(items + [0.3], D))
        listed = (strategy(FF), strategy(BF), strategy(BF, hetero=True),
                  strategy(PP), strategy(CP), strategy(FF, hetero=True))
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable(listed))
            t = engine._table
            scan = np.arange(len(listed), dtype=np.int64)
            got = engine.backend.probe_scan(t, 0.0, scan,
                                            np.empty(5, dtype=np.int64))
            assert got == (-1, 6, 0)
            assert not t.built.any()
            assert t.bin_ok.tolist() == [1, 0, 1]
            assert t.waste_limit[0] < 0 <= t.waste_limit[1:].min(initial=0)
            # Without the idle bin the demand fits the capacity.
            assert t.cap_tol[:, 0].sum() > 2.15
            assert engine(instance, 0.0) is None
            assert (engine.strategy_runs, engine.cut_runs,
                    engine.scanned) == (len(listed), 6, 0)
        with kernels.kernel_backend("numpy"):
            for s in listed:
                assert uncut(engine, 0.0, s) is None, s.name

    @pytest.mark.parametrize("packer", (FF, PP, CP, BF))
    def test_busy_bins_exactly_full_still_pack(self, backend, packer):
        """The busy bins' ``cap_tol`` equals the demand exactly, and the
        demand's float sum rounds above theirs: only the margin keeps the
        limit at 0 or above, and the probe runs and packs.  Best-Fit
        fills the most loaded bin first (by remaining capacity it would
        put 1.05 on the smaller bin, and numpy's packer fails too); it
        drops bin 0 once full, with a waste of exactly 0, and is not
        cut: 2 + 2 + 2 + 1 live bins tested, where the full scans test
        12."""
        agg = np.array([[1.8], [0.4], [1.1]])
        cap_tol = agg + capacity_tolerance(agg)
        items = np.array([[1.05], cap_tol[0] - 1.05,
                          [0.39], cap_tol[2] - 0.39])
        assert items[0] + items[1] == cap_tol[0]
        assert items[2] + items[3] == cap_tol[2]
        assert items.sum(axis=0) > cap_tol[[0, 2]].sum(axis=0)
        instance = quad_core_instance(agg, items)
        s = strategy(packer, hetero=packer != BF)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([s]))
            placement = engine(instance, 0.0)
            t = engine._table
            assert t.bin_ok.tolist() == [1, 0, 1]
            assert 0 <= t.waste_limit[0] < 1e-8
            assert placement is not None
            assert placement.tolist() == [0, 0, 2, 2]
            assert engine.cut_runs == 0
            if packer == BF:
                assert engine.scanned == 7
        assert np.array_equal(placement, uncut(engine, 0.0, s))


@st.composite
def idle_instances(draw, D):
    """Nodes of 1, 2 or 4 cores (per-core capacity the aggregate over
    the cores), so per-core capacities differ from node to node, and
    services with one elementary requirement each: some nodes fit none
    of them.  The aggregate demand is 30-100% of the total capacity,
    idle nodes included, so some probes pack, some fail and some are
    refused."""
    H = draw(st.integers(min_value=2, max_value=6))
    J = draw(st.integers(min_value=2, max_value=14))
    fill = draw(st.floats(min_value=0.3, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = rng.uniform(0.3, 1.0, size=(H, D))
    snap = rng.random((H, D)) < 0.5
    cap[snap] = np.round(cap[snap] / 0.05) * 0.05
    cores = rng.choice([1.0, 2.0, 4.0], size=(H, 1))
    weights = rng.uniform(0.05, 1.0, size=(J, D))
    items = weights * (fill * cap.sum(axis=0) / weights.sum(axis=0))
    snap = rng.random((J, D)) < 0.5
    items[snap] = np.round(items[snap] / 0.05) * 0.05
    # One common elementary requirement, a few services above it.
    req_elem = np.repeat(rng.uniform(0.05, 0.35, size=(1, D)), J, axis=0)
    req_elem[rng.random(J) < 0.3] *= 1.5
    zero = np.zeros_like(items)
    return ProblemInstance(NodeArray.from_arrays(cap / cores, cap),
                           ServiceArray.from_arrays(req_elem, items, zero,
                                                    zero))


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("D", (1, 2, 3, 5))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_idle_bins_never_change_an_outcome(backend, D, data):
    """Every strategy scanned alone packs exactly when numpy's packer
    does, with the same placement, and no probe that some strategy packs
    is refused."""
    instance = data.draw(idle_instances(D))
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(STRATEGIES))
        t = engine._table
        packs = False
        for s, listed in enumerate(STRATEGIES):
            si, assignment, cuts = scan_alone(engine, 0.0, s)
            refused = bool((t.waste_limit < 0).any())
            ref = uncut(engine, 0.0, listed)
            assert (si == 0) == (ref is not None), listed.name
            if ref is not None:
                packs = True
                assert not refused, listed.name
                assert np.array_equal(assignment, ref), listed.name
                assert cuts == 0, listed.name
            assert cuts <= 1, listed.name
        assert np.array_equal(
            t.bin_ok, (engine.factory.y_elem_max >= 0.0).any(axis=0))
        si, _, _ = engine.backend.probe_scan(
            t, 0.0, np.arange(t.S, dtype=np.int64),
            np.empty(t.J, dtype=np.int64))
        assert (si >= 0) == packs
