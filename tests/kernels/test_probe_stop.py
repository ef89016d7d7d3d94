"""The fused probe's bin scans stop where no item left can fit.

``probe_scan`` builds, with each item order and each 2-D PP/CP walk
order, the suffix minima of the probe's demands along it (row ``J`` is
``+inf``).  A First-Fit bin scan stops at a pending entry, and a walk at
a position, once the bin's load plus that row exceeds ``cap_tol`` in
some dimension.  The stop is strict and exact: an item whose demand
brings the load exactly to ``cap_tol`` is still taken, a minimum left
behind by an item placed in an earlier bin only stops scans later, and
every run packs as the numpy packers (which scan every item) pack.
A scan pays only for what it tests: First-Fit's pending entries end its
scratch, the kept ones ahead of the untested ones, and each walk starts
a bin at the first position of its order still unplaced.  ``scanned``
counts the entries and walk positions the scans visited, the same on
``native`` and ``loops``; the fill bodies with the stop turned off
(minima of ``-inf``) give the count it saves.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    SortStrategy,
    StrategyTable,
    VPStrategy,
)
from repro.algorithms.vector_packing.sorting import (
    ALL_SORTS,
    MAX,
    NONE_SORT,
    SUM,
)
from repro.algorithms.vector_packing.state import capacity_tolerance
from repro.algorithms.vector_packing.strategies import CP, FF, PP
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels import _loops
from tests.kernels.test_probe_cut import (
    _backends,
    instance_of,
    tight_instances,
    uncut,
)

#: FF over every item sort and two bin sorts, and 2-D PP/CP walks at
#: windows 1 and 2 (hetero and not): every scan the stop is in.
FILLS = (tuple(VPStrategy(FF, sort, bin_sort, hetero=False)
               for sort in ALL_SORTS
               for bin_sort in (NONE_SORT, SortStrategy(SUM)))
         + tuple(VPStrategy(packer, SortStrategy(m, descending=True),
                            NONE_SORT, hetero=hetero, window=w)
                 for packer in (PP, CP) for m in (MAX, SUM) for w in (1, 2)
                 for hetero in (False, True)))


def scan_alone(engine, y, s):
    """``probe_scan`` over strategy *s* alone: ``(scan position,
    assignment, scanned)``."""
    assignment = np.empty(len(engine.instance.services), dtype=np.int64)
    si, _, scanned = engine.backend.probe_scan(
        engine._table, y, np.array([s], dtype=np.int64), assignment)
    return si, assignment, scanned


def unstopped(engine, s):
    """Strategy *s* through the loops fill body on the table the last
    probe built, with the stop turned off: ``(unplaced or CUT,
    assignment, scanned)`` of the full scans."""
    t = engine._table
    J, H, D = t.J, t.H, t.D
    loads = np.zeros((H, D))
    load_sum = np.zeros(H)
    assignment = np.full(J, -1, dtype=np.int64)
    scanned = np.zeros(1, dtype=np.int64)
    never = np.full((J + 1, D), -np.inf)
    bins = t.bin_orders[t.st_bin[s]]
    if t.st_packer[s] == 0:
        left = _loops.ff_run(t.item_agg, t.elem_ok, t.bin_ok,
                             t.item_orders[t.st_item[s]], never, bins, loads,
                             load_sum, t.cap_tol, t.waste_limit, assignment,
                             np.empty(J, np.int64), np.empty(D), np.empty(D),
                             scanned)
    else:
        c = t.st_cfg[s]
        left = _loops.pp_2d_run(t.item_agg, t.elem_ok, t.bin_ok,
                                t.pp_order0[c], t.pp_order1[c], never, never,
                                bins, loads, load_sum, t.cap_tol, t.bin_agg,
                                t.st_hetero[s] != 0, t.waste_limit,
                                assignment, np.empty(J, np.uint8), scanned)
    return left, assignment, int(scanned[0])


def numpy_packs(engine, y, strategy):
    """The numpy packer's placement on a fresh state (``None`` when it
    does not pack)."""
    with kernels.kernel_backend("numpy"):
        return uncut(engine, y, strategy)


def suffix_reference(item_agg, order):
    """numpy's suffix minima of *order*'s demands, then a row of +inf."""
    rows = np.minimum.accumulate(item_agg[order][::-1], axis=0)[::-1]
    return np.vstack([rows, np.full((1, item_agg.shape[1]), np.inf)])


#: Bins of aggregate ``agg``, items ``first``, ``big`` and a last one
#: that brings ``first`` exactly to ``cap_tol`` (in float; 0.1 in the
#: ``loose`` dimensions).  The 2-D walk reaches the exact fit in walk 1
#: (dimension 0 loaded more) or in walk 0 (dimension 1).
EXACT_FITS = {
    "walk1": dict(agg=[1.3, 0.9], first=[1.05, 0.39], big=[1.2, 0.8],
                  loose=()),
    "walk0": dict(agg=[1.3, 1.3], first=[0.2, 1.05], big=[1.0, 1.25],
                  loose=(0,)),
}


def exact_fit_instance(agg, first, big, loose):
    agg = np.array([agg, agg])
    cap_tol = agg[0] + capacity_tolerance(agg[0])
    last = cap_tol - first
    assert (first + last == cap_tol).all()
    last[list(loose)] = 0.1
    return instance_of(agg, [first, big, last])


@pytest.mark.parametrize("backend", _backends())
class TestStop:
    def test_ff_stops_where_nothing_left_fits(self, backend):
        """Unit bins, items 0.5, 0.45, 0.6, 0.3, 0.7 in index order (least
        demand 0.3 up to position 3).  Bin 0 takes 0.5 and 0.45, and
        0.95 + 0.3 stops it at position 2; bin 1 takes 0.6 and 0.3 and
        stops at position 4; bin 2 takes 0.7: 3 + 3 + 1 entries tested,
        where the full scans test 5 + 3 + 1."""
        instance = instance_of(np.ones((3, 1)),
                               [[0.5], [0.45], [0.6], [0.3], [0.7]])
        ff = VPStrategy(FF, NONE_SORT, NONE_SORT, hetero=False)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([ff]))
            placement = engine(instance, 0.0)
            assert placement.tolist() == [0, 0, 1, 1, 2]
            assert (engine.scanned, engine.cut_runs) == (7, 0)
            left, full, scanned = unstopped(engine, 0)
        assert (left, full.tolist(), scanned) == (0, [0, 0, 1, 1, 2], 9)

    def test_ff_keeps_the_tested_entries_ahead_of_the_rest(self, backend):
        """Unit bins, items 0.6, 0.5, 0.7, 0.4, 0.2, 0.3, 0.5 in index
        order.  Bin 0 takes 0.6 and 0.4, keeps 0.5 and 0.7, and stops at
        position 4 (1.0 + 0.2 > 1); bin 1 tests 0.5, 0.7, then the
        untested 0.2 and 0.3, and stops at position 6; bin 2 takes 0.7
        and stops at 0.5; bin 3 takes it: 5 + 5 + 2 + 1 entries tested,
        where the full scans test 7 + 5 + 2 + 1.  The kept entries must
        meet bin 1 ahead of the untested ones, in order: with the untested
        ones first bin 1 would take 0.2, 0.3 and 0.5, and with 0.7 ahead
        of 0.5 it would take 0.7 and 0.2.

        The pending entries are the last ones of the scan's ``pending``
        scratch (the table's ``work_i``).  With every item but 0.4 barred
        from all but the first one or two bins (elementary requirement
        0.5 against an elementary capacity of 0.2), the next bin stays
        busy, since 0.4 fits it elementarily, but takes nothing: 0.4 is
        in bin 0.  It wastes 1 > 0.8 spare, so the run stops at the waste
        cut, leaving positions 1, 2, 4, 5, 6 after bin 0 and 2, 6 after
        bin 1 there."""
        items = [[0.6], [0.5], [0.7], [0.4], [0.2], [0.3], [0.5]]
        instance = instance_of(np.ones((4, 1)), items)
        ff = VPStrategy(FF, NONE_SORT, NONE_SORT, hetero=False)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([ff]))
            placement = engine(instance, 0.0)
            assert placement.tolist() == [0, 1, 2, 0, 1, 1, 3]
            assert (engine.scanned, engine.cut_runs) == (13, 0)
            left, full, scanned = unstopped(engine, 0)
        assert (left, full.tolist(), scanned) == (0, placement.tolist(), 15)
        assert np.array_equal(placement, numpy_packs(engine, 0.0, ff))
        J = len(items)
        req_elem = np.full((J, 1), 0.5)
        req_elem[3] = 0.1
        sv = instance.services
        services = ServiceArray.from_arrays(req_elem, sv.req_agg,
                                            sv.need_elem, sv.need_agg)
        for k, rest in ((1, [1, 2, 4, 5, 6]), (2, [2, 6])):
            elem = np.full((4, 1), 0.2)
            elem[:k] = 1.0
            barred = ProblemInstance(
                NodeArray.from_arrays(elem, np.ones((4, 1))), services)
            assignment = np.empty(J, dtype=np.int64)
            with kernels.kernel_backend(backend):
                engine = FusedProbeEngine(barred, StrategyTable([ff]))
                t = engine._table
                si, cuts, _ = engine.backend.probe_scan(
                    t, 0.0, np.zeros(1, dtype=np.int64), assignment)
            assert (si, cuts) == (-1, 1)
            assert t.bin_ok.all()
            assert np.flatnonzero(assignment < 0).tolist() == rest
            assert t.work_i[J - len(rest):J].tolist() == rest

    def test_walk_stops_where_nothing_left_fits(self, backend):
        """The same items with a small second demand: both walks list
        them in index order, and each bin's walks start at the first
        position still unplaced (0, 2 and 4).  In bin 0, walk 0 takes 0.5
        at position 0, walk 1 skips it and takes 0.45 at position 1, and
        its next walk stops there (0.95 + 0.3 > 1): 1 + 2 + 1 visits,
        where the full walk visits positions 1-4.  In bin 1, the walks
        do the same from position 2, and the last one stops at position
        3 (0.9 + 0.3 > 1), where the full walk visits 3 and 4.  Bin 2
        takes 0.7 at position 4: 4 + 4 + 1 = 9 visits against the full
        walks' 7 + 5 + 1 = 13."""
        instance = instance_of(np.ones((3, 2)),
                               [[0.5, 0.1], [0.45, 0.1], [0.6, 0.1],
                                [0.3, 0.1], [0.7, 0.1]])
        pp = VPStrategy(PP, NONE_SORT, NONE_SORT, hetero=False, window=1)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([pp]))
            placement = engine(instance, 0.0)
            assert placement.tolist() == [0, 0, 1, 1, 2]
            left, full, scanned = unstopped(engine, 0)
        assert (left, full.tolist()) == (0, [0, 0, 1, 1, 2])
        assert (engine.scanned, scanned) == (9, 13)

    def test_walks_start_past_the_placed_prefix(self, backend):
        """Bins of 0.5, 1 and 1 (second demands 0.1 throughout), items
        0.8, 0.3, 0.2, 0.6, 0.3 in index order: both walks list them so.
        Bin 0: walk 0 finds 0.8 too big and takes 0.3 (2 visits), walk 1
        skips both and takes 0.2 (3), and its next walk stops at
        position 2 (0.5 + 0.2 > 0.5): 6.  The unplaced 0.8 holds both
        marks at position 0, so in bin 1 walk 0 takes it there (1), and
        walk 1 skips it and the two placed items one by one before it
        stops at position 3 (0.8 + 0.3 > 1): 4.  In bin 2 both walks
        start at position 3: walk 0 takes 0.6 (1), and walk 1 skips it
        and takes 0.3 (2).  14 visits, against 17 for the full walks."""
        instance = instance_of([[0.5, 1.0], [1.0, 1.0], [1.0, 1.0]],
                               [[0.8, 0.1], [0.3, 0.1], [0.2, 0.1],
                                [0.6, 0.1], [0.3, 0.1]])
        pp = VPStrategy(PP, NONE_SORT, NONE_SORT, hetero=False, window=1)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([pp]))
            placement = engine(instance, 0.0)
            assert placement.tolist() == [1, 0, 0, 2, 2]
            left, full, scanned = unstopped(engine, 0)
        assert (left, full.tolist()) == (0, [1, 0, 0, 2, 2])
        assert (engine.scanned, scanned, engine.cut_runs) == (14, 17, 0)
        assert np.array_equal(placement, numpy_packs(engine, 0.0, pp))

    @pytest.mark.parametrize("case", list(EXACT_FITS))
    @pytest.mark.parametrize("packer", (FF, PP))
    def test_an_exact_fit_at_the_minimum_is_taken(self, backend, packer,
                                                  case):
        """After the big item fails bin 0, the last item brings it
        exactly to ``cap_tol``: load plus the order's minimum equals
        ``cap_tol``, which does not stop the scan."""
        instance = exact_fit_instance(**EXACT_FITS[case])
        strategy = VPStrategy(packer, NONE_SORT, NONE_SORT, hetero=False,
                              window=1)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([strategy]))
            placement = engine(instance, 0.0)
        assert placement is not None
        assert placement.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("packer", (FF, PP))
    def test_a_minimum_placed_earlier_changes_nothing(self, backend, packer):
        """The least demand sits last in the order and goes to bin 0, so
        bin 1's scans meet a minimum no pending item has: they stop
        later, never earlier, and the run packs as numpy's."""
        items = [[0.6, 0.2], [0.7, 0.2], [0.8, 0.2], [0.1, 0.05]]
        instance = instance_of(np.ones((3, 2)), items)
        strategy = VPStrategy(packer, NONE_SORT, NONE_SORT, hetero=False,
                              window=1)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable([strategy]))
            placement = engine(instance, 0.0)
            _, full, scanned = unstopped(engine, 0)
        assert placement.tolist() == [0, 1, 2, 0] == full.tolist()
        assert engine.scanned <= scanned
        assert np.array_equal(placement, numpy_packs(engine, 0.0, strategy))

    @pytest.mark.parametrize("D", (1, 2, 3))
    def test_minima_equal_numpy_suffix_minima(self, backend, D):
        """Every built row of ``item_min`` and ``walk_min``: numpy's
        ``minimum.accumulate`` down the reversed order, row J +inf.
        The bins hold the demand, so no probe is refused, and item 0
        fits no bin elementarily, so no strategy packs: each probe runs
        every strategy and builds every row."""
        rng = np.random.default_rng(D)
        cap = rng.uniform(0.5, 1.0, size=(4, D)) * 5
        req = rng.integers(0, 4, size=(19, D)) * 0.1
        need = rng.integers(0, 3, size=(19, D)) * 0.25
        req_elem = req.copy()
        req_elem[0] = 10.0
        instance = ProblemInstance(
            NodeArray.from_arrays(cap, cap),
            ServiceArray.from_arrays(req_elem, req, need, need))
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable(FILLS))
            t = engine._table
            for y in (0.5, 1.0):
                si = engine.backend.probe_scan(
                    t, y, np.arange(t.S, dtype=np.int64),
                    np.empty(t.J, dtype=np.int64))[0]
                assert si == -1 and (t.waste_limit >= 0).all()
                for r in range(t.SI):
                    if t.built[r]:
                        assert np.array_equal(
                            t.item_min[r],
                            suffix_reference(t.item_agg, t.item_orders[r]))
                for c in range(t.NC):
                    if not t.built[t.SI + 1 + c]:
                        continue
                    for k, walk in enumerate((t.pp_order0[c],
                                              t.pp_order1[c])):
                        assert np.array_equal(
                            t.walk_min[c, k],
                            suffix_reference(t.item_agg, walk))
            assert t.built[:t.SI].all()
            assert t.built[t.SI + 1:].all() and (t.NC > 0) == (D == 2)

    def test_no_items_bind_and_probe(self, backend):
        """J = 0: the minima are the +inf row alone, and every strategy
        packs nothing at once."""
        cap = np.ones((3, 2))
        none = np.zeros((0, 2))
        instance = ProblemInstance(
            NodeArray.from_arrays(cap, cap),
            ServiceArray.from_arrays(none, none, none, none))
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(instance, StrategyTable(FILLS))
            t = engine._table
            assert t.item_min.shape == (t.SI, 1, 2)
            assert t.walk_min.shape == (t.NC, 2, 1, 2)
            for s in range(len(FILLS)):
                si, assignment, scanned = scan_alone(engine, 0.5, s)
                assert (si, assignment.tolist(), scanned) == (0, [], 0)
            assert (t.item_min[t.built[:t.SI] == 1] == np.inf).all()
            assert (t.walk_min == np.inf).all()


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("D", (1, 2, 3))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stopped_scans_pack_as_numpy(backend, D, data):
    """Every fill scanned alone on a tight instance: the outcome and
    placement of the numpy packer and of the full scans, the same
    ``scanned`` on both backends, and never more than the full scans'."""
    instance = data.draw(tight_instances(D))
    y = 0.0
    counts = {}
    for name in dict.fromkeys(("loops", backend)):
        with kernels.kernel_backend(name):
            engine = FusedProbeEngine(instance, StrategyTable(FILLS))
            for s, strategy in enumerate(FILLS):
                if strategy.packer != FF and D != 2:
                    continue
                si, assignment, scanned = scan_alone(engine, y, s)
                left, full, full_scanned = unstopped(engine, s)
                assert (si == 0) == (left == 0), strategy.name
                assert scanned <= full_scanned, strategy.name
                counts.setdefault(s, set()).add(scanned)
                if si == 0:
                    assert np.array_equal(assignment, full), strategy.name
                    assert np.array_equal(
                        assignment, numpy_packs(engine, y, strategy)), \
                        strategy.name
                else:
                    assert numpy_packs(engine, y, strategy) is None
    assert all(len(seen) == 1 for seen in counts.values())

