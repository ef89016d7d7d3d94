"""The fused probe's kernel-built inputs equal the numpy per-sort reference.

``probe_scan`` builds each probe's inputs from the yield itself: the
demands, their row sums, the elementary-fit mask and the waste limit up
front, then each scanned strategy's item order and tie ranks, the
per-item dimension permutation and the 2-D PP/CP walk orders on first
use.  Bit for bit they must equal what numpy builds per sort —
``req_agg + y * need_agg``, ``sum(axis=1)``, ``y_elem_max >= y``,
``waste_limit``, ``order_indices``, ``rank_from_order``, a stable
``argsort`` of the negated demands and ``packed_codes`` + ``argsort`` —
on instances full of ties, on ``native`` (wherever a C compiler exists)
and on the uncompiled ``loops`` source.  D = 9 rows are summed in
numpy's 8-way blocks, and a (J, 1) demand column with J > 128 pairwise.
"""

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    StrategyTable,
    VPStrategy,
    hvp_strategies,
    rank_from_order,
    vp_strategies,
)
from repro.algorithms.vector_packing.permutation_pack import packed_codes
from repro.algorithms.vector_packing.sorting import (
    ALL_SORTS,
    NONE_SORT,
    order_indices,
)
from repro.algorithms.vector_packing.state import waste_limit
from repro.algorithms.vector_packing.strategies import BF, CP, FF, PP
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray

AVAILABILITY = kernels.available_backends()
AVAILABILITY["loops"] = None

#: Choose-Pack at windows 1 and 2 over every item sort.
CP_LIST = tuple(VPStrategy(CP, sort, NONE_SORT, hetero=hetero, window=w)
                for sort in ALL_SORTS for w in (1, 2)
                for hetero in (False, True))

LISTS = {
    "hvp": hvp_strategies(),
    "vp-window1": vp_strategies(window=1),
    "choose-pack": CP_LIST,
    "mixed": hvp_strategies()[::3] + vp_strategies(window=1) + CP_LIST,
}

#: (D, J): the tied instances, D = 9 (blocked row sums) and a long D = 1
#: column (pairwise halves).
SHAPES = ((1, 23), (2, 23), (3, 23), (5, 23), (9, 23), (1, 150))

YIELDS = (0.0, 0.4, 1.0)


def _backends():
    out = []
    for name in ("native", "loops"):
        reason = AVAILABILITY.get(name)
        marks = () if reason is None else (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


def tied_instance(D, J=23, H=4, seed=0, cap_scale=None):
    """Demands on a coarse grid: duplicate rows, equal metric values,
    zero entries (MAXRATIO's infinities) and zero needs.  The capacity
    grows with J (``cap_scale``, by default J / 15), so the bins hold
    the demand at every yield of :data:`YIELDS` and no probe is refused
    before it builds its orders."""
    rng = np.random.default_rng(seed + D)
    cap = rng.uniform(2.0, 4.0, size=(H, D)) * (
        J / 15 if cap_scale is None else cap_scale)
    req = rng.integers(0, 4, size=(J, D)) * 0.1
    need = rng.integers(0, 3, size=(J, D)) * 0.25
    req[J // 2:J // 2 + 3] = req[0]
    need[J // 2:J // 2 + 3] = need[0]
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(req, req, need, need))


def bits_equal(got, ref):
    """Float arrays equal bit for bit (sign of zero included)."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    return got.shape == ref.shape and np.array_equal(got.view(np.uint64),
                                                     ref.view(np.uint64))


def representatives(table):
    """One strategy per item order, per walk config and (for the
    dimension permutation) per packer: scanned alone, each builds the
    rows it needs."""
    picks = {}
    for s in range(table.S):
        picks.setdefault(("item", int(table.st_item[s])), s)
        picks.setdefault(("packer", int(table.st_packer[s])), s)
        if table.st_cfg[s] >= 0:
            picks.setdefault(("cfg", int(table.st_cfg[s])), s)
    return sorted(set(picks.values()))


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("name", list(LISTS))
@pytest.mark.parametrize("D,J", SHAPES)
def test_kernel_inputs_equal_numpy_reference(backend, D, J, name):
    strategies = LISTS[name]
    instance = tied_instance(D, J)
    sv = instance.services
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(strategies))
    table = engine._table
    cap_tol_total = table.cap_tol.sum(axis=0)
    assignment = np.empty(J, dtype=np.int64)
    built = {"item": set(), "perm": 0, "cfg": set()}
    for y in YIELDS:
        item_agg = sv.req_agg + y * sv.need_agg
        ranks = [rank_from_order(order_indices(item_agg, sort))
                 for sort in engine._item_sorts]
        perm = np.argsort(-item_agg, axis=1, kind="stable")
        for s in representatives(table):
            engine.backend.probe_scan(table, y,
                                      np.array([s], dtype=np.int64),
                                      assignment)
            assert table.built[table.st_item[s]], (y, s)
            assert bits_equal(table.item_agg, item_agg), y
            assert bits_equal(table.item_agg_sum, item_agg.sum(axis=1)), y
            elem_ok = engine.factory.y_elem_max >= y
            assert np.array_equal(table.elem_ok, elem_ok), y
            busy = elem_ok.any(axis=0)
            assert np.array_equal(table.bin_ok, busy), y
            assert bits_equal(table.waste_limit, waste_limit(
                cap_tol_total, item_agg.sum(axis=0),
                table.cap_tol[~busy])), y
            for r, sort in enumerate(engine._item_sorts):
                if not table.built[r]:
                    continue
                built["item"].add(r)
                assert np.array_equal(table.item_orders[r],
                                      order_indices(item_agg, sort)), (y, sort)
                assert np.array_equal(table.tie_ranks[r], ranks[r]), (y, sort)
            if table.built[table.SI]:
                built["perm"] += 1
                assert np.array_equal(table.item_dim_perm, perm), y
            for c in range(table.NC):
                if not table.built[table.SI + 1 + c]:
                    continue
                built["cfg"].add(c)
                perm_w = perm[:, :table.cfg_w[c]]
                rank = ranks[table.cfg_item[c]]
                for ranking, got in (((0, 1), table.pp_order0[c]),
                                     ((1, 0), table.pp_order1[c])):
                    codes = packed_codes(perm_w, ranking, D, J, rank,
                                         bool(table.cfg_choose[c]))
                    assert np.array_equal(got, np.argsort(codes)), (y, c)
    # Every item order, every walk config and the permutation were checked.
    assert built["item"] == set(range(table.SI))
    assert built["cfg"] == set(range(table.NC))
    uses_pp = any(st.packer in (PP, CP) for st in strategies)
    assert (built["perm"] > 0) == uses_pp
    assert (table.NC > 0) == (uses_pp and D == 2)


@pytest.mark.parametrize("backend", _backends())
def test_refused_probe_builds_its_inputs_only(backend):
    """150 items on the capacity of 23: at every yield the demand is
    more than the bins hold, so the probe is refused before any order
    is built, every run of the scan counted as cut.  The inputs it
    built still equal numpy's."""
    J = 150
    instance = tied_instance(1, J, cap_scale=1.0)
    sv = instance.services
    strategies = LISTS["mixed"]
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(strategies))
    table = engine._table
    scan = np.arange(table.S, dtype=np.int64)
    for y in YIELDS:
        item_agg = sv.req_agg + y * sv.need_agg
        got = engine.backend.probe_scan(table, y, scan,
                                        np.empty(J, dtype=np.int64))
        assert got == (-1, table.S, 0), y
        assert not table.built.any(), y
        assert bits_equal(table.item_agg, item_agg), y
        assert bits_equal(table.item_agg_sum, item_agg.sum(axis=1)), y
        assert table.bin_ok.all(), y
        assert bits_equal(table.waste_limit, waste_limit(
            table.cap_tol.sum(axis=0), item_agg.sum(axis=0),
            table.cap_tol[:0])), y
        assert (table.waste_limit < 0).all(), y


def test_instances_are_tied():
    """The reference instances really exercise tie-breaking."""
    for D, J in SHAPES:
        item_agg = tied_instance(D, J).services.req_agg
        assert len(np.unique(item_agg, axis=0)) < len(item_agg)
        assert len(np.unique(item_agg.sum(axis=1))) < len(item_agg)
        assert (item_agg == 0).any()


#: First-Fit and Best-Fit over every item sort (NONE and LEX included),
#: and no PP/CP: the walk orders' build also uses ``sort_tmp``.
RESORT_LIST = tuple(VPStrategy(packer, sort, NONE_SORT, hetero=False)
                    for packer in (FF, BF) for sort in ALL_SORTS)

#: The yields one engine is probed at, in turn: random, repeated, rising
#: and falling, on the demands' grid so keys tie at some yields only.
GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SEQUENCE = (tuple(np.random.default_rng(7).choice(GRID, 8)) + (0.4, 0.4)
            + GRID + GRID[::-1])


def unpacked_instance(D, J):
    """:func:`tied_instance` whose item 0 fits no bin elementarily: no
    strategy packs, so a probe of the whole list builds every order,
    and the bins hold the demand, so no probe is refused."""
    instance = tied_instance(D, J)
    sv = instance.services
    req_elem = sv.req_elem.copy()
    req_elem[0] = 100.0
    return ProblemInstance(instance.nodes, ServiceArray.from_arrays(
        req_elem, sv.req_agg, sv.need_elem, sv.need_agg))


def probe_all(engine, y):
    """One probe of the whole list at yield *y*: ``(position, cut runs,
    scanned)``."""
    t = engine._table
    return engine.backend.probe_scan(t, y, np.arange(t.S, dtype=np.int64),
                                     np.empty(t.J, dtype=np.int64))


def assert_orders_equal_numpy(engine, y):
    """Every item order and tie rank of the table equal numpy's at *y*,
    from the table's own demands."""
    t = engine._table
    item_agg = t.req_agg + y * t.need_agg
    assert bits_equal(t.item_agg, item_agg), y
    for r, sort in enumerate(engine._item_sorts):
        assert t.built[r], (y, sort)
        order = order_indices(item_agg, sort)
        assert np.array_equal(t.item_orders[r], order), (y, sort)
        assert np.array_equal(t.tie_ranks[r], rank_from_order(order)), \
            (y, sort)


@pytest.mark.parametrize("backend", _backends())
def test_a_fresh_table_starts_every_order_at_the_identity(backend):
    """Each build sorts its row from the order the last probe left, so
    before the first one every row is a permutation: the identity."""
    instance = tied_instance(2)
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(LISTS["mixed"]))
    t = engine._table
    assert np.array_equal(t.item_orders,
                          np.tile(np.arange(t.J), (t.SI, 1)))


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("special", ("ties", "signed-zeros", "nan"))
@pytest.mark.parametrize("D", (1, 2, 3))
def test_orders_resorted_from_the_last_probe_equal_numpy(backend, D,
                                                         special):
    """One engine probed at :data:`SEQUENCE`: after every probe each
    item order (NONE and LEX included) and its tie ranks equal numpy's
    ``order_indices`` and ``rank_from_order``, whatever order the last
    probe left.  Besides the tied grid demands, ``signed-zeros`` gives
    items 1 and 2 demands of -0.0 and items 3 and 4 demands of +0.0,
    which tie, and ``nan`` a NaN demand to items 1 and 5, written into
    the bound table.  A repeated yield finds every row sorted: the
    insertion sort alone finishes it, and the merge sort's scratch
    ``sort_tmp`` stays untouched."""
    J = 23
    instance = unpacked_instance(D, J)
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(RESORT_LIST))
    t = engine._table
    if special == "signed-zeros":
        t.req_agg[1:3] = -0.0
        t.need_agg[1:3] = -0.0
        t.req_agg[3:5] = 0.0
        t.need_agg[3:5] = 0.0
    elif special == "nan":
        t.req_agg[1, 0] = np.nan
        t.need_agg[5, D - 1] = np.nan
    last = None
    for y in SEQUENCE:
        t.sort_tmp[:] = -1
        assert probe_all(engine, y)[0] == -1, y
        assert_orders_equal_numpy(engine, y)
        if y == last:
            assert (t.sort_tmp == -1).all(), y
        last = y
    if special == "signed-zeros":
        assert np.signbit(t.item_agg[1:3]).all()
        assert not np.signbit(t.item_agg[3:5]).any()


@pytest.mark.parametrize("backend", _backends())
def test_a_reversed_order_falls_back_to_the_merge_sort(backend):
    """Demands that fall with the item index at yield 0 and rise with
    it at yield 1 in dimension 0, and are 1 in dimension 1: every
    metric's order reverses between the two, J(J - 1) / 2 = 190 element
    moves from the other, over the insertion sort's budget of
    J * ceil(log2 J) = 100, so the merge sort finishes the row
    (``sort_tmp`` written).  The same holds for the first build at
    yield 0, from the identity.  A repeat of either yield moves nothing.
    Every order equals numpy's throughout."""
    J = 20
    idx = np.arange(J, dtype=np.float64)
    req = np.column_stack([2 + (J - idx) * 0.1, np.ones(J)])
    need = np.column_stack([idx * 0.2, np.zeros(J)])
    req_elem = req.copy()
    req_elem[0] = 100.0
    cap = np.full((3, 2), 40.0)
    instance = ProblemInstance(NodeArray.from_arrays(cap, cap),
                               ServiceArray.from_arrays(req_elem, req, need,
                                                        need))
    sorts = [s for s in ALL_SORTS if not s.is_none]
    listed = tuple(VPStrategy(FF, sort, NONE_SORT, hetero=False)
                   for sort in sorts)
    with kernels.kernel_backend(backend):
        engine = FusedProbeEngine(instance, StrategyTable(listed))
    t = engine._table
    for y, resorted in ((0.0, True), (0.0, False), (1.0, True),
                        (1.0, False), (0.0, True)):
        t.sort_tmp[:] = -1
        assert probe_all(engine, y)[0] == -1, y
        assert_orders_equal_numpy(engine, y)
        assert (t.sort_tmp != -1).any() == resorted, y
    for r, sort in enumerate(engine._item_sorts):
        assert t.item_orders[r].tolist() == sorted(
            range(J), reverse=not sort.descending), sort
