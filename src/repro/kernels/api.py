"""Kernel-backend interface and the array-kernel adapter.

A :class:`KernelBackend` implements the hot scalar kernels the packers
and the dynamic simulator dispatch to (see :mod:`repro.kernels`):

* ``first_fit(state, item_order, bin_order)`` — FF's per-bin fill (any D);
* ``best_fit(state, item_order, by_remaining_capacity)`` — BF's
  O(1)-update scoring loop (any D);
* ``permutation_pack(state, pp, bin_order, by_remaining)`` — PP/CP's
  packed-code selection (pointer walk at D=2, general selection loop
  otherwise — an internal split every backend shares);
* ``affine_fit_thresholds(req, need, cap)`` — the probe factory's
  yield-threshold table;
* ``batch_fit_thresholds(req, need, cap, n_items, n_bins)`` — the same
  table over a padded ``(B, ...)`` batch of instances;
* ``incremental_best_fit(req_agg, elem_fit, loads, agg, cap_tol)`` —
  the dynamic simulator's newcomer placement;
* ``bind_probe_scan(args)`` / ``probe_scan(table, y, scan, assignment)``
  — the fused META* feasibility probe.  An engine binds its
  yield-independent tables once (:class:`ProbeScanArgs`, checked for
  dtype, contiguity, shape and index ranges at bind time) into a
  :class:`ProbeTable`; each probe then passes only the yield, the scan
  order and an assignment buffer, and the kernel builds the probe's
  inputs itself and scans the whole strategy table in one call
  (advertised via ``supports_probe_scan``, which only the numpy backend
  leaves off);
* ``greedy_scan(args)`` — METAGREEDY's passes in one call: each pass's
  placement and its minimum yield after the per-node improvement;
* ``share_nodes(args)`` — the §6 runtime sharing evaluation in one call:
  every node's CPU shared by one policy (:data:`SHARE_POLICIES`), and
  each service's actual yield.

All implementations are *bit-compatible*: identical placements, loads,
threshold tables and yields for identical inputs (asserted by the
cross-backend equivalence tests), so switching backends never changes
results — only wall-clock.  Backend selection never depends on the dimension count.

:class:`ArrayKernelBackend` adapts the flat-array loop kernels of
:mod:`._loops` (or the C translation with the same signatures) to this
state-level interface; the native and loops backends are instances of
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["KernelBackend", "ArrayKernelBackend", "GreedyScanArgs",
           "ProbeScanArgs", "ProbeTable", "ShareNodesArgs", "SHARE_POLICIES",
           "SORT_METRICS"]

#: Item-sort metrics in the order of ``ProbeScanArgs.sort_metric`` codes.
SORT_METRICS = ("MAX", "SUM", "MAXRATIO", "MAXDIFFERENCE", "LEX", "NONE")

#: §6 sharing policies in the order of ``ShareNodesArgs.policy`` codes.
SHARE_POLICIES = ("ALLOCCAPS", "ALLOCWEIGHTS", "EQUALWEIGHTS")


def _array(dtype: type, *shape: str) -> Any:
    """A :class:`ProbeScanArgs` array field: its dtype and its shape in
    the table's dimension names, checked at bind time."""
    return field(metadata={"dtype": np.dtype(dtype), "shape": shape})


@dataclass(frozen=True)
class ProbeScanArgs:
    """The yield-independent inputs of the fused probe: one instance and
    one compiled strategy list (see :func:`._loops.probe_scan` for the
    strategy table's columns).

    Dimensions: J items, H bins, D resource dimensions, S strategies,
    SI distinct item sorts, SB distinct bin orders, NC 2-D walk configs.
    Every array must be C-contiguous with exactly the dtype and shape
    declared here; :class:`ProbeTable` checks that once, at bind time.
    """

    req_agg: np.ndarray = _array(np.float64, "J", "D")
    need_agg: np.ndarray = _array(np.float64, "J", "D")
    #: Largest yield at which each item fits each bin elementarily.
    y_elem_max: np.ndarray = _array(np.float64, "J", "H")
    #: Aggregate fit bound (capacity plus tolerance) and its column sums.
    cap_tol: np.ndarray = _array(np.float64, "H", "D")
    cap_tol_total: np.ndarray = _array(np.float64, "D")
    bin_agg: np.ndarray = _array(np.float64, "H", "D")
    bin_agg_sum: np.ndarray = _array(np.float64, "H")
    #: The distinct bin orders (static: capacities do not move).
    bin_orders: np.ndarray = _array(np.int64, "SB", "H")
    #: Each distinct item sort: its metric (index into
    #: :data:`SORT_METRICS`) and 1 when descending.
    sort_metric: np.ndarray = _array(np.int64, "SI")
    sort_desc: np.ndarray = _array(np.int64, "SI")
    #: The strategy table, one row per strategy.
    st_packer: np.ndarray = _array(np.int64, "S")  # 0 FF, 1 BF, 2 PP/CP
    st_item: np.ndarray = _array(np.int64, "S")    # item sort row
    st_bin: np.ndarray = _array(np.int64, "S")     # bin order row (BF: -1)
    st_hetero: np.ndarray = _array(np.int64, "S")  # heterogeneous flag
    st_w: np.ndarray = _array(np.int64, "S")       # effective PP/CP window
    st_choose: np.ndarray = _array(np.int64, "S")  # 1 for Choose-Pack
    st_cfg: np.ndarray = _array(np.int64, "S")     # 2-D walk config or -1
    #: Each 2-D PP/CP walk config: window, Choose-Pack flag, item sort row.
    cfg_w: np.ndarray = _array(np.int64, "NC")
    cfg_choose: np.ndarray = _array(np.int64, "NC")
    cfg_item: np.ndarray = _array(np.int64, "NC")
    #: Relative float margin of the waste limit (``WASTE_MARGIN_RTOL``).
    waste_rtol: float


#: Each :class:`ProbeScanArgs` array field (all but the float margin):
#: its name, dtype and shape in dimension names.
_ARRAY_SPECS = tuple((f.name, f.metadata["dtype"], f.metadata["shape"])
                     for f in fields(ProbeScanArgs) if "shape" in f.metadata)
_F8, _I8, _U1 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint8)
#: The array fields of each dtype, as a :class:`ProbeTable` lays them out.
_INPUTS = {dtype: tuple(name for name, dt, _ in _ARRAY_SPECS if dt == dtype)
           for dtype in (_F8, _I8, _U1)}


def _bad(name: str, what: str) -> ValueError:
    return ValueError(f"probe table: {name} {what}")


def _check_probe_args(args: ProbeScanArgs) -> Dict[str, int]:
    """The table's dimensions, after checking every array's dtype,
    contiguity and shape, and every index the kernel follows."""
    dims: Dict[str, int] = {}
    for name, dtype, shape in _ARRAY_SPECS:
        arr = getattr(args, name)
        if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
            raise TypeError(f"probe table: {name} must be a {dtype} array, "
                            f"not {getattr(arr, 'dtype', type(arr).__name__)}")
        if not arr.flags.c_contiguous:
            raise _bad(name, "is not C-contiguous")
        if arr.ndim != len(shape):
            raise _bad(name, f"has shape {arr.shape}, expected "
                             f"({', '.join(shape)})")
        for dim, n in zip(shape, arr.shape):
            if dims.setdefault(dim, n) != n:
                raise _bad(name, f"has {dim} = {n}, expected {dims[dim]}")
    D, J = dims["D"], dims["J"]
    if D < 1:
        raise _bad("req_agg", "has no resource dimension")
    packer = args.st_packer
    fill = packer != 1
    pp = packer == 2
    walk = pp if D == 2 else np.zeros_like(pp)
    checks: Tuple[Tuple[str, np.ndarray, int, int], ...] = (
        ("bin_orders", args.bin_orders, 0, dims["H"]),
        ("sort_metric", args.sort_metric, 0, len(SORT_METRICS)),
        ("st_packer", packer, 0, 3),
        ("st_item", args.st_item, 0, dims["SI"]),
        ("st_bin", args.st_bin[fill], 0, dims["SB"]),
        ("st_w", args.st_w[pp], 1, D + 1),
        ("st_cfg", args.st_cfg[walk], 0, dims["NC"]),
        ("cfg_w", args.cfg_w, 1, 3 if D == 2 else 1),
        ("cfg_item", args.cfg_item, 0, dims["SI"]),
    )
    for name, values, lo, hi in checks:
        if values.size and (values.min() < lo or values.max() >= hi):
            raise _bad(name, f"has an entry outside [{lo}, {hi})")
    if pp.any() and D ** int(args.st_w[pp].max()) * (J + 1) >= 2 ** 62:
        raise _bad("st_w", "gives PP/CP codes that overflow an int64")
    return dims


class ProbeTable:
    """A fused probe's bound table: the checked :class:`ProbeScanArgs`
    plus every buffer a probe fills, in one block per dtype.

    The kernel writes the probe's inputs into ``item_agg``,
    ``item_agg_sum``, ``elem_ok`` (uint8), ``waste_limit``,
    ``item_orders``/``tie_ranks`` (``(SI, J)``), ``item_dim_perm`` and
    ``pp_order0``/``pp_order1`` (``(NC, J)``), each lazily built row
    marked in ``built``; the rest is scratch.  Every array, the args'
    arrays copied in, lives in ``blocks`` (float64, int64, uint8), and
    ``layout`` gives each array's dtype (its block), byte offset and
    shape, so a compiled backend binds ``handle`` (the C struct of the
    arrays' pointers) from three base addresses.  An array attribute is a view
    into its block, made on first access (the compiled kernels need none:
    they read through ``handle``).  The table owns its blocks, so every
    pointer lives as long as it.
    """

    def __init__(self, args: ProbeScanArgs):
        dims = _check_probe_args(args)
        J, H, D = dims["J"], dims["H"], dims["D"]
        SI, NC = dims["SI"], dims["NC"]
        self.J, self.H, self.D = J, H, D
        self.S, self.SI, self.SB, self.NC = dims["S"], SI, dims["SB"], NC
        self.waste_rtol = float(args.waste_rtol)
        # The buffers a probe fills, after the copied args in each block.
        buffers: Dict[np.dtype[Any],
                      Tuple[Tuple[str, Tuple[int, ...]], ...]] = {
            _F8: (("item_agg", (J, D)), ("item_agg_sum", (J,)),
                  ("waste_limit", (D,)), ("loads", (H, D)),
                  ("load_sum", (H,)), ("sort_key", (J,)),
                  ("work_f", (2 * D,)), ("partial", (64,))),
            _I8: (("item_orders", (SI, J)), ("tie_ranks", (SI, J)),
                  ("item_dim_perm", (J, D)), ("pp_order0", (NC, J)),
                  ("pp_order1", (NC, J)), ("sort_tmp", (J,)),
                  ("work_i", (J + 3 * D,)), ("frames", (128, 3)),
                  ("cut_runs", (1,))),
            _U1: (("elem_ok", (J, H)), ("built", (SI + 1 + NC,)),
                  ("dead", (J,)))}
        self.blocks: Dict[np.dtype[Any], np.ndarray] = {}
        self.layout: Dict[str,
                          Tuple[np.dtype[Any], int, Tuple[int, ...]]] = {}
        for dtype, members in buffers.items():
            inputs = [getattr(args, name) for name in _INPUTS[dtype]]
            size = 0
            for name, arr in zip(_INPUTS[dtype], inputs):
                self.layout[name] = (dtype, size * dtype.itemsize, arr.shape)
                size += arr.size
            copied = size
            for name, shape in members:
                self.layout[name] = (dtype, size * dtype.itemsize, shape)
                size += math.prod(shape)
            block = self.blocks[dtype] = np.zeros(size, dtype)
            if inputs:
                np.concatenate([arr.reshape(-1) for arr in inputs],
                               out=block[:copied])
        self.handle: Any = None

    def __getattr__(self, name: str) -> np.ndarray:
        """Array *name*: a view into its block, made once."""
        layout = self.__dict__.get("layout")
        if layout is None or name not in layout:
            raise AttributeError(name)
        dtype, offset, shape = layout[name]
        start = offset // dtype.itemsize
        view: np.ndarray = self.blocks[dtype][
            start:start + math.prod(shape)].reshape(shape)
        self.__dict__[name] = view
        return view


@dataclass(frozen=True)
class GreedyScanArgs:
    """Inputs of one greedy scan: an instance's static tables plus the
    passes to run (see :func:`._loops.greedy_scan` for the picker
    codes and the yield).  All arrays C-contiguous; index columns int64.
    Per-row sums are numpy's (``sum(axis=1)``), so they match the
    reference bit for bit.
    """

    req_agg: np.ndarray      # (J, D) float64 aggregate requirements
    req_agg_sum: np.ndarray  # (J,)   float64 their row sums
    need_dim: np.ndarray     # (J,)   argmax of each aggregate need (P1)
    req_dim: np.ndarray      # (J,)   argmax of each requirement (P3/P5)
    elem_ok: np.ndarray      # (J, H) bool, requirements fit elementarily
    bin_agg: np.ndarray      # (H, D) float64 aggregate capacities
    bin_agg_sum: np.ndarray  # (H,)   float64 their row sums
    cap_tol: np.ndarray      # (H, D) float64 aggregate fit bound
    req_elem: np.ndarray     # (J, D) float64 elementary requirements
    need_elem: np.ndarray    # (J, D) float64 elementary needs
    need_agg: np.ndarray     # (J, D) float64 aggregate needs
    bin_elem: np.ndarray     # (H, D) float64 elementary capacities
    orders: np.ndarray       # (SO, J) distinct service orders
    pass_order: np.ndarray   # (P,) row into orders
    pass_pick: np.ndarray    # (P,) node picker code, 0..6 for P1..P7
    feas_atol: float         # the yield step's feasibility tolerances
    feas_rtol: float


@dataclass(frozen=True)
class ShareNodesArgs:
    """Inputs of one sharing evaluation over every node (see
    :func:`._loops.share_nodes`): one fluid dimension's columns, the
    services grouped by node, and the policy.  Arrays are C-contiguous
    and 1-D; ``order`` and ``counts`` are int64, the rest float64.
    ``order``/``counts`` must group ``range(J)`` by node.  The kernel
    follows them, so the adapter refuses a count outside ``[0, J]``,
    counts that do not sum to ``J`` and an order entry outside
    ``[0, J)``.
    """

    order: np.ndarray      # (J,) services by node, ascending within one
    counts: np.ndarray     # (H,) services on each node
    req: np.ndarray        # (J,) rigid aggregate requirements
    need: np.ndarray       # (J,) true aggregate needs
    est_need: np.ndarray   # (J,) estimated aggregate needs
    elem_req: np.ndarray   # (J,) elementary requirements
    elem_need: np.ndarray  # (J,) elementary needs
    node_agg: np.ndarray   # (H,) aggregate capacities
    node_elem: np.ndarray  # (H,) elementary capacities
    policy: int            # index into SHARE_POLICIES
    epsilon: float         # rounds stop once the pool is this small
    share_atol: float      # slack of "the remaining demand fits"


def _check_share_args(args: ShareNodesArgs) -> Tuple[int, int]:
    """``(J, H)`` after checking every array's dtype, layout and length,
    every index the kernel follows, and the policy code."""
    J, H = args.order.shape[0], args.counts.shape[0]
    for name, arr, n, dtype in (
            ("order", args.order, J, np.int64),
            ("counts", args.counts, H, np.int64),
            ("req", args.req, J, np.float64),
            ("need", args.need, J, np.float64),
            ("est_need", args.est_need, J, np.float64),
            ("elem_req", args.elem_req, J, np.float64),
            ("elem_need", args.elem_need, J, np.float64),
            ("node_agg", args.node_agg, H, np.float64),
            ("node_elem", args.node_elem, H, np.float64)):
        if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
                or arr.shape != (n,) or not arr.flags.c_contiguous):
            raise ValueError(f"share_nodes: {name} must be a C-contiguous "
                             f"{np.dtype(dtype)} vector of {n}")
    # Each count within [0, J] first, so their sum cannot wrap.
    if H and (args.counts.min() < 0 or args.counts.max() > J):
        raise ValueError(f"share_nodes: counts has an entry outside "
                         f"[0, {J}]")
    if int(args.counts.sum()) != J:
        raise ValueError(f"share_nodes: counts sums to "
                         f"{int(args.counts.sum())}, not {J}")
    if J and (args.order.min() < 0 or args.order.max() >= J):
        raise ValueError(f"share_nodes: order has an entry outside [0, {J})")
    if not 0 <= args.policy < len(SHARE_POLICIES):
        raise ValueError(f"share_nodes: no policy code {args.policy}")
    return J, H


class KernelBackend:
    """Base class: names the backend and documents the dispatch surface."""

    #: Registry name (``numpy``, ``native``, ``loops``).
    name: str = "?"

    def first_fit(self, state: Any, item_order: np.ndarray,
                  bin_order: np.ndarray) -> bool:
        raise NotImplementedError

    def best_fit(self, state: Any, item_order: np.ndarray,
                 by_remaining_capacity: bool) -> bool:
        raise NotImplementedError

    def permutation_pack(self, state: Any, pp: Any,
                         bin_order: np.ndarray,
                         by_remaining: bool) -> bool:
        raise NotImplementedError

    def affine_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                              cap: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                             cap: np.ndarray, n_items: np.ndarray,
                             n_bins: np.ndarray) -> np.ndarray:
        """Threshold tables for a padded batch; generic per-instance loop.

        ``req``/``need`` are ``(B, N, D)``, ``cap`` is ``(B, H, D)``;
        instance *b* occupies the first ``n_items[b]`` / ``n_bins[b]``
        rows.  Returns ``(B, N, H)`` with zeros in the padding — each
        instance's block equals its ``affine_fit_thresholds`` exactly,
        so batched solving stays bit-identical by construction.
        """
        B, N, _ = req.shape
        H = cap.shape[1]
        out = np.zeros((B, N, H), dtype=np.float64)
        for b in range(B):
            j, h = int(n_items[b]), int(n_bins[b])
            out[b, :j, :h] = self.affine_fit_thresholds(
                req[b, :j], need[b, :j], cap[b, :h])
        return out

    def incremental_best_fit(self, req_agg: np.ndarray,
                             elem_fit: np.ndarray,
                             loads: np.ndarray,
                             agg: np.ndarray,
                             cap_tol: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def supports_probe_scan(self) -> bool:
        """True when :meth:`probe_scan` is backed by a fused kernel."""
        return False

    def bind_probe_scan(self, args: ProbeScanArgs) -> ProbeTable:
        """Check *args* and bind them, with the buffers a probe fills,
        into one table for :meth:`probe_scan`; once per engine."""
        raise NotImplementedError

    def probe_scan(self, table: ProbeTable, y: float, scan: np.ndarray,
                   assignment: np.ndarray) -> Tuple[int, int]:
        """Run one fused probe at yield *y*; returns ``(scan position,
        cut runs)``.

        *scan* (int64) lists the strategy rows to try, in order; the
        position indexes it (-1 when no strategy packs), and the winning
        placement is left in *assignment* (``(J,)`` int64, overwritten).
        Cut runs counts the strategy runs that stopped at the waste cut.
        """
        raise NotImplementedError

    def greedy_scan(self, args: GreedyScanArgs
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run every greedy pass; returns ``(placements, min_yields)``.

        ``placements`` is ``(P, J)`` and ``min_yields`` ``(P,)``; a pass
        that cannot place every service has a row of -1 and ``-inf``.
        """
        raise NotImplementedError

    def share_nodes(self, args: ShareNodesArgs) -> np.ndarray:
        """Share every node's fluid dimension under ``args.policy``;
        returns each service's actual yield (``(J,)`` float64, service
        order), bit-identical to ``sharing.policies`` run node by node.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"


def _i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _no_limit(state: Any) -> np.ndarray:
    """An infinite waste limit: a standalone fill runs to its end, so the
    state's loads and ``unplaced_count`` stay those of the whole run."""
    return np.full(state.item_agg.shape[1], np.inf)


def _filled(unplaced: int, kernel: str) -> int:
    """A fill kernel's unplaced count.  Called without a limit no run is
    cut, so a negative count means the C translation could not allocate
    its scratch."""
    if unplaced < 0:
        raise MemoryError(f"{kernel} could not allocate its work arrays")
    return int(unplaced)


class ArrayKernelBackend(KernelBackend):
    """State-level adapter over flat-array loop kernels.

    *kernels* is any namespace exposing the functions of :mod:`._loops`
    with identical signatures — the uncompiled module itself or the
    ctypes shims of the native backend.
    """

    def __init__(self, name: str, kernels: Any):
        self.name = name
        self._k = kernels

    # -- packers -------------------------------------------------------
    def first_fit(self, state: Any, item_order: np.ndarray,
                  bin_order: np.ndarray) -> bool:
        unplaced = _filled(self._k.ff_fill(
            state.item_agg, state.elem_ok, _i64(item_order),
            _i64(bin_order), state.loads, state.load_sum,
            state.bin_cap_tol, _no_limit(state), state.assignment),
            "ff_fill")
        state.unplaced_count = unplaced
        return unplaced == 0

    def best_fit(self, state: Any, item_order: np.ndarray,
                 by_remaining_capacity: bool) -> bool:
        ok = self._k.bf_pack(
            state.item_agg, state.item_agg_sum, state.elem_ok,
            _i64(item_order), state.loads, state.load_sum,
            state.bin_cap_tol, state.bin_agg_sum,
            bool(by_remaining_capacity), state.assignment)
        state.unplaced_count = int(np.count_nonzero(state.assignment < 0))
        return bool(ok)

    def permutation_pack(self, state: Any, pp: Any,
                         bin_order: np.ndarray,
                         by_remaining: bool) -> bool:
        if state.item_agg.shape[1] == 2:
            # The packed codes are a total order (they embed the
            # item-sort tie-break rank), so a single global argsort per
            # ranking replaces the numpy backend's per-bin sorts:
            # walking it while skipping already-placed items visits
            # candidates in the same sequence.
            order0 = np.argsort(pp.codes_for((0, 1)))
            order1 = np.argsort(pp.codes_for((1, 0)))
            unplaced = _filled(self._k.pp_fill_2d(
                state.item_agg, state.elem_ok, _i64(order0), _i64(order1),
                _i64(bin_order), state.loads, state.load_sum,
                state.bin_cap_tol, state.bin_agg, bool(by_remaining),
                _no_limit(state), state.assignment), "pp_fill_2d")
        else:
            unplaced = _filled(self._k.pp_fill_general(
                state.item_agg, state.item_agg_sum, state.elem_ok,
                _i64(state.item_dim_perm), _i64(pp.tie_rank), int(pp.w),
                bool(pp.choose_pack), _i64(bin_order), state.loads,
                state.load_sum, state.bin_cap_tol, state.bin_agg,
                bool(by_remaining), _no_limit(state), state.assignment),
                "pp_fill_general")
        state.unplaced_count = unplaced
        return unplaced == 0

    # -- probe factory -------------------------------------------------
    # The kernels follow the shapes, so they are checked here.
    def affine_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                              cap: np.ndarray) -> np.ndarray:
        req = np.ascontiguousarray(req, dtype=np.float64)
        need = np.ascontiguousarray(need, dtype=np.float64)
        cap = np.ascontiguousarray(cap, dtype=np.float64)
        if (req.ndim != 2 or need.shape != req.shape or cap.ndim != 2
                or cap.shape[1] != req.shape[1]):
            raise ValueError(f"affine_fit_thresholds: req {req.shape}, "
                             f"need {need.shape} and cap {cap.shape} must "
                             f"be (J, D), (J, D) and (H, D)")
        out = np.empty((req.shape[0], cap.shape[0]), dtype=np.float64)
        self._k.affine_fit_thresholds(req, need, cap, out)
        return out

    def batch_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                             cap: np.ndarray, n_items: np.ndarray,
                             n_bins: np.ndarray) -> np.ndarray:
        req = np.ascontiguousarray(req, dtype=np.float64)
        need = np.ascontiguousarray(need, dtype=np.float64)
        cap = np.ascontiguousarray(cap, dtype=np.float64)
        n_items, n_bins = _i64(n_items), _i64(n_bins)
        B = req.shape[0] if req.ndim == 3 else -1
        if (B < 0 or need.shape != req.shape or cap.ndim != 3
                or cap.shape[0] != B or cap.shape[2] != req.shape[2]
                or n_items.shape != (B,) or n_bins.shape != (B,)):
            raise ValueError(f"batch_fit_thresholds: req {req.shape}, "
                             f"need {need.shape}, cap {cap.shape}, n_items "
                             f"{n_items.shape} and n_bins {n_bins.shape} "
                             f"must be (B, N, D), (B, N, D), (B, H, D), "
                             f"(B,) and (B,)")
        if B and (n_items.min() < 0 or n_items.max() > req.shape[1]
                  or n_bins.min() < 0 or n_bins.max() > cap.shape[1]):
            raise ValueError("batch_fit_thresholds: an item or bin count "
                             "is negative or past the padding")
        out = np.zeros((B, req.shape[1], cap.shape[1]), dtype=np.float64)
        self._k.batch_fit_thresholds(req, need, cap, n_items, n_bins, out)
        return out

    # -- dynamic simulator ---------------------------------------------
    def incremental_best_fit(self, req_agg: np.ndarray,
                             elem_fit: np.ndarray,
                             loads: np.ndarray, agg: np.ndarray,
                             cap_tol: np.ndarray) -> np.ndarray:
        out = np.empty(req_agg.shape[0], dtype=np.int64)
        self._k.incremental_best_fit(
            np.ascontiguousarray(req_agg, dtype=np.float64),
            np.ascontiguousarray(elem_fit),
            loads, agg, cap_tol, out)
        return out

    # -- fused probe ---------------------------------------------------
    @property
    def supports_probe_scan(self) -> bool:
        return True

    def bind_probe_scan(self, args: ProbeScanArgs) -> ProbeTable:
        table = ProbeTable(args)
        table.handle = self._k.bind_probe_table(table)
        return table

    def probe_scan(self, table: ProbeTable, y: float, scan: np.ndarray,
                   assignment: np.ndarray) -> Tuple[int, int]:
        if (scan.dtype != np.int64 or scan.ndim != 1
                or not scan.flags.c_contiguous):
            raise ValueError("scan must be a C-contiguous int64 vector")
        if (assignment.dtype != np.int64
                or assignment.shape != (table.J,)
                or not assignment.flags.c_contiguous
                or not assignment.flags.writeable):
            raise ValueError("assignment must be a writable C-contiguous "
                             f"int64 vector of {table.J} items")
        si = self._k.probe_scan(table, float(y), scan, assignment)
        return int(si), int(table.cut_runs[0])

    # -- greedy passes -------------------------------------------------
    def greedy_scan(self, args: GreedyScanArgs
                    ) -> Tuple[np.ndarray, np.ndarray]:
        J = args.req_agg.shape[0]
        P = args.pass_order.shape[0]
        placements = np.empty((P, J), dtype=np.int64)
        min_yields = np.empty(P, dtype=np.float64)
        feasible = self._k.greedy_scan(
            args.req_agg, args.req_agg_sum, args.need_dim, args.req_dim,
            args.elem_ok, args.bin_agg, args.bin_agg_sum, args.cap_tol,
            args.req_elem, args.need_elem, args.need_agg, args.bin_elem,
            args.orders, args.pass_order, args.pass_pick,
            float(args.feas_atol), float(args.feas_rtol), placements,
            min_yields)
        if feasible < 0:
            raise MemoryError("greedy_scan could not allocate its work arrays")
        return placements, min_yields

    # -- §6 sharing ----------------------------------------------------
    def share_nodes(self, args: ShareNodesArgs) -> np.ndarray:
        J, _ = _check_share_args(args)
        yields = np.empty(J)
        self._k.share_nodes(
            args.order, args.counts, args.req, args.need, args.est_need,
            args.elem_req, args.elem_need, args.node_agg, args.node_elem,
            int(args.policy), float(args.epsilon), float(args.share_atol),
            yields, np.empty(J), np.empty(J), np.empty(J), np.empty(J),
            np.empty(J, dtype=np.uint8), np.empty((128, 3), dtype=np.int64),
            np.empty(64))
        return yields
