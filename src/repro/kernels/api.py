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
  placement and its minimum yield after the per-node improvement.

All implementations are *bit-compatible*: identical placements, loads and
threshold tables for identical inputs (asserted by the cross-backend
equivalence tests), so switching backends never changes results — only
wall-clock.  Backend selection never depends on the dimension count.

:class:`ArrayKernelBackend` adapts the flat-array loop kernels of
:mod:`._loops` (or the C translation with the same signatures) to this
state-level interface; the native and loops backends are instances of
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["KernelBackend", "ArrayKernelBackend", "GreedyScanArgs",
           "ProbeScanArgs", "ProbeTable", "SORT_METRICS"]

#: Item-sort metrics in the order of ``ProbeScanArgs.sort_metric`` codes.
SORT_METRICS = ("MAX", "SUM", "MAXRATIO", "MAXDIFFERENCE", "LEX", "NONE")


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


def _bad(name: str, what: str) -> ValueError:
    return ValueError(f"probe table: {name} {what}")


def _check_probe_args(args: ProbeScanArgs) -> Dict[str, int]:
    """The table's dimensions, after checking every array's dtype,
    contiguity and shape, and every index the kernel follows."""
    dims: Dict[str, int] = {}
    for f in fields(args):
        shape = f.metadata.get("shape")
        if shape is None:
            continue
        arr = getattr(args, f.name)
        if not isinstance(arr, np.ndarray) or arr.dtype != f.metadata["dtype"]:
            raise TypeError(f"probe table: {f.name} must be a "
                            f"{f.metadata['dtype']} array, not "
                            f"{getattr(arr, 'dtype', type(arr).__name__)}")
        if not arr.flags.c_contiguous:
            raise _bad(f.name, "is not C-contiguous")
        if arr.ndim != len(shape):
            raise _bad(f.name, f"has shape {arr.shape}, expected "
                               f"({', '.join(shape)})")
        for dim, n in zip(shape, arr.shape):
            if dims.setdefault(dim, n) != n:
                raise _bad(f.name, f"has {dim} = {n}, expected {dims[dim]}")
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
    plus every buffer a probe fills, allocated once.

    The kernel writes the probe's inputs into ``item_agg``,
    ``item_agg_sum``, ``elem_ok`` (uint8), ``waste_limit``,
    ``item_orders``/``tie_ranks`` (``(SI, J)``), ``item_dim_perm`` and
    ``pp_order0``/``pp_order1`` (``(NC, J)``), each lazily built row
    marked in ``built``; the rest is scratch.  ``handle`` is what a
    compiled backend binds (the C struct of these arrays' pointers); the
    table holds every array it points into, so they live as long as it.
    """

    def __init__(self, args: ProbeScanArgs):
        dims = _check_probe_args(args)
        J, H, D = dims["J"], dims["H"], dims["D"]
        SI, NC = dims["SI"], dims["NC"]
        self.J, self.H, self.D = J, H, D
        self.S, self.SI, self.SB, self.NC = dims["S"], SI, dims["SB"], NC
        for f in fields(args):
            setattr(self, f.name, getattr(args, f.name))
        self.waste_rtol = float(args.waste_rtol)
        self.item_agg = np.zeros((J, D))
        self.item_agg_sum = np.zeros(J)
        self.elem_ok = np.zeros((J, H), dtype=np.uint8)
        self.waste_limit = np.zeros(D)
        self.item_orders = np.zeros((SI, J), dtype=np.int64)
        self.tie_ranks = np.zeros((SI, J), dtype=np.int64)
        self.item_dim_perm = np.zeros((J, D), dtype=np.int64)
        self.pp_order0 = np.zeros((NC, J), dtype=np.int64)
        self.pp_order1 = np.zeros((NC, J), dtype=np.int64)
        self.built = np.zeros(SI + 1 + NC, dtype=np.uint8)
        self.loads = np.zeros((H, D))
        self.load_sum = np.zeros(H)
        self.sort_key = np.zeros(J)
        self.sort_tmp = np.zeros(J, dtype=np.int64)
        self.work_i = np.zeros(J + 3 * D, dtype=np.int64)
        self.work_f = np.zeros(2 * D)
        self.dead = np.zeros(J, dtype=np.uint8)
        self.frames = np.zeros((128, 3), dtype=np.int64)
        self.partial = np.zeros(64)
        self.cut_runs = np.zeros(1, dtype=np.int64)
        self.handle: Any = None


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
    def affine_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                              cap: np.ndarray) -> np.ndarray:
        req = np.ascontiguousarray(req, dtype=np.float64)
        need = np.ascontiguousarray(need, dtype=np.float64)
        cap = np.ascontiguousarray(cap, dtype=np.float64)
        out = np.empty((req.shape[0], cap.shape[0]), dtype=np.float64)
        self._k.affine_fit_thresholds(req, need, cap, out)
        return out

    def batch_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                             cap: np.ndarray, n_items: np.ndarray,
                             n_bins: np.ndarray) -> np.ndarray:
        req = np.ascontiguousarray(req, dtype=np.float64)
        need = np.ascontiguousarray(need, dtype=np.float64)
        cap = np.ascontiguousarray(cap, dtype=np.float64)
        out = np.zeros((req.shape[0], req.shape[1], cap.shape[1]),
                       dtype=np.float64)
        self._k.batch_fit_thresholds(req, need, cap, _i64(n_items),
                                     _i64(n_bins), out)
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
