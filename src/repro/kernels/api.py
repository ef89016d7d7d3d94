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
* ``probe_scan(args)`` — the fused META* feasibility probe (one call
  scans a whole strategy table; advertised via ``supports_probe_scan``,
  which only the numpy backend leaves off);
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

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

__all__ = ["KernelBackend", "ArrayKernelBackend", "GreedyScanArgs",
           "ProbeScanArgs"]


@dataclass(frozen=True)
class ProbeScanArgs:
    """Inputs of one fused probe: the instance at a fixed yield plus the
    precomputed strategy table (see :func:`._loops.probe_scan` for
    the column semantics).  All arrays C-contiguous; index columns int64.
    """

    item_agg: np.ndarray        # (J, D) float64
    item_agg_sum: np.ndarray    # (J,)   float64
    elem_ok: np.ndarray         # (J, H) bool
    cap_tol: np.ndarray         # (H, D) float64
    bin_agg: np.ndarray         # (H, D) float64
    bin_agg_sum: np.ndarray     # (H,)   float64
    waste_limit: np.ndarray     # (D,)   float64 spare capacity (waste cut)
    item_orders: np.ndarray     # (SI, J) distinct item orders
    tie_ranks: np.ndarray       # (SI, J) rank of each item per order
    bin_orders: np.ndarray      # (SB, H) distinct bin orders
    item_dim_perm: np.ndarray   # (J, D) per-item dimension permutation
    pp_order0: np.ndarray       # (NC, J) 2-D walk order, ranking (0, 1)
    pp_order1: np.ndarray       # (NC, J) 2-D walk order, ranking (1, 0)
    st_packer: np.ndarray       # (S,) 0=FF 1=BF 2=PP/CP
    st_item: np.ndarray         # (S,) row into item_orders/tie_ranks
    st_bin: np.ndarray          # (S,) row into bin_orders (-1 for BF)
    st_hetero: np.ndarray       # (S,) heterogeneous flag
    st_w: np.ndarray            # (S,) effective PP/CP window
    st_choose: np.ndarray       # (S,) 1 for Choose-Pack
    st_cfg: np.ndarray          # (S,) row into pp_order0/1 (-1 if unused)
    scan: np.ndarray            # scan order over strategy rows


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

    def probe_scan(self, args: ProbeScanArgs
                   ) -> Tuple[int, np.ndarray, int]:
        """Run one fused probe; returns ``(scan position, assignment,
        cut runs)``.

        The position indexes ``args.scan`` (-1 when no strategy packs);
        the assignment array is freshly allocated per call; cut runs
        counts the strategy runs that stopped at ``args.waste_limit``.
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

    def probe_scan(self, args: ProbeScanArgs
                   ) -> Tuple[int, np.ndarray, int]:
        J, D = args.item_agg.shape
        H = args.cap_tol.shape[0]
        loads = np.zeros((H, D), dtype=np.float64)
        load_sum = np.zeros(H, dtype=np.float64)
        assignment = np.full(J, -1, dtype=np.int64)
        cut_runs = np.zeros(1, dtype=np.int64)
        si = self._k.probe_scan(
            args.item_agg, args.item_agg_sum, args.elem_ok, args.cap_tol,
            args.bin_agg, args.bin_agg_sum, args.waste_limit,
            args.item_orders, args.tie_ranks, args.bin_orders,
            args.item_dim_perm, args.pp_order0, args.pp_order1,
            args.st_packer, args.st_item, args.st_bin, args.st_hetero,
            args.st_w, args.st_choose, args.st_cfg, args.scan, loads,
            load_sum, assignment, cut_runs)
        if si < -1:
            raise MemoryError("probe_scan could not allocate its work arrays")
        return int(si), assignment, int(cut_runs[0])

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
