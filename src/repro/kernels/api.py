"""Kernel-backend interface, the kernels' declared inputs, and the
array-kernel adapter.

A :class:`KernelBackend` implements the hot scalar kernels the packers
and the dynamic simulator dispatch to (see :mod:`repro.kernels`):

* ``first_fit(state, item_order, bin_order)`` — FF's per-bin fill,
  ``best_fit(state, item_order, by_remaining_capacity)`` — BF's
  O(1)-update scoring loop, and ``permutation_pack(state, codes_for,
  bin_order, by_remaining)`` — PP/CP's packed-code selection (any D):
  one implementation, :mod:`.packers`, on every backend;
* ``affine_fit_thresholds(req, need, cap)`` — the probe factory's
  yield-threshold table, the only way any caller builds one;
* ``batch_fit_thresholds(req, need, cap, n_items, n_bins)`` — the same
  tables over a padded ``(B, ...)`` batch: one ``affine_fit_thresholds``
  call per instance, on every backend;
* ``incremental_best_fit(req_agg, elem_fit, loads, agg, cap_tol)`` —
  the dynamic simulator's newcomer placement;
* ``bind_probe_scan(args)`` / ``probe_scan(table, y, scan, assignment)``
  — the fused META* feasibility probe.  An engine binds its
  yield-independent tables once into a :class:`ProbeTable`; each probe
  then passes only the yield, the scan order and an assignment buffer,
  and the kernel builds the probe's inputs itself and scans the whole
  strategy table in one call (advertised via ``supports_probe_scan``,
  which only the numpy backend leaves off);
* ``greedy_scan(args)`` — METAGREEDY's passes in one call: each pass's
  placement and its minimum yield after the per-node improvement;
* ``share_nodes(args)`` — the §6 runtime sharing evaluation in one call:
  every node's CPU shared by one policy (:data:`SHARE_POLICIES`), and
  each service's actual yield.

All implementations are *bit-compatible*: identical placements, loads,
threshold tables and yields for identical inputs (asserted by the
cross-backend equivalence tests), so switching backends never changes
results — only wall-clock.  Backend selection never depends on the dimension count.

Each kernel's inputs are declared once, as a frozen dataclass of its
arguments whose arrays carry dtype and shape (:func:`_array`) and which
lists the index ranges the kernel follows — :class:`ProbeScanArgs`,
:class:`GreedyScanArgs`, :class:`ShareNodesArgs`, :class:`ThresholdArgs`
and :class:`IncrementalBestFitArgs` — and checked by :func:`check_args`
before the kernel runs, so the compiled backend passes raw addresses.
:class:`BatchThresholdArgs` declares the padded batch the same way; it
is checked before the per-instance loop, which no kernel replaces.

:class:`ArrayKernelBackend` adapts the flat-array loop kernels of
:mod:`._loops` (or the C translation with the same signatures) to this
interface; the native and loops backends are instances of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, Tuple

import numpy as np

from . import packers

__all__ = ["KernelBackend", "ArrayKernelBackend", "GreedyScanArgs",
           "ProbeScanArgs", "ProbeTable", "ShareNodesArgs", "SHARE_POLICIES",
           "SORT_METRICS", "codes_overflow"]

#: Item-sort metrics in the order of ``ProbeScanArgs.sort_metric`` codes.
SORT_METRICS = ("MAX", "SUM", "MAXRATIO", "MAXDIFFERENCE", "LEX", "NONE")

#: §6 sharing policies in the order of ``ShareNodesArgs.policy`` codes.
SHARE_POLICIES = ("ALLOCCAPS", "ALLOCWEIGHTS", "EQUALWEIGHTS")

#: A declaration's dimensions, by name.
Dims = Dict[str, int]
#: An index range a kernel follows: the field, its int64 values, and the
#: half-open interval ``[lo, hi)`` every value must lie in.
Range = Tuple[str, np.ndarray, int, int]


def _array(dtype: type, *shape: str, out: bool = False) -> Any:
    """A declared array field: its dtype, its shape in the declaration's
    dimension names, and whether the kernel writes it (*out*), in which
    case it must be writable and is never copied."""
    return field(metadata={"dtype": np.dtype(dtype), "shape": shape,
                           "out": out})


def _refuse(kernel: str, name: str, what: str) -> ValueError:
    return ValueError(f"{kernel}: {name} {what}")


def codes_overflow(D: int, w: int, J: int) -> bool:
    """Whether PP/CP selection codes of ``w`` base-``D`` key digits and
    then a tie rank below ``J + 1`` overflow an int64.  The fused probe
    refuses such a strategy list; the per-strategy engine runs its PP
    with the seed kernel of ``vector_packing.legacy`` instead."""
    return D ** w * (J + 1) >= 2 ** 62


class _Declaration:
    """Base of every kernel's declared inputs (see :func:`check_args`):
    its fields are the kernel's leading arguments, in order."""

    #: The kernel the arrays go to; every refusal names it.
    kernel: ClassVar[str]

    def _ranges(self, dims: Dims) -> Tuple[Range, ...]:
        """Each index the kernel follows, with the range it must lie in."""
        return ()

    def _conditions(self, dims: Dims) -> None:
        """Refuse what is not a dtype, a shape or an index range."""


@dataclass(frozen=True)
class ProbeScanArgs(_Declaration):
    """The yield-independent inputs of the fused probe: one instance and
    one compiled strategy list (see :func:`._loops.probe_scan` for the
    strategy table's columns).

    Dimensions: J items, H bins, D resource dimensions, S strategies,
    SI distinct item sorts, SB distinct bin orders, NC 2-D walk configs.
    :class:`ProbeTable` checks them once, at bind time.
    """

    kernel: ClassVar[str] = "probe_scan"

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

    def _ranges(self, dims: Dims) -> Tuple[Range, ...]:
        D = dims["D"]
        packer = self.st_packer
        fill = packer != 1
        pp = packer == 2
        walk = pp if D == 2 else np.zeros_like(pp)
        return (
            ("bin_orders", self.bin_orders, 0, dims["H"]),
            ("sort_metric", self.sort_metric, 0, len(SORT_METRICS)),
            ("st_packer", packer, 0, 3),
            ("st_item", self.st_item, 0, dims["SI"]),
            ("st_bin", self.st_bin[fill], 0, dims["SB"]),
            ("st_w", self.st_w[pp], 1, D + 1),
            ("st_cfg", self.st_cfg[walk], 0, dims["NC"]),
            ("cfg_w", self.cfg_w, 1, 3 if D == 2 else 1),
            ("cfg_item", self.cfg_item, 0, dims["SI"]),
        )

    def _conditions(self, dims: Dims) -> None:
        D, J = dims["D"], dims["J"]
        if D < 1:
            raise _refuse(self.kernel, "req_agg", "has no resource dimension")
        # Every window is at most D (a range above), so only an instance
        # whose widest codes overflow needs the windows in use.
        if not codes_overflow(D, D, J):
            return
        pp = self.st_packer == 2
        if pp.any() and codes_overflow(D, int(self.st_w[pp].max()), J):
            raise _refuse(self.kernel, "st_w",
                          "gives PP/CP codes that overflow an int64")


def check_args(args: _Declaration) -> Dims:
    """The dimensions of *args*, once each array's type and dtype (else
    :class:`TypeError`), C-contiguity, shape by dimension name, an
    output's writability, each index range and each further condition
    pass (else :class:`ValueError`, naming the kernel and the field)."""
    kernel = args.kernel
    dims: Dims = {}
    for name, dtype, shape, out in _SPECS[type(args)]:
        arr = getattr(args, name)
        if not isinstance(arr, np.ndarray) or (arr.dtype is not dtype
                                               and arr.dtype != dtype):
            raise TypeError(f"{kernel}: {name} must be a {dtype} array, "
                            f"not {getattr(arr, 'dtype', type(arr).__name__)}")
        if not arr.flags.c_contiguous:
            raise _refuse(kernel, name, "is not C-contiguous")
        if out and not arr.flags.writeable:
            raise _refuse(kernel, name, "is read-only")
        if arr.ndim != len(shape):
            raise _refuse(kernel, name, f"has shape {arr.shape}, expected "
                                        f"({', '.join(shape)})")
        for dim, n in zip(shape, arr.shape):
            if dims.setdefault(dim, n) != n:
                raise _refuse(kernel, name,
                              f"has {dim} = {n}, expected {dims[dim]}")
    for name, values, lo, hi in args._ranges(dims):
        # Shifted by lo and read unsigned, an entry below lo wraps past
        # hi - lo: one maximum checks both ends.
        if values.size and (values - lo if lo else values).view(
                np.uint64).max() >= hi - lo:
            raise _refuse(kernel, name, f"has an entry outside [{lo}, {hi})")
    args._conditions(dims)
    return dims


class ProbeTable:
    """A fused probe's bound table: the checked :class:`ProbeScanArgs`
    plus every buffer a probe fills, in one block per dtype.

    The kernel writes the probe's inputs into ``item_agg``,
    ``item_agg_sum``, ``elem_ok`` (uint8), ``bin_ok`` (uint8, ``(H,)``:
    1 where some item fits the bin elementarily), ``waste_limit``,
    ``item_orders``/``tie_ranks`` (``(SI, J)``) with their suffix minima
    ``item_min`` (``(SI, J + 1, D)``), ``item_dim_perm``, and
    ``pp_order0``/``pp_order1`` (``(NC, J)``) with theirs, ``walk_min``
    (``(NC, 2, J + 1, 2)``), each lazily built row marked in ``built``;
    it counts into ``cut_runs`` and ``scanned``, and the rest is
    scratch (``live``, ``(H,)``, holds Best-Fit's live bins).  Every
    ``item_orders`` row starts as the identity and always holds a
    permutation: each build sorts the row from the order the last probe
    left there.  Every array, the args' arrays copied in, lives in
    ``blocks`` (float64, int64, uint8), and ``layout`` gives each
    array's dtype (its block), byte offset and shape, so a compiled
    backend binds ``handle`` (the C struct of the arrays' pointers) from
    three base addresses.  An array attribute is a view
    into its block, made on first access (the compiled kernels need none:
    they read through ``handle``).  The table owns its blocks, so every
    pointer lives as long as it.
    """

    def __init__(self, args: ProbeScanArgs):
        dims = check_args(args)
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
                  ("work_f", (2 * D,)), ("partial", (64,)),
                  ("item_min", (SI, J + 1, D)),
                  ("walk_min", (NC, 2, J + 1, 2))),
            _I8: (("item_orders", (SI, J)), ("tie_ranks", (SI, J)),
                  ("item_dim_perm", (J, D)), ("pp_order0", (NC, J)),
                  ("pp_order1", (NC, J)), ("sort_tmp", (J,)),
                  ("work_i", (J + 3 * D,)), ("live", (H,)),
                  ("frames", (128, 3)), ("cut_runs", (1,)),
                  ("scanned", (1,))),
            _U1: (("elem_ok", (J, H)), ("bin_ok", (H,)),
                  ("built", (SI + 1 + NC,)), ("dead", (J,)))}
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
        self.item_orders[:] = np.arange(J)
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
class GreedyScanArgs(_Declaration):
    """Inputs of one greedy scan: an instance's static tables plus the
    passes to run (see :func:`._loops.greedy_scan` for the picker
    codes and the yield).  Dimensions: J services, H nodes, D
    dimensions, SO distinct service orders, P passes.  Per-row sums are
    numpy's (``sum(axis=1)``), so they match the reference bit for bit.
    """

    kernel: ClassVar[str] = "greedy_scan"

    req_agg: np.ndarray = _array(np.float64, "J", "D")  # requirements
    req_agg_sum: np.ndarray = _array(np.float64, "J")   # their row sums
    need_dim: np.ndarray = _array(np.int64, "J")  # argmax of each need (P1)
    req_dim: np.ndarray = _array(np.int64, "J")   # and requirement (P3/P5)
    elem_ok: np.ndarray = _array(np.bool_, "J", "H")  # requirement fits
    bin_agg: np.ndarray = _array(np.float64, "H", "D")  # capacities
    bin_agg_sum: np.ndarray = _array(np.float64, "H")   # their row sums
    cap_tol: np.ndarray = _array(np.float64, "H", "D")  # fit bound
    req_elem: np.ndarray = _array(np.float64, "J", "D")
    need_elem: np.ndarray = _array(np.float64, "J", "D")
    need_agg: np.ndarray = _array(np.float64, "J", "D")
    bin_elem: np.ndarray = _array(np.float64, "H", "D")
    orders: np.ndarray = _array(np.int64, "SO", "J")  # permutations
    pass_order: np.ndarray = _array(np.int64, "P")  # row into orders
    pass_pick: np.ndarray = _array(np.int64, "P")   # 0..6 for P1..P7
    feas_atol: float         # the yield step's feasibility tolerances
    feas_rtol: float

    def _ranges(self, dims: Dims) -> Tuple[Range, ...]:
        J, D = dims["J"], dims["D"]
        return (("need_dim", self.need_dim, 0, D),
                ("req_dim", self.req_dim, 0, D),
                ("orders", self.orders, 0, J),
                ("pass_order", self.pass_order, 0, dims["SO"]),
                ("pass_pick", self.pass_pick, 0, 7))

    def _conditions(self, dims: Dims) -> None:
        # A repeated service leaves another one unplaced, and the kernel
        # would then count that service's -1 node.
        J = dims["J"]
        if not (np.sort(self.orders, axis=1) == np.arange(J)).all():
            raise _refuse(self.kernel, "orders", f"has a row that is not a "
                                                 f"permutation of range({J})")


@dataclass(frozen=True)
class ShareNodesArgs(_Declaration):
    """Inputs of one sharing evaluation over every node (see
    :func:`._loops.share_nodes`): one fluid dimension's columns of J
    services and H nodes, the services grouped by node, and the policy.
    ``order``/``counts`` must group ``range(J)`` by node: the kernel
    follows them.
    """

    kernel: ClassVar[str] = "share_nodes"

    order: np.ndarray = _array(np.int64, "J")  # by node, ascending in one
    counts: np.ndarray = _array(np.int64, "H")  # services on each node
    req: np.ndarray = _array(np.float64, "J")  # rigid requirements
    need: np.ndarray = _array(np.float64, "J")  # true needs
    est_need: np.ndarray = _array(np.float64, "J")  # estimated needs
    elem_req: np.ndarray = _array(np.float64, "J")  # elementary ones
    elem_need: np.ndarray = _array(np.float64, "J")
    node_agg: np.ndarray = _array(np.float64, "H")  # capacities
    node_elem: np.ndarray = _array(np.float64, "H")
    policy: int            # index into SHARE_POLICIES
    epsilon: float         # rounds stop once the pool is this small
    share_atol: float      # slack of "the remaining demand fits"

    def _ranges(self, dims: Dims) -> Tuple[Range, ...]:
        # Each count within [0, J] first, so their sum cannot wrap.
        J = dims["J"]
        return (("counts", self.counts, 0, J + 1),
                ("order", self.order, 0, J))

    def _conditions(self, dims: Dims) -> None:
        J = dims["J"]
        total = int(self.counts.sum())
        if total != J:
            raise _refuse(self.kernel, "counts", f"sums to {total}, not {J}")
        # A repeated service would leave another's yield unwritten.
        if not (np.sort(self.order) == np.arange(J)).all():
            raise _refuse(self.kernel, "order",
                          f"is not a permutation of range({J})")
        if not 0 <= self.policy < len(SHARE_POLICIES):
            raise _refuse(self.kernel, "policy", f"has no code {self.policy}")


@dataclass(frozen=True)
class ThresholdArgs(_Declaration):
    """One yield-threshold table: J items, H bins, D dimensions."""

    kernel: ClassVar[str] = "affine_fit_thresholds"

    req: np.ndarray = _array(np.float64, "J", "D")
    need: np.ndarray = _array(np.float64, "J", "D")
    cap: np.ndarray = _array(np.float64, "H", "D")


@dataclass(frozen=True)
class BatchThresholdArgs(_Declaration):
    """B threshold tables padded to N items and H bins (D dimensions)."""

    kernel: ClassVar[str] = "batch_fit_thresholds"

    req: np.ndarray = _array(np.float64, "B", "N", "D")
    need: np.ndarray = _array(np.float64, "B", "N", "D")
    cap: np.ndarray = _array(np.float64, "B", "H", "D")
    n_items: np.ndarray = _array(np.int64, "B")
    n_bins: np.ndarray = _array(np.int64, "B")

    def _ranges(self, dims: Dims) -> Tuple[Range, ...]:
        return (("n_items", self.n_items, 0, dims["N"] + 1),
                ("n_bins", self.n_bins, 0, dims["H"] + 1))


@dataclass(frozen=True)
class IncrementalBestFitArgs(_Declaration):
    """Inputs of the newcomer best-fit (see
    :func:`._loops.incremental_best_fit`): K newcomers against H nodes
    in D dimensions; ``loads`` is updated in place."""

    kernel: ClassVar[str] = "incremental_best_fit"

    req_agg: np.ndarray = _array(np.float64, "K", "D")
    elem_fit: np.ndarray = _array(np.bool_, "K", "H")
    loads: np.ndarray = _array(np.float64, "H", "D", out=True)
    agg: np.ndarray = _array(np.float64, "H", "D")
    cap_tol: np.ndarray = _array(np.float64, "H", "D")


_DECLARATIONS = (ProbeScanArgs, GreedyScanArgs, ShareNodesArgs,
                 ThresholdArgs, BatchThresholdArgs, IncrementalBestFitArgs)
#: Each declaration's array fields, computed once: name, dtype, shape in
#: dimension names, and whether the kernel writes it.
_SPECS: Dict[type, Tuple[Tuple[str, np.dtype[Any], Tuple[str, ...], bool],
                         ...]] = {
    cls: tuple((f.name, f.metadata["dtype"], f.metadata["shape"],
                f.metadata["out"])
               for f in fields(cls) if "shape" in f.metadata)
    for cls in _DECLARATIONS}
#: Each declaration's fields in order: its kernel's leading arguments.
_ARGUMENTS = {cls: operator.attrgetter(*(f.name for f in fields(cls)))
              for cls in _DECLARATIONS}


_F8, _I8, _U1 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint8)
#: The array fields of each dtype, as a :class:`ProbeTable` lays them out.
_INPUTS = {dtype: tuple(spec[0] for spec in _SPECS[ProbeScanArgs]
                        if spec[1] == dtype)
           for dtype in (_F8, _I8, _U1)}


def _f8(arr: Any) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


# The threshold and best-fit APIs take any array-likes: their inputs are
# converted first, then checked (``loads`` is written, so never copied).
def threshold_args(req: Any, need: Any, cap: Any
                   ) -> Tuple[ThresholdArgs, Dims]:
    args = ThresholdArgs(_f8(req), _f8(need), _f8(cap))
    return args, check_args(args)


def best_fit_args(req_agg: Any, elem_fit: Any, loads: np.ndarray,
                  agg: np.ndarray, cap_tol: np.ndarray
                  ) -> Tuple[IncrementalBestFitArgs, Dims]:
    args = IncrementalBestFitArgs(
        _f8(req_agg), np.ascontiguousarray(elem_fit, dtype=np.bool_), loads,
        agg, cap_tol)
    return args, check_args(args)


class KernelBackend:
    """Base class: names the backend, documents the dispatch surface,
    and runs the packers of :mod:`.packers` for every backend."""

    #: Registry name (``numpy``, ``native``, ``loops``).
    name: str = "?"

    def first_fit(self, state: Any, item_order: np.ndarray,
                  bin_order: np.ndarray) -> bool:
        return packers.first_fit(state, item_order, bin_order)

    def best_fit(self, state: Any, item_order: np.ndarray,
                 by_remaining_capacity: bool) -> bool:
        return packers.best_fit(state, item_order, by_remaining_capacity)

    def permutation_pack(self, state: Any,
                         codes_for: Callable[[Tuple[int, ...]], np.ndarray],
                         bin_order: np.ndarray,
                         by_remaining: bool) -> bool:
        return packers.permutation_pack(state, codes_for, bin_order,
                                        by_remaining)

    def affine_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                              cap: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Nothing in the package calls this; perfbench's tracer wraps it by name.
    def batch_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                             cap: np.ndarray, n_items: np.ndarray,
                             n_bins: np.ndarray) -> np.ndarray:
        """Threshold tables for a padded batch, one instance at a time.

        ``req``/``need`` are ``(B, N, D)``, ``cap`` is ``(B, H, D)``;
        instance *b* occupies the first ``n_items[b]`` / ``n_bins[b]``
        rows.  Returns ``(B, N, H)`` with zeros in the padding; each
        instance's block is its ``affine_fit_thresholds``.
        """
        args = BatchThresholdArgs(
            _f8(req), _f8(need), _f8(cap),
            np.ascontiguousarray(n_items, dtype=np.int64),
            np.ascontiguousarray(n_bins, dtype=np.int64))
        dims = check_args(args)
        out = np.zeros((dims["B"], dims["N"], dims["H"]))
        for b in range(dims["B"]):
            j, h = int(args.n_items[b]), int(args.n_bins[b])
            out[b, :j, :h] = self.affine_fit_thresholds(
                args.req[b, :j], args.need[b, :j], args.cap[b, :h])
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
                   assignment: np.ndarray) -> Tuple[int, int, int]:
        """Run one fused probe at yield *y*; returns ``(scan position,
        cut runs, scanned)``.

        *scan* (int64) lists the strategy rows to try, in order; the
        position indexes it (-1 when no strategy packs), and the winning
        placement is left in *assignment* (``(J,)`` int64, overwritten).
        Cut runs counts the strategy runs that stopped at the waste cut
        (all of *scan*'s runs when the busy bins cannot hold the demand
        and the probe is refused before any runs); scanned counts the
        bin scans' work, the pending entries First-Fit tested, the
        positions the 2-D PP/CP walks visited and the live bins Best-Fit
        tested, one per item and bin.  Each item order the probe needs
        is sorted in *table* from the order its last probe left there.
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


class ArrayKernelBackend(KernelBackend):
    """Adapter over flat-array loop kernels.

    *kernels* is any namespace exposing the functions of :mod:`._loops`
    with identical signatures — the uncompiled module itself or the
    ctypes shims of the native backend.  Every kernel gets its
    declaration's fields, checked (:func:`check_args`), then the outputs
    and scratch the adapter allocates.
    """

    def __init__(self, name: str, kernels: Any):
        self.name = name
        self._k = kernels

    def _call(self, args: _Declaration, *outputs: np.ndarray) -> Any:
        """Kernel ``args.kernel`` on the checked *args*, then *outputs*."""
        return getattr(self._k, args.kernel)(*_ARGUMENTS[type(args)](args),
                                             *outputs)

    # -- probe factory -------------------------------------------------
    def affine_fit_thresholds(self, req: np.ndarray, need: np.ndarray,
                              cap: np.ndarray) -> np.ndarray:
        args, dims = threshold_args(req, need, cap)
        out = np.empty((dims["J"], dims["H"]), dtype=np.float64)
        self._call(args, out)
        return out

    # -- dynamic simulator ---------------------------------------------
    def incremental_best_fit(self, req_agg: np.ndarray,
                             elem_fit: np.ndarray,
                             loads: np.ndarray, agg: np.ndarray,
                             cap_tol: np.ndarray) -> np.ndarray:
        args, dims = best_fit_args(req_agg, elem_fit, loads, agg, cap_tol)
        out = np.empty(dims["K"], dtype=np.int64)
        self._call(args, out)
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
                   assignment: np.ndarray) -> Tuple[int, int, int]:
        if (scan.dtype != np.int64 or scan.ndim != 1
                or not scan.flags.c_contiguous):
            raise ValueError("scan must be a C-contiguous int64 vector")
        # Read unsigned, an entry below 0 wraps past S (check_args' idiom).
        if scan.size and scan.view(np.uint64).max() >= table.S:
            raise _refuse("probe_scan", "scan",
                          f"has an entry outside [0, {table.S})")
        if (assignment.dtype != np.int64
                or assignment.shape != (table.J,)
                or not assignment.flags.c_contiguous
                or not assignment.flags.writeable):
            raise ValueError("assignment must be a writable C-contiguous "
                             f"int64 vector of {table.J} items")
        si = self._k.probe_scan(table, float(y), scan, assignment)
        return int(si), int(table.cut_runs[0]), int(table.scanned[0])

    # -- greedy passes -------------------------------------------------
    def greedy_scan(self, args: GreedyScanArgs
                    ) -> Tuple[np.ndarray, np.ndarray]:
        dims = check_args(args)
        placements = np.empty((dims["P"], dims["J"]), dtype=np.int64)
        min_yields = np.empty(dims["P"], dtype=np.float64)
        if self._call(args, placements, min_yields) < 0:
            raise MemoryError("greedy_scan could not allocate its work arrays")
        return placements, min_yields

    # -- §6 sharing ----------------------------------------------------
    def share_nodes(self, args: ShareNodesArgs) -> np.ndarray:
        J = check_args(args)["J"]
        yields = np.empty(J)
        self._call(args, yields, np.empty(J), np.empty(J), np.empty(J),
                   np.empty(J), np.empty(J, dtype=np.uint8),
                   np.empty((128, 3), dtype=np.int64), np.empty(64))
        return yields
