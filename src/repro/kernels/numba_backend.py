"""Numba kernel backend: ``@njit(cache=True, nogil=True)`` over
:mod:`._loops`.

Importing this module raises ``ImportError`` when numba is not installed
— the registry treats that as "backend unavailable" and falls back (numba
is an optional extra: ``pip install repro-vm-allocation[numba]``).

``cache=True`` persists the compiled machine code next to the package,
so the one-off JIT cost (~seconds) is paid once per environment, not per
process.  ``nogil=True`` releases the GIL inside every kernel, so
:func:`repro.algorithms.vector_packing.batch_solve.solve_many` can drive
the kernels from a plain thread pool.  The kernels are the exact
functions the ``loops`` reference backend runs uncompiled, so numba
correctness reduces to numba compiling standard scalar numpy code — and
is re-asserted bit-for-bit by the cross-backend equivalence tests
whenever numba is present.

The fused :data:`probe_scan` is built by jitting the
:func:`._loops.make_probe_scan` closure over the jitted packers; closures
cannot use the on-disk cache, so that one compile is per-process — it is
attempted during :func:`warmup` and the binding degrades to ``None`` (the
backend then reports ``supports_probe_scan = False``) if numba cannot
compile it.  :data:`greedy_scan` is the :func:`._loops.make_greedy_scan`
closure over the jitted :data:`pairwise_sum`, compiled and degraded the
same way (``None`` makes the adapter run the numpy reference loop).
"""

from __future__ import annotations

from numba import njit

from . import _loops

__all__ = [
    "ff_fill",
    "bf_pack",
    "pp_fill_2d",
    "pp_fill_general",
    "affine_fit_thresholds",
    "batch_fit_thresholds",
    "incremental_best_fit",
    "probe_scan",
    "pairwise_sum",
    "greedy_scan",
    "warmup",
]

_jit = njit(cache=True, nogil=True)

ff_fill = _jit(_loops.ff_fill)
bf_pack = _jit(_loops.bf_pack)
pp_fill_2d = _jit(_loops.pp_fill_2d)
pp_fill_general = _jit(_loops.pp_fill_general)
affine_fit_thresholds = _jit(_loops.affine_fit_thresholds)
batch_fit_thresholds = _jit(_loops.batch_fit_thresholds)
incremental_best_fit = _jit(_loops.incremental_best_fit)

probe_scan = njit(nogil=True)(
    _loops.make_probe_scan(ff_fill, bf_pack, pp_fill_2d, pp_fill_general))

pairwise_sum = _jit(_loops.pairwise_sum)
greedy_scan = njit(nogil=True)(_loops.make_greedy_scan(pairwise_sum))


def warmup() -> None:
    """Force compilation on tiny inputs so the first real solve is hot."""
    global probe_scan, greedy_scan
    import numpy as np

    item_agg = np.ones((2, 2))
    elem_ok = np.ones((2, 1), dtype=np.bool_)
    order = np.arange(2, dtype=np.int64)
    bins = np.zeros(1, dtype=np.int64)
    loads = np.zeros((1, 2))
    load_sum = np.zeros(1)
    cap = np.full((1, 2), 8.0)
    assignment = np.full(2, -1, dtype=np.int64)
    limit = np.full(2, np.inf)
    ff_fill(item_agg, elem_ok, order, bins, loads, load_sum, cap, limit,
            assignment)
    assignment[:] = -1
    loads[:] = 0.0
    load_sum[:] = 0.0
    bf_pack(item_agg, item_agg.sum(axis=1), elem_ok, order, loads,
            load_sum, cap, cap.sum(axis=1), True, assignment)
    assignment[:] = -1
    loads[:] = 0.0
    load_sum[:] = 0.0
    pp_fill_2d(item_agg, elem_ok, order, order, bins, loads, load_sum,
               cap, cap, True, limit, assignment)
    assignment[:] = -1
    loads[:] = 0.0
    load_sum[:] = 0.0
    dim_perm = np.tile(np.arange(2, dtype=np.int64), (2, 1))
    pp_fill_general(item_agg, item_agg.sum(axis=1), elem_ok, dim_perm,
                    order, 2, True, bins, loads, load_sum, cap, cap,
                    True, limit, assignment)
    out = np.empty((2, 1))
    affine_fit_thresholds(item_agg, item_agg, cap, out)
    batch_fit_thresholds(item_agg[None], item_agg[None], cap[None],
                         np.array([2], dtype=np.int64),
                         np.array([1], dtype=np.int64),
                         np.empty((1, 2, 1)))
    incremental_best_fit(item_agg, elem_ok, loads, cap, cap,
                         np.empty(2, dtype=np.int64))
    try:
        loads[:] = 0.0
        load_sum[:] = 0.0
        assignment[:] = -1
        st0 = np.zeros(1, dtype=np.int64)
        probe_scan(item_agg, item_agg.sum(axis=1), elem_ok, cap, cap,
                   cap.sum(axis=1), limit, order[None], order[None],
                   bins[None], dim_perm, order[None], order[None], st0,
                   st0, st0, st0, np.full(1, 2, dtype=np.int64), st0,
                   st0, st0, loads, load_sum, assignment,
                   np.zeros(1, dtype=np.int64))
    except Exception:
        # The packer kernels above still work; only the fused scan is
        # lost, and the backend degrades to per-strategy dispatch.
        probe_scan = None
    try:
        # Instance arrays reach the scan read-only; warm that signature.
        svc, node = item_agg.copy(), cap.copy()
        svc.setflags(write=False)
        node.setflags(write=False)
        dim = np.zeros(2, dtype=np.int64)
        one = np.zeros(1, dtype=np.int64)
        greedy_scan(svc, svc.sum(axis=1), dim, dim, elem_ok, node,
                    node.sum(axis=1), cap, svc, svc, svc, node,
                    order[None], one, one, 0.0, 0.0,
                    np.empty((1, 2), dtype=np.int64), np.empty(1))
    except Exception:
        # Same degradation: the adapter runs the numpy reference loop.
        greedy_scan = None
