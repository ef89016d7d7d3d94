"""Every kernel's declared inputs are refused before the kernel runs.

Each case is one declaration of :mod:`repro.kernels.api` with good
arguments and the backend call that takes them.  Behind
:class:`~repro.kernels.api.ArrayKernelBackend` sits a stub whose kernels
only record that they were called: the good arguments must reach it, and
no corrupted array may — a wrong dtype, a wrong shape, a strided or
column-major array, a read-only output, or an index at -1 or at the
upper bound of its declared range.  An argument the adapter converts
(the thresholds' inputs, the best-fit's newcomer rows) is only refused
for its shape and range.  A batch of threshold tables has no kernel of
its own: its good arguments reach the threshold kernel once per
instance.  The numpy backend runs no kernel, but refuses the same
corrupted greedy, sharing, threshold and best-fit arguments.  The fused
probe's per-call ``scan`` and ``assignment`` are checked on every probe.
"""

import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.greedy import _ALL_PASSES, _scan_args
from repro.algorithms.vector_packing import FusedProbeEngine
from repro.kernels import _loops
from repro.kernels.api import (ArrayKernelBackend, BatchThresholdArgs,
                               GreedyScanArgs, IncrementalBestFitArgs,
                               ProbeScanArgs, ShareNodesArgs, ThresholdArgs,
                               _SPECS, check_args)
from repro.kernels.native_backend import _NativeKernels
from repro.kernels.numpy_backend import NumpyKernelBackend
from tests.kernels.test_probe_bind import TABLE, args_of, random_instance

KERNELS = ("affine_fit_thresholds", "incremental_best_fit",
           "bind_probe_table", "probe_scan", "greedy_scan", "share_nodes")


def recording_backend():
    """An adapter whose kernels only record that they were called."""
    calls = []

    def stub(name):
        return lambda *a: calls.append(name) or 0

    return ArrayKernelBackend("stub", SimpleNamespace(
        **{name: stub(name) for name in KERNELS})), calls


def good_args():
    rng = np.random.default_rng(7)
    instance = random_instance(J=8, H=3)
    with kernels.kernel_backend("loops"):
        probe = args_of(FusedProbeEngine(random_instance(), TABLE))
    return {
        ProbeScanArgs: probe,
        GreedyScanArgs: _scan_args(instance, _ALL_PASSES),
        ShareNodesArgs: ShareNodesArgs(
            np.array([0, 3, 1, 2], dtype=np.int64),
            np.array([2, 2], dtype=np.int64), *rng.random((5, 4)),
            np.ones(2), np.ones(2), 1, 1e-12, 1e-12),
        ThresholdArgs: ThresholdArgs(rng.random((4, 2)), rng.random((4, 2)),
                                     rng.random((3, 2))),
        BatchThresholdArgs: BatchThresholdArgs(
            rng.random((2, 4, 2)), rng.random((2, 4, 2)),
            rng.random((2, 3, 2)), np.array([4, 1]), np.array([3, 0])),
        IncrementalBestFitArgs: IncrementalBestFitArgs(
            rng.random((3, 2)), rng.random((3, 4)) < 0.7, np.zeros((4, 2)),
            np.ones((4, 2)), np.ones((4, 2))),
    }


CALLS = {
    ProbeScanArgs: lambda be, a: be.bind_probe_scan(a),
    GreedyScanArgs: lambda be, a: be.greedy_scan(a),
    ShareNodesArgs: lambda be, a: be.share_nodes(a),
    ThresholdArgs: lambda be, a: be.affine_fit_thresholds(a.req, a.need,
                                                          a.cap),
    BatchThresholdArgs: lambda be, a: be.batch_fit_thresholds(
        a.req, a.need, a.cap, a.n_items, a.n_bins),
    IncrementalBestFitArgs: lambda be, a: be.incremental_best_fit(
        a.req_agg, a.elem_fit, a.loads, a.agg, a.cap_tol),
}

#: Arguments the adapter converts to its dtype and C order.
CONVERTED = {
    ThresholdArgs: {"req", "need", "cap"},
    BatchThresholdArgs: {"req", "need", "cap", "n_items", "n_bins"},
    IncrementalBestFitArgs: {"req_agg", "elem_fit"},
}
#: The declarations the numpy backend checks.
NUMPY_CHECKS = (GreedyScanArgs, ShareNodesArgs, ThresholdArgs,
                BatchThresholdArgs, IncrementalBestFitArgs)

GOOD = good_args()


def fresh(args):
    """*args* with every array copied, so a call that writes (the
    best-fit's loads) leaves the good arguments as they were."""
    return dataclasses.replace(args, **{
        name: getattr(args, name).copy() for name, *_ in _SPECS[type(args)]})


def _wrong_dtype(arr):
    return arr.astype({np.dtype(np.float64): np.float32,
                       np.dtype(np.int64): np.int32,
                       np.dtype(np.bool_): np.uint8}[arr.dtype])


def _read_only(arr):
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def corruptions(cls):
    """``(label, field, corrupted value, error)`` for each array field of
    declaration *cls* the call lets a caller corrupt."""
    good = GOOD[cls]
    converted = CONVERTED.get(cls, set())
    out = []
    for name, _, _, written in _SPECS[cls]:
        arr = getattr(good, name)
        if name not in converted:
            out.append(("dtype", name, _wrong_dtype(arr), TypeError))
            out.append(("strided", name, np.repeat(arr, 2, axis=-1)[..., ::2],
                        ValueError))
            # One block of memory, but not in C order: two axes longer
            # than 1 (a memoryview calls it contiguous).
            column_major = np.asfortranarray(arr)
            if not column_major.flags.c_contiguous:
                out.append(("column-major", name, column_major, ValueError))
        out.append(("shape", name, np.ascontiguousarray(arr[..., None]),
                    ValueError))
        if written:
            out.append(("read-only", name, _read_only(arr), ValueError))
    for name, values, lo, hi in good._ranges(check_args(fresh(good))):
        for bad in (-1, hi):
            arr = getattr(good, name).copy()
            if values is getattr(good, name):
                arr.reshape(-1)[-1] = bad
            else:  # a masked range: every entry
                arr[...] = bad
            out.append((f"index {bad}", name, arr, ValueError))
    return out


CASES = [pytest.param(cls, label, name, value, error,
                      id=f"{cls.kernel}-{name}-{label}")
         for cls in CALLS for label, name, value, error in corruptions(cls)]


@pytest.mark.parametrize("cls", list(CALLS), ids=lambda c: c.kernel)
def test_good_arguments_reach_the_kernel(cls):
    backend, calls = recording_backend()
    for name, *_ in _SPECS[cls]:
        assert getattr(GOOD[cls], name).size >= 2, name  # strides show
    CALLS[cls](backend, fresh(GOOD[cls]))
    reached = {ProbeScanArgs: ["bind_probe_table"],
               BatchThresholdArgs: ["affine_fit_thresholds"] * 2}
    assert calls == reached.get(cls, [cls.kernel])


def test_every_kernel_has_a_case():
    assert {cls.kernel for cls in CALLS} == {
        cls.kernel for cls in _SPECS}
    assert len(_SPECS) == 6


@pytest.mark.parametrize("cls", [cls for cls in CALLS if cls not in (
    ProbeScanArgs, BatchThresholdArgs)], ids=lambda c: c.kernel)
def test_fields_are_the_kernels_leading_arguments(cls):
    """The adapter passes a declaration's fields positionally."""
    names = [f.name for f in dataclasses.fields(cls)]
    for kernel in (getattr(_loops, cls.kernel),
                   getattr(_NativeKernels, cls.kernel)):
        params = [p for p in inspect.signature(kernel).parameters
                  if p != "self"]
        assert params[:len(names)] == names


@pytest.mark.parametrize("cls,label,name,value,error", CASES)
def test_corrupted_arguments_never_reach_the_kernel(cls, label, name,
                                                    value, error):
    backend, calls = recording_backend()
    bad = dataclasses.replace(fresh(GOOD[cls]), **{name: value})
    with pytest.raises(error, match=rf"^{cls.kernel}: {name} "):
        CALLS[cls](backend, bad)
    assert calls == []


@pytest.mark.parametrize(
    "cls,label,name,value,error",
    [case for case in CASES if case.values[0] in NUMPY_CHECKS])
def test_the_numpy_backend_refuses_the_same(cls, label, name, value, error):
    backend = NumpyKernelBackend()
    CALLS[cls](backend, fresh(GOOD[cls]))
    bad = dataclasses.replace(fresh(GOOD[cls]), **{name: value})
    with pytest.raises(error, match=rf"^{cls.kernel}: {name} "):
        CALLS[cls](backend, bad)


def _repeated(args):
    orders = args.orders.copy()
    orders[0, 1] = orders[0, 0]
    return dataclasses.replace(args, orders=orders)


def _set(name, index, value):
    def spoil(args):
        arr = getattr(args, name).copy()
        arr[index] = value(args)
        return dataclasses.replace(args, **{name: arr})
    return spoil


GREEDY = {
    "repeated service in an order": ("orders", _repeated),
    "need_dim == D": ("need_dim", _set("need_dim", 2,
                                       lambda a: a.req_agg.shape[1])),
    "pass_order == SO": ("pass_order", _set("pass_order", 5,
                                            lambda a: a.orders.shape[0])),
    "pass_pick == 7": ("pass_pick", _set("pass_pick", 0, lambda a: 7)),
}


@pytest.mark.parametrize("backend_name", ["stub", "numpy"])
@pytest.mark.parametrize("case", list(GREEDY))
def test_greedy_inputs_the_kernel_would_follow_out_of_bounds(backend_name,
                                                             case):
    """A repeated service leaves another unplaced, and the kernel would
    count that service's -1 node; the other indices it follows blindly."""
    name, spoil = GREEDY[case]
    if backend_name == "stub":
        backend, calls = recording_backend()
    else:
        backend, calls = NumpyKernelBackend(), []
    with pytest.raises(ValueError, match=f"^greedy_scan: {name} "):
        backend.greedy_scan(spoil(GOOD[GreedyScanArgs]))
    assert calls == []


@pytest.mark.parametrize("bad", ["-1", "S"])
def test_scan_entries_outside_the_strategies(bad):
    """Each probe's C follows every ``scan`` entry into the strategy
    table, so an entry outside ``[0, S)`` never reaches it."""
    backend, calls = recording_backend()
    table = backend.bind_probe_scan(fresh(GOOD[ProbeScanArgs]))
    S = table.S
    assignment = np.zeros(table.J, dtype=np.int64)
    backend.probe_scan(table, 0.5, np.arange(S, dtype=np.int64), assignment)
    assert calls == ["bind_probe_table", "probe_scan"]
    scan = np.arange(S, dtype=np.int64)
    scan[-1] = {"-1": -1, "S": S}[bad]
    with pytest.raises(ValueError, match=rf"^probe_scan: scan has an entry "
                                         rf"outside \[0, {S}\)"):
        backend.probe_scan(table, 0.5, scan, assignment)
    assert calls == ["bind_probe_table", "probe_scan"]


#: A malformed per-probe buffer, by field, and how it is spoiled.
PROBE_BUFFERS = {
    "scan-dtype": ("scan", lambda a: a.astype(np.int32)),
    "scan-shape": ("scan", lambda a: a[None, :].copy()),
    "scan-strided": ("scan", lambda a: np.repeat(a, 2)[::2]),
    "assignment-dtype": ("assignment", lambda a: a.astype(np.int32)),
    "assignment-length": ("assignment", lambda a: a[:-1].copy()),
    "assignment-shape": ("assignment", lambda a: a[None, :].copy()),
    "assignment-strided": ("assignment", lambda a: np.repeat(a, 2)[::2]),
    "assignment-read-only": ("assignment", _read_only),
}


@pytest.mark.parametrize("case", list(PROBE_BUFFERS))
def test_malformed_probe_buffers_never_reach_the_kernel(case):
    """``scan`` (read) and ``assignment`` (written) come with each probe,
    not with the bound table, so ``probe_scan`` checks them on every
    call: an int64 vector, C-contiguous, the assignment writable and one
    entry per item."""
    backend, calls = recording_backend()
    table = backend.bind_probe_scan(fresh(GOOD[ProbeScanArgs]))
    buffers = {"scan": np.arange(table.S, dtype=np.int64),
               "assignment": np.zeros(table.J, dtype=np.int64)}
    backend.probe_scan(table, 0.5, buffers["scan"], buffers["assignment"])
    assert calls == ["bind_probe_table", "probe_scan"]
    name, spoil = PROBE_BUFFERS[case]
    buffers[name] = spoil(buffers[name])
    with pytest.raises(ValueError, match=f"^{name} must be "):
        backend.probe_scan(table, 0.5, buffers["scan"], buffers["assignment"])
    assert calls == ["bind_probe_table", "probe_scan"]
