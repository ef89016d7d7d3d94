"""Binding the fused probe's tables once per engine is safe.

:meth:`~repro.kernels.api.KernelBackend.bind_probe_scan` checks every
array's dtype, contiguity and shape (the checks ``ndpointer`` used to
make on every call) and every index the kernel follows, before anything
reaches the kernel.  The bound table then owns every array it points
into, so an engine keeps answering the same after its caller drops the
inputs, and it forms no reference cycle with its engine (engines are
built per solve; a cycle would keep each one's arrays until the next
garbage collection).  The C call still releases the GIL, which
``solve_many(threads>1)`` relies on.
"""

import ctypes
import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import FusedProbeEngine, hvp_strategies
from repro.algorithms.yield_search import binary_search_max_yield
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels.api import ArrayKernelBackend, ProbeScanArgs

AVAILABILITY = kernels.available_backends()
AVAILABILITY["loops"] = None

STRATEGIES = hvp_strategies()[::5]
YIELDS = np.linspace(0.0, 1.0, 11)


def _backends():
    out = []
    for name in ("native", "loops"):
        reason = AVAILABILITY.get(name)
        marks = () if reason is None else (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


def random_instance(D=2, J=20, H=5, seed=3):
    rng = np.random.default_rng(seed)
    cap = rng.uniform(0.5, 1.0, size=(H, D))
    req = rng.uniform(0.02, 0.15, size=(J, D))
    need = rng.uniform(0.05, 0.4, size=(J, D))
    return ProblemInstance(NodeArray.from_arrays(cap, cap),
                           ServiceArray.from_arrays(req, req, need, need))


def args_of(engine):
    """The engine's :class:`ProbeScanArgs`, copied out of its table."""
    return ProbeScanArgs(**{f.name: np.copy(getattr(engine._table, f.name))
                            if f.name != "waste_rtol"
                            else engine._table.waste_rtol
                            for f in dataclasses.fields(ProbeScanArgs)})


def answers(engine, instance):
    out = []
    for y in YIELDS:
        placement = engine(instance, float(y))
        out.append(None if placement is None else placement.tolist())
    return out, engine.strategy_runs, engine.cut_runs


def churn():
    """Reuse freed memory: many arrays of garbage in the sizes a table
    holds."""
    return [np.full(n, -7, dtype=np.int64) for n in range(1, 400)
            for _ in range(3)]


def recording_backend():
    """An adapter whose kernels only record that they were called."""
    calls = []
    record = lambda *a: calls.append(a) or 0  # noqa: E731
    return ArrayKernelBackend("stub", SimpleNamespace(
        bind_probe_table=record, probe_scan=record)), calls


@pytest.fixture(scope="module")
def good_args():
    with kernels.kernel_backend("loops"):
        return args_of(FusedProbeEngine(random_instance(), STRATEGIES))


BAD = {
    "float32 demands": ("req_agg", lambda a: a.astype(np.float32), TypeError),
    "int32 strategy column": ("st_item", lambda a: a.astype(np.int32),
                              TypeError),
    "bool fit table": ("y_elem_max", lambda a: a > 0, TypeError),
    "list, not array": ("cap_tol_total", lambda a: a.tolist(), TypeError),
    "Fortran-order demands": ("need_agg", np.asfortranarray, ValueError),
    "strided bin orders": ("bin_orders", lambda a: np.repeat(a, 2, axis=1)
                           [:, ::2], ValueError),
    "one item short": ("need_agg", lambda a: np.ascontiguousarray(a[:-1]),
                       ValueError),
    "an extra bin": ("cap_tol", lambda a: np.ascontiguousarray(
        np.vstack([a, a[:1]])), ValueError),
    "flattened table": ("cap_tol", lambda a: a.ravel(), ValueError),
    "strategy column too short": ("st_w", lambda a: a[:-1].copy(),
                                  ValueError),
    "item sort out of range": ("st_item", lambda a: a + 100, ValueError),
    "bin out of range": ("bin_orders", lambda a: a + a.shape[1],
                         ValueError),
    "unknown metric": ("sort_metric", lambda a: a + 6, ValueError),
}


@pytest.mark.parametrize("case", list(BAD))
def test_bad_table_raises_at_bind_before_any_kernel_call(good_args, case):
    name, spoil, error = BAD[case]
    bad = dataclasses.replace(good_args,
                              **{name: spoil(getattr(good_args, name))})
    backend, calls = recording_backend()
    with pytest.raises(error, match=name):
        backend.bind_probe_scan(bad)
    assert calls == []


def test_good_table_binds(good_args):
    backend, calls = recording_backend()
    table = backend.bind_probe_scan(good_args)
    assert len(calls) == 1 and calls[0] == (table,)


def test_bad_probe_buffers_raise_before_the_kernel(good_args):
    backend, calls = recording_backend()
    table = backend.bind_probe_scan(good_args)
    scan = np.arange(table.S, dtype=np.int64)
    J = table.J
    for bad_scan, bad_assignment in (
            (scan.astype(np.int32), np.empty(J, np.int64)),
            (np.arange(2 * table.S, dtype=np.int64)[::2],
             np.empty(J, np.int64)),
            (scan, np.empty(J + 1, np.int64)),
            (scan, np.empty(J, np.float64)),
            (scan, np.empty((J, 2), np.int64)[:, 0])):
        with pytest.raises(ValueError):
            backend.probe_scan(table, 0.5, bad_scan, bad_assignment)
    assert len(calls) == 1  # the bind


@pytest.mark.parametrize("backend", _backends())
def test_engine_answers_the_same_after_its_inputs_are_dropped(backend):
    def build():
        # Fresh arrays only this engine can keep alive.
        return FusedProbeEngine(random_instance(), STRATEGIES)

    with kernels.kernel_backend(backend):
        first = build()
        reference = answers(first, first.instance)
        engine = build()
        instance = engine.instance
        gc.collect()
        junk = churn()
        assert answers(engine, instance) == reference
        del junk


@pytest.mark.parametrize("backend", _backends())
def test_table_owns_what_it_binds(backend, good_args):
    """A table bound from copies answers the same once every copy and the
    args object are gone."""
    with kernels.kernel_backend(backend) as active:
        ref_table = active.bind_probe_scan(good_args)
        args = args_of(SimpleNamespace(_table=ref_table))
        table = active.bind_probe_scan(args)
        del args
        gc.collect()
        junk = churn()
        scan = np.arange(table.S, dtype=np.int64)
        for y in YIELDS:
            got = np.empty(table.J, dtype=np.int64)
            ref = np.empty(table.J, dtype=np.int64)
            g = active.probe_scan(table, y, scan, got)
            r = active.probe_scan(ref_table, y, scan, ref)
            assert g == r
            if g[0] >= 0:
                assert np.array_equal(got, ref)
        del junk


@pytest.mark.parametrize("backend", _backends())
def test_engine_and_table_form_no_cycle(backend):
    """Dropping the last reference frees an engine and its table at once,
    with the cyclic collector off."""
    instance = random_instance()
    with kernels.kernel_backend(backend):
        gc.disable()
        try:
            engine = FusedProbeEngine(instance, STRATEGIES)
            binary_search_max_yield(instance, engine)
            refs = [weakref.ref(engine), weakref.ref(engine._table),
                    weakref.ref(engine._table.item_orders)]
            del engine
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()


@pytest.mark.skipif(AVAILABILITY.get("native") is not None,
                    reason="native kernels unavailable")
def test_native_probe_scan_releases_the_gil():
    """A ``ctypes.CDLL`` function (not ``PyDLL``, and without the
    Python-API flag) drops the GIL for the call."""
    backend = kernels.resolve_backend("native")
    lib = backend._k._lib
    assert isinstance(lib, ctypes.CDLL) and not isinstance(lib, ctypes.PyDLL)
    assert not lib.probe_scan._flags_ & ctypes._FUNCFLAG_PYTHONAPI
