"""Cross-backend kernel equivalence and registry behavior.

Every available backend must produce *bit-identical* results — placements,
loads, load sums, threshold tables, dynamic best-fit choices — for
identical inputs.  The ``numpy`` backend is the reference; ``loops`` (the
uncompiled scalar source) always runs; ``native`` runs wherever a C
compiler exists and is skipped cleanly otherwise.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    MetaProbeEngine,
    YieldProbeFactory,
    hvp_light_strategies,
    hvp_strategies,
)
from repro.algorithms.vector_packing.strategies import ProbeContext
from repro.algorithms.yield_search import binary_search_max_yield
from repro.kernels import _loops
from repro.kernels.api import ArrayKernelBackend
from repro.kernels.native_backend import NativeBuildError, load_native_kernels
from repro.workloads import ScenarioConfig, generate_instance

AVAILABILITY = kernels.available_backends()
#: What ``auto`` must resolve to here: native wherever the C kernels build.
AUTO = "native" if AVAILABILITY["native"] is None else "numpy"


def _backend_params(include_loops: bool = True):
    names = ["numpy", "native"] + (["loops"] if include_loops else [])
    out = []
    for name in names:
        reason = AVAILABILITY.get(name)
        marks = ()
        if reason is not None:
            marks = (pytest.mark.skip(reason=reason),)
        out.append(pytest.param(name, marks=marks))
    return out


INSTANCES = [
    ScenarioConfig(hosts=6, services=16, cov=cov, slack=slack,
                   seed=seed, instance_index=0)
    for seed in (3, 9)
    for cov, slack in ((0.25, 0.4), (0.8, 0.6))
]
#: A packer-diverse subset of the 253 strategies (every 11th hits all
#: three packers and a spread of sort pairs).
STRATEGIES = hvp_strategies()[::11]
YIELDS = (0.0, 0.35, 0.8)


def per_pair_thresholds(req, need, cap):
    """The yield-threshold table, one (item, bin) pair at a time over the
    dimensions in order: the order every backend's minimum must match."""
    out = np.empty((req.shape[0], cap.shape[0]))
    for j in range(req.shape[0]):
        for h in range(cap.shape[0]):
            m = np.inf
            for d in range(req.shape[1]):
                slack = cap[h, d] - req[j, d]
                if need[j, d] > 0:
                    t = slack / need[j, d]
                elif slack >= 0:
                    t = np.inf
                else:
                    t = -np.inf
                if t < m:
                    m = t
            out[j, h] = m
    return out


def _run_all_strategies(instance, y):
    """(placements, loads, load_sum) under the active backend."""
    ctx = ProbeContext(instance, y)
    outs = []
    for strategy in STRATEGIES:
        placement = ctx.run(strategy)
        outs.append(None if placement is None else placement.copy())
    return outs, ctx.state.loads.copy(), ctx.state.load_sum.copy()


@pytest.fixture(scope="module")
def reference_runs():
    with kernels.kernel_backend("numpy"):
        return {
            (cfg, y): _run_all_strategies(generate_instance(cfg), y)
            for cfg in INSTANCES for y in YIELDS
        }


class TestRegistry:
    def test_numpy_always_available(self):
        assert AVAILABILITY["numpy"] is None

    def test_registry_names(self):
        assert kernels.backend_names() == ("auto", "numpy", "native")

    def test_unknown_backend_rejected(self):
        for name in ("fortran", "numba"):
            with pytest.raises(kernels.KernelBackendUnavailable,
                               match="unknown kernel backend"):
                kernels.resolve_backend(name)

    def test_auto_resolves(self):
        assert kernels.resolve_backend("auto").name == AUTO

    def test_auto_falls_back_to_numpy_without_native(self, monkeypatch):
        def no_compiler():
            raise kernels.KernelBackendUnavailable("no C compiler")

        monkeypatch.setitem(kernels._FACTORIES, "native", no_compiler)
        monkeypatch.delitem(kernels._instances, "native", raising=False)
        assert kernels.resolve_backend("auto").name == "numpy"
        with pytest.raises(kernels.KernelBackendUnavailable,
                           match="no C compiler"):
            kernels.resolve_backend("native")

    def test_context_manager_restores(self):
        before = kernels.current_backend_name()
        with kernels.kernel_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert kernels.current_backend_name() == "numpy"
        assert kernels.current_backend_name() == before

    def test_bad_env_var_falls_back(self, monkeypatch):
        """A removed backend name left in the environment warns, then
        runs what ``auto`` picks."""
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        monkeypatch.setattr(kernels, "_active", None)
        monkeypatch.setattr(kernels, "_selected", None)
        with pytest.warns(RuntimeWarning, match="falling back to auto"):
            backend = kernels.get_backend()
        assert backend.name == AUTO
        # Reset the cached resolution for later tests.
        monkeypatch.delenv(kernels.ENV_VAR)
        kernels._active = None


@pytest.mark.skipif(AVAILABILITY["native"] is not None,
                    reason=str(AVAILABILITY["native"]))
@pytest.mark.parametrize("cc", ["env cc", ""])
def test_native_build_splits_cc(cc, tmp_path, monkeypatch):
    """``$CC`` is a word list (``ccache gcc``, ``gcc -m64``) and a blank
    one means ``cc``: either must build, not drop ``auto`` to numpy."""
    monkeypatch.setenv("CC", cc)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native = load_native_kernels()
    assert list(tmp_path.glob("repro_kernels_*.so"))

    def fill(k):
        loads, load_sum = np.zeros((2, 2)), np.zeros(2)
        assignment = np.full(3, -1, dtype=np.int64)
        left = k.ff_fill(np.full((3, 2), 0.5), np.ones((3, 2), dtype=bool),
                         np.arange(3), np.arange(2), loads, load_sum,
                         np.ones((2, 2)), np.full(2, np.inf), assignment)
        return left, assignment.tolist(), loads.tolist()

    assert fill(native) == fill(_loops) == (0, [0, 0, 1],
                                            [[1.0, 1.0], [0.5, 0.5]])


def test_unparsable_cc_is_a_build_error(tmp_path, monkeypatch):
    """An unbalanced quote in ``$CC`` makes native unavailable (so
    ``auto`` falls back) instead of escaping as a ``ValueError``."""
    monkeypatch.setenv("CC", 'cc "')
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    with pytest.raises(NativeBuildError, match="cannot parse CC"):
        load_native_kernels()


@pytest.mark.parametrize("backend", _backend_params())
class TestBitEquivalence:
    def test_packer_placements_loads(self, backend, reference_runs):
        """All strategies, several yields: identical placements/loads."""
        with kernels.kernel_backend(backend):
            for (cfg, y), (ref_outs, ref_loads, ref_ls) in \
                    reference_runs.items():
                outs, loads, ls = _run_all_strategies(
                    generate_instance(cfg), y)
                for strategy, a, b in zip(STRATEGIES, ref_outs, outs):
                    if a is None:
                        assert b is None, (strategy.name, cfg, y)
                    else:
                        assert b is not None, (strategy.name, cfg, y)
                        assert (a == b).all(), (strategy.name, cfg, y)
                assert np.array_equal(ref_loads, loads), (cfg, y)
                assert np.array_equal(ref_ls, ls), (cfg, y)

    def test_affine_thresholds(self, backend):
        for cfg in INSTANCES:
            inst = generate_instance(cfg)
            with kernels.kernel_backend("numpy"):
                ref = YieldProbeFactory(inst)
            with kernels.kernel_backend(backend):
                got = YieldProbeFactory(inst)
            assert np.array_equal(ref.y_elem_max, got.y_elem_max), cfg
            assert ref.infeasible_above == got.infeasible_above, cfg

    def test_thresholds_match_the_per_pair_loop_byte_for_byte(self,
                                                               backend):
        """The compiled and loop kernels divide a whole row per need, and
        numpy reduces a (J, H) plane per dimension; every (item, bin)
        must still keep the per-pair loop's minimum.  Zero, negative and
        signed-zero needs and slacks, infinities and NaNs included: a NaN
        threshold is skipped, and of two tied zeros the first stays."""
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.0, -1.0, np.inf,
                   -np.inf, np.nan]

        def draw(*shape):
            a = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
            mask = rng.random(shape) < 0.3
            a[mask] = rng.choice(special, size=int(mask.sum()))
            return a

        # Slacks 0.0 and -0.0 over equal needs tie: the first one stays.
        tie = (np.zeros((1, 2)), np.ones((1, 2)),
               np.array([[0.0, -0.0], [-0.0, 0.0]]))
        with kernels.kernel_backend(backend), np.errstate(all="ignore"):
            be = kernels.get_backend()
            ref = per_pair_thresholds(*tie).tobytes()
            assert be.affine_fit_thresholds(*tie).tobytes() == ref
            got = be.batch_fit_thresholds(
                *[a[None] for a in tie], np.array([1]), np.array([2]))
            assert got[0].tobytes() == ref
            for _ in range(60):
                J, H, D = rng.integers(0, 9), rng.integers(0, 6), \
                    rng.integers(1, 5)
                req, need, cap = draw(J, D), draw(J, D), draw(H, D)
                got = be.affine_fit_thresholds(req, need, cap)
                ref = per_pair_thresholds(req, need, cap)
                assert got.tobytes() == ref.tobytes()
                B = int(rng.integers(1, 4))
                n_items = rng.integers(0, J + 1, size=B).astype(np.int64)
                n_bins = rng.integers(0, H + 1, size=B).astype(np.int64)
                reqs, needs, caps = draw(B, J, D), draw(B, J, D), \
                    draw(B, H, D)
                got = be.batch_fit_thresholds(reqs, needs, caps, n_items,
                                              n_bins)
                for b, (j, h) in enumerate(zip(n_items, n_bins)):
                    ref = per_pair_thresholds(reqs[b, :j], needs[b, :j],
                                              caps[b, :h])
                    assert got[b, :j, :h].tobytes() == ref.tobytes()

    def test_incremental_best_fit(self, backend):
        rng = np.random.default_rng(42)
        H, D, K = 5, 2, 12
        agg = rng.uniform(2.0, 6.0, size=(H, D))
        loads0 = rng.uniform(0.0, 1.5, size=(H, D))
        req = rng.uniform(0.1, 2.5, size=(K, D))
        elem_fit = rng.random((K, H)) < 0.8
        cap_tol = agg + 1e-12

        def run(name):
            loads = loads0.copy()
            with kernels.kernel_backend(name):
                out = kernels.get_backend().incremental_best_fit(
                    req, elem_fit, loads, agg, cap_tol)
            return out, loads

        ref_out, ref_loads = run("numpy")
        out, loads = run(backend)
        assert np.array_equal(ref_out, out)
        assert np.array_equal(ref_loads, loads)

    @pytest.mark.parametrize("dims", (1, 3, 5))
    def test_any_d_strategies_match_numpy(self, backend, dims):
        """General-D kernels: every packer bit-equals the numpy path."""
        from tests.kernels.test_batch_solve import synthetic_instance
        inst = synthetic_instance(dims, J=15, H=5, seed=dims)
        for y in YIELDS:
            with kernels.kernel_backend("numpy"):
                ref_outs, ref_loads, ref_ls = _run_all_strategies(inst, y)
            with kernels.kernel_backend(backend):
                outs, loads, ls = _run_all_strategies(inst, y)
            for strategy, a, b in zip(STRATEGIES, ref_outs, outs):
                if a is None:
                    assert b is None, (strategy.name, dims, y)
                else:
                    assert b is not None, (strategy.name, dims, y)
                    assert (a == b).all(), (strategy.name, dims, y)
            assert np.array_equal(ref_loads, loads), (dims, y)
            assert np.array_equal(ref_ls, ls), (dims, y)

    def test_meta_solve_certifies_identical_yields(self, backend):
        strategies = hvp_light_strategies()
        for cfg in INSTANCES[:2]:
            inst = generate_instance(cfg)
            with kernels.kernel_backend("numpy"):
                ref = binary_search_max_yield(
                    inst, MetaProbeEngine(inst, strategies), improve=False)
            with kernels.kernel_backend(backend):
                got = binary_search_max_yield(
                    inst, MetaProbeEngine(inst, strategies), improve=False)
            if ref is None:
                assert got is None, cfg
            else:
                assert got is not None, cfg
                # Bit-identical oracles make the searches identical, so
                # equality is exact, not approximate.
                assert got.minimum_yield() == ref.minimum_yield(), cfg
                assert (got.placement == ref.placement).all(), cfg


class TestThresholdShapesRefusedBeforeTheKernel:
    """The threshold kernels follow the arrays' shapes and the batch's
    item and bin counts, so the adapter refuses any that disagree."""

    @staticmethod
    def stub():
        calls = []
        record = lambda *a: calls.append(a) or 0  # noqa: E731
        return ArrayKernelBackend("stub", SimpleNamespace(
            affine_fit_thresholds=record, batch_fit_thresholds=record)), \
            calls

    def test_good_shapes_reach_the_kernels(self):
        backend, calls = self.stub()
        backend.affine_fit_thresholds(np.ones((4, 2)), np.ones((4, 2)),
                                      np.ones((3, 2)))
        backend.batch_fit_thresholds(np.ones((2, 4, 2)), np.ones((2, 4, 2)),
                                     np.ones((2, 3, 2)), [4, 1], [3, 0])
        assert len(calls) == 2

    @pytest.mark.parametrize("req,need,cap", [
        ((4, 2), (5, 2), (3, 2)), ((4, 2), (4, 3), (3, 2)),
        ((4, 2), (4, 2), (3, 3)), ((4,), (4,), (3,)),
        ((4, 2), (4, 2), (6,))])
    def test_affine_shapes(self, req, need, cap):
        backend, calls = self.stub()
        with pytest.raises(ValueError, match="affine_fit_thresholds"):
            backend.affine_fit_thresholds(np.ones(req), np.ones(need),
                                          np.ones(cap))
        assert calls == []

    @pytest.mark.parametrize("need,cap,n_items,n_bins", [
        ((2, 5, 2), (2, 3, 2), [4, 1], [3, 0]),
        ((2, 4, 2), (3, 3, 2), [4, 1], [3, 0]),
        ((2, 4, 2), (2, 3, 1), [4, 1], [3, 0]),
        ((2, 4, 2), (2, 3, 2), [4], [3, 0]),
        ((2, 4, 2), (2, 3, 2), [5, 1], [3, 0]),
        ((2, 4, 2), (2, 3, 2), [4, -1], [3, 0]),
        ((2, 4, 2), (2, 3, 2), [4, 1], [4, 0]),
        ((2, 4, 2), (2, 3, 2), [4, 1], [3, -1])])
    def test_batch_shapes_and_counts(self, need, cap, n_items, n_bins):
        backend, calls = self.stub()
        with pytest.raises(ValueError, match="batch_fit_thresholds"):
            backend.batch_fit_thresholds(np.ones((2, 4, 2)), np.ones(need),
                                         np.ones(cap), n_items, n_bins)
        assert calls == []
