"""Cross-backend kernel equivalence and registry behavior.

Every available backend must produce *bit-identical* results — placements,
loads, load sums, threshold tables, dynamic best-fit choices — for
identical inputs.  The ``numpy`` backend is the reference; ``loops`` (the
uncompiled scalar source) always runs; ``native`` runs wherever a C
compiler exists and is skipped cleanly otherwise.
"""

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
