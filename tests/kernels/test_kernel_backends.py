"""Cross-backend kernel equivalence and registry behavior.

Every available backend must produce *bit-identical* results — threshold
tables, dynamic best-fit choices, each strategy's placement, loads and
load sums, META* yields — for identical inputs.  The ``numpy`` backend
is the reference; ``loops`` (the uncompiled scalar source) always runs;
``native`` runs wherever a C compiler exists and is skipped cleanly
otherwise.  The per-strategy packers are one set of functions on every
backend, so each strategy runs through the engine the backend's selector
builds: the fused ``probe_scan`` on the compiled backends.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaProbeEngine,
    StrategyTable,
    YieldProbeFactory,
    hvp_light_strategies,
    hvp_strategies,
    make_engine,
)
from repro.algorithms.vector_packing.strategies import (
    BF,
    ProbeContext,
    execute_strategy,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.kernels import _loops
from repro.kernels.api import ArrayKernelBackend, KernelBackend
from repro.kernels.native_backend import (
    _SIGNATURES,
    NativeBuildError,
    load_native_kernels,
)
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


def _outcome(placement, loads, load_sum):
    """A run's placement, loads and load sums (``None`` when it does not
    pack), in a form that compares bit for bit."""
    if placement is None:
        return None
    return placement.tolist(), loads.tobytes(), load_sum.tobytes()


def _reference_runs(instance, y):
    """numpy's direct-comparison probe: every strategy alone on a clean
    state."""
    with kernels.kernel_backend("numpy"):
        ctx = ProbeContext(instance, y)
        return [_outcome(ctx.run(strategy), ctx.state.loads,
                         ctx.state.load_sum) for strategy in STRATEGIES]


def _engine_runs(instance, y):
    """Every strategy alone at yield *y* through the engine the active
    backend's selector builds for the whole list: the fused kernel
    scanning one strategy, or the per-strategy engine's probe context
    (its elementary fits and bin orders from the engine's factory, its
    outcome memo bypassed so each run's loads stay to read)."""
    engine = make_engine(instance, StrategyTable(STRATEGIES))
    if isinstance(engine, FusedProbeEngine):
        t = engine._table
        outs = []
        for s in range(len(STRATEGIES)):
            assignment = np.empty(len(instance.services), dtype=np.int64)
            si, _, _ = engine.backend.probe_scan(
                t, y, np.array([s], dtype=np.int64), assignment)
            outs.append(_outcome(assignment if si == 0 else None, t.loads,
                                 t.load_sum))
        return outs
    ctx = engine.factory.probe(y)
    if ctx is None:  # above every item's fit: nothing packs
        return [None] * len(STRATEGIES)
    return [_outcome(execute_strategy(
        ctx.state, strategy, ctx.item_order(strategy.item_sort),
        None if strategy.packer == BF else ctx.bin_order(strategy.bin_sort)),
        ctx.state.loads, ctx.state.load_sum) for strategy in STRATEGIES]


def _assert_runs_equal(ref, got, where):
    for strategy, a, b in zip(STRATEGIES, ref, got):
        assert b == a, (strategy.name, *where)


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

    def thresholds(k):
        out = np.empty((2, 2))
        k.affine_fit_thresholds(np.zeros((2, 1)), np.array([[1.0], [2.0]]),
                                np.array([[1.0], [0.5]]), out)
        return out.tolist()

    assert thresholds(native) == thresholds(_loops) == [[1.0, 0.5],
                                                        [0.5, 0.25]]


def test_unparsable_cc_is_a_build_error(tmp_path, monkeypatch):
    """An unbalanced quote in ``$CC`` makes native unavailable (so
    ``auto`` falls back) instead of escaping as a ``ValueError``."""
    monkeypatch.setenv("CC", 'cc "')
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    with pytest.raises(NativeBuildError, match="cannot parse CC"):
        load_native_kernels()


@pytest.mark.parametrize("backend", _backend_params())
class TestBitEquivalence:
    def test_packer_placements_loads(self, backend):
        """All strategies, several yields: identical placements, loads
        and load sums."""
        for cfg in INSTANCES:
            inst = generate_instance(cfg)
            for y in YIELDS:
                with kernels.kernel_backend(backend):
                    got = _engine_runs(inst, y)
                _assert_runs_equal(_reference_runs(inst, y), got, (cfg, y))

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
        """General D: every strategy bit-equals the numpy path."""
        from tests.kernels.test_batch_solve import synthetic_instance
        inst = synthetic_instance(dims, J=15, H=5, seed=dims)
        for y in YIELDS:
            with kernels.kernel_backend(backend):
                got = _engine_runs(inst, y)
            _assert_runs_equal(_reference_runs(inst, y), got, (dims, y))

    def test_meta_solve_certifies_identical_yields(self, backend):
        """The engine each backend's selector builds — fused on the
        compiled backends, per-strategy on numpy — against numpy's
        per-strategy engine: the same yield, placement and oracle work."""
        table = StrategyTable(hvp_light_strategies())
        for cfg in INSTANCES[:2]:
            inst = generate_instance(cfg)
            runs = {}
            for name in ("numpy", backend):
                with kernels.kernel_backend(name):
                    engine = make_engine(inst, table)
                    runs[name] = (engine, binary_search_max_yield(
                        inst, engine, improve=False))
            (ref_engine, ref), (engine, got) = runs["numpy"], runs[backend]
            assert isinstance(ref_engine, MetaProbeEngine)
            fused = backend != "numpy"
            assert isinstance(engine, FusedProbeEngine) is fused, cfg
            if ref is None:
                assert got is None, cfg
            else:
                assert got is not None, cfg
                # Bit-identical oracles make the searches identical, so
                # equality is exact, not approximate.
                assert got.minimum_yield() == ref.minimum_yield(), cfg
                assert (got.placement == ref.placement).all(), cfg
            assert (engine.probes, engine.strategy_runs) == (
                ref_engine.probes, ref_engine.strategy_runs), cfg


class TestOnePackerPath:
    """Every backend answers ``first_fit``, ``best_fit`` and
    ``permutation_pack`` with the same functions, and a compiled backend
    runs its fills only inside ``probe_scan``: neither the C library nor
    the loops source exports a standalone fill, or a batched threshold
    kernel.  The C library exports its five entry points and no
    helper."""

    @pytest.mark.parametrize("method", ["first_fit", "best_fit",
                                        "permutation_pack"])
    def test_every_backend_runs_one_packer(self, method):
        names = [name for name in ("numpy", "native", "loops")
                 if AVAILABILITY.get(name) is None]
        assert {getattr(kernels.resolve_backend(name), method).__func__
                for name in names} == {getattr(KernelBackend, method)}

    @pytest.mark.skipif(AVAILABILITY["native"] is not None,
                        reason=str(AVAILABILITY["native"]))
    def test_the_native_library_exports_no_fill(self):
        lib = kernels.resolve_backend("native")._k._lib
        for name in ("ff_fill", "bf_pack", "pp_fill_2d", "pp_fill_general",
                     "pairwise_sum", "batch_fit_thresholds"):
            assert not hasattr(lib, name), name
        assert len(_SIGNATURES) == 4
        for name in (*_SIGNATURES, "probe_scan"):
            assert hasattr(lib, name), name

    def test_the_loops_source_exports_no_standalone_fill(self):
        for name in ("ff_fill", "pp_fill_2d", "batch_fit_thresholds"):
            assert name not in _loops.__all__, name
            assert not hasattr(_loops, name), name


class TestThresholdShapesRefusedBeforeTheKernel:
    """The threshold kernel follows the arrays' shapes, and a batch's
    per-instance loop its item and bin counts, so the backend refuses any
    that disagree."""

    @staticmethod
    def stub():
        calls = []
        record = lambda *a: calls.append(a) or 0  # noqa: E731
        return ArrayKernelBackend("stub", SimpleNamespace(
            affine_fit_thresholds=record)), calls

    def test_good_shapes_reach_the_kernels(self):
        """A batch reaches the one threshold kernel once per instance,
        with that instance's rows."""
        backend, calls = self.stub()
        backend.affine_fit_thresholds(np.ones((4, 2)), np.ones((4, 2)),
                                      np.ones((3, 2)))
        backend.batch_fit_thresholds(np.ones((2, 4, 2)), np.ones((2, 4, 2)),
                                     np.ones((2, 3, 2)), [4, 1], [3, 0])
        assert [[a.shape for a in call] for call in calls] == [
            [(4, 2), (4, 2), (3, 2), (4, 3)],
            [(4, 2), (4, 2), (3, 2), (4, 3)],
            [(1, 2), (1, 2), (0, 2), (1, 0)]]

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
