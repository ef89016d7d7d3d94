"""Engine selection and batched solving equivalence.

The acceptance contract of the META* engines: for every backend and every
dimension count, ``MetaSolver.solve_with_hint`` returns exactly what it
returns on the numpy backend (which runs the per-strategy engine; the
others run the fused one), and ``MetaSolver.solve_many`` returns exactly
what a loop of ``solve_with_hint`` calls returns — placements,
per-service yields, certified yields, probe counts — with hints honored
the same way.  The native leg skips cleanly where no C compiler exists.
"""

import json

import numpy as np
import pytest

from repro import kernels, obs
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaProbeEngine,
    MetaSolver,
    SortStrategy,
    StrategyTable,
    VPStrategy,
    hvp_light_strategies,
    hvp_strategies,
    make_engine,
)
from repro.algorithms.vector_packing import legacy
from repro.algorithms.vector_packing.sorting import SUM
from repro.algorithms.vector_packing.strategies import PP
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels.api import codes_overflow
from repro.workloads import ScenarioConfig, generate_instance

AVAILABILITY = kernels.available_backends()

DIMS = (1, 2, 3, 5)


def _backend_params():
    out = []
    for name in ("numpy", "native", "loops"):
        reason = AVAILABILITY.get(name)
        marks = (pytest.mark.skip(reason=reason),) if reason else ()
        out.append(pytest.param(name, marks=marks))
    return out


def synthetic_instance(D: int, J: int = 14, H: int = 5,
                       seed: int = 0) -> ProblemInstance:
    """A feasible-at-low-yield any-D instance with fluid needs."""
    rng = np.random.default_rng(seed + 97 * D)
    cap = rng.uniform(3.0, 6.0, size=(H, D))
    nodes = NodeArray.from_arrays(cap, cap)
    req = rng.uniform(0.05, 0.6, size=(J, D))
    need = rng.uniform(0.0, 1.2, size=(J, D))
    services = ServiceArray.from_arrays(req, req, need, need)
    return ProblemInstance(nodes, services)


def _solve_sequential(solver, instances, hints):
    allocs, stats = [], []
    for inst, hint in zip(instances, hints):
        st = {}
        allocs.append(solver.solve_with_hint(inst, hint=hint, stats=st))
        stats.append(st)
    return allocs, stats


def _assert_same(got, gstats, ref, rstats, context):
    assert len(got) == len(ref), context
    for i, (a, b) in enumerate(zip(ref, got)):
        where = (context, i)
        assert (a is None) == (b is None), where
        if a is not None:
            assert np.array_equal(a.placement, b.placement), where
            assert np.array_equal(a.yields, b.yields), where
        assert rstats[i].get("certified") == gstats[i].get("certified"), where
        assert rstats[i].get("probes") == gstats[i].get("probes"), where


def _assert_equivalent(batch, bstats, seq, sstats, context):
    _assert_same(batch, bstats, seq, sstats, context)
    for i, st in enumerate(bstats):
        assert "seconds" in st, (context, i)


@pytest.mark.parametrize("backend", _backend_params())
class TestSolveManyEquivalence:
    @pytest.mark.parametrize("dims", DIMS)
    def test_any_d_matches_sequential(self, backend, dims):
        instances = [synthetic_instance(dims, J=10 + 2 * k, H=4 + k % 2,
                                        seed=k) for k in range(4)]
        hints = [None, 0.4, None, 0.9]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend(backend):
            seq, sstats = _solve_sequential(solver, instances, hints)
            bstats = [{} for _ in instances]
            batch = solver.solve_many(instances, hints=hints, stats=bstats,
                                      threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, (backend, dims))

    def test_scenario_grid_instances(self, backend):
        """The paper's 2-D instances, full METAHVP strategy list."""
        instances = [generate_instance(ScenarioConfig(
            hosts=6, services=16, cov=0.5, slack=s, seed=5))
            for s in (0.3, 0.6)]
        solver = MetaSolver(hvp_strategies()[::7])
        with kernels.kernel_backend(backend):
            seq, sstats = _solve_sequential(solver, instances,
                                            [None] * len(instances))
            bstats = [{} for _ in instances]
            batch = solver.solve_many(instances, stats=bstats, threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, backend)

    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_numpy_reference(self, backend, dims):
        """Cross-backend: ``solve_with_hint`` and ``solve_many`` here
        equal numpy's ``solve_with_hint`` (the per-strategy engine)."""
        instances = [synthetic_instance(dims, J=12, H=4, seed=k)
                     for k in range(3)]
        hints = [None, 0.5, None]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend("numpy"):
            ref, rstats = _solve_sequential(solver, instances, hints)
        with kernels.kernel_backend(backend):
            seq, sstats = _solve_sequential(solver, instances, hints)
            bstats = [{} for _ in instances]
            got = solver.solve_many(instances, hints=hints, stats=bstats,
                                    threads=1)
        _assert_same(seq, sstats, ref, rstats, (backend, dims, "seq"))
        _assert_equivalent(got, bstats, ref, rstats, (backend, dims))

    def test_thread_pool_preserves_order(self, backend):
        instances = [synthetic_instance(2, J=8 + k, H=3, seed=k)
                     for k in range(6)]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend(backend):
            one = solver.solve_many(instances, threads=1)
            many = solver.solve_many(instances, threads=4)
        for a, b in zip(one, many):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.placement, b.placement)
                assert np.array_equal(a.yields, b.yields)


def _expected_engine(backend):
    """The engine the selector must pick on ordinary instances: numpy has
    no fused kernel, native and loops do."""
    return "per-strategy" if backend == "numpy" else "fused"


@pytest.mark.parametrize("backend", _backend_params())
class TestEngineSelector:
    def test_selector_tracks_backend(self, backend):
        inst = synthetic_instance(2)
        with kernels.kernel_backend(backend):
            engine = make_engine(inst, StrategyTable(hvp_light_strategies()))
        expected = (FusedProbeEngine if _expected_engine(backend) == "fused"
                    else MetaProbeEngine)
        assert type(engine) is expected

    def test_one_engine_event_per_traced_solve(self, backend, tmp_path):
        inst = synthetic_instance(2)
        path = tmp_path / "trace.jsonl"
        with kernels.kernel_backend(backend):
            obs.configure(str(path))
            try:
                MetaSolver(hvp_light_strategies()).solve_with_hint(inst)
            finally:
                obs.disable()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        events = [r for r in records if r["name"] == "meta.engine"]
        assert [e["tags"] for e in events] == [{
            "engine": _expected_engine(backend),
            "strategies": 60,
            "backend": backend,
            "services": 14,
            "hosts": 5,
        }]

    def test_counters_match_per_strategy_engine(self, backend):
        """probes/strategy_runs/hint bookkeeping is part of the contract."""
        inst = synthetic_instance(3, J=12, H=4, seed=2)
        strategies = hvp_light_strategies()
        with kernels.kernel_backend(backend):
            if not kernels.get_backend().supports_probe_scan:
                pytest.skip("backend has no fused probe scan")
            fused = FusedProbeEngine(inst, StrategyTable(strategies))
            plain = MetaProbeEngine(inst, strategies)
            for y in (0.0, 0.3, 0.7, 0.3, 1.4):
                a = fused(inst, y)
                b = plain(inst, y)
                assert (a is None) == (b is None), y
                if a is not None:
                    assert np.array_equal(a, b), y
                assert fused.hint == plain.hint, y
                assert fused.probes == plain.probes, y
                assert fused.strategy_runs == plain.strategy_runs, y

    def test_high_d_falls_back_to_per_strategy(self, backend, monkeypatch):
        """D=16 PP codes overflow an int64: every backend runs the
        per-strategy engine, whose PP goes through the legacy kernel."""
        inst = synthetic_instance(16, J=20, H=3, seed=3)
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend("numpy"):
            ref, rstats = _solve_sequential(solver, [inst], [None])
        legacy_calls = []
        original = legacy.legacy_permutation_pack

        def counting(*args, **kwargs):
            legacy_calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(legacy, "legacy_permutation_pack", counting)
        with kernels.kernel_backend(backend):
            assert type(make_engine(inst, solver.table)) \
                is MetaProbeEngine
            seq, sstats = _solve_sequential(solver, [inst], [None])
            bstats = [{}]
            got = solver.solve_many([inst], stats=bstats, threads=1)
        assert legacy_calls
        assert seq[0] is not None
        seq[0].validate()
        assert sstats[0]["probes"] == 14
        assert sstats[0]["certified"] == pytest.approx(0.2478, abs=1e-4)
        _assert_same(seq, sstats, ref, rstats, (backend, "seq"))
        _assert_equivalent(got, bstats, seq, sstats, backend)


@pytest.mark.parametrize("backend", [
    p for p in _backend_params() if p.values[0] != "numpy"])
@pytest.mark.parametrize("J,fits", [(414, True), (415, False)])
def test_int64_boundary_at_d14(backend, J, fits):
    """One overflow rule, ``codes_overflow``: at D = w = 14 the widest
    PP codes fit an int64 for J = 414 and overflow it for J = 415.
    The selector then picks the fused engine and the per-strategy one,
    and binding a fused table past the line refuses."""
    assert codes_overflow(14, 14, J) is not fits
    table = StrategyTable([VPStrategy(PP, SortStrategy(SUM, descending=True))])
    assert table.codes_fit_int64(14, J) is fits
    inst = synthetic_instance(14, J=J, H=2, seed=1)
    with kernels.kernel_backend(backend):
        engine = make_engine(inst, table)
        assert type(engine) is (FusedProbeEngine if fits else MetaProbeEngine)
        if not fits:
            with pytest.raises(ValueError, match="^probe_scan: st_w gives "
                                                 "PP/CP codes that overflow"):
                FusedProbeEngine(inst, table)


class TestCompiledStrategyTable:
    """A solver keeps its strategy list compiled, once per dimension
    count; every engine shares the compiled columns, so they are
    read-only."""

    def test_solver_compiles_once_per_dimension_count(self, monkeypatch):
        compiled = []
        compile_ = StrategyTable._compile

        def counting(table, dims):
            if dims not in table._compiled:
                compiled.append(dims)
            return compile_(table, dims)

        monkeypatch.setattr(StrategyTable, "_compile", counting)
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend("loops"):
            for seed in range(3):
                solver.solve_with_hint(synthetic_instance(2, seed=seed))
            solver.solve_with_hint(synthetic_instance(3))
            solver.solve_many([synthetic_instance(2, seed=7),
                               synthetic_instance(3, seed=8)], threads=1)
        assert compiled == [2, 3]

    def test_columns_are_read_only(self):
        table = StrategyTable(hvp_light_strategies())
        for name, column in table.columns(2).items():
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[...] = 0

    def test_a_shared_table_binds_what_a_fresh_one_binds(self):
        strategies = hvp_strategies()
        shared = StrategyTable(strategies)
        with kernels.kernel_backend("loops"):
            for dims in DIMS + DIMS:
                inst = synthetic_instance(dims)
                fresh = FusedProbeEngine(inst, StrategyTable(strategies))
                reused = FusedProbeEngine(inst, shared)
                assert reused.strategies == fresh.strategies
                for name in fresh._table.layout:
                    assert np.array_equal(getattr(reused._table, name),
                                          getattr(fresh._table, name)), name


class TestSolveManyEdgeCases:
    def test_empty_batch(self):
        assert MetaSolver(hvp_light_strategies()).solve_many([]) == []

    def test_length_mismatches_rejected(self):
        solver = MetaSolver(hvp_light_strategies())
        inst = synthetic_instance(2)
        with pytest.raises(ValueError, match="hints"):
            solver.solve_many([inst], hints=[None, 0.5])
        with pytest.raises(ValueError, match="stats"):
            solver.solve_many([inst], stats=[{}, {}])

    def test_mixed_dims_batch_matches_the_loop(self):
        """A batch spanning D values solves like the loop."""
        instances = [synthetic_instance(2, seed=1),
                     synthetic_instance(3, seed=1)]
        solver = MetaSolver(hvp_light_strategies())
        seq, sstats = _solve_sequential(solver, instances, [None, None])
        bstats = [{}, {}]
        batch = solver.solve_many(instances, stats=bstats, threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, "mixed-dims")
