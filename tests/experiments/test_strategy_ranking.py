"""Tests for the §5.1 strategy-ranking exploration."""

import json

import pytest

from repro import kernels, obs
from repro.experiments.strategy_ranking import (
    _configs_fingerprint,
    format_ranking,
    light_set_audit,
    strategy_ranking_experiment,
)
from repro.algorithms.vector_packing import hvp_strategies
from repro.workloads import ScenarioConfig

CONFIGS = [
    ScenarioConfig(hosts=6, services=15, cov=cov, slack=0.5,
                   seed=31, instance_index=0)
    for cov in (0.25, 0.75)
]
NATIVE_MISSING = kernels.available_backends()["native"]
needs_native = pytest.mark.skipif(NATIVE_MISSING is not None,
                                  reason=str(NATIVE_MISSING))


@pytest.fixture(scope="module")
def ranking():
    return strategy_ranking_experiment(CONFIGS).run(workers=1)


class TestRanking:
    def test_covers_all_253_strategies(self, ranking):
        assert len(ranking.stats) == 253
        names = {s.strategy.name for s in ranking.stats}
        assert names == {s.name for s in hvp_strategies()}

    def test_sorted_by_success_then_yield(self, ranking):
        keys = [s.sort_key() for s in ranking.stats]
        assert keys == sorted(keys, reverse=True)

    def test_stats_are_consistent(self, ranking):
        for s in ranking.stats:
            assert 0 <= s.successes <= s.attempts == 2
            assert 0.0 <= s.average_yield <= 1.0
            if s.successes == 0:
                assert s.average_yield == 0.0

    def test_counts_partition_top50(self, ranking):
        packers = ranking.packer_counts(50)
        assert sum(packers.values()) == 50
        items = ranking.item_sort_counts(50)
        assert sum(items.values()) == 50

    def test_light_audit_bounds(self, ranking):
        hits, n = light_set_audit(ranking, top_n=50)
        assert 0 <= hits <= n == 50

    def test_descending_item_sorts_dominate_top(self, ranking):
        """§5.1 observation 2: high performers sort items descending."""
        top = ranking.top(30)
        descending = sum(1 for s in top
                         if s.strategy.item_sort.name.startswith("DESC"))
        assert descending >= len(top) // 2

    def test_format_renders(self, ranking):
        text = format_ranking(ranking, top_n=10)
        assert "Top 10 of 253" in text
        assert "LIGHT members" in text


class TestOracles:
    """Each strategy's oracle comes from ``make_engine``, like every
    other META* solve's."""

    @pytest.mark.parametrize("backend, engine", [
        pytest.param("native", "fused", marks=needs_native),
        ("numpy", "per-strategy"),
    ])
    def test_engine_follows_backend(self, tmp_path, backend, engine):
        spec = strategy_ranking_experiment(CONFIGS)
        task = next(iter(spec.tasks()))
        sink = tmp_path / "trace.jsonl"
        obs.configure(str(sink))
        try:
            with kernels.kernel_backend(backend):
                spec.worker(task)
        finally:
            obs.disable()
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        engines = [r["tags"]["engine"] for r in records
                   if r["name"] == "meta.engine"]
        assert engines == [engine] * len(CONFIGS)

    @needs_native
    def test_ranking_identical_on_every_backend(self):
        runs = {}
        for backend in ("native", "numpy"):
            with kernels.kernel_backend(backend):
                runs[backend] = strategy_ranking_experiment(CONFIGS).run(
                    workers=1)
        assert runs["native"].stats == runs["numpy"].stats


class TestWarmStart:
    """The per-strategy hint chain: each config's yield search is seeded
    with the previous config's certified yield for the same strategy,
    falling back to a cold search after any failure."""

    @pytest.fixture(scope="class")
    def configs(self):
        return [
            ScenarioConfig(hosts=6, services=15, cov=cov, slack=0.5,
                           seed=31, instance_index=i)
            for cov in (0.25, 0.75)
            for i in range(2)
        ]

    @pytest.fixture(scope="class")
    def warm(self, configs):
        return strategy_ranking_experiment(configs, warm_start=True).run(
            workers=1)

    @pytest.fixture(scope="class")
    def cold(self, configs):
        return strategy_ranking_experiment(configs, warm_start=False).run(
            workers=1)

    def test_warm_is_deterministic(self, configs, warm):
        again = strategy_ranking_experiment(configs, warm_start=True).run(
            workers=1)
        assert [(s.strategy.name, s.successes, s.average_yield)
                for s in warm.stats] == \
            [(s.strategy.name, s.successes, s.average_yield)
             for s in again.stats]

    def test_warm_preserves_success_profile(self, warm, cold):
        """A hint never changes *whether* a strategy packs an instance
        (feasibility at yield 0 is probed either way), only which yield
        the search certifies on a non-monotone oracle."""
        warm_by_name = {s.strategy.name: s for s in warm.stats}
        for c in cold.stats:
            w = warm_by_name[c.strategy.name]
            assert w.successes == c.successes
            assert w.attempts == c.attempts

    def test_warm_yields_within_engine_envelope(self, warm, cold):
        """Single strategies are not always monotone, so warm and cold
        may certify slightly different yields (the same envelope as the
        engines' adaptive ordering) — but only slightly, and for few
        strategies."""
        warm_by_name = {s.strategy.name: s for s in warm.stats}
        moved = 0
        for c in cold.stats:
            w = warm_by_name[c.strategy.name]
            assert w.average_yield == pytest.approx(c.average_yield,
                                                    abs=0.05)
            if w.average_yield != c.average_yield:
                moved += 1
        assert moved <= len(cold.stats) // 10

    def test_checkpoints_do_not_mix(self, tmp_path, configs, warm):
        """Warm and cold runs have distinct fingerprints, so a cold
        resume never reuses warm payloads (and vice versa)."""
        path = str(tmp_path / "ck.jsonl")
        strategy_ranking_experiment(configs[:1], warm_start=True).run(
            workers=1, checkpoint=path)
        from repro.experiments.persistence import (CheckpointStore,
                                                   PayloadRecords)
        kind = PayloadRecords("strategy-rank")
        before = len(CheckpointStore(path, kind, resume=True))
        strategy_ranking_experiment(configs[:1], warm_start=False).run(
            workers=1, checkpoint=path, resume=True)
        after = len(CheckpointStore(path, kind, resume=True))
        assert after == before + 253  # everything recomputed, nothing aliased


def test_fingerprints_resume_existing_checkpoints():
    """Checkpoint fingerprints are pinned: a rank-strategies checkpoint
    written before the probe-engine knob was removed still resumes."""
    configs = [ScenarioConfig(hosts=8, services=20, cov=c, slack=0.5,
                              seed=0, instance_index=i)
               for c in (0.25, 0.75) for i in range(2)]
    assert _configs_fingerprint(configs, warm_start=True) == "be6f0dced05d"
    assert _configs_fingerprint(configs, warm_start=False) == "3ba99db8e859"
