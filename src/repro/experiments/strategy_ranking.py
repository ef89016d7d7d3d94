"""The §5.1 strategy-ranking exploration that motivated METAHVPLIGHT.

The paper sorted the 253 basic HVP strategies "first by success rate,
then by average achieved minimum yield", inspected the top 50 per
dataset, and observed that (1) all three packers appear when paired with
the right sorts, (2) descending MAX / SUM / MAXDIFFERENCE (and sometimes
MAXRATIO) dominate the item sorts, and (3) ascending LEX / MAX / SUM plus
a few descending bin sorts and NONE dominate the bin sorts — those
observations define the 60-strategy LIGHT subset.

This module reruns that exploration on any grid so the LIGHT design can
be audited (and re-derived for new workload families).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..algorithms.vector_packing import (
    StrategyTable,
    VPStrategy,
    YieldProbeFactory,
    hvp_light_strategies,
    hvp_strategies,
    make_engine,
)
from ..algorithms.yield_search import binary_search_max_yield
from ..workloads import ScenarioConfig, generate_instance
from .persistence import PayloadRecords, scenario_key
from .report import format_table
from .spec import ExperimentSpec

CHECKPOINT_KIND = "strategy-rank"

__all__ = ["StrategyRanking", "format_ranking", "light_set_audit",
           "strategy_ranking_experiment"]


@dataclass(frozen=True)
class StrategyStats:
    strategy: VPStrategy
    successes: int
    attempts: int
    average_yield: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    def sort_key(self) -> tuple[float, float]:
        """Paper's ordering: success rate first, then average yield."""
        return (self.success_rate, self.average_yield)


@dataclass(frozen=True)
class StrategyRanking:
    """All strategies ordered best-first by the §5.1 criterion."""

    stats: tuple[StrategyStats, ...]

    def top(self, n: int = 50) -> tuple[StrategyStats, ...]:
        return self.stats[:n]

    def packer_counts(self, n: int = 50) -> Mapping[str, int]:
        return Counter(s.strategy.packer for s in self.top(n))

    def item_sort_counts(self, n: int = 50) -> Mapping[str, int]:
        return Counter(s.strategy.item_sort.name for s in self.top(n))

    def bin_sort_counts(self, n: int = 50) -> Mapping[str, int]:
        return Counter(s.strategy.bin_sort.name for s in self.top(n)
                       if s.strategy.packer != "BF")


@dataclass(frozen=True)
class _StrategyTask:
    strategy_index: int
    configs: tuple[ScenarioConfig, ...]
    #: Seed each config's yield search with the previous config's
    #: certified yield *for this same strategy* (see PR 4's warm starts).
    #: The chain lives entirely inside the task, so checkpoint resume and
    #: sharding see identical results.
    warm_start: bool = True


#: Per-process cache of (config → YieldProbeFactory): all 253 strategy
#: tasks evaluated in one worker share the instance and its per-instance
#: probe precomputation (yield-threshold tables, static bin orders).
_FACTORY_CACHE: dict[ScenarioConfig, YieldProbeFactory] = {}
_FACTORY_CACHE_MAX = 8


def _probe_factory(cfg: ScenarioConfig) -> YieldProbeFactory:
    factory = _FACTORY_CACHE.get(cfg)
    if factory is None:
        if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FACTORY_CACHE.clear()
        factory = YieldProbeFactory(generate_instance(cfg))
        _FACTORY_CACHE[cfg] = factory
    return factory


def _evaluate_strategy(task: _StrategyTask) -> StrategyStats:
    strategy = hvp_strategies()[task.strategy_index]
    yields = []
    successes = 0
    # Per-strategy hint chain: consecutive configs of one task differ
    # only in CoV/instance draw, so the previous config's certified yield
    # is a strong bracket seed for the next search.  Single strategies
    # fail often, and a failure certifies nothing — the chain resets to a
    # cold search after every failed config.
    hint: float | None = None
    table = StrategyTable((strategy,))
    for cfg in task.configs:
        factory = _probe_factory(cfg)
        oracle = make_engine(factory.instance, table, factory)
        stats: dict = {}
        alloc = binary_search_max_yield(
            factory.instance, oracle,
            hint=hint if task.warm_start else None, stats=stats)
        if alloc is not None:
            successes += 1
            yields.append(alloc.minimum_yield())
            hint = stats.get("certified")
        else:
            hint = None
    return StrategyStats(
        strategy=strategy,
        successes=successes,
        attempts=len(task.configs),
        average_yield=float(np.mean(yields)) if yields else 0.0,
    )


def _configs_fingerprint(configs: Sequence[ScenarioConfig],
                         warm_start: bool) -> str:
    # The warm-start flag is part of the identity: warm and cold searches
    # on a non-monotone single-strategy oracle certify equal yields only
    # up to the search tolerance, so their checkpoints must not mix.
    # scenario_key embeds each config's workload-model id.  "v2" is the
    # name of the one remaining engine, kept so existing checkpoints
    # still resume.
    blob = json.dumps([[scenario_key(c) for c in configs], "v2",
                       warm_start])
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _encode_stats(stats: StrategyStats) -> dict:
    return {"strategy": stats.strategy.name, "successes": stats.successes,
            "attempts": stats.attempts, "average_yield": stats.average_yield}


def _decode_stats(key: list, data: dict) -> StrategyStats:
    index = key[1]
    strategy = hvp_strategies()[index]
    if data["strategy"] != strategy.name:
        raise ValueError(
            f"checkpoint strategy mismatch at index {index}: "
            f"{data['strategy']!r} on disk vs {strategy.name!r} in registry")
    return StrategyStats(strategy=strategy, successes=data["successes"],
                         attempts=data["attempts"],
                         average_yield=data["average_yield"])


def _reduce_ranking(stats: Iterable[StrategyStats]) -> StrategyRanking:
    ordered = tuple(sorted(stats, key=StrategyStats.sort_key, reverse=True))
    return StrategyRanking(ordered)


def strategy_ranking_experiment(configs: Sequence[ScenarioConfig],
                                warm_start: bool = True,
                                top_n: int = 25) -> ExperimentSpec:
    """Declare the §5.1 exploration as a shardable experiment spec.

    One task per basic HVP strategy; *warm_start* chains each strategy's
    yield searches across *configs* (cold again after a failure), and
    *top_n* only affects the rendering.
    """
    configs = tuple(configs)
    fingerprint = _configs_fingerprint(configs, warm_start)
    return ExperimentSpec(
        name="rank-strategies",
        tasks=lambda: (_StrategyTask(i, configs, warm_start)
                       for i in range(len(hvp_strategies()))),
        key=lambda task: [fingerprint, task.strategy_index],
        worker=_evaluate_strategy,
        codec=PayloadRecords(CHECKPOINT_KIND, encode=_encode_stats,
                             decode=_decode_stats),
        reduce=_reduce_ranking,
        formatter=partial(format_ranking, top_n=top_n),
    )


def light_set_audit(ranking: StrategyRanking, top_n: int = 50
                    ) -> tuple[int, int]:
    """How many of the top-N ranked strategies are in the LIGHT set?

    Returns ``(hits, top_n)``.  The paper designed LIGHT from exactly this
    inspection, so a healthy fraction of the top strategies should be
    LIGHT members on workloads resembling §4's.
    """
    light_names = {s.name for s in hvp_light_strategies()}
    hits = sum(1 for s in ranking.top(top_n)
               if s.strategy.name in light_names)
    return hits, min(top_n, len(ranking.stats))


def format_ranking(ranking: StrategyRanking, top_n: int = 20) -> str:
    rows = []
    for i, s in enumerate(ranking.top(top_n), start=1):
        rows.append((i, s.strategy.name, f"{s.success_rate * 100:.0f}%",
                     f"{s.average_yield:.4f}"))
    table = format_table(("rank", "strategy", "success", "avg yield"), rows,
                         title=f"Top {top_n} of {len(ranking.stats)} basic "
                               f"HVP strategies (§5.1 ordering)")
    packers = ", ".join(f"{k}: {v}" for k, v in
                        sorted(ranking.packer_counts(50).items()))
    items = ", ".join(f"{k}: {v}" for k, v in sorted(
        ranking.item_sort_counts(50).items(), key=lambda kv: -kv[1]))
    bins = ", ".join(f"{k}: {v}" for k, v in sorted(
        ranking.bin_sort_counts(50).items(), key=lambda kv: -kv[1]))
    hits, n = light_set_audit(ranking)
    return "\n".join([
        table,
        "",
        f"Top-50 packer mix:    {packers}",
        f"Top-50 item sorts:    {items}",
        f"Top-50 bin sorts:     {bins}",
        f"LIGHT members in top {n}: {hits}",
    ])
