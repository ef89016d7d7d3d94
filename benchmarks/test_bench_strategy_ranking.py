"""Benchmark: the §5.1 strategy-ranking exploration behind METAHVPLIGHT.

Regenerates (at reduced scale) the inspection the paper used to design
the LIGHT set: all 253 basic HVP strategies ranked by success rate, then
average minimum yield.  Shape to check in the printed report: descending
MAX / SUM / MAXDIFFERENCE item sorts dominate the top of the table, all
three packers appear, and a healthy fraction of the top-50 strategies are
LIGHT members.
"""

import pytest

from repro.experiments.strategy_ranking import (
    format_ranking,
    light_set_audit,
    strategy_ranking_experiment,
)
from repro.workloads import ScenarioConfig

CONFIGS = [
    ScenarioConfig(hosts=8, services=20, cov=cov, slack=slack,
                   seed=2012, instance_index=idx)
    for cov in (0.25, 0.75)
    for slack in (0.5,)
    for idx in range(2)
]


@pytest.fixture(scope="module")
def ranking():
    return strategy_ranking_experiment(CONFIGS).run(workers=1)


def test_strategy_ranking(benchmark, ranking, emit):
    benchmark.pedantic(strategy_ranking_experiment(CONFIGS[:1]).run,
                       kwargs={"workers": 1}, rounds=1, iterations=1)
    emit("strategy_ranking", format_ranking(ranking, top_n=25))


def test_light_membership_in_top(ranking):
    """LIGHT was designed from this table: its members should be
    overrepresented at the top relative to their 60/253 base rate."""
    hits, n = light_set_audit(ranking, top_n=50)
    base_rate = 60 / 253
    assert hits / n > base_rate
