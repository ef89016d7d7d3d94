"""Focused tests for the binary-search yield driver (§3.5).

The driver must be robust to the quirks of heuristic feasibility oracles:
they are not monotone in the yield, can fail at yield 0, and may succeed
immediately at the capacity bound.
"""

import numpy as np
import pytest

from repro.algorithms.yield_search import (
    DEFAULT_TOLERANCE,
    binary_search_max_yield,
)
from repro.core import Node, ProblemInstance, Service


def shared_node_instance():
    # Exact optimum y = 0.5: 2*(0.5 + y) <= 2.0.
    return ProblemInstance(
        [Node.multicore(4, 0.5, 1.0)],
        [Service.from_vectors([0.1, 0.1], [0.5, 0.1],
                              [0.1, 0.0], [1.0, 0.0])] * 2)


def oracle_packer(threshold):
    """Ideal oracle: feasible iff y <= threshold."""

    def pack(instance, y):
        if y <= threshold:
            return np.zeros(instance.num_services, dtype=np.int64)
        return None

    return pack


class TestDriverMechanics:
    def test_converges_to_oracle_threshold(self):
        inst = shared_node_instance()
        for target in (0.123, 0.4999, 0.5):
            alloc = binary_search_max_yield(
                inst, oracle_packer(target), improve=False)
            assert alloc.minimum_yield() == pytest.approx(
                target, abs=DEFAULT_TOLERANCE * 1.01)

    def test_upper_bound_shortcut(self):
        """When the capacity bound itself is feasible the driver returns
        after a single probe at that bound."""
        inst = shared_node_instance()
        calls = []

        def pack(instance, y):
            calls.append(y)
            return np.zeros(instance.num_services, dtype=np.int64)

        alloc = binary_search_max_yield(inst, pack, improve=False)
        assert len(calls) == 1
        assert calls[0] == pytest.approx(inst.yield_upper_bound())
        assert alloc.minimum_yield() == pytest.approx(0.5)  # (2-1)/2

    def test_failure_at_zero_returns_none(self):
        inst = shared_node_instance()
        assert binary_search_max_yield(inst, lambda i, y: None) is None

    def test_non_monotone_oracle_still_certifies_a_success(self):
        """A flaky packer that fails on a band of yields: whatever the
        driver returns must be a yield the packer actually certified."""
        inst = shared_node_instance()
        certified = []

        def flaky(instance, y):
            # Fails in (0.2, 0.3) but succeeds up to 0.4 otherwise.
            if 0.2 < y < 0.3 or y > 0.4:
                return None
            certified.append(y)
            return np.zeros(instance.num_services, dtype=np.int64)

        alloc = binary_search_max_yield(inst, flaky, improve=False)
        assert alloc is not None
        assert any(abs(alloc.minimum_yield() - y) < 1e-12
                   for y in certified)

    def test_tolerance_bound_on_optimality_gap(self):
        inst = shared_node_instance()
        for tol in (0.05, 0.01, 1e-3):
            alloc = binary_search_max_yield(
                inst, oracle_packer(0.37), tolerance=tol, improve=False)
            assert 0.37 - tol <= alloc.minimum_yield() <= 0.37 + 1e-12

    def test_improve_flag_applies_node_closed_form(self):
        inst = shared_node_instance()
        raw = binary_search_max_yield(inst, oracle_packer(0.1),
                                      improve=False)
        improved = binary_search_max_yield(inst, oracle_packer(0.1),
                                           improve=True)
        # The closed form lifts the certified 0.1 to the true node max-min.
        assert raw.minimum_yield() == pytest.approx(0.1, abs=1e-4)
        assert improved.minimum_yield() == pytest.approx(0.5, abs=1e-6)

    def test_zero_upper_bound_instance(self):
        """Needs saturating capacity at yield 0: bound is 0, driver must
        go through the y=0 path."""
        inst = ProblemInstance(
            [Node.multicore(4, 0.5, 1.0)],
            [Service.from_vectors([0.1, 0.1], [1.0, 0.1],
                                  [0.1, 0.0], [1.0, 0.0])] * 2)
        assert inst.yield_upper_bound() == 0.0
        alloc = binary_search_max_yield(
            inst, oracle_packer(1.0), improve=False)
        assert alloc is not None
        assert alloc.minimum_yield() == 0.0


def cold_reference(hi, tolerance, feasible):
    """The probe sequence of a search with no hint, written out: the
    capacity bound (unless it is 0), then yield 0, then plain bisection."""
    probes = []

    def probe(y):
        probes.append(y)
        return feasible(y)

    if hi > 0.0 and probe(hi):
        return probes
    if not probe(0.0):
        return probes
    lo = 0.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return probes


def single_service_instance(bound):
    """One service on one node whose capacity bound is ~*bound*."""
    return ProblemInstance(
        [Node.multicore(4, 0.5, 1.0)],
        [Service.from_vectors([0.0, 0.1], [2.0 - 2.0 * bound, 0.1],
                              [0.0, 0.0], [2.0, 0.0])])


class TestColdSequence:
    """A search with no hint probes the bound, then 0, then bisects; at
    bound 0 it probes y = 0 once."""

    ORACLES = {
        "threshold-low": lambda y: y <= 0.0371,
        "threshold-high": lambda y: y <= 0.9,
        "band": lambda y: not (0.2 < y < 0.3 or y > 0.6),
        "parity": lambda y: int(y * 1e5) % 3 != 1,
        "always": lambda y: True,
        "never": lambda y: False,
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("bound", [0.0, 5e-5, 0.42, 1.0])
    @pytest.mark.parametrize("tolerance", [1e-2, DEFAULT_TOLERANCE, 1e-6])
    def test_probes_match_the_reference(self, name, bound, tolerance):
        feasible = self.ORACLES[name]
        inst = single_service_instance(bound)
        probes = []

        def pack(instance, y):
            probes.append(y)
            return (np.zeros(instance.num_services, dtype=np.int64)
                    if feasible(y) else None)

        stats = {}
        alloc = binary_search_max_yield(inst, pack, tolerance=tolerance,
                                        improve=False, stats=stats)
        expected = cold_reference(inst.yield_upper_bound(), tolerance,
                                  feasible)
        assert probes == expected
        assert stats["probes"] == len(expected)
        packed = [y for y in expected if feasible(y)]
        if packed:
            assert stats["certified"] == alloc.minimum_yield() == packed[-1]
        else:
            assert alloc is None and stats["certified"] is None


class TestToleranceRefused:
    @pytest.mark.parametrize("tolerance",
                             [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("hint", [None, 0.25])
    def test_refused_before_any_probe(self, tolerance, hint):
        inst = shared_node_instance()
        probes = []

        def pack(instance, y):
            probes.append(y)
            return np.zeros(instance.num_services, dtype=np.int64)

        with pytest.raises(ValueError, match="tolerance"):
            binary_search_max_yield(inst, pack, tolerance=tolerance,
                                    hint=hint)
        assert probes == []


class _CountingOracle:
    """Ideal monotone oracle (feasible iff y <= threshold) with a probe
    counter — the warm-start machinery's equivalence reference."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.probes = 0

    def __call__(self, instance, y):
        self.probes += 1
        if y <= self.threshold:
            return np.zeros(instance.num_services, dtype=np.int64)
        return None


class TestWarmStart:
    """Warm ≡ cold certified yields, in fewer probes."""

    THRESHOLDS = (0.05, 0.123, 0.29, 0.4273, 0.4999, 0.5)

    def _solve(self, target, hint=None):
        inst = shared_node_instance()
        oracle = _CountingOracle(target)
        stats = {}
        alloc = binary_search_max_yield(inst, oracle, improve=False,
                                        hint=hint, stats=stats)
        assert alloc is not None
        return alloc.minimum_yield(), oracle.probes, stats

    def test_exact_hint_matches_cold_yield(self):
        for target in self.THRESHOLDS:
            cold_y, cold_probes, _ = self._solve(target)
            warm_y, warm_probes, stats = self._solve(target, hint=target)
            assert warm_y == cold_y, target
            # A hint at/above the capacity bound is correctly ignored.
            assert stats["hint_used"] == (target < 0.5)
            assert stats["certified"] == cold_y

    def test_wrong_hints_match_cold_yield(self):
        """Any hint — far low, far high, slightly off — certifies the
        cold answer against a monotone oracle."""
        for target in self.THRESHOLDS:
            cold_y, _, _ = self._solve(target)
            for hint in (0.001, 0.499, target - 0.07, target + 0.07,
                         target - 2e-4, target + 2e-4):
                if not 0.0 < hint < 0.5:
                    continue
                warm_y, _, stats = self._solve(target, hint=hint)
                assert warm_y == cold_y, (target, hint)

    def test_good_hint_halves_probe_count(self):
        ratios = []
        for target in self.THRESHOLDS:
            if target >= 0.5:
                continue  # capacity-bound case: cold is already 1 probe
            cold_y, cold_probes, _ = self._solve(target)
            _, warm_probes, _ = self._solve(target, hint=cold_y)
            ratios.append(cold_probes / warm_probes)
        assert min(ratios) >= 2.0, ratios

    def test_out_of_range_hints_are_ignored(self):
        inst = shared_node_instance()
        for hint in (-1.0, 0.0, 0.5, 2.0, float("nan"), float("inf")):
            stats = {}
            alloc = binary_search_max_yield(
                inst, oracle_packer(0.3), improve=False, hint=hint,
                stats=stats)
            assert not stats["hint_used"], hint
            assert alloc.minimum_yield() == pytest.approx(0.3, abs=DEFAULT_TOLERANCE)

    def test_warm_search_reaches_capacity_bound(self):
        """A hint far below a fully-satisfiable instance must still
        certify the upper bound exactly (deferred bound probe climbs)."""
        inst = shared_node_instance()
        cold = binary_search_max_yield(inst, oracle_packer(1.0),
                                       improve=False)
        warm = binary_search_max_yield(inst, oracle_packer(1.0),
                                       improve=False, hint=0.05)
        assert warm.minimum_yield() == cold.minimum_yield()

    def test_warm_total_failure_returns_none(self):
        inst = shared_node_instance()

        def never(instance, y):
            return None

        assert binary_search_max_yield(inst, never, hint=0.25) is None

    def test_stats_on_cold_solve(self):
        inst = shared_node_instance()
        stats = {}
        alloc = binary_search_max_yield(inst, oracle_packer(0.3),
                                        improve=False, stats=stats)
        assert stats["probes"] > 0
        assert stats["certified"] == alloc.minimum_yield()
        assert not stats["hint_used"]


class TestWarmStartMetaEngine:
    """Warm ≡ cold against the real META* oracles on reference scenarios."""

    def test_equivalence_and_probe_reduction(self):
        from repro.algorithms.vector_packing import (
            MetaProbeEngine,
            hvp_light_strategies,
        )
        from repro.workloads import ScenarioConfig, generate_instance

        strategies = hvp_light_strategies()
        cold_total = warm_total = 0
        for seed in (0, 1, 2):
            for cov, slack in ((0.2, 0.4), (0.6, 0.5), (0.9, 0.7)):
                inst = generate_instance(ScenarioConfig(
                    hosts=10, services=30, cov=cov, slack=slack,
                    seed=seed, instance_index=0))
                sc, sw = {}, {}
                cold = binary_search_max_yield(
                    inst, MetaProbeEngine(inst, strategies),
                    improve=False, stats=sc)
                assert cold is not None
                warm = binary_search_max_yield(
                    inst, MetaProbeEngine(inst, strategies),
                    improve=False, hint=sc["certified"], stats=sw)
                assert warm.minimum_yield() == cold.minimum_yield()
                assert (warm.placement == cold.placement).all()
                cold_total += sc["probes"]
                warm_total += sw["probes"]
        assert cold_total >= 2 * warm_total, (cold_total, warm_total)
