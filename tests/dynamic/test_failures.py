"""Platform churn: event generation, schedules, and simulator coupling."""

import pytest

from repro.algorithms import metahvp_light
from repro.dynamic import (
    CapacityChange,
    DynamicSimulator,
    NodeFailure,
    NodeRecovery,
    PlatformSchedule,
    generate_platform_events,
    generate_trace,
)
from repro.workloads import generate_platform


@pytest.fixture(scope="module")
def platform():
    return generate_platform(hosts=6, cov=0.5, rng=21)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(horizon=10, mean_arrivals_per_step=1.0,
                          mean_lifetime_steps=6.0, rng=22,
                          initial_services=5)


#: ``test_newcomers_admitted_on_a_churning_platform``'s step rows and
#: final assignment (time, active, placed, pending, migrations, min and
#: mean yield, failed nodes, forced migrations, displaced, SLA).
CHURN_ROWS = [
    (0, 21, 21, 0, 0, 1.0, 1.0, 0, 0, 0, 0),
    (1, 25, 25, 0, 0, 0.24, 0.4528, 1, 7, 0, 0),
    (2, 22, 22, 0, 0, 0.0509, 0.3436, 0, 8, 0, 0),
    (3, 20, 20, 0, 11, 1.0, 1.0, 1, 7, 0, 0),
    (4, 17, 17, 0, 0, 0.7371, 0.8079, 3, 8, 0, 0),
    (5, 18, 13, 5, 0, 0.6207, 0.7083, 3, 4, 3, 0),
    (6, 17, 17, 0, 8, 1.0, 1.0, 2, 3, 0, 0),
    (7, 16, 16, 0, 0, 0.6207, 0.763, 0, 0, 0, 0),
    (8, 14, 14, 0, 0, 0.5361, 0.6398, 1, 4, 0, 0),
    (9, 13, 13, 0, 8, 1.0, 1.0, 1, 2, 0, 0),
    (10, 14, 14, 0, 0, 0.55, 0.8185, 1, 0, 0, 0),
    (11, 18, 18, 0, 0, 0.4068, 0.672, 2, 2, 0, 0),
]
CHURN_ASSIGNED = [
    -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1, 3, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, 0, -1, -1, -1,
    -1, 0, -1, -1, 4, -1, 3, 3, 1, 0, -1, 1, 4, 0, 1, 4, 4, 4, 4,
]


def make_sim(platform, trace, **kw):
    defaults = dict(placer=metahvp_light(), reallocation_period=3,
                    cpu_need_scale=0.05, rng=0)
    defaults.update(kw)
    return DynamicSimulator(platform, trace, **defaults)


class TestEventGeneration:
    def test_deterministic_given_seed(self):
        a = generate_platform_events(20, 8, 0.1, 0.5, rng=3)
        b = generate_platform_events(20, 8, 0.1, 0.5, rng=3)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_platform_events(40, 8, 0.2, 0.5, rng=3)
        b = generate_platform_events(40, 8, 0.2, 0.5, rng=4)
        assert a != b

    def test_step_zero_is_quiet(self):
        events = generate_platform_events(30, 6, 0.5, 0.5, rng=1)
        assert all(ev.time >= 1 for ev in events)

    def test_markov_alternation(self):
        """Per node, failures and recoveries strictly alternate."""
        events = generate_platform_events(60, 4, 0.3, 0.3, rng=9)
        state = {h: True for h in range(4)}
        for ev in sorted(events, key=lambda e: (e.time, e.node)):
            if isinstance(ev, NodeFailure):
                assert state[ev.node], "failed while already down"
                state[ev.node] = False
            elif isinstance(ev, NodeRecovery):
                assert not state[ev.node], "recovered while up"
                state[ev.node] = True

    def test_zero_rate_is_silent(self):
        assert generate_platform_events(30, 6, 0.0, 0.5, rng=1) == ()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            generate_platform_events(10, 4, 1.5, 0.5)
        with pytest.raises(ValueError):
            generate_platform_events(10, 4, 0.1, -0.2)

    def test_capacity_changes_only_while_up(self):
        events = generate_platform_events(
            60, 4, 0.2, 0.2, capacity_change_rate=0.3,
            capacity_factors=(0.5, 1.0), rng=17)
        up = {h: True for h in range(4)}
        for ev in sorted(events, key=lambda e: (e.time, e.node)):
            if isinstance(ev, NodeFailure):
                up[ev.node] = False
            elif isinstance(ev, NodeRecovery):
                up[ev.node] = True
            else:
                assert up[ev.node]
                assert ev.factor in (0.5, 1.0)


class TestSchedule:
    def test_masks_track_events(self):
        sched = PlatformSchedule(horizon=5, n_nodes=3, events=(
            NodeFailure(time=1, node=0),
            NodeRecovery(time=3, node=0),
            CapacityChange(time=2, node=2, factor=0.5),
        ))
        assert sched.mask_at(0).tolist() == [True, True, True]
        assert sched.mask_at(1).tolist() == [False, True, True]
        assert sched.mask_at(2).tolist() == [False, True, True]
        assert sched.mask_at(3).tolist() == [True, True, True]
        assert sched.scale_at(1).tolist() == [1.0, 1.0, 1.0]
        assert sched.scale_at(4).tolist() == [1.0, 1.0, 0.5]

    def test_event_bounds_checked(self):
        with pytest.raises(ValueError, match="outside horizon"):
            PlatformSchedule(horizon=3, n_nodes=2,
                             events=(NodeFailure(time=3, node=0),))
        with pytest.raises(ValueError, match="outside platform"):
            PlatformSchedule(horizon=3, n_nodes=2,
                             events=(NodeFailure(time=1, node=5),))

    def test_capacity_factor_validated(self):
        with pytest.raises(ValueError, match="capacity factor"):
            PlatformSchedule(horizon=3, n_nodes=2, events=(
                CapacityChange(time=1, node=0, factor=-1.0),))


class TestSimulatorChurn:
    def test_empty_schedule_matches_no_schedule(self, platform, trace):
        """failures=() must be byte-identical to failures=None."""
        baseline = make_sim(platform, trace).run()
        quiet = make_sim(platform, trace, failures=()).run()
        assert baseline.as_rows() == quiet.as_rows()

    def test_event_tuple_accepted_directly(self, platform, trace):
        events = generate_platform_events(
            trace.horizon, len(platform), 0.1, 0.5, rng=7)
        sched = PlatformSchedule(horizon=trace.horizon,
                                 n_nodes=len(platform), events=events)
        a = make_sim(platform, trace, failures=events).run()
        b = make_sim(platform, trace, failures=sched).run()
        assert a.as_rows() == b.as_rows()

    def test_deterministic_under_churn(self, platform, trace):
        events = generate_platform_events(
            trace.horizon, len(platform), 0.15, 0.5, rng=7)
        a = make_sim(platform, trace, failures=events).run()
        b = make_sim(platform, trace, failures=events).run()
        assert a.as_rows() == b.as_rows()

    def test_failure_evicts_and_accounts(self, platform, trace):
        """Downing half the platform forces displacement accounting."""
        events = tuple(NodeFailure(time=2, node=h)
                       for h in range(len(platform) // 2))
        result = make_sim(platform, trace, failures=events).run()
        assert any(s.failed_nodes > 0 for s in result.steps)
        assert (result.total_forced_migrations
                + result.displaced_service_steps) > 0
        for step in result.steps:  # invariant survives churn
            assert step.placed + step.pending == step.active

    def test_nothing_placed_on_a_down_node(self, platform, trace):
        down = 0
        events = (NodeFailure(time=1, node=down),)
        sim = make_sim(platform, trace, failures=events)
        sim.run()
        # after the run the node stayed down: no service assigned to it
        assert not (sim._assigned == down).any() or \
            (sim._assigned == down).sum() == 0

    def test_newcomers_admitted_on_a_churning_platform(self, platform):
        """Failures, capacity changes and newcomers between re-packs, with
        the loads re-derived and checked every step: arrivals and evicted
        services are admitted on the platform that is up, capacity cuts
        evict, and the step rows and final placement are pinned."""
        trace = generate_trace(horizon=12, mean_arrivals_per_step=3.0,
                               mean_lifetime_steps=6.0, rng=45,
                               initial_services=14)
        events = generate_platform_events(
            trace.horizon, len(platform), 0.15, 0.5,
            capacity_change_rate=0.3, capacity_factors=(0.5, 1.0), rng=5)
        sim = make_sim(platform, trace, failures=events,
                       validate_loads=True)
        assert sim.period == 3
        assert sim.run().as_rows() == CHURN_ROWS
        assert sim._assigned.tolist() == CHURN_ASSIGNED

    def test_schedule_shape_validated(self, platform, trace):
        bad = PlatformSchedule(horizon=trace.horizon, n_nodes=3)
        with pytest.raises(ValueError, match="covers 3 nodes"):
            make_sim(platform, trace, failures=bad)
        short = PlatformSchedule(horizon=2, n_nodes=len(platform))
        with pytest.raises(ValueError, match="horizon"):
            make_sim(platform, trace, failures=short)


class TestSimulatorSLA:
    def test_trace_annotation_flows_through(self, platform):
        trace = generate_trace(horizon=10, mean_arrivals_per_step=1.0,
                               mean_lifetime_steps=6.0, rng=31,
                               initial_services=5,
                               sla_mix={"gold": 0.5, "best-effort": 0.5})
        assert trace.sla is not None
        result = make_sim(platform, trace).run()
        assert set(result.sla_violations) == {"gold", "silver",
                                              "best-effort"}
        assert result.total_sla_violations == \
            sum(result.sla_violations.values())

    def test_no_annotation_no_counters(self, platform, trace):
        result = make_sim(platform, trace).run()
        assert result.sla_violations == {}
        assert result.total_sla_violations == 0

    def test_churn_creates_gold_violations(self, platform):
        """Downing most of the platform must breach gold floors."""
        trace = generate_trace(horizon=8, mean_arrivals_per_step=2.0,
                               mean_lifetime_steps=8.0, rng=33,
                               initial_services=8,
                               sla_mix={"gold": 1.0})
        events = tuple(NodeFailure(time=2, node=h)
                       for h in range(len(platform) - 1))
        result = make_sim(platform, trace, failures=events).run()
        assert result.sla_violations["gold"] > 0

    def test_sla_length_validated(self, platform, trace):
        with pytest.raises(ValueError, match="SLA classes"):
            make_sim(platform, trace, sla=("gold",))

    def test_deterministic_with_sla(self, platform):
        trace = generate_trace(horizon=10, mean_arrivals_per_step=1.0,
                               mean_lifetime_steps=6.0, rng=35,
                               initial_services=5,
                               sla_mix={"silver": 1.0})
        a = make_sim(platform, trace).run()
        b = make_sim(platform, trace).run()
        assert a.as_rows() == b.as_rows()
        assert a.sla_violations == b.sla_violations
