"""Fault injection: rollback discipline and replay equivalence."""

import os

import pytest

from repro.service import (
    AllocationController,
    EventJournal,
    FaultInjector,
    FaultPlan,
    ServiceError,
    load_journal,
)
from repro.util.retry import BackoffPolicy

from .conftest import make_controller


def journaled(tmp_path, name="events.jsonl", faults=None, **kwargs):
    path = tmp_path / name
    ctl = make_controller(faults=faults, **kwargs)
    ctl.attach_journal(EventJournal(path, faults=faults))
    return ctl, path


def replay_into_fresh(path, **kwargs) -> AllocationController:
    ctl = make_controller(rng=999, **kwargs)  # rng must not matter
    ctl.replay_events(load_journal(path))
    return ctl


FAST = BackoffPolicy(attempts=3, base_delay=0.0)


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "solver_delay_ms=5,solver_fail=2,journal_fail=1,"
            "crash_at_event=7")
        assert plan.solver_delay_ms == 5.0
        assert plan.solver_fail == 2
        assert plan.journal_fail == 1
        assert plan.crash_at_event == 7
        assert plan.active()

    def test_empty_plan_inactive(self):
        assert not FaultPlan().active()
        assert not FaultPlan.parse("").active()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.parse("explode=1")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("solver_fail")


class TestSolverFaults:
    def test_transient_failure_retried_to_success(self):
        ctl = make_controller(
            faults=FaultInjector(FaultPlan(solver_fail=2)),
            solver_retry=FAST)
        reply = ctl.admit(ctl.sample_spec())
        assert reply["active"] == 1
        assert not reply["degraded"]
        assert ctl.metrics()["solver"]["solver_retries"] == 2

    def test_exhausted_budget_falls_back_to_greedy(self):
        ctl = make_controller(
            faults=FaultInjector(FaultPlan(solver_fail=99)),
            solver_retry=FAST)
        reply = ctl.admit(ctl.sample_spec())
        assert reply["active"] == 1
        assert reply["degraded"]
        assert "solver_error" in reply

    def test_depart_survives_solver_outage(self):
        ctl = make_controller(solver_retry=FAST)
        first = ctl.sample_spec()
        ctl.admit(first)
        ctl.admit(ctl.sample_spec())
        ctl._faults = FaultInjector(FaultPlan(solver_fail=99))
        reply = ctl.depart(first.sid)
        assert reply["active"] == 1
        assert reply["degraded"]


class TestJournalFaults:
    def test_failed_append_rolls_back_and_refuses(self, tmp_path):
        ctl, path = journaled(
            tmp_path, faults=FaultInjector(FaultPlan(journal_fail=1)))
        before = ctl.state.digest()
        with pytest.raises(ServiceError) as err:
            ctl.admit(ctl.sample_spec())
        assert err.value.status == 503
        assert ctl.state.digest() == before
        assert ctl.metrics()["solver"]["journal_errors"] == 1
        # the injected fault is spent; the next admission goes through
        reply = ctl.admit(ctl.sample_spec())
        assert reply["active"] == 1
        ctl.quiesce()
        assert len(load_journal(path)) == 1

    def test_rejected_admission_never_journals(self, tmp_path):
        ctl, path = journaled(tmp_path)
        spec = ctl.sample_spec()
        ctl.admit(spec)
        with pytest.raises(ServiceError):
            ctl.admit(spec)  # duplicate id -> 409
        ctl.quiesce()
        assert len(load_journal(path)) == 1

    def test_quiesced_controller_refuses_events(self, tmp_path):
        ctl, _ = journaled(tmp_path)
        ctl.admit(ctl.sample_spec())
        ctl.quiesce()
        with pytest.raises(ServiceError) as err:
            ctl.admit(ctl.sample_spec())
        assert err.value.status == 503


class TestReplayEquivalence:
    def drive(self, ctl):
        """A deterministic mixed stream: admits (one gold), departs,
        a strategy flip, a drain, and a node addition."""
        specs = [ctl.sample_spec() for _ in range(5)]
        gold = ctl.sample_spec(sla="gold")
        for spec in specs:
            ctl.admit(spec)
        ctl.admit(gold)
        ctl.depart(specs[1].sid)
        ctl.set_strategy("METAVP")
        ctl.admit(ctl.sample_spec())
        ctl.set_strategy("METAHVPLIGHT")
        ctl.drain_node("0")
        nodes = ctl.state.nodes
        ctl.add_node(list(nodes.elementary[1]), list(nodes.aggregate[1]),
                     name="spare")
        ctl.depart(specs[3].sid)

    def test_clean_run_replays_byte_identical(self, tmp_path):
        ctl, path = journaled(tmp_path)
        self.drive(ctl)
        ctl.quiesce()
        recovered = replay_into_fresh(path)
        assert recovered.state.digest() == ctl.state.digest()
        assert recovered.strategy == ctl.strategy

    def test_solver_outage_run_replays_identically(self, tmp_path):
        """Events journal the mode actually used, so a replay does not
        depend on re-hitting the same solver failures."""
        ctl, path = journaled(
            tmp_path, faults=FaultInjector(FaultPlan(solver_fail=4)),
            solver_retry=BackoffPolicy(attempts=2, base_delay=0.0))
        self.drive(ctl)
        ctl.quiesce()
        recovered = replay_into_fresh(path)
        assert recovered.state.digest() == ctl.state.digest()

    def test_journal_outage_run_replays_identically(self, tmp_path):
        ctl, path = journaled(
            tmp_path, faults=FaultInjector(FaultPlan(journal_fail=2)))
        refused = 0
        for _ in range(4):
            try:
                ctl.admit(ctl.sample_spec())
            except ServiceError:
                refused += 1
        assert refused == 2
        ctl.quiesce()
        recovered = replay_into_fresh(path)
        assert recovered.state.digest() == ctl.state.digest()

    def test_replay_continues_journaling(self, tmp_path):
        """Post-recovery events append after the replayed prefix."""
        ctl, path = journaled(tmp_path)
        self.drive(ctl)
        ctl.quiesce()
        events = load_journal(path)
        recovered = replay_into_fresh(path)
        recovered.attach_journal(
            EventJournal(path, start_seq=len(events)))
        recovered.admit(recovered.sample_spec("late"))
        recovered.quiesce()
        again = replay_into_fresh(path)
        assert again.state.digest() == recovered.state.digest()


class TestCrashHook:
    def test_crash_fires_at_committed_seq(self):
        injector = FaultInjector(FaultPlan(crash_at_event=3))
        pid = os.fork()
        if pid == 0:  # child: the hook must hard-exit with the marker
            injector.on_event_committed(3)
            os._exit(0)  # pragma: no cover - reached only on failure
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 86

    def test_no_crash_below_threshold(self):
        injector = FaultInjector(FaultPlan(crash_at_event=3))
        injector.on_event_committed(2)  # returns, no exit
