"""Controller semantics: warm incremental re-solve ≡ offline cold solve,
admission control, deadline degradation, state consistency."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import named_meta_solver
from repro.core.allocation import Allocation
from repro.service import PROBATION_PERIOD, ServiceError, ServiceSpec
from repro.service.controller import AllocationController

from .conftest import make_controller, scripted_specs


def live_allocation(ctl: AllocationController) -> Allocation:
    """The incumbent state as a validated Allocation object."""
    instance = ctl.state.build_instance()
    assert instance is not None
    yields = np.array([ctl.state.yields[sid] for sid in ctl.state.ids()])
    return Allocation(instance, ctl.state.assignment_array(), yields)


def offline_cold_solve(ctl: AllocationController, strategy: str):
    """Cold MetaSolver solve of the controller's current live set."""
    instance = ctl.state.build_instance()
    stats: dict = {}
    alloc = named_meta_solver(strategy).solve_with_hint(instance, stats=stats)
    return alloc, stats


def drive_sequence(ctl: AllocationController, specs) -> None:
    """16 arrivals with 3 interleaved departures, validating after each."""
    for i, spec in enumerate(specs):
        ctl.admit(spec)
        live_allocation(ctl).validate()
        if i in (5, 9, 13):
            ctl.depart(specs[i - 3].sid)
            live_allocation(ctl).validate()


class TestIncrementalResolve:
    def test_final_certified_yield_matches_offline_cold_solve(self):
        ctl = make_controller()
        drive_sequence(ctl, scripted_specs(16))
        _, stats = offline_cold_solve(ctl, "METAHVPLIGHT")
        # Byte-identical: the warm chain certifies exactly the cold yield.
        assert ctl.state.certified == stats["certified"]
        assert repr(ctl.state.certified) == repr(stats["certified"])
        # A loaded cluster, not the trivial slack fast path.
        assert 0.0 < ctl.state.certified < 1.0

    def test_warm_chain_certifies_cold_yields_at_every_step(self):
        specs = scripted_specs(12)
        warm = make_controller(warm_start=True)
        cold = make_controller(warm_start=False)
        for spec in specs:
            rw = warm.admit(spec)
            rc = cold.admit(ServiceSpec(spec.sid, spec.req_elem,
                                        spec.req_agg, spec.need_elem,
                                        spec.need_agg))
            assert rw["certified_yield"] == rc["certified_yield"]
        rw = warm.depart(specs[4].sid)
        rc = cold.depart(specs[4].sid)
        assert rw["certified_yield"] == rc["certified_yield"]

    def test_warm_start_issues_measurably_fewer_probes(self):
        # A loaded cluster (heavier CPU scale) so solves leave the
        # capacity-bound fast path and the binary search actually runs.
        specs = scripted_specs(20, cpu_need_scale=0.2)
        metrics = {}
        for ws in (True, False):
            ctl = make_controller(cpu_need_scale=0.2, warm_start=ws)
            for i, spec in enumerate(specs):
                ctl.admit(spec)
                if i in (9, 14, 19):
                    ctl.depart(specs[i - 4].sid)
            metrics[ws] = ctl.metrics()["solver"]
        pw = metrics[True]["total_probes"]
        pc = metrics[False]["total_probes"]
        assert metrics[True]["warm_solves"] > 0
        assert metrics[False]["warm_solves"] == 0
        assert pw < 0.85 * pc, (pw, pc)

    def test_departure_resolve_matches_offline(self):
        ctl = make_controller()
        for spec in scripted_specs(10):
            ctl.admit(spec)
        ctl.depart("svc-0")
        ctl.depart("svc-5")
        _, stats = offline_cold_solve(ctl, "METAHVPLIGHT")
        assert ctl.state.certified == stats["certified"]
        assert len(ctl.state) == 8


class TestAdmissionControl:
    def test_infeasible_service_rejected_state_untouched(self, controller):
        for spec in scripted_specs(4):
            controller.admit(spec)
        before = dict(controller.state.placement)
        huge = ServiceSpec.from_vectors(
            "huge", [99.0, 99.0], [99.0, 99.0], [0.0, 0.0], [0.0, 0.0],
            dims=2)
        with pytest.raises(ServiceError) as err:
            controller.admit(huge)
        assert err.value.status == 409
        assert "huge" not in controller.state
        assert controller.state.placement == before
        assert controller.metrics()["admission"]["rejected"] == 1

    def test_duplicate_id_conflict(self, controller):
        spec = scripted_specs(1)[0]
        controller.admit(spec)
        with pytest.raises(ServiceError) as err:
            controller.admit(spec)
        assert err.value.status == 409
        assert len(controller.state) == 1

    def test_unknown_departure_404(self, controller):
        with pytest.raises(ServiceError) as err:
            controller.depart("nope")
        assert err.value.status == 404


class TestDeadlineDegradation:
    def test_degrades_to_feasible_greedy_placement(self):
        # An impossible budget: the first solve measures, the rest degrade.
        ctl = make_controller(deadline_ms=1e-9)
        specs = scripted_specs(8)
        first = ctl.admit(specs[0])
        assert first["degraded"] is False
        degraded = [ctl.admit(s) for s in specs[1:5]]
        assert all(r["degraded"] for r in degraded)
        assert all(r["probes"] == 0 for r in degraded)
        # Degraded placements are feasible and complete...
        live_allocation(ctl).validate()
        # ...but not search-certified.
        assert ctl.state.certified is None
        assert all(r["certified_yield"] is None for r in degraded)
        solver = ctl.metrics()["solver"]
        assert solver["degraded_solves"] == 4
        assert solver["full_solves"] == 1

    def test_degraded_departure_keeps_remaining_placements(self):
        ctl = make_controller(deadline_ms=1e-9)
        specs = scripted_specs(6)
        for spec in specs:
            ctl.admit(spec)
        before = dict(ctl.state.placement)
        r = ctl.depart(specs[2].sid)
        assert r["degraded"] is True
        del before[specs[2].sid]
        assert ctl.state.placement == before
        live_allocation(ctl).validate()

    def test_probation_refreshes_the_latency_estimate(self):
        ctl = make_controller(deadline_ms=1e-9)
        for spec in scripted_specs(PROBATION_PERIOD + 3):
            ctl.admit(spec)
        # The first solve plus at least one probation full solve ran.
        assert ctl.metrics()["solver"]["full_solves"] >= 2

    def test_generous_deadline_never_degrades(self):
        ctl = make_controller(deadline_ms=60_000.0)
        for spec in scripted_specs(5):
            assert ctl.admit(spec)["degraded"] is False
        assert ctl.metrics()["solver"]["degraded_solves"] == 0


class TestLifecycle:
    def test_empty_state_round_trip(self, controller):
        spec = scripted_specs(1)[0]
        controller.admit(spec)
        r = controller.depart(spec.sid)
        assert r["active"] == 0
        assert r["minimum_yield"] is None
        assert len(controller.state) == 0
        assert controller.state.snapshot()["minimum_yield"] is None
        # The daemon keeps serving after draining to empty.
        again = controller.admit(scripted_specs(2)[1])
        assert again["active"] == 1

    def test_strategy_switch_changes_the_solver(self, controller):
        for spec in scripted_specs(8):
            controller.admit(spec)
        controller.set_strategy("METAVP")
        extra = scripted_specs(9)[8]
        controller.admit(extra)
        _, stats = offline_cold_solve(controller, "METAVP")
        assert controller.state.certified == stats["certified"]

    def test_unknown_strategy_rejected(self, controller):
        with pytest.raises(ServiceError) as err:
            controller.set_strategy("METAWRONG")
        assert err.value.status == 400
        assert controller.strategy == "METAHVPLIGHT"

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, float("nan"),
                                       float("inf"), float("-inf")])
    def test_bad_cpu_need_scale_refused_at_construction(self, scale):
        """Such a scale makes every sampled spec invalid, so the
        controller refuses it before it serves anything."""
        with pytest.raises(ValueError, match="^cpu_need_scale must be "
                                             "finite and >= 0"):
            make_controller(cpu_need_scale=scale)

    @pytest.mark.parametrize("scale", [0.0, 0.05, 2.0])
    def test_good_cpu_need_scale_samples_and_admits(self, scale):
        ctl = make_controller(cpu_need_scale=scale)
        spec = ctl.sample_spec()
        assert ctl.admit(spec)["active"] == 1

    def test_snapshot_is_consistent(self, controller):
        specs = scripted_specs(6)
        for spec in specs:
            controller.admit(spec)
        snap = controller.snapshot()
        assert snap["active"] == 6
        assert set(snap["services"]) == {s.sid for s in specs}
        assert snap["minimum_yield"] == min(
            v["yield"] for v in snap["services"].values())
        loads = np.asarray(snap["node_loads"])
        caps = np.asarray(snap["node_capacity"])
        assert loads.shape == caps.shape
        assert (loads <= caps + 1e-9).all()

    def test_snapshots_race_commits(self):
        """Lock-free reads racing two admitting writers, with a shortened
        switch interval: every read is one whole committed state (each
        service placed, counts agree), and no reader sees an older
        commit after a newer one."""
        ctl = make_controller(hosts=8)
        specs = scripted_specs(20, hosts=8)
        stop = threading.Event()
        errors: list[str] = []

        def read() -> None:
            seen = 0
            while not stop.is_set():
                snap = ctl.snapshot()
                services = snap["services"].values()
                if snap["active"] != len(snap["services"]) or any(
                        s["node"] is None or s["yield"] is None
                        for s in services):
                    errors.append(f"uncommitted state: {snap}")
                if snap["active"] < seen:
                    errors.append(f"went back from {seen} to "
                                  f"{snap['active']} services")
                seen = snap["active"]

        def write(chunk) -> None:
            for spec in chunk:
                ctl.admit(spec)

        readers = [threading.Thread(target=read) for _ in range(4)]
        writers = [threading.Thread(target=write, args=(specs[i::2],))
                   for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(120)
        finally:
            stop.set()
            for thread in readers:
                thread.join(30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert errors == []
        assert ctl.snapshot()["active"] == len(specs)
