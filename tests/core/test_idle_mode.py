"""Idle-mode lifecycle: S1 release, paging, service-request wake-up."""

import pytest

from .conftest import run_proc


def page(dep, ue_id):
    handle = dep.sim.process(dep.deliver_downlink_paged(ue_id))
    dep.sim.run(until=dep.sim.now + 2.0)
    assert handle.fired
    return handle.value


class TestS1Release:
    def test_release_marks_core_state_idle(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "s1_release")
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert entry.attached  # still registered...
        assert not entry.active  # ...but ECM-IDLE

    def test_release_suspends_upf_session(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "service_request")  # establish the path
        upf = neutrino.upf_for_region("20")
        assert upf.has_path("ue-1")
        run_proc(neutrino, ue, "s1_release")
        assert not upf.has_path("ue-1")

    def test_release_is_a_versioned_write(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        before = ue.completed_version
        run_proc(neutrino, ue, "s1_release")
        assert ue.completed_version == before + 1

    def test_release_state_replicated(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "s1_release")
        sim.run(until=sim.now + 0.2)
        backup = neutrino.replicas_of("ue-1")[0]
        entry = neutrino.cpfs[backup].store.get("ue-1")
        assert not entry.active

    def test_service_request_reactivates(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "s1_release")
        run_proc(neutrino, ue, "service_request")
        upf = neutrino.upf_for_region("20")
        assert upf.has_path("ue-1")
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert entry.active


class TestPagedDelivery:
    def test_connected_ue_delivers_without_service_request(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "service_request")
        before = neutrino.pct["service_request"].count
        delivered, latency = page(neutrino, "ue-1")
        assert delivered
        assert neutrino.pct["service_request"].count == before  # no wake-up needed

    def test_idle_ue_wakes_via_service_request(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "s1_release")
        delivered, latency = page(neutrino, "ue-1")
        assert delivered
        assert neutrino.pct["service_request"].count == 1  # paging woke it
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert entry.active

    def test_idle_delivery_slower_than_connected(self, sim, neutrino):
        connected = neutrino.bootstrap_ue("ue-c", "bs-20-0")
        run_proc(neutrino, connected, "service_request")
        _, connected_latency = page(neutrino, "ue-c")

        idle = neutrino.bootstrap_ue("ue-i", "bs-20-1")
        run_proc(neutrino, idle, "s1_release")
        _, idle_latency = page(neutrino, "ue-i")
        assert idle_latency > connected_latency

    def test_unknown_ue_not_delivered(self, sim, neutrino):
        delivered, _latency = page(neutrino, "ghost")
        assert not delivered

    def test_paged_wakeup_consistent_after_failover(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "s1_release")
        sim.run(until=sim.now + 0.2)  # replicate the idle state
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        delivered, _latency = page(neutrino, "ue-1")
        assert delivered  # the synced backup pages and serves the wake-up
        assert neutrino.auditor.read_your_writes_held
