"""Unit tests for UPF, BaseStation, CTA, and deployment helpers."""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.sim import NodeFailed, Simulator

from .conftest import build, run_proc


class TestUPF:
    def test_create_session(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        sim.process(iter([upf.program("CreateSessionRequest", "ue-1", "bs-20-0")]))
        done = upf.program("CreateSessionRequest", "ue-1", "bs-20-0")
        sim.run()
        assert upf.has_path("ue-1")
        assert upf.has_path("ue-1", "bs-20-0")
        assert not upf.has_path("ue-1", "bs-21-0")

    def test_modify_bearer_switches_bs(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        upf.program("CreateSessionRequest", "ue-1", "bs-20-0")
        upf.program("ModifyBearerRequest", "ue-1", "bs-20-1")
        sim.run()
        assert upf.has_path("ue-1", "bs-20-1")

    def test_delete_session(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        upf.program("CreateSessionRequest", "ue-1", "bs-20-0")
        upf.program("DeleteSessionRequest", "ue-1", "bs-20-0")
        sim.run()
        assert not upf.has_path("ue-1")

    def test_suspend_blocks_path(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        upf.program("CreateSessionRequest", "ue-1", "bs-20-0")
        sim.run()
        upf.suspend("ue-1")
        assert not upf.has_path("ue-1")

    def test_modify_without_session_creates_one(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        upf.program("ModifyBearerRequest", "ue-9", "bs-20-0")
        sim.run()
        assert upf.has_path("ue-9")

    def test_teids_unique(self, sim, neutrino):
        upf = neutrino.upf_for_region("20")
        upf.program("CreateSessionRequest", "a", "bs-20-0")
        upf.program("CreateSessionRequest", "b", "bs-20-0")
        sim.run()
        assert upf.sessions["a"].teid != upf.sessions["b"].teid


class TestBaseStation:
    def test_codec_affects_relay_delay(self, sim):
        fast = build(Simulator(), ControlPlaneConfig.neutrino())
        slow = build(Simulator(), ControlPlaneConfig.existing_epc())
        first = lambda dep: dep.program("attach").steps[0]
        assert first(fast).request == "InitialUEMessage"
        assert first(fast).bs_encode < first(slow).bs_encode
        assert first(fast).bs_decode < first(slow).bs_decode

    def test_counters_increment(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "service_request")
        bs = neutrino.bss["bs-20-0"]
        # InitialUEMessage + InitialContextSetupResponse up, the setup down
        assert bs.uplink_messages == 2
        assert bs.downlink_messages == 1


class TestCTAUnits:
    def test_ingest_assigns_increasing_clocks(self, sim, neutrino):
        cta = neutrino.ctas["cta-20"]
        ev1 = cta.ingest("ue-1", "InitialUEMessage", 100)
        ev2 = cta.ingest("ue-1", "UplinkNASTransport", 100)
        sim.run()
        assert ev2.value > ev1.value

    def test_clocks_are_per_ue(self, sim, neutrino):
        cta = neutrino.ctas["cta-20"]
        a = cta.ingest("ue-a", "InitialUEMessage", 100)
        b = cta.ingest("ue-b", "InitialUEMessage", 100)
        sim.run()
        assert a.value == 1 and b.value == 1

    def test_ingest_fails_when_down(self, sim, neutrino):
        cta = neutrino.ctas["cta-20"]
        cta.fail()
        ev = cta.ingest("ue-1", "InitialUEMessage", 100)
        assert ev.fired and not ev.ok

    def test_respond_fails_when_down(self, sim, neutrino):
        cta = neutrino.ctas["cta-20"]
        cta.fail()
        ev = cta.respond()
        assert ev.fired and not ev.ok

    def test_logging_disabled_skips_log(self, sim, epc):
        cta = epc.ctas["cta-20"]
        cta.ingest("ue-1", "InitialUEMessage", 100)
        sim.run()
        assert cta.log.entry_count() == 0


class TestDeploymentHelpers:
    def test_m_tmsi_nonzero_and_stable(self, sim, neutrino):
        assert neutrino.m_tmsi_of("ue-1") == neutrino.m_tmsi_of("ue-1")
        assert neutrino.m_tmsi_of("ue-1") != 0

    def test_duplicate_ue_rejected(self, sim, neutrino):
        neutrino.new_ue("ue-1", "bs-20-0")
        with pytest.raises(ValueError):
            neutrino.new_ue("ue-1", "bs-20-0")

    def test_unknown_bs_rejected(self, sim, neutrino):
        with pytest.raises(KeyError):
            neutrino.new_ue("ue-1", "bs-99-0")

    def test_cpf_hop_classes(self, sim, neutrino):
        assert neutrino.cpf_hop("cpf-20-0", "cpf-20-0") == "cpf_cpf_intra"
        assert neutrino.cpf_hop("cpf-20-0", "cpf-21-0") == "cpf_cpf_inter"

    def test_cta_hop_from_region(self, sim, neutrino):
        assert neutrino.cpf_hop_from_cta("20", "cpf-20-0") == "cta_cpf"
        assert neutrino.cpf_hop_from_cta("20", "cpf-21-0") == "cpf_cpf_inter"

    def test_fallback_cta_skips_dead(self, sim, neutrino):
        neutrino.fail_cta("cta-20")
        fallback = neutrino.fallback_cta("20")
        assert fallback is not None and fallback.up

    def test_fallback_none_when_all_dead(self, sim, neutrino):
        for name in list(neutrino.ctas):
            neutrino.fail_cta(name)
        assert neutrino.fallback_cta("20") is None

    def test_bootstrap_creates_replicated_state(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        assert ue.attached and ue.completed_version == 1
        placement = neutrino.placement_of("ue-1")
        for name in [placement.primary] + placement.backups:
            assert neutrino.cpfs[name].store.get("ue-1") is not None

    def test_grid_regions_validated(self, sim):
        with pytest.raises(ValueError):
            Deployment.build_grid(sim, ControlPlaneConfig.neutrino(), regions=0)
        with pytest.raises(ValueError):
            Deployment.build_grid(sim, ControlPlaneConfig.neutrino(), regions=5)

    def test_max_log_bytes_aggregates_ctas(self, sim, neutrino):
        neutrino.ctas["cta-20"].log.append(1, "u", "m", 100)
        assert neutrino.max_log_bytes() > 0

    def test_alive_primary_avoids_dead_region(self, sim, neutrino):
        for cpf in neutrino.region_map.region("20").cpfs:
            neutrino.fail_cpf(cpf)
        primary = neutrino._alive_primary("ue-1", "20")
        assert neutrino.cpfs[primary].up
        assert neutrino.region_map.region_of_cpf(primary).geohash != "20"

    def test_alive_primary_raises_when_none(self, sim, neutrino):
        for name in list(neutrino.cpfs):
            neutrino.fail_cpf(name)
        with pytest.raises(LookupError):
            neutrino._alive_primary("ue-1", "20")


class TestDeploymentSummary:
    def test_summary_structure(self, sim, neutrino):
        from .conftest import run_proc

        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        summary = neutrino.summary()
        assert summary["config"] == "neutrino"
        assert summary["ues"] == 1
        assert summary["consistency"]["read_your_writes_held"]
        assert summary["pct_ms"]["attach"]["count"] == 1
        assert summary["pct_ms"]["attach"]["p50"] > 0
        primary = neutrino.primary_of("ue-1")
        assert summary["cpfs"][primary]["messages_handled"] > 0
        assert summary["links"]["ue_bs"]["messages"] > 0

    def test_summary_json_serializable(self, sim, neutrino):
        import json

        neutrino.bootstrap_ue("ue-1", "bs-20-0")
        json.dumps(neutrino.summary())  # must not raise

    def test_summary_reflects_failures(self, sim, neutrino):
        neutrino.bootstrap_ue("ue-1", "bs-20-0")
        victim = neutrino.primary_of("ue-1")
        neutrino.fail_cpf(victim)
        summary = neutrino.summary()
        assert summary["cpfs"][victim]["up"] is False
