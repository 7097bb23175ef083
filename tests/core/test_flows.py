"""End-to-end procedure flows on a healthy deployment."""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.sim import Simulator

from .conftest import build, run_proc


class TestAttach:
    def test_attach_creates_primary_state(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        outcome = run_proc(neutrino, ue, "attach")
        assert outcome.completed and outcome.pct is not None
        placement = neutrino.placement_of("ue-1")
        entry = neutrino.cpfs[placement.primary].store.get("ue-1")
        assert entry.is_primary
        assert entry.attached
        assert entry.version == 1

    def test_attach_sets_ue_reader_version(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        assert ue.attached
        assert ue.completed_version == 1

    def test_attach_replicates_to_backups(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        for backup_name in neutrino.replicas_of("ue-1"):
            entry = neutrino.cpfs[backup_name].store.get("ue-1")
            assert entry is not None
            assert entry.up_to_date
            assert entry.version == 1

    def test_attach_creates_upf_session(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        upf = neutrino.upf_for_region("20")
        assert upf.has_path("ue-1")

    def test_backups_outside_home_region(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        home = set(neutrino.region_map.region("20").cpfs)
        for backup in neutrino.replicas_of("ue-1"):
            assert backup not in home

    def test_log_pruned_after_acks(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        sim.run(until=sim.now + 0.1)  # let ACKs land
        cta = neutrino.cta_of("ue-1")
        assert cta.log.entry_count() == 0
        assert cta.log.appended > 0

    def test_attach_pct_recorded(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        assert neutrino.pct["attach"].count == 1
        assert 0 < neutrino.pct["attach"].median < 0.05

    def test_epc_does_not_replicate(self, sim, epc):
        ue = epc.new_ue("ue-1", "bs-20-0")
        run_proc(epc, ue, "attach")
        assert epc.replicas_of("ue-1") == []
        other_stores = [
            cpf for name, cpf in epc.cpfs.items() if name != epc.primary_of("ue-1")
        ]
        assert all(store.store.get("ue-1") is None for store in other_stores)


class TestServiceRequest:
    def test_sr_on_bootstrapped_ue(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.completed
        assert ue.completed_version == 2

    def test_sr_faster_than_attach(self, sim, neutrino):
        a = neutrino.new_ue("ue-a", "bs-20-0")
        run_proc(neutrino, a, "attach")
        b = neutrino.bootstrap_ue("ue-b", "bs-20-0")
        run_proc(neutrino, b, "service_request")
        assert neutrino.pct["service_request"].median < neutrino.pct["attach"].median

    def test_sequential_procedures_bump_version(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        for expected in (2, 3, 4):
            run_proc(neutrino, ue, "service_request")
            assert ue.completed_version == expected

    def test_checkpoint_per_procedure(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        primary = neutrino.cpfs[neutrino.primary_of("ue-1")]
        before = primary.checkpoints_sent
        run_proc(neutrino, ue, "service_request")
        assert primary.checkpoints_sent == before + 1


class TestHandover:
    def test_handover_moves_placement(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        old_primary = neutrino.primary_of("ue-1")
        run_proc(neutrino, ue, "handover", target_bs="bs-21-0")
        placement = neutrino.placement_of("ue-1")
        assert placement.region == "21"
        assert placement.primary in neutrino.region_map.region("21").cpfs
        assert ue.bs_name == "bs-21-0"

    def test_handover_migrates_state_version(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "service_request")
        run_proc(neutrino, ue, "handover", target_bs="bs-21-0")
        new_primary = neutrino.cpfs[neutrino.primary_of("ue-1")]
        assert new_primary.store.get("ue-1").version == ue.completed_version

    def test_old_copies_marked_outdated(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        old_primary = neutrino.primary_of("ue-1")
        run_proc(neutrino, ue, "handover", target_bs="bs-21-0")
        new_primary = neutrino.primary_of("ue-1")
        if old_primary != new_primary:
            entry = neutrino.cpfs[old_primary].store.get("ue-1")
            assert entry is None or not entry.up_to_date or entry.synced_clock > 0

    def test_fast_handover_avoids_migration_leg(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        inter_before = neutrino.links["cpf_cpf_inter"].messages_sent
        run_proc(neutrino, ue, "fast_handover", target_bs="bs-21-0")
        # the only inter-region messages are checkpoint shipping, not a
        # synchronous state migration; fast HO must finish and be fast
        assert neutrino.pct["fast_handover"].count == 1

    def test_fast_handover_faster_than_default(self, sim):
        results = {}
        for proc in ("handover", "fast_handover"):
            local_sim = Simulator()
            dep = build(local_sim)
            ue = dep.bootstrap_ue("ue-1", "bs-20-0")
            run_proc(dep, ue, proc, target_bs="bs-21-0")
            results[proc] = dep.pct[proc].median
        assert results["fast_handover"] < results["handover"]

    def test_intra_handover_keeps_cpf(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        primary = neutrino.primary_of("ue-1")
        run_proc(neutrino, ue, "intra_handover")
        assert neutrino.primary_of("ue-1") == primary

    def test_handover_requires_target(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        proc = sim.process(ue.execute("handover"))
        sim.run()
        assert proc.fired and not proc.ok  # ValueError propagates


class TestOtherProcedures:
    def test_tau_roundtrip(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        outcome = run_proc(neutrino, ue, "tau")
        assert outcome.completed

    def test_detach_clears_activity(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "detach")
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert not entry.attached

    def test_unknown_procedure_rejected(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        proc = sim.process(ue.execute("levitate"))
        sim.run()
        assert proc.fired and not proc.ok


class TestDpcmFlows:
    def test_dpcm_attach_uses_override(self, sim):
        dep = build(sim, ControlPlaneConfig.dpcm())
        spec = dep.spec("attach")
        assert len(spec.steps) < len(build(Simulator()).spec("attach").steps)

    def test_dpcm_attach_completes(self, sim):
        dep = build(sim, ControlPlaneConfig.dpcm())
        ue = dep.new_ue("ue-1", "bs-20-0")
        outcome = run_proc(dep, ue, "attach")
        assert outcome.completed
        assert ue.attached
