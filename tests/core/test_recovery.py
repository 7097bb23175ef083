"""Failure-recovery tests: the four scenarios of §4.2.5.

S1  primary fails, backup synced, no ongoing procedure -> promote.
S2  primary fails mid-procedure, backup synced through the previous
    procedure -> CTA replays the log tail at the backup, then promote.
S3  primary fails, no synced backup -> UE Re-Attaches.
S4  CTA fails -> UE Re-Attaches through another CTA.
"""

import pytest

from repro.core import ControlPlaneConfig

from .conftest import build, run_proc


def attach_and_settle(dep, ue_id="ue-1", bs="bs-20-0"):
    """Attach a UE and let replication ACKs land."""
    ue = dep.new_ue(ue_id, bs)
    run_proc(dep, ue, "attach")
    dep.sim.run(until=dep.sim.now + 0.2)
    return ue


class TestScenario1PromoteSyncedBackup:
    def test_next_procedure_served_by_promoted_backup(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        old_primary = neutrino.primary_of("ue-1")
        backup = neutrino.replicas_of("ue-1")[0]
        neutrino.fail_cpf(old_primary)
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.completed
        assert outcome.recovered
        assert not outcome.reattached  # failure fully masked
        assert neutrino.primary_of("ue-1") == backup

    def test_only_triggering_message_replayed_when_synced(self, sim, neutrino):
        # The SR's first message is logged before the dead primary is
        # discovered, so exactly that one message is replayed; the
        # backup was otherwise fully synced.
        ue = attach_and_settle(neutrino)
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        run_proc(neutrino, ue, "service_request")
        assert neutrino.auditor.failovers_masked == 1
        assert neutrino.auditor.messages_replayed <= 1

    def test_reader_version_preserved(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        run_proc(neutrino, ue, "service_request")
        assert ue.completed_version == 2  # attach + SR, nothing lost


class TestScenario2ReplayOnBackup:
    def _fail_mid_procedure(self, dep, ue, proc="service_request"):
        # Deterministically catch the procedure mid-flight: occupy the
        # primary with a long job so the UE's message queues behind it,
        # then kill the primary while the message is queued.
        primary_name = dep.primary_of(ue.ue_id)
        primary = dep.cpfs[primary_name]
        primary.server.submit(0.002)
        proc_handle = dep.sim.process(ue.execute(proc))
        dep.sim.schedule(0.001, dep.fail_cpf, primary_name)
        dep.sim.run(until=dep.sim.now + 1.0)
        assert proc_handle.fired, "procedure hung"
        return proc_handle.value

    def test_mid_procedure_failure_replays_and_resumes(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        outcome = self._fail_mid_procedure(neutrino, ue)
        assert outcome.completed
        assert outcome.recovered
        assert not outcome.reattached
        assert neutrino.auditor.messages_replayed >= 1

    def test_replayed_state_is_current(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        self._fail_mid_procedure(neutrino, ue)
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert entry.version == ue.completed_version
        assert entry.is_primary

    def test_consistency_held_through_replay(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        self._fail_mid_procedure(neutrino, ue)
        run_proc(neutrino, ue, "service_request")
        assert neutrino.auditor.read_your_writes_held


class TestScenario3NoSyncedBackup:
    def test_unsynced_backup_forces_reattach(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        proc = sim.process(ue.execute("attach"))
        sim.run(until=1.0)
        # Kill primary AND its backup copy: wipe the backup's entry to
        # model a checkpoint that never arrived, then fail the primary.
        for backup in neutrino.replicas_of("ue-1"):
            neutrino.cpfs[backup].store.drop("ue-1")
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.reattached
        assert outcome.completed is False or outcome.pct is not None

    def test_outdated_backup_not_promoted(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        for backup in neutrino.replicas_of("ue-1"):
            neutrino.cpfs[backup].store.mark_outdated("ue-1")
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.reattached
        assert neutrino.auditor.read_your_writes_held

    def test_reattach_rebuilds_consistent_state(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        for backup in neutrino.replicas_of("ue-1"):
            neutrino.cpfs[backup].store.drop("ue-1")
        neutrino.fail_cpf(neutrino.primary_of("ue-1"))
        run_proc(neutrino, ue, "service_request")
        entry = neutrino.cpfs[neutrino.primary_of("ue-1")].store.get("ue-1")
        assert entry is not None
        assert entry.attached
        assert ue.completed_version == entry.version


class TestScenario4CtaFailure:
    def test_cta_failure_forces_reattach_via_new_cta(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        neutrino.fail_cta("cta-20")
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.reattached
        # region 20 adopted a surviving CTA
        adopted = neutrino.cta_for_region("20")
        assert adopted is not None and adopted.up

    def test_cta_failure_loses_log(self, sim, neutrino):
        cta = neutrino.ctas["cta-20"]
        cta.log.append(1, "ue-1", "m", 100)
        neutrino.fail_cta("cta-20")
        assert cta.log.entry_count() == 0

    def test_consistency_held_after_cta_failure(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        neutrino.fail_cta("cta-20")
        run_proc(neutrino, ue, "service_request")
        run_proc(neutrino, ue, "service_request")
        assert neutrino.auditor.read_your_writes_held


class TestEpcRecovery:
    def test_epc_always_reattaches(self, sim, epc):
        ue = attach_and_settle(epc)
        epc.fail_cpf(epc.primary_of("ue-1"))
        outcome = run_proc(epc, ue, "service_request")
        assert outcome.reattached
        assert epc.auditor.failovers_masked == 0

    def test_epc_recovery_slower_than_neutrino(self, sim):
        from repro.sim import Simulator

        pcts = {}
        for config in (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()):
            local = Simulator()
            dep = build(local, config)
            ue = dep.new_ue("ue-1", "bs-20-0")
            run_proc(dep, ue, "attach")
            local.run(until=local.now + 0.2)
            dep.fail_cpf(dep.primary_of("ue-1"))
            outcome = run_proc(dep, ue, "service_request")
            pcts[config.name] = outcome.pct
        assert pcts["neutrino"] < pcts["existing_epc"]


class TestFailureAccounting:
    def test_failed_cpf_loses_state(self, sim, neutrino):
        attach_and_settle(neutrino)
        primary = neutrino.primary_of("ue-1")
        neutrino.fail_cpf(primary)
        assert len(neutrino.cpfs[primary].store) == 0

    def test_recovered_cpf_starts_empty(self, sim, neutrino):
        attach_and_settle(neutrino)
        primary = neutrino.primary_of("ue-1")
        neutrino.fail_cpf(primary)
        neutrino.recover_cpf(primary)
        assert neutrino.cpfs[primary].up
        assert len(neutrino.cpfs[primary].store) == 0

    def test_all_cpfs_down_aborts(self, sim, neutrino):
        ue = attach_and_settle(neutrino)
        for name in list(neutrino.cpfs):
            neutrino.fail_cpf(name)
        proc = sim.process(ue.execute("service_request"))
        sim.run(until=sim.now + 2.0)
        assert proc.fired and not proc.ok
