"""Replication protocol tests: checkpoints, ACKs, outdated marking."""

import pytest

from repro.core import ControlPlaneConfig

from .conftest import build, run_proc


class TestPerProcedureSync:
    def test_checkpoint_ships_async(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        proc = sim.process(ue.execute("attach"))
        sim.run(until=1.0)
        backup = neutrino.replicas_of("ue-1")[0]
        entry = neutrino.cpfs[backup].store.get("ue-1")
        assert entry is not None and entry.version == 1

    def test_one_checkpoint_per_procedure(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        primary = neutrino.cpfs[neutrino.primary_of("ue-1")]
        for _ in range(3):
            run_proc(neutrino, ue, "service_request")
        assert primary.checkpoints_sent == 3

    def test_acks_prune_the_log(self, sim, neutrino):
        ue = neutrino.new_ue("ue-1", "bs-20-0")
        run_proc(neutrino, ue, "attach")
        sim.run(until=sim.now + 0.5)
        assert neutrino.cta_of("ue-1").log.entry_count() == 0

    def test_backup_synced_clock_advances(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        before = neutrino.cpfs[backup].store.get("ue-1").synced_clock
        run_proc(neutrino, ue, "service_request")
        sim.run(until=sim.now + 0.5)
        after = neutrino.cpfs[backup].store.get("ue-1").synced_clock
        assert after > before


class TestPerMessageSync:
    def test_checkpoints_per_message(self, sim):
        dep = build(sim, ControlPlaneConfig.neutrino(
            name="permsg", sync_mode="per_message"))
        ue = dep.bootstrap_ue("ue-1", "bs-20-0")
        primary = dep.cpfs[dep.primary_of("ue-1")]
        run_proc(dep, ue, "service_request")
        # SR handles >= 2 uplink messages; each triggers a checkpoint.
        assert primary.checkpoints_sent >= 2

    def test_per_message_costs_more_cpu(self, sim):
        per_msg = ControlPlaneConfig.neutrino(name="permsg", sync_mode="per_message")
        per_proc = ControlPlaneConfig.neutrino()
        from repro.core.program import serve_time

        costs = {
            config.sync_mode: serve_time(
                config, "InitialUEMessage", "DownlinkNASTransport"
            )
            for config in (per_msg, per_proc)
        }
        assert costs["per_message"] > costs["per_procedure"]


class TestBroadcastReplication:
    def test_skycore_broadcasts_to_all(self, sim):
        dep = build(
            sim,
            ControlPlaneConfig.skycore(),
            cpfs_per_region=2,
        )
        ue = dep.new_ue("ue-1", "bs-20-0")
        run_proc(dep, ue, "attach")
        sim.run(until=sim.now + 0.5)
        primary = dep.primary_of("ue-1")
        holders = [
            name for name, cpf in dep.cpfs.items() if cpf.store.get("ue-1") is not None
        ]
        assert len(holders) == len(dep.cpfs)  # everyone got a copy


class TestOnIdleSync:
    def test_on_idle_leaves_backups_stale(self, sim):
        # SCALE-style: replicas only updated on idle transitions, so a
        # mid-activity snapshot is stale — the §3.1 problem.
        dep = build(sim, ControlPlaneConfig.neutrino(name="scale", sync_mode="on_idle"))
        ue = dep.new_ue("ue-1", "bs-20-0")
        run_proc(dep, ue, "attach")
        run_proc(dep, ue, "service_request")
        sim.run(until=sim.now + 0.5)
        backup = dep.replicas_of("ue-1")[0]
        entry = dep.cpfs[backup].store.get("ue-1")
        assert entry is None or entry.version < ue.completed_version


class TestOutdatedMarking:
    def test_concurrent_procedure_marks_laggards(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        # Pretend the previous procedure's ACK never arrived.
        cta = neutrino.cta_of("ue-1")
        cta.log.append(5, "ue-1", "m", 50)
        cta.log.procedure_completed("ue-1", 5, [backup])
        cta.flag_concurrent_procedure("ue-1")
        entry = neutrino.cpfs[backup].store.get("ue-1")
        assert not entry.up_to_date or entry.synced_clock >= 5
        assert cta.outdated_marked >= 1

    def test_scan_timeout_marks_and_drops(self, sim, neutrino):
        neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        cta = neutrino.cta_of("ue-1")
        cta.log.append(7, "ue-1", "m", 50)
        cta.procedure_completed("ue-1", 7, [backup])
        # jump past the ACK timeout; the armed scan fires
        sim.run(until=neutrino.config.ack_timeout_s + 5.0)
        assert cta.log.entry_count() == 0  # §4.2.4(1d)

    def test_repair_refetches_state(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup_name = neutrino.replicas_of("ue-1")[0]
        backup = neutrino.cpfs[backup_name]
        backup.store.mark_outdated("ue-1")
        repair = sim.process(
            backup.fetch_state_from("ue-1", neutrino.primary_of("ue-1"))
        )
        sim.run(until=sim.now + 1.0)
        assert repair.value is True
        assert backup.store.get("ue-1").up_to_date

    def test_repair_from_dead_source_fails_gracefully(self, sim, neutrino):
        neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.cpfs[neutrino.replicas_of("ue-1")[0]]
        primary = neutrino.primary_of("ue-1")
        neutrino.fail_cpf(primary)
        repair = sim.process(backup.fetch_state_from("ue-1", primary))
        sim.run(until=sim.now + 1.0)
        assert repair.value is False


class TestReplicationResilience:
    def test_checkpoint_to_dead_replica_does_not_crash(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        neutrino.fail_cpf(backup)
        outcome = run_proc(neutrino, ue, "service_request")
        assert outcome.completed

    def test_missing_ack_leaves_log_entries(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        neutrino.fail_cpf(backup)
        proc = sim.process(ue.execute("service_request"))
        sim.run(until=0.5)  # bounded: stay inside the 30 s ACK timeout
        assert proc.fired
        cta = neutrino.cta_of("ue-1")
        assert cta.log.entry_count() > 0  # retained until scan timeout

    def test_missing_ack_pruned_after_scan_timeout(self, sim, neutrino):
        ue = neutrino.bootstrap_ue("ue-1", "bs-20-0")
        backup = neutrino.replicas_of("ue-1")[0]
        neutrino.fail_cpf(backup)
        run_proc(neutrino, ue, "service_request")  # unbounded: drains scans
        cta = neutrino.cta_of("ue-1")
        assert cta.log.entry_count() == 0  # §4.2.4(1d) after timeout

    def test_more_backups_all_receive(self, sim):
        dep = build(sim, ControlPlaneConfig.neutrino(n_backups=2), regions=3)
        ue = dep.new_ue("ue-1", "bs-20-0")
        run_proc(dep, ue, "attach")
        sim.run(until=sim.now + 0.5)
        backups = dep.replicas_of("ue-1")
        assert len(backups) == 2
        for backup in backups:
            assert dep.cpfs[backup].store.get("ue-1").version == 1
