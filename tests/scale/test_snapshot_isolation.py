"""Every CPF's copy of a UE is its own record.

A CPF ships a UE's state as a snapshot value (§4.2.2-4.2.3): at a
bootstrap, in a checkpoint (the discrete ``CPF._ship`` and the lane's
``_ship``), in the fast-handover fetch (discrete and lane), in a full
handover's migration and in an inter-shard install.  Each holder then owns its record, so a
procedure that mutates the primary's copy leaves every replica's as it
was, and the other way round.
"""

import pytest

from repro.core import ControlPlaneConfig, Deployment, StateEntry, StateStore
from repro.core.cpf import CPF
from repro.scale.lane import LaneRuntime
from repro.scale.scenarios import get_scenario
from repro.sim import Simulator

from .engine_run import run_engine


def grid(n_backups=2):
    config = ControlPlaneConfig.neutrino(n_backups=n_backups)
    return Deployment.build_grid(Simulator(), config, cpfs_per_region=2, regions=2)


def holders(dep, ue_id):
    """Every CPF's entry for ``ue_id``, primary or not, outdated or not."""
    entries = [cpf.store.get(ue_id) for cpf in dep.cpfs.values()]
    return [entry for entry in entries if entry is not None]


def assert_isolated(entries):
    """Mutating any one copy leaves every other copy unchanged."""
    assert len(entries) >= 2
    assert len({id(entry) for entry in entries}) == len(entries)
    for entry in entries:
        others = [(other, repr(other)) for other in entries if other is not entry]
        entry.apply_message()
        entry.complete_procedure("detach")
        entry.synced_clock += 1
        for other, before in others:
            assert repr(other) == before


def run(dep, ue, proc, target_bs=None):
    done = dep.sim.process(ue.execute(proc, target_bs=target_bs))
    dep.sim.run()
    assert done.value.completed


def test_bootstrap_installs_one_record_per_holder():
    dep = grid()
    dep.bootstrap_state("ue-1", "bs-20-0")
    entries = holders(dep, "ue-1")
    assert len(entries) == 3
    assert [entry.is_primary for entry in entries].count(True) == 1
    assert_isolated(entries)


def test_discrete_checkpoint_ship(monkeypatch):
    shipped = []
    ship = CPF._ship

    def spy(self, ue_id, snapshot, last_clock, replica_name, span=None):
        shipped.append((ue_id, replica_name))
        return (yield from ship(self, ue_id, snapshot, last_clock, replica_name, span))

    monkeypatch.setattr(CPF, "_ship", spy)
    dep = grid()
    ue = dep.bootstrap_ue("ue-1", "bs-20-0")
    run(dep, ue, "service_request")
    assert sorted(shipped) == sorted(("ue-1", b) for b in dep.replicas_of("ue-1"))
    entries = holders(dep, "ue-1")
    assert [entry.version for entry in entries] == [2, 2, 2]
    assert_isolated(entries)


def test_lane_checkpoint_ship_and_fetch(monkeypatch):
    shipped, fetched = set(), set()
    ship, fetch = LaneRuntime._ship, LaneRuntime._fetch_state

    def ship_spy(self, serving, replica_name, ue_id, *args):
        shipped.add(ue_id)
        return (yield from ship(self, serving, replica_name, ue_id, *args))

    def fetch_spy(self, w, *args):
        fetched.add(w.ue_id)
        return (yield from fetch(self, w, *args))

    monkeypatch.setattr(LaneRuntime, "_ship", ship_spy)
    monkeypatch.setattr(LaneRuntime, "_fetch_state", fetch_spy)
    spec = get_scenario("steady-city").with_overrides(n_ue=2000, duration_s=0.5)
    engine, result = run_engine(spec, mode="batched")
    assert result.lane["admitted"] > 0 and shipped and fetched
    dep = engine.dep
    for ue_id in sorted(shipped | fetched):
        placement = dep.placement_of(ue_id)
        current = [
            dep.cpfs[name].store.get(ue_id)
            for name in (placement.primary,) + tuple(placement.backups)
        ]
        assert len({entry.version for entry in current}) == 1
        assert_isolated(holders(dep, ue_id))


def test_fast_handover_fetch():
    dep = grid(n_backups=1)
    dep.bootstrap_ue("ue-1", "bs-20-0")
    # no up-to-date copy in the target region: a Fast Handover fetches one
    for name in dep.replicas_of("ue-1"):
        dep.cpfs[name].store.mark_outdated("ue-1")
    tgt_name, fetch_from = dep.fast_target("ue-1", "21", min_version=1)
    assert fetch_from is not None
    fetch = dep.sim.process(dep.cpfs[tgt_name].fetch_state_from("ue-1", fetch_from))
    dep.sim.run()
    assert fetch.value is True
    assert dep.cpfs[tgt_name].store.get("ue-1").up_to_date
    assert_isolated(holders(dep, "ue-1"))


def test_full_handover_migration():
    dep = grid()
    ue = dep.bootstrap_ue("ue-1", "bs-20-0")
    old_primary = dep.primary_of("ue-1")
    run(dep, ue, "handover", target_bs="bs-21-0")
    assert dep.primary_of("ue-1") != old_primary
    assert_isolated(holders(dep, "ue-1"))


def test_install_migrated():
    dep = grid()
    dep.install_migrated("ue-1", "bs-21-0", 5, 9)
    entries = holders(dep, "ue-1")
    assert len(entries) == 3
    assert {(entry.version, entry.attached, entry.active) for entry in entries} == {
        (5, True, False)
    }
    assert_isolated(entries)


def test_older_clock_snapshot_over_outdated_entry_is_ignored():
    # §4.2.4(1a): the boundary clock lets a replica ignore outdated
    # state, whether its own copy is current or already marked outdated
    store = StateStore()
    store.install_snapshot("ue-1", StateEntry(version=5).snapshot(), 20)
    store.mark_outdated("ue-1")
    held = store.get("ue-1")
    before = repr(held)
    assert store.install_snapshot("ue-1", StateEntry(version=2).snapshot(), 10) is held
    assert repr(store.get("ue-1")) == before
    assert not held.up_to_date


@pytest.mark.parametrize("clock", [20, 21])
def test_a_snapshot_at_or_past_the_held_clock_replaces_the_record(clock):
    store = StateStore()
    store.install_snapshot("ue-1", StateEntry(version=5).snapshot(), 20)
    store.mark_outdated("ue-1")
    held = store.get("ue-1")
    entry = store.install_snapshot("ue-1", StateEntry(version=6).snapshot(), clock)
    assert entry is not held and entry.up_to_date and entry.version == 6
