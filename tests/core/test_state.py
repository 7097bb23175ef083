"""Tests for UE state and the per-CPF state store."""

import pickle

import pytest

from repro.core import StateEntry, StateStore
from repro.core.deployment import Placement


class TestUEState:
    """The state half of a CPF's copy: what a procedure writes."""

    def test_new_state_detached(self):
        entry = StateEntry()
        assert not entry.attached
        assert entry.version == 0

    def test_message_bumps_ops_not_version(self):
        entry = StateEntry()
        entry.apply_message()
        entry.apply_message()
        assert entry.ops_in_procedure == 2
        assert entry.version == 0

    def test_complete_procedure_commits(self):
        entry = StateEntry()
        entry.apply_message()
        entry.complete_procedure("attach")
        assert entry.version == 1
        assert entry.ops_in_procedure == 0
        assert entry.attached and entry.active

    def test_detach_clears_flags(self):
        entry = StateEntry()
        entry.complete_procedure("attach")
        entry.complete_procedure("detach")
        assert not entry.attached and not entry.active
        assert entry.version == 2

    def test_service_request_reactivates(self):
        entry = StateEntry()
        entry.complete_procedure("attach")
        entry.active = False
        entry.complete_procedure("service_request")
        assert entry.active

    def test_copy_is_independent(self):
        entry = StateEntry()
        snapshot = entry.snapshot()
        entry.complete_procedure("attach")
        assert snapshot == (0, False, False, 0)
        assert entry.version == 1


class TestStateStore:
    def test_create_and_get(self):
        store = StateStore()
        entry = store.create("ue-1", is_primary=True)
        assert store.get("ue-1") is entry
        assert entry.is_primary
        assert "ue-1" in store
        assert len(store) == 1

    def test_get_missing_is_none(self):
        assert StateStore().get("ue-x") is None

    def test_current_is_none_when_absent(self):
        assert StateStore().current("ue-1") is None

    def test_current_is_none_when_outdated(self):
        # §4.2.4(3): a copy marked outdated never serves.
        store = StateStore()
        store.create("ue-1", is_primary=False)
        store.mark_outdated("ue-1")
        assert store.get("ue-1") is not None
        assert store.current("ue-1") is None

    def test_current_is_none_below_min_version(self):
        # An up-to-date copy behind the UE's own writes does not serve.
        store = StateStore()
        store.install_snapshot("ue-1", StateEntry(version=3).snapshot(), synced_clock=7)
        assert store.current("ue-1", min_version=4) is None

    def test_current_returns_a_current_copy(self):
        store = StateStore()
        entry = store.install_snapshot(
            "ue-1", StateEntry(version=3).snapshot(), synced_clock=7
        )
        assert store.current("ue-1") is entry
        assert store.current("ue-1", min_version=3) is entry

    def test_install_snapshot_sets_metadata(self):
        store = StateStore()
        snapshot = StateEntry(version=3).snapshot()
        entry = store.install_snapshot("ue-1", snapshot, synced_clock=17)
        assert entry.version == 3
        assert entry.synced_clock == 17
        assert entry.up_to_date
        assert not entry.is_primary

    def test_install_older_snapshot_ignored(self):
        # §4.2.4(1a): the boundary clock lets replicas ignore the
        # reception of outdated state.
        store = StateStore()
        store.install_snapshot("ue-1", StateEntry(version=5).snapshot(), synced_clock=20)
        stale = StateEntry(version=2).snapshot()
        entry = store.install_snapshot("ue-1", stale, synced_clock=10)
        assert entry.version == 5
        assert entry.synced_clock == 20

    def test_install_refreshes_outdated_entry(self):
        # §4.2.4(2): a state update for a previously-outdated UE makes
        # it up-to-date again.
        store = StateStore()
        store.create("ue-1", is_primary=False)
        store.mark_outdated("ue-1")
        snapshot = StateEntry(version=1).snapshot()
        entry = store.install_snapshot("ue-1", snapshot, synced_clock=5)
        assert entry.up_to_date

    def test_snapshot_install_copies(self):
        source = StateEntry()
        store = StateStore()
        store.install_snapshot("ue-1", source.snapshot(), 1)
        source.version = 99
        assert store.get("ue-1").version == 0
        store.get("ue-1").complete_procedure("attach")
        assert source.version == 99 and not source.attached

    def test_mark_outdated_missing_is_noop(self):
        StateStore().mark_outdated("nobody")

    def test_clear_loses_everything(self):
        store = StateStore()
        store.create("a", True)
        store.create("b", False)
        store.clear()
        assert len(store) == 0

    def test_drop_single(self):
        store = StateStore()
        store.create("a", True)
        store.drop("a")
        store.drop("a")  # idempotent
        assert store.get("a") is None

    def test_ue_ids_sorted(self):
        store = StateStore()
        for ue in ("c", "a", "b"):
            store.create(ue, False)
        assert store.ue_ids() == ["a", "b", "c"]


class TestRecords:
    """The slotted per-UE records behave as the dataclasses they replace."""

    def _entry(self):
        return StateEntry(
            version=3, attached=True, active=True, ops_in_procedure=1,
            synced_clock=4, up_to_date=False, is_primary=True,
        )

    def test_copy_equals_source_and_mutates_independently(self):
        entry = self._entry()
        copy = StateEntry(*entry.snapshot())
        assert copy.snapshot() == entry.snapshot() and copy is not entry
        copy.apply_message()
        copy.complete_procedure("detach")
        assert copy.snapshot() != entry.snapshot()
        assert (entry.version, entry.ops_in_procedure, entry.attached) == (3, 1, True)

    def test_equality_is_field_wise_and_class_strict(self):
        assert StateEntry(version=5) == StateEntry(version=5)
        assert StateEntry(version=5) != StateEntry(version=6)
        assert StateEntry(synced_clock=5) != StateEntry(synced_clock=6)
        assert StateEntry() != StateEntry().snapshot()
        assert Placement("r", "p", ["b"]) == Placement("r", "p", ["b"])
        assert Placement("r", "p") != ("r", "p", [])
        with pytest.raises(TypeError):
            hash(StateEntry())

    def test_repr_names_every_field_in_order(self):
        assert repr(StateEntry()) == (
            "StateEntry(version=0, attached=False, active=False, "
            "ops_in_procedure=0, synced_clock=0, up_to_date=True, "
            "is_primary=False)"
        )
        assert repr(Placement("r", "p", ["b"])) == (
            "Placement(region='r', primary='p', backups=['b'])"
        )

    def test_defaults(self):
        entry = StateEntry()
        assert (entry.synced_clock, entry.up_to_date, entry.is_primary) == (0, True, False)
        first, second = Placement("r", "p"), Placement("r", "p")
        assert first.backups == () == second.backups  # a tuple: nothing to share

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_repr_round_trip(self, protocol):
        for record in (self._entry(), Placement("r", "p", ["b", "c"])):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)
            assert eval(repr(record)) == record


class TestFourByteColumns:
    def test_a_value_past_a_cohort_column_raises_and_never_wraps(self):
        from repro.scale.cohort import CohortDriver

        driver = CohortDriver(None, [], range(1))
        for name in ("version", "bs_idx"):
            column = getattr(driver, name)
            assert column.itemsize == 4
            column[0] = 2**32 - 1
            with pytest.raises(OverflowError):
                column[0] = 2**32
            with pytest.raises(OverflowError):
                column[0] = -1
            assert column[0] == 2**32 - 1

    def test_population_homes_are_four_byte_columns(self):
        from repro.scale.scenarios import get_scenario
        from repro.scale.shard import ShardMap, city_parents, partition_population

        spec = get_scenario("steady-city").with_overrides(n_ue=200)
        homes = partition_population(spec, ShardMap(city_parents(spec), 2))
        for gids, bsidx, _names in homes:
            assert gids.itemsize == bsidx.itemsize == 4
            with pytest.raises(OverflowError):
                gids.append(2**32)
        assert sorted(g for gids, _b, _n in homes for g in gids) == list(range(200))
