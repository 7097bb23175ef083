"""Tests for UE state and the per-CPF state store."""

import pickle

import pytest

from repro.core import StateEntry, StateStore, StaleStateError, UEState
from repro.core.deployment import Placement


class TestUEState:
    def test_new_state_detached(self):
        state = UEState("ue-1", 42)
        assert not state.attached
        assert state.version == 0

    def test_message_bumps_ops_not_version(self):
        state = UEState("ue-1", 42)
        state.apply_message()
        state.apply_message()
        assert state.ops_in_procedure == 2
        assert state.version == 0

    def test_complete_procedure_commits(self):
        state = UEState("ue-1", 42)
        state.apply_message()
        state.complete_procedure("attach")
        assert state.version == 1
        assert state.ops_in_procedure == 0
        assert state.attached and state.active

    def test_detach_clears_flags(self):
        state = UEState("ue-1", 42)
        state.complete_procedure("attach")
        state.complete_procedure("detach")
        assert not state.attached and not state.active
        assert state.version == 2

    def test_service_request_reactivates(self):
        state = UEState("ue-1", 42)
        state.complete_procedure("attach")
        state.active = False
        state.complete_procedure("service_request")
        assert state.active

    def test_copy_is_independent(self):
        state = UEState("ue-1", 42)
        snapshot = state.copy()
        state.complete_procedure("attach")
        assert snapshot.version == 0
        assert state.version == 1


class TestStateStore:
    def test_create_and_get(self):
        store = StateStore("cpf-1")
        entry = store.create("ue-1", 42, is_primary=True)
        assert store.get("ue-1") is entry
        assert entry.is_primary
        assert "ue-1" in store
        assert len(store) == 1

    def test_get_missing_is_none(self):
        assert StateStore("cpf-1").get("ue-x") is None

    def test_require_current_raises_when_absent(self):
        store = StateStore("cpf-1")
        with pytest.raises(StaleStateError):
            store.require_current("ue-1")

    def test_require_current_raises_when_outdated(self):
        store = StateStore("cpf-1")
        store.create("ue-1", 42, is_primary=False)
        store.mark_outdated("ue-1")
        with pytest.raises(StaleStateError) as err:
            store.require_current("ue-1")
        assert err.value.cpf_name == "cpf-1"

    def test_install_snapshot_sets_metadata(self):
        store = StateStore("cpf-1")
        snapshot = UEState("ue-1", 42)
        snapshot.version = 3
        entry = store.install_snapshot("ue-1", snapshot, synced_clock=17)
        assert entry.version == 3
        assert entry.synced_clock == 17
        assert entry.up_to_date

    def test_install_older_snapshot_ignored(self):
        # §4.2.4(1a): the boundary clock lets replicas ignore the
        # reception of outdated state.
        store = StateStore("cpf-1")
        fresh = UEState("ue-1", 42)
        fresh.version = 5
        store.install_snapshot("ue-1", fresh, synced_clock=20)
        stale = UEState("ue-1", 42)
        stale.version = 2
        entry = store.install_snapshot("ue-1", stale, synced_clock=10)
        assert entry.version == 5
        assert entry.synced_clock == 20

    def test_install_refreshes_outdated_entry(self):
        # §4.2.4(2): a state update for a previously-outdated UE makes
        # it up-to-date again.
        store = StateStore("cpf-1")
        store.create("ue-1", 42, is_primary=False)
        store.mark_outdated("ue-1")
        snapshot = UEState("ue-1", 42)
        snapshot.version = 1
        entry = store.install_snapshot("ue-1", snapshot, synced_clock=5)
        assert entry.up_to_date

    def test_snapshot_install_copies(self):
        store = StateStore("cpf-1")
        snapshot = UEState("ue-1", 42)
        store.install_snapshot("ue-1", snapshot, 1)
        snapshot.version = 99
        assert store.get("ue-1").version == 0

    def test_mark_outdated_missing_is_noop(self):
        StateStore("cpf-1").mark_outdated("nobody")

    def test_clear_loses_everything(self):
        store = StateStore("cpf-1")
        store.create("a", 1, True)
        store.create("b", 2, False)
        store.clear()
        assert len(store) == 0

    def test_drop_single(self):
        store = StateStore("cpf-1")
        store.create("a", 1, True)
        store.drop("a")
        store.drop("a")  # idempotent
        assert store.get("a") is None

    def test_ue_ids_sorted(self):
        store = StateStore("cpf-1")
        for ue in ("c", "a", "b"):
            store.create(ue, 1, False)
        assert store.ue_ids() == ["a", "b", "c"]


class TestRecords:
    """The slotted per-UE records behave as the dataclasses they replace."""

    def _state(self):
        return UEState(
            "ue-1", 42, attached=True, version=3, ops_in_procedure=1,
            active=True,
        )

    def test_copy_equals_source_and_mutates_independently(self):
        state = self._state()
        copy = state.copy()
        assert copy == state and copy is not state
        copy.apply_message()
        copy.complete_procedure("detach")
        assert copy != state
        assert (state.version, state.ops_in_procedure, state.attached) == (3, 1, True)

    def test_equality_is_field_wise_and_class_strict(self):
        assert UEState("ue-1", 42) == UEState("ue-1", 42)
        assert UEState("ue-1", 42) != UEState("ue-1", 43)
        assert StateEntry(UEState("a", 1), 5) == StateEntry(UEState("a", 1), 5)
        assert StateEntry(UEState("a", 1), 5) != StateEntry(UEState("a", 1), 6)
        assert Placement("r", "p", ["b"]) == Placement("r", "p", ["b"])
        assert Placement("r", "p") != ("r", "p", [])
        with pytest.raises(TypeError):
            hash(UEState("ue-1", 42))

    def test_repr_names_every_field_in_order(self):
        assert repr(UEState("ue-1", 42)) == (
            "UEState(ue_id='ue-1', m_tmsi=42, attached=False, version=0, "
            "ops_in_procedure=0, active=False)"
        )
        assert repr(StateEntry(UEState("a", 1), 2, False, True)).startswith(
            "StateEntry(state=UEState(ue_id='a', m_tmsi=1, "
        )
        assert repr(Placement("r", "p", ["b"])) == (
            "Placement(region='r', primary='p', backups=['b'])"
        )

    def test_defaults(self):
        entry = StateEntry(UEState("a", 1))
        assert (entry.synced_clock, entry.up_to_date, entry.is_primary) == (0, True, False)
        first, second = Placement("r", "p"), Placement("r", "p")
        assert first.backups == () == second.backups  # a tuple: nothing to share

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_repr_round_trip(self, protocol):
        state = self._state()
        for record in (state, StateEntry(state, 4, False, True), Placement("r", "p", ["b", "c"])):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)
            assert eval(repr(record)) == record


class TestFourByteColumns:
    def test_a_value_past_a_cohort_column_raises_and_never_wraps(self):
        from repro.scale.cohort import CohortDriver

        driver = CohortDriver(None, [], range(1))
        for name in ("version", "bs_idx", "runs"):
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
