"""The mid-run-joiner naming contract.

Orchestrator-added CPFs are named ``cpf-<tile>-<k>`` with ``k`` one
past the region's all-time high-water index.  That convention is what
makes a joiner indistinguishable from a seed CPF to every subsystem
that parses node names: ``region_of`` (fault partitions), the region
map's ``region_of_cpf`` home lookup (repair-fetch sources, including
CPFs currently ringed out by a drain), and the FaultInjector's
``fail_cpf``/``recover_cpf`` ops (chaos can target a CPF the
controller created seconds ago).  The tests here pin each layer plus
the no-reuse property that keeps remove + re-add collision-free.
"""

import dataclasses

import pytest

from repro.faults.injector import region_of
from repro.faults.plan import FaultOp
from repro.orch import OrchPolicy, Orchestrator, cpf_index
from repro.scale.engine import ShardEngine
from repro.scale.scenarios import get_scenario


def _engine():
    spec = get_scenario("steady-city").with_overrides(
        n_ue=50, duration_s=0.5, seed=3
    )
    spec = dataclasses.replace(
        spec,
        name="naming-test",
        l2_regions=2,
        l1_per_l2=2,
        orch_policy={"tick_s": 0.05, "scale_out_queue": 4.0},
    )
    return ShardEngine(spec, mode="cohort")


class TestNameParsing:
    @pytest.mark.parametrize(
        "name,tile",
        [
            ("cpf-121110-0", "121110"),  # seed CPF
            ("cpf-121110-17", "121110"),  # orchestrator joiner
            ("cta-121132", "121132"),
            ("bs-121110-1", "121110"),
        ],
    )
    def test_region_of_parses_tile(self, name, tile):
        assert region_of(name) == tile

    def test_region_of_rejects_non_node_names(self):
        assert region_of(None) is None
        assert region_of("") is None
        assert region_of("ue42") is None

    def test_cpf_index_reads_numeric_suffix(self):
        assert cpf_index("cpf-121110-0") == 0
        assert cpf_index("cpf-121110-17") == 17
        assert cpf_index("weird") == -1


class TestJoinerRecognition:
    def test_scaled_out_cpf_is_a_first_class_node(self):
        engine = _engine()
        tile = sorted(engine.dep.region_map.regions)[0]
        name = "cpf-%s-9" % tile
        engine.apply_action(
            {"kind": "scale_out", "region": tile, "cpf": name}
        )
        assert engine.counters.get("orch_scale_out") == 1
        # geo: both the name parse and the home lookup resolve it
        assert region_of(name) == tile
        assert engine.dep.region_map.region_of_cpf(name).geohash == tile
        assert name in engine.dep.region_map.regions[tile].cpfs
        # node registry: a live CPF object exists and is up
        assert engine.dep.cpfs[name].up

    def test_fault_injector_can_target_a_joiner(self):
        engine = _engine()
        engine.injector.add_listener(engine._on_fault_op)
        tile = sorted(engine.dep.region_map.regions)[0]
        name = "cpf-%s-9" % tile
        engine.apply_action(
            {"kind": "scale_out", "region": tile, "cpf": name}
        )
        engine.injector.fire(FaultOp("fail_cpf", target=name))
        assert engine.injector.ops_applied == 1
        assert not engine.dep.cpfs[name].up
        # the controller's crash-detection listener saw the kill
        assert engine.counters.get("orch_crash_detected") == 1
        engine.injector.fire(FaultOp("recover_cpf", target=name))
        assert engine.dep.cpfs[name].up

    def test_drained_victim_still_resolves_as_repair_source(self):
        engine = _engine()
        region_map = engine.dep.region_map
        tile = sorted(region_map.regions)[0]
        victim = region_map.regions[tile].cpfs[-1]
        engine.dep.remove_cpf(tile, victim)
        assert victim not in region_map.regions[tile].cpfs
        # ringed out, but its home is remembered: in-flight repair
        # fetches can still name it as a source
        assert region_map.region_of_cpf(victim).geohash == tile
        # and the same name may rejoin later (the upgrade re-ring)
        engine.dep.add_cpf(tile, victim)
        assert victim in region_map.regions[tile].cpfs


class TestHighWaterMarkNaming:
    def _tick(self, orch, members, q):
        load = {"121110": {"members": members, "up": len(members), "q": q,
                           "down": []}}
        return orch.observe(orch.ticks + 1, 0.05 * (orch.ticks + 1),
                            [{"shard": 0, "load": load}])

    def _orch(self):
        return Orchestrator(
            OrchPolicy(scale_out_queue=4.0, scale_out_ticks=1,
                       cooldown_ticks=0, max_cpfs=8),
            duration=10.0,
        )

    def test_scale_out_names_one_past_high_water(self):
        orch = self._orch()
        (action,) = self._tick(orch, ["cpf-121110-0", "cpf-121110-1"], 100)
        assert action == {
            "kind": "scale_out", "region": "121110", "cpf": "cpf-121110-2",
        }

    def test_indexes_never_reused_after_remove(self):
        orch = self._orch()
        (first,) = self._tick(orch, ["cpf-121110-0", "cpf-121110-1"], 100)
        assert first["cpf"] == "cpf-121110-2"
        # the joiner was scaled back in meanwhile: the pool looks like
        # the original, but the high-water mark remembers index 2
        (second,) = self._tick(orch, ["cpf-121110-0", "cpf-121110-1"], 100)
        assert second["cpf"] == "cpf-121110-3"


class TestUpgradePrefixPin:
    def test_downtown_parent_matches_shipped_policy(self):
        """The upgrade scenario's ``upgrade_prefix`` must be the commute
        model's downtown level-2 parent — the same derivation the engine
        uses (first parent in sorted tile order at the spec topology)."""
        from repro.scale.topology import build_city

        spec = get_scenario("upgrade-under-commute-wave")
        assert spec.mobility_model == "commute"
        topo = build_city(
            l2_regions=spec.l2_regions,
            l1_per_l2=spec.l1_per_l2,
            cpfs_per_region=spec.cpfs_per_region,
            bss_per_region=spec.bss_per_region,
            precision=spec.precision,
        )
        downtown_parent = sorted({t[:-1] for t in topo.tiles})[0]
        assert spec.orch_policy["upgrade_prefix"] == downtown_parent == "12111"
