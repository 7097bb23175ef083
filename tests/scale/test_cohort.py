"""Tests for the flyweight cohort driver (repro.scale.cohort)."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deployment import Deployment
from repro.faults.runner import config_from_name
from repro.scale.cohort import BatchedDriver, CohortDriver, IndividualDriver
from repro.scale.engine import ShardEngine
from repro.scale.scenarios import get_scenario
from repro.scale.topology import build_city
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.traffic.models import class_ranges, get_model

from .reference_addressing import ReferenceAddressing


def make_dep(seed=1, l2_regions=2, l1_per_l2=2):
    sim = Simulator()
    topo = build_city(l2_regions=l2_regions, l1_per_l2=l1_per_l2)
    dep = Deployment(
        sim,
        config_from_name("neutrino"),
        topo.region_map(),
        rng=RngRegistry(seed).fork("dep"),
    )
    return sim, topo, dep


def make_driver(cls=CohortDriver, n=4, seed=1, ids=None):
    sim, topo, dep = make_dep(seed=seed)
    bs_names = [b for r in topo.regions for b in r.bss]
    return sim, topo, dep, cls(dep, bs_names, range(n) if ids is None else ids)


class TestBookkeeping:
    def test_ue_ids_are_stable_and_indexed(self):
        _sim, _topo, _dep, driver = make_driver()
        assert driver.ue_id(0) == "c-0000000"
        assert driver.ue_id(3) == "c-0000003"
        assert int(driver.ue_id(3).split("-")[-1]) == 3  # engine relies on this

    def test_bootstrap_sets_arrays(self):
        _sim, topo, dep, driver = make_driver()
        bs = topo.regions[0].bss[0]
        driver.bootstrap(0, bs)
        assert driver.attached[0] == 1
        assert driver.busy[0] == 0
        assert driver.bs_of(0) == bs
        assert driver.version[0] >= 1
        assert dep.placement_of("c-0000000") is not None

    def test_bs_index_registers_new_names(self):
        _sim, _topo, _dep, driver = make_driver()
        before = len(driver.bs_names)
        idx = driver.bs_index("bs-zzzzz9-0")
        assert idx == before
        assert driver.bs_index("bs-zzzzz9-0") == idx  # idempotent
        assert driver.bs_of is not None

    def test_no_per_ue_objects_at_rest(self):
        _sim, topo, dep, driver = make_driver(n=50)
        for i in range(50):
            driver.bootstrap(i, topo.regions[0].bss[0])
        # the cohort holds arrays only; the deployment UE registry stays
        # empty until a procedure hydrates a flyweight
        assert dep.ues() == []


class TestProcedures:
    def test_service_request_completes_and_writes_back(self):
        sim, topo, dep, driver = make_driver()
        driver.bootstrap(0, topo.regions[0].bss[0])
        v0 = driver.version[0]
        sim.process(driver.run_procedure(0, "service_request"), name="t")
        sim.run()
        assert driver.completed == 1
        assert driver.aborted == 0
        assert driver.busy[0] == 0
        assert driver.version[0] > v0
        assert dep.ues() == [], "flyweight leaked after writeback"

    def test_handover_moves_bs(self):
        sim, topo, dep, driver = make_driver()
        src = topo.regions[0].bss[0]
        dst = topo.regions[1].bss[0]
        driver.bootstrap(0, src)
        sim.process(driver.run_procedure(0, "handover", dst), name="t")
        sim.run()
        assert driver.completed == 1
        assert driver.bs_of(0) == dst

    def test_abort_counts_instead_of_raising(self):
        sim, topo, dep, driver = make_driver()
        driver.bootstrap(0, topo.regions[0].bss[0])
        # fail every CPF that could serve the UE: the procedure aborts
        for cpf in dep.cpfs.values():
            cpf.fail()
        sim.process(driver.run_procedure(0, "service_request"), name="t")
        sim.run()
        assert driver.aborted == 1
        assert driver.busy[0] == 0  # busy flag released even on abort

    def test_busy_flag_spans_the_procedure(self):
        sim, topo, dep, driver = make_driver()
        driver.bootstrap(0, topo.regions[0].bss[0])
        observed = []

        def watcher():
            observed.append(driver.busy[0])
            yield sim.timeout(1e-6)
            observed.append(driver.busy[0])

        sim.process(driver.run_procedure(0, "service_request"), name="t")
        sim.process(watcher(), name="w")
        sim.run()
        assert observed[0] == 1  # mid-procedure
        assert driver.busy[0] == 0


class TestIndividualDriver:
    def test_persistent_ues_live_in_registry(self):
        sim, topo, dep, driver = make_driver(cls=IndividualDriver, n=3)
        for i in range(3):
            driver.bootstrap(i, topo.regions[0].bss[0])
        assert len(dep.ues()) == 3

    def test_same_scalars_as_cohort_after_procedure(self):
        results = {}
        for cls in (CohortDriver, IndividualDriver):
            sim, topo, dep, driver = make_driver(cls=cls, seed=5)
            driver.bootstrap(0, topo.regions[0].bss[0])
            sim.process(driver.run_procedure(0, "service_request"), name="t")
            sim.run()
            results[cls.mode] = (
                driver.attached[0],
                driver.version[0],
                driver.bs_of(0),
                driver.completed,
            )
        assert results["cohort"] == results["individual"]


# ------------------------------------------------------ the addressing contract


class TestAddressing:
    """``ids`` decides slot <-> global id, and only the driver knows how."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_buckets_partition_the_dense_bucket(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        k = data.draw(st.integers(1, 4), label="k")
        owner = data.draw(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="owner"
        )
        lo = data.draw(st.integers(0, n), label="lo")
        hi = data.draw(st.one_of(st.none(), st.integers(lo, n)), label="hi")
        _sim, _topo, dep = make_dep()
        dense = CohortDriver(dep, [], range(n))
        shares = [
            CohortDriver(dep, [], array("l", (g for g in range(n) if owner[g] == j)))
            for j in range(k)
        ]
        assert isinstance(dense.bucket(lo, hi), range)
        got = []
        for share in shares:
            bucket = share.bucket(lo, hi)
            assert share.bucket(lo, hi) is bucket  # scanned once, then kept
            got.extend(share.ids[i] for i in bucket)
            assert all(share.slot(share.ids[i]) == i for i in range(share.n))
            assert share.slot(n) is None
        assert sorted(got) == list(dense.bucket(lo, hi))  # each id exactly once
        assert all(dense.slot(dense.ids[i]) == i for i in range(n))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_slots_and_buckets_match_the_reference_index(self, data):
        """Over seeded shard shares and immigrate / emigrate / return
        sequences, the bisected addressing answers exactly what the old
        per-UE index did — so ``bucket[randrange(len(bucket))]`` picks
        the same slot on every draw."""
        space = data.draw(st.integers(1, 80), label="space")
        share = sorted(
            data.draw(st.sets(st.integers(0, space - 1)), label="share")
        )
        gid = st.integers(0, space + 20)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("bucket"), gid, st.one_of(st.none(), gid)),
                    st.tuples(st.just("arrive"), gid),
                    st.tuples(st.just("leave"), st.integers(0, 10_000)),
                ),
                max_size=40,
            ),
            label="ops",
        )
        driver = CohortDriver(None, [], array("I", share))
        ref = ReferenceAddressing(share)
        driver.bucket(0, None), ref.bucket(0, None)
        for op in ops:
            if op[0] == "bucket":
                lo, hi = op[1], op[2]
                hi = hi if hi is None or hi >= lo else lo
                driver.bucket(lo, hi), ref.bucket(lo, hi)
            elif op[0] == "arrive":  # an immigrant, new or returning
                assert driver.add_slot(op[1]) == ref.add_slot(op[1])
            elif driver.n:  # an emigrant: its slot stays, tombstoned
                driver.tombstone(op[1] % driver.n)
            assert driver.n == ref.n and list(driver.ids) == ref.ids
            for g in range(space + 21):
                assert driver.slot(g) == ref.slot(g)
            for (lo, hi), want in ref._buckets.items():
                bucket = driver.bucket(lo, hi)
                assert len(bucket) == len(want)
                assert [bucket[k] for k in range(len(bucket))] == want
                if want:
                    assert bucket[-1] == want[-1]

    def test_a_share_whose_ids_do_not_ascend_is_refused(self):
        for ids in ([3, 1, 7], [2, 2, 5]):
            with pytest.raises(ValueError, match="ascend"):
                CohortDriver(None, [], array("I", ids))

    def test_whole_population_pick_consumes_the_legacy_draw(self):
        """``bucket[randrange(len(bucket))]`` over ``range(lo, hi)`` is
        draw-for-draw ``randrange(lo, hi)``: no pinned RNG sequence moves."""
        spec = get_scenario("iot-reattach-storm").with_overrides(n_ue=997, seed=2)
        engine = ShardEngine(spec, mode="cohort")
        ranges = sorted(class_ranges(get_model(spec.traffic_model), spec.n_ue).values())
        assert len(ranges) > 1
        ranges.append((0, None))
        rng, ref = random.Random(11), random.Random(11)
        for j in range(10_000):
            lo, hi = ranges[j % len(ranges)]
            assert engine._pick_idle(rng, lo, hi) == ref.randrange(
                lo, spec.n_ue if hi is None else hi
            )
        assert rng.getstate() == ref.getstate()
        assert "arrivals_no_local" not in engine.counters

    def test_empty_bucket_draws_nothing(self):
        spec = get_scenario("steady-city").with_overrides(n_ue=50, seed=2)
        engine = ShardEngine(spec, mode="cohort")
        rng = random.Random(5)
        before = rng.getstate()
        assert engine._pick_idle(rng, 20, 20) is None
        assert rng.getstate() == before
        assert engine.counters == {"arrivals_no_local": 1}

    @pytest.mark.parametrize("cls", [CohortDriver, BatchedDriver])
    def test_add_slot_extends_every_column_and_bucket(self, cls):
        _sim, _topo, _dep, driver = make_driver(cls=cls, ids=array("l", [3, 10, 42]))
        covering = [driver.bucket(0, None), driver.bucket(5, 20)]
        other = driver.bucket(20, 50)
        assert [list(b) for b in covering + [other]] == [[0, 1, 2], [1], [2]]
        i = driver.add_slot(7)
        assert i == 3 and driver.n == 4
        assert driver.ue_id(i) == "c-0000007" and driver.slot(7) == i
        columns = [getattr(driver, name) for name in driver._columns]
        assert len(columns) == (6 if cls is BatchedDriver else 5)
        assert all(len(column) == driver.n for column in columns)
        assert [b.count(i) for b in covering] == [1, 1] and i not in other
        assert list(driver.bucket(6, 8)) == [i]  # and in a bucket scanned later
        if cls is BatchedDriver:
            assert driver._booted[i] == 1  # never lazy-booted over installed state
        # the UE leaves and comes back: same slot, tombstone cleared,
        # nothing extended twice
        driver.attached[i] = 1
        driver.tombstone(i)
        assert driver.gone[i] == 1 and driver.attached[i] == 0
        assert driver.add_slot(7) == i and driver.gone[i] == 0
        assert driver.n == 4 and len(driver.ids) == 4
        assert [b.count(i) for b in covering] == [1, 1]

    def test_procedure_done_fires_after_writeback(self):
        sim, topo, _dep, driver = make_driver()
        driver.bootstrap(2, topo.regions[0].bss[0])
        seen = []
        driver.procedure_done = lambda i: seen.append((i, driver.busy[i]))
        sim.process(driver.run_procedure(2, "service_request"), name="t")
        sim.run()
        assert seen == [(2, 0)]
