"""Scenario-catalog and engine smoke tests at reduced population.

Each catalog scenario runs end to end at small N with the RYW auditor
on; beyond "no violations" the tests pin the scenario-specific effects:
ring churn really re-places replicas, the failover scenario really
applies its fault ops, windowed mobility really thins off-window
arrivals.
"""

import dataclasses
import hashlib

import pytest

from repro.scale.engine import (
    ScaleResult,
    _city_for,
    _mobility_for,
    place_population,
    run_replicates,
    run_scenario,
)
from repro.scale.scenarios import SCENARIOS, get_scenario, scenario_names

_SMALL = dict(n_ue=300, duration_s=1.0, seed=11)


@pytest.fixture(scope="module")
def results():
    return {
        name: run_scenario(name, **_SMALL) for name in scenario_names()
    }


class TestCatalog:
    def test_names_sorted_and_known(self):
        names = scenario_names()
        assert names == sorted(names)
        assert {"steady-city", "commute-wave", "stadium-flash-crowd",
                "region-failover", "ring-churn"} <= set(names)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_with_overrides_replaces_only_given_fields(self):
        spec = get_scenario("steady-city")
        same = spec.with_overrides()
        assert same is spec
        other = spec.with_overrides(n_ue=7, seed=9)
        assert (other.n_ue, other.seed) == (7, 9)
        assert other.duration_s == spec.duration_s


class TestEveryScenario:
    def test_zero_ryw_violations(self, results):
        for name, res in results.items():
            assert res.violations == 0, "%s violated RYW" % name
            assert res.ok

    def test_work_actually_happened(self, results):
        for name, res in results.items():
            assert res.completed > 0, name
            assert res.serves > 0 and res.writes > 0, name
            # non-verbose runs stay lean: the trace holds only applied
            # fault ops and orchestration actions, never per-message
            # records
            orch_traced = sum(
                res.counters.get(key, 0)
                for key in (
                    "orch_scale_out",
                    "orch_scale_in",
                    "orch_upgrade_drained",
                    "orch_upgraded",
                    "orch_healed",
                )
            )
            assert res.trace_events == (
                res.fault_counters.get("ops_applied", 0) + orch_traced
            )
            assert res.digest  # ... but still produce a digest

    def test_latency_sketches_cover_regions(self, results):
        res = results["steady-city"]
        assert res.region_pct_ms, "no per-region percentiles recorded"
        some = next(iter(res.region_pct_ms.values()))
        proc_summary = next(iter(some.values()))
        assert {"count", "p50", "p95", "p99"} <= set(proc_summary)

    def test_report_renders(self, results):
        for res in results.values():
            text = res.format_report()
            assert "violations=0" in text
            assert res.scenario in text

    def test_round_trips_through_dict(self, results):
        for res in results.values():
            clone = ScaleResult.from_dict(res.to_dict())
            assert clone == res


class TestScenarioEffects:
    def test_ring_churn_re_places_replicas(self, results):
        counters = results["ring-churn"].counters
        assert counters.get("regions_added") == 1
        assert counters.get("regions_removed") == 1
        assert counters.get("replacements_planned", 0) > 0
        assert counters.get("replaced", 0) > 0
        assert counters.get("replace_fetch_failed", 0) == 0
        assert counters.get("replace_errors", 0) == 0
        assert counters.get("rehome_errors", 0) == 0
        assert results["ring-churn"].regions_final == 12  # 4x3 city restored

    def test_region_failover_applies_fault_ops(self, results):
        res = results["region-failover"]
        applied = res.fault_counters.get("ops_applied", 0)
        # 2 CPFs + 1 CTA failed, then recovered
        assert applied == 6

    def test_windowed_mobility_thins_off_window(self, results):
        for name in ("commute-wave", "stadium-flash-crowd"):
            counters = results[name].counters
            assert counters.get("moves_thinned", 0) > 0, name

    def test_cross_region_handovers_occur(self, results):
        for name, res in results.items():
            moves = res.counters.get("moves_fast_handover", 0) + res.counters.get(
                "moves_handover", 0
            )
            assert moves > 0, "%s never crossed a region boundary" % name

    def test_storm_scenarios_fire_their_storms(self, results):
        for name, storms in (
            ("iot-reattach-storm", ("sensor-reattach", "tracker-reattach")),
            ("paging-storm", ("paging-wave",)),
            ("midnight-tau-spike", ("midnight-tau", "midnight-tau-trackers")),
        ):
            counters = results[name].counters
            assert counters.get("storm_arrivals", 0) > 0, name
            for storm in storms:
                assert counters.get("storm_arrivals." + storm, 0) > 0, storm

    def test_reattach_storm_rides_the_region_blackout(self, results):
        res = results["iot-reattach-storm"]
        # the blackout really fails and recovers CTA + 2 CPFs
        assert res.fault_counters.get("ops_applied", 0) == 6
        # the attach wave re-registers devices that were already attached
        assert res.counters.get("storm_reregister", 0) > 0


class TestThinningBias:
    """Lewis-Shedler candidate rate must dominate the true rate.

    With a wave *lull* (``wave_mobility_boost < 1``) the old driver
    sampled the whole run at ``base * boost`` and never thinned —
    under-sampling off-window mobility by the boost factor.  The fixed
    driver samples at ``base * max(boost, 1)`` and thins inside the
    window, so the accepted fraction equals the window-weighted mean
    multiplier.
    """

    def _run(self, boost):
        spec = get_scenario("commute-wave").with_overrides(
            n_ue=200, duration_s=2.0, seed=5
        )
        import dataclasses

        spec = dataclasses.replace(
            spec,
            name="thinning-regression",
            mobility_rate_per_ue=1.0 / 5.0,
            wave_mobility_boost=boost,
        )
        return run_scenario(spec)

    def test_lull_thins_inside_the_window_only(self):
        res = self._run(0.25)
        accepted = res.counters.get("moves_accepted", 0)
        thinned = res.counters.get("moves_thinned", 0)
        assert thinned > 0, "a lull must thin in-window candidates"
        candidates = accepted + thinned
        # window covers half the run: E[accept] = 0.5*1 + 0.5*0.25
        ratio = accepted / candidates
        assert 0.55 < ratio < 0.70, (
            "accepted %d of %d candidates (ratio %.3f, want ~0.625): "
            "off-window mobility is biased" % (accepted, candidates, ratio)
        )

    def test_flat_boost_never_thins(self):
        res = self._run(1.0)
        assert res.counters.get("moves_thinned", 0) == 0
        assert res.counters.get("moves_accepted", 0) > 0


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = run_scenario("steady-city", n_ue=200, duration_s=0.5, seed=3,
                         verbose_trace=True)
        b = run_scenario("steady-city", n_ue=200, duration_s=0.5, seed=3,
                         verbose_trace=True)
        assert a.digest == b.digest
        assert a == b  # dataclass eq skips the measured-cost fields (perf)

    def test_different_seed_different_digest(self):
        a = run_scenario("steady-city", n_ue=200, duration_s=0.5, seed=3,
                         verbose_trace=True)
        b = run_scenario("steady-city", n_ue=200, duration_s=0.5, seed=4,
                         verbose_trace=True)
        assert a.digest != b.digest


class TestReplicates:
    def test_run_replicates_one_result_per_seed(self):
        out = run_replicates("steady-city", seeds=[1, 2], n_ue=150,
                             duration_s=0.5)
        assert [r.seed for r in out] == [1, 2]
        assert all(r.ok for r in out)

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_scenario("steady-city", n_ue=10, duration_s=0.1, mode="bogus")


#: ``sha256("<BS names, first-appearance order>|<placement column>")[:16]``
#: of ``place_population`` at n=20k, computed before every model's initial
#: placement moved onto one inlined draw loop over a cached pool.
#: Never regenerate these to make a refactor pass.
PINNED_PLACEMENTS = {
    ("steady-city", 1): "dbcdac532244f949",
    ("steady-city", 2): "216c697aba70881a",
    ("steady-city", 3): "778d97d352d175ae",
    ("commute-wave", 1): "0a7081dd5fec2d15",
    ("commute-wave", 2): "aaf43d7554f07ae2",
    ("commute-wave", 3): "d25cc94f2986b1a2",
    ("stadium-flash-crowd", 1): "dbcdac532244f949",
    ("stadium-flash-crowd", 2): "216c697aba70881a",
    ("stadium-flash-crowd", 3): "778d97d352d175ae",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_PLACEMENTS))
def test_initial_placement_is_pinned(name, seed):
    spec = dataclasses.replace(get_scenario(name), n_ue=20_000, seed=seed)
    names = []

    def to_index(bs):
        names.append(bs)
        return len(names) - 1

    placed = place_population(spec, _mobility_for(spec, _city_for(spec)), to_index)
    text = "%s|%s" % (",".join(names), ",".join(map(str, placed)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == PINNED_PLACEMENTS[name, seed]
