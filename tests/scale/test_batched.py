"""Batched-lane witnesses: the analytic lane is bit-identical to cohort.

The batched driver advances steady-state procedures analytically
(``repro.scale.lane``) and only falls back to the discrete-event path
for contention, faults, cross-region handovers, and storm backlogs.
Its correctness story is *conformance*: a batched run must be
indistinguishable from the cohort run — same verbose EventTrace digest,
same auditor verdict, same per-(region, procedure) sketch quantiles —
with ``gate_misses == 0`` proving every admission gate held.

Edge cases pinned here: a population of one, an all-busy cohort where
the lane admits nothing, a base station joining the ring mid-run
(add-only churn), and a signaling storm hot enough to spill lane steps
onto the queued server path.
"""

from dataclasses import replace

import pytest

from repro.scale.cohort import BatchedDriver
from repro.scale.engine import ShardEngine, run_scenario
from repro.scale.scenarios import get_scenario

N = 50
SEEDS = (11, 23)
SCENARIOS = ("steady-city", "ring-churn", "region-failover")

#: same constant as tests/scale/test_conformance.py pins for the cohort
#: driver — one digest, three drivers.
PINNED_STEADY_DIGEST = "e9e69136042bed05ecfba57ebba94154"


def run(scenario, seed, mode, n_ue=N, duration_s=2.0, audit_history=None):
    spec = scenario if not isinstance(scenario, str) else get_scenario(scenario)
    spec = spec.with_overrides(
        n_ue=n_ue, duration_s=duration_s, seed=seed, audit_history=audit_history
    )
    return run_scenario(spec, mode=mode, verbose_trace=True)


def stripped(result):
    """Full result dict minus the fields that *name* the driver
    (and the measured-cost fields, which are machine noise)."""
    d = result.to_dict()
    d.pop("mode")
    d.pop("lane", None)
    d.pop("perf", None)
    d.pop("shards", None)
    return d


def assert_conformant(cohort, batched):
    assert batched.lane.get("enabled"), "lane never engaged"
    assert batched.lane["gate_misses"] == 0
    assert batched.lane["walk_aborts"] == 0
    assert cohort.trace_events > 0, "verbose trace recorded nothing"
    assert stripped(cohort) == stripped(batched)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batched_digest_matches_cohort(scenario, seed):
    cohort = run(scenario, seed, "cohort")
    batched = run(scenario, seed, "batched")
    assert batched.lane["admitted"] > 0, "nothing exercised the lane"
    assert_conformant(cohort, batched)


def test_batched_digest_is_pinned():
    """Batched reproduces the *cohort's* pinned digest: equality with a
    constant rules out co-drift of both drivers through a shared bug."""
    res = run("steady-city", 11, "batched")
    assert res.digest == PINNED_STEADY_DIGEST


def test_single_ue_population():
    """N=1: every array is one slot long, the lane still engages."""
    cohort = run("steady-city", 11, "cohort", n_ue=1, duration_s=600.0)
    batched = run("steady-city", 11, "batched", n_ue=1, duration_s=600.0)
    assert batched.completed > 0
    assert batched.lane["admitted"] > 0
    assert_conformant(cohort, batched)


def test_all_busy_cohort_admits_nothing():
    """Arrivals for busy UEs never enter the lane (empty sweep)."""
    spec = get_scenario("steady-city").with_overrides(n_ue=4, seed=1)
    engine = ShardEngine(spec, mode="batched")
    engine._bootstrap_population()
    driver = engine.driver
    assert isinstance(driver, BatchedDriver)
    assert driver.lane is not None
    driver.busy[:] = b"\x01" * spec.n_ue
    for i in range(spec.n_ue):
        driver.start_procedure(i, "service_request")
    assert driver.stats["admitted"] == 0
    assert driver.stats["fallback"] == spec.n_ue


def test_ring_churn_add_only_new_bs_mid_run():
    """A region (CTA + CPFs + BSs) joins mid-run; add-only spec, so the
    lane stays enabled outside the churn hazard window and replicas
    re-place onto the newcomer identically in both drivers."""
    spec = replace(
        get_scenario("ring-churn"), churn_events=[(0.30, "add", "fill:0")]
    )
    cohort = run(spec, 11, "cohort", n_ue=400)
    batched = run(spec, 11, "batched", n_ue=400)
    assert batched.counters.get("regions_added") == 1
    assert batched.lane["admitted"] > 0
    assert_conformant(cohort, batched)


def test_storm_spills_onto_queued_path():
    """A storm hot enough that some lane steps find the server busy:
    the spill path (``Server.submit`` fallback mid-walk) must keep the
    run bit-identical, not just the admission-time fallback."""
    cohort = run("paging-storm", 3, "cohort", n_ue=8000, audit_history=False)
    batched = run("paging-storm", 3, "batched", n_ue=8000, audit_history=False)
    assert batched.lane["spills"] > 0, "storm never exercised the spill path"
    assert_conformant(cohort, batched)


def test_lazy_bootstrap_matches_eager_cohort():
    """Past the history cutoff the batched driver bootstraps lazily
    (placement sink + wholesale prefill); the cohort driver stays
    eager — results must still be identical."""
    cohort = run("steady-city", 2, "cohort", n_ue=3000, audit_history=False)
    batched = run("steady-city", 2, "batched", n_ue=3000, audit_history=False)
    assert batched.lane["lazy_bootstrap"] == 1
    assert_conformant(cohort, batched)
