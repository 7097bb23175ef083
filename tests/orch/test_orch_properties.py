"""The orchestration safety campaign: random policies x faults x storms.

The closed-loop controller's safety claim is absolute: whatever the
policy decides — scale-out into a storm, scale-in of a region that is
about to crash, a rolling upgrade racing the paper's two-level
recovery, auto-heal firing while the FaultPlan's own recovery is in
flight — the RYW auditor stays clean and no UE is stranded.
Hypothesis composes the three policy behaviours with the fault
dimensions of ``test_storm_consistency.py`` on the measured IoT
re-attach storm, then checks:

* ``violations == 0`` with per-UE causal history enabled;
* no cohort slot is left busy (a drain that strands an in-flight
  procedure would wedge its slot's busy flag forever);
* every region keeps a non-empty CPF ring and every level-2 parent
  keeps at least one CPF (the scale-in guards actually held);
* the run is bit-reproducible: same spec, same digest, same action log.

A pinned corpus replays the nastiest configurations on fixed seeds so
a regression is a named failure, never a flaky property.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scale.engine import run_scenario
from repro.scale.scenarios import get_scenario

from tests.scale.engine_run import run_engine

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=8,
    print_blob=True,
)

#: the campaign city: 2 level-2 parents x 2 tiles, 2 CPFs per tile —
#: small enough to run in seconds, structured enough that scale-in /
#: upgrade guards (last replica of a level-2 parent) are reachable.
_CITY = dict(l2_regions=2, l1_per_l2=2, cpfs_per_region=2, bss_per_region=2)

#: a level-2 parent of the campaign city (tiles 121110/121112).
_PARENT = "12111"


def _orch_spec(seed, policy, n_ue=140, fault_events=(), link_faults=()):
    base = get_scenario("iot-reattach-storm")
    return dataclasses.replace(
        base,
        name="orch-property",
        n_ue=n_ue,
        duration_s=1.2,
        seed=seed,
        traffic_rate_scale=8.0,
        fault_events=list(fault_events),
        link_faults=list(link_faults),
        churn_events=[],
        audit_history=True,
        orch_policy=dict(policy),
        **_CITY
    )


@st.composite
def policies(draw):
    """A random mutating policy: any non-empty behaviour subset."""
    policy = {"tick_s": draw(st.sampled_from((0.04, 0.05, 0.1)))}
    if draw(st.booleans()):
        policy["scale_out_queue"] = draw(st.sampled_from((1.0, 4.0)))
        policy["scale_in_queue"] = draw(st.sampled_from((0.0, 0.5)))
        policy["scale_out_ticks"] = draw(st.integers(1, 2))
        policy["scale_in_ticks"] = draw(st.integers(2, 4))
        policy["cooldown_ticks"] = draw(st.integers(0, 3))
        policy["max_cpfs"] = draw(st.integers(2, 4))
    if draw(st.booleans()):
        policy["upgrade_start_frac"] = draw(st.sampled_from((0.2, 0.35, 0.5)))
        policy["upgrade_drain_s"] = draw(st.sampled_from((0.05, 0.1)))
        policy["upgrade_stagger_s"] = draw(st.sampled_from((0.05, 0.15)))
        if draw(st.booleans()):
            policy["upgrade_prefix"] = _PARENT
    if draw(st.booleans()) or len(policy) == 1:
        policy["heal_after_ticks"] = draw(st.integers(1, 3))
        policy["heal_recover"] = draw(st.booleans())
    return policy


@st.composite
def orch_specs(draw):
    seed = draw(st.integers(0, 2**20))
    policy = draw(policies())

    fault_events = []
    if draw(st.booleans()):
        # a whole region blacks out and recovers: the controller's
        # auto-heal races the plan's own recovery, upgrades may have
        # drained the victim already, autoscale sees the load shift
        fail_at = draw(st.floats(0.25, 0.45))
        recover_at = draw(st.floats(0.55, 0.75))
        victim = draw(st.integers(0, 3))
        fault_events = [
            (fail_at, "fail", "region:index:%d" % victim),
            (recover_at, "recover", "region:index:%d" % victim),
        ]
    elif draw(st.booleans()):
        # a single CPF crashes and never comes back by itself — only
        # heal_recover (when drawn) restarts it
        fail_at = draw(st.floats(0.25, 0.55))
        target = draw(st.sampled_from(("cpf-121110-0", "cpf-121130-0")))
        fault_events = [(fail_at, "fail_cpf", target)]

    link_faults = []
    if draw(st.booleans()):
        hop = draw(st.sampled_from(("cpf_cpf_intra", "cpf_cpf_inter", "cpf_cpf_far")))
        link_faults = [(hop, draw(st.floats(0.05, 0.25)))]

    return _orch_spec(
        seed,
        policy,
        n_ue=draw(st.integers(100, 180)),
        fault_events=fault_events,
        link_faults=link_faults,
    )


def _check_safety(spec):
    engine, res = run_engine(spec)
    label = "seed=%d policy=%r faults=%r" % (
        spec.seed, spec.orch_policy, spec.fault_events,
    )
    assert res.violations == 0, "RYW violated (%s)" % label
    assert res.serves > 0 and res.writes > 0
    assert res.counters.get("storm_arrivals", 0) > 0
    # no UE stranded: a drain that lost an in-flight procedure would
    # leave its cohort slot busy forever
    assert sum(engine.driver.busy) == 0, "stuck busy slots (%s)" % label
    # scale-in / drain guards held: nobody emptied a region's ring or
    # a level-2 parent's CPF pool
    parents = {}
    for tile, region in engine.dep.region_map.regions.items():
        assert region.cpfs, "region %s ringed empty (%s)" % (tile, label)
        parents.setdefault(tile[:-1], 0)
        parents[tile[:-1]] += len(region.cpfs)
    for parent, count in parents.items():
        assert count >= 1, "parent %s emptied (%s)" % (parent, label)
    return engine, res


@given(spec=orch_specs())
@settings(**_SETTINGS)
def test_orchestration_is_safe_under_faults_and_storms(spec):
    _check_safety(spec)


@given(spec=orch_specs())
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_orchestrated_runs_are_reproducible(spec):
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a.digest == b.digest
    assert a.orch_log == b.orch_log
    assert a.orch_summary == b.orch_summary


def test_heal_waits_the_same_ticks_at_one_and_two_shards():
    """``heal_after_ticks`` counts controller ticks, not lockstep
    epochs: a CPF that crashes at 0.36 s is healed at tick 10 (0.5 s)
    at every shard count.  Counting epochs healed it at 0.45 s when
    sharded, a tick early."""
    spec = _orch_spec(
        5, {"tick_s": 0.05, "heal_after_ticks": 3},
        fault_events=[(0.3, "fail_cpf", "cpf-121110-0")],
    )
    logs = {}
    for shards in (1, 2):
        res = run_scenario(spec, shards=shards, shard_backend="inline")
        assert res.violations == 0
        logs[shards] = res.orch_log
    assert logs[1] == logs[2]
    (heal,) = logs[1]
    assert (heal["kind"], heal["cpf"], heal["epoch"]) == ("heal", "cpf-121110-0", 10)
    assert heal["t"] == pytest.approx(0.5)


# -------------------------------------------------------- pinned corpus

_FULL_POLICY = {
    "tick_s": 0.05,
    "scale_out_queue": 1.0,
    "scale_in_queue": 0.5,
    "scale_out_ticks": 1,
    "scale_in_ticks": 2,
    "cooldown_ticks": 1,
    "max_cpfs": 4,
    "upgrade_start_frac": 0.30,
    "upgrade_drain_s": 0.05,
    "upgrade_stagger_s": 0.05,
    "heal_after_ticks": 1,
    "heal_recover": True,
}

_REGRESSION_CORPUS = [
    # everything at once: eager autoscale + whole-city rolling upgrade
    # + instant heal, while a region blacks out across the storm window
    dict(
        seed=9001,
        policy=_FULL_POLICY,
        fault_events=[
            (0.35, "fail", "region:index:0"),
            (0.60, "recover", "region:index:0"),
        ],
    ),
    # heal races the upgrade of the same pool: the victim CPF crashes
    # right as its level-2 parent's upgrade wave begins, lossy links
    dict(
        seed=4242,
        policy=dict(_FULL_POLICY, upgrade_prefix=_PARENT,
                    heal_recover=False),
        fault_events=[(0.30, "fail_cpf", "cpf-121110-0")],
        link_faults=[("cpf_cpf_inter", 0.20)],
    ),
    # aggressive scale-in (threshold 0 never holds, but in_ticks=2 at a
    # quiet tail shrinks pools) against the region blackout's recovery
    dict(
        seed=777,
        policy={
            "tick_s": 0.04,
            "scale_out_queue": 1.0,
            "scale_in_queue": 0.5,
            "scale_out_ticks": 1,
            "scale_in_ticks": 2,
            "cooldown_ticks": 0,
            "max_cpfs": 3,
        },
        fault_events=[
            (0.40, "fail", "region:index:2"),
            (0.70, "recover", "region:index:2"),
        ],
        link_faults=[("cpf_cpf_far", 0.25)],
    ),
]


@pytest.mark.parametrize(
    "case", _REGRESSION_CORPUS, ids=lambda c: "seed%d" % c["seed"]
)
def test_regression_corpus(case):
    spec = _orch_spec(
        case["seed"],
        case["policy"],
        fault_events=case.get("fault_events", ()),
        link_faults=case.get("link_faults", ()),
    )
    engine, res = _check_safety(spec)
    # the corpus policies really act — an empty action log would mean
    # the campaign quietly stopped exercising the choke points
    assert res.orch_log, "corpus case did nothing"
