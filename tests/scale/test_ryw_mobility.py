"""RYW under mobility: property campaign over traces × fault plans.

Hypothesis drives randomized city runs — a small population roaming
across at least three regions at a boosted mobility rate — against
randomized fault dimensions:

* a whole region (CTA + every CPF) crashing mid-run, timed to land
  inside the handover wave, and recovering later;
* checkpoint loss on an inter-CPF hop class for the entire run
  (``LinkPerturbation.drop_p``), so state replication to level-2
  backups and re-placement repair fetches both ride lossy links;
* ring churn (a sibling region joining and later retiring) while the
  population keeps moving.

The invariant is the paper's: read-your-writes must hold for every
serve the auditor observes, under *any* combination of the above —
``violations == 0`` with no exceptions tolerated.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.scale.engine import run_scenario
from repro.scale.scenarios import ScenarioSpec

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=12,
    print_blob=True,
)

#: hops that carry checkpoints / repair fetches between CPFs
_CHECKPOINT_HOPS = ("cpf_cpf_intra", "cpf_cpf_inter", "cpf_cpf_far")


@st.composite
def mobile_city_specs(draw):
    seed = draw(st.integers(0, 2**20))
    l1_per_l2 = draw(st.integers(2, 3))
    l2_regions = draw(st.integers(2, 3))

    fault_events = []
    if draw(st.booleans()):
        # CTA + CPFs of one region crash inside the roaming window and
        # recover before the end: inter-region handovers in flight land
        # on a dead region and must ride §4.2.5 recovery
        fail_at = draw(st.floats(0.20, 0.45))
        recover_at = draw(st.floats(0.55, 0.80))
        victim = draw(st.integers(0, l2_regions * l1_per_l2 - 1))
        fault_events = [
            (fail_at, "fail", "region:index:%d" % victim),
            (recover_at, "recover", "region:index:%d" % victim),
        ]

    link_faults = []
    if draw(st.booleans()):
        hop = draw(st.sampled_from(_CHECKPOINT_HOPS))
        link_faults = [(hop, draw(st.floats(0.05, 0.30)))]

    churn_events = []
    if l1_per_l2 < 4 and draw(st.booleans()):
        add_at = draw(st.floats(0.15, 0.35))
        remove_at = draw(st.floats(0.55, 0.85))
        churn_events = [(add_at, "add", "fill:0"), (remove_at, "remove", "fill:0")]

    return mobile_city_spec(
        seed, draw(st.integers(30, 80)), l2_regions, l1_per_l2,
        fault_events, link_faults, churn_events,
    )


def mobile_city_spec(
    seed, n_ue, l2_regions, l1_per_l2, fault_events=(), link_faults=(),
    churn_events=(),
):
    return ScenarioSpec(
        name="ryw-mobility-property",
        description="randomized RYW-under-mobility case",
        n_ue=n_ue,
        duration_s=1.5,
        seed=seed,
        l2_regions=l2_regions,
        l1_per_l2=l1_per_l2,
        cpfs_per_region=2,
        bss_per_region=2,
        # roam hard: every UE moves ~15x/run (10 moves/s for 1.5 s),
        # most moves cross regions
        mobility_rate_per_ue=10.0,
        service_rate_per_ue=1.0 / 5.0,
        tau_rate_per_ue=1.0 / 30.0,
        fault_events=list(fault_events),
        link_faults=list(link_faults),
        churn_events=list(churn_events),
        audit_history=True,
    )


@given(spec=mobile_city_specs())
# at 1/10 moves/s per UE this draw made no move at all
@example(spec=mobile_city_spec(seed=72, n_ue=30, l2_regions=2, l1_per_l2=2))
@settings(**_SETTINGS)
def test_ryw_holds_under_mobility_and_faults(spec):
    res = run_scenario(spec)
    assert res.violations == 0, (
        "RYW violated (seed=%d faults=%r links=%r churn=%r)"
        % (spec.seed, spec.fault_events, spec.link_faults, spec.churn_events)
    )
    assert res.serves > 0 and res.writes > 0
    # the campaign must actually exercise mobility, not idle around
    moved = (
        res.counters.get("moves_fast_handover", 0)
        + res.counters.get("moves_handover", 0)
        + res.counters.get("moves_intra", 0)
    )
    assert moved > 0


@given(spec=mobile_city_specs())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_randomized_runs_are_reproducible(spec):
    a = run_scenario(spec, verbose_trace=True)
    b = run_scenario(spec, verbose_trace=True)
    assert a.digest == b.digest
    assert a == b  # dataclass eq skips the measured-cost fields (perf)


def test_known_hard_case_cta_crash_mid_handover_wave():
    """Pinned worst case: the region everyone is handing over into dies
    mid-wave with lossy inter-CPF links, then recovers."""
    spec = ScenarioSpec(
        name="ryw-hard-case",
        description="CTA crash mid-wave + lossy checkpoint links",
        n_ue=60,
        duration_s=1.5,
        seed=1337,
        l2_regions=2,
        l1_per_l2=2,
        mobility_rate_per_ue=1.0 / 8.0,
        service_rate_per_ue=1.0 / 5.0,
        fault_events=[
            (0.30, "fail", "region:index:0"),
            (0.70, "recover", "region:index:0"),
        ],
        link_faults=[("cpf_cpf_inter", 0.25), ("cpf_cpf_far", 0.25)],
        audit_history=True,
    )
    res = run_scenario(spec)
    assert res.violations == 0
    assert res.fault_counters.get("ops_applied", 0) == 6
    retransmits = sum(
        v for k, v in res.fault_counters.items() if k.endswith(".retransmits")
    )
    assert retransmits > 0, (
        "the lossy links never dropped anything; the case is not hard"
    )
