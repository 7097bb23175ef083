"""Scenario catalog for the city-scale harness.

Each scenario is a :class:`ScenarioSpec`: topology shape, population
size, per-UE traffic rates, the mobility model, optional timed fault
events, and optional ring-churn events.  Times inside a spec are
fractions of the run duration, so ``--duration`` scales a scenario
without re-deriving its phase structure.

The catalog mirrors the paper's deployment story: steady metro load
(§6.1's offered-load axis, here spread over a real ring), directional
morning-commute mobility (cross-region handovers, §4.3 / fig. 11), a
stadium flash crowd (the localized overload that motivates per-region
CPF pools), a region failover (§4.2.5 scenario 4 at city scale), and
ring churn (CTA added and removed mid-run with replica re-placement).

The signaling-storm trio (``iot-reattach-storm``, ``paging-storm``,
``midnight-tau-spike``) swaps the Poisson superposition for a measured
traffic model (``ScenarioSpec.traffic_model`` naming an entry in
``repro.traffic.models.MODELS``): per-procedure inter-arrival
distributions, smartphone-vs-IoT device classes, diurnal envelopes,
and correlated-burst storms after Meng et al. — every generator backed
by the statistical calibration suite in
``tests/traffic/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["ScenarioSpec", "SCENARIOS", "get_scenario", "scenario_names"]

#: mean session interarrival from the ng4T traffic mix (traces.py).
_SESSION_RATE = 1.0 / 106.9


@dataclass
class ScenarioSpec:
    """Everything one scale run is a deterministic function of."""

    name: str
    description: str
    # population & time
    n_ue: int = 20000
    duration_s: float = 2.0
    seed: int = 1
    # topology (level-1 tiles = l2_regions * l1_per_l2, one CTA each)
    l2_regions: int = 4
    l1_per_l2: int = 4
    cpfs_per_region: int = 2
    bss_per_region: int = 2
    precision: int = 6
    # per-UE rates (aggregated Poisson across the cohort); ignored when
    # a measured traffic model drives the run instead
    service_rate_per_ue: float = _SESSION_RATE
    mobility_rate_per_ue: float = 1.0 / 120.0
    tau_rate_per_ue: float = 1.0 / 600.0
    #: measured traffic model (``repro.traffic.models`` name); None =
    #: the merged-Poisson superposition streams
    traffic_model: Optional[str] = None
    #: multiplier on every model process/mobility rate — lets small-N
    #: test runs keep realistic per-device means but enough arrivals
    traffic_rate_scale: float = 1.0
    # mobility model: random_walk | commute | flash_crowd
    mobility_model: str = "random_walk"
    #: (start_frac, end_frac) of the commute wave / flash-crowd window
    wave_window: Tuple[float, float] = (0.25, 0.75)
    #: rate multiplier applied to mobility during the wave window
    wave_mobility_boost: float = 4.0
    # timed faults: (time_frac, op, target) with target "region:<tile>"
    # expanding to the tile's CTA + every CPF
    fault_events: List[Tuple[float, str, str]] = field(default_factory=list)
    # seeded message-fault profiles: (hop_class, drop_p) — lost
    # checkpoints/ACKs on that hop for the whole run
    link_faults: List[Tuple[str, float]] = field(default_factory=list)
    # ring churn: (time_frac, "add"|"remove", tile) — "spare" means the
    # topology's reserved spare tile; "fill:<k>" the first unused child
    # of the k-th level-2 parent (a sibling join, so existing regions'
    # level-2 rings actually change and replicas re-place)
    churn_events: List[Tuple[float, str, str]] = field(default_factory=list)
    #: seconds over which post-churn re-placement fetches are staggered
    rebalance_window_s: float = 0.25
    #: keep the auditor's per-UE causal history (None = only when the
    #: population is small enough for the diagnostics to be free)
    audit_history: Optional[bool] = None
    #: closed-loop orchestration policy (``repro.orch.OrchPolicy`` as a
    #: dict, the ``--policy`` JSON DSL); None = no controller
    orch_policy: Optional[Dict] = None
    config: str = "neutrino"

    def with_overrides(
        self,
        n_ue: Optional[int] = None,
        duration_s: Optional[float] = None,
        seed: Optional[int] = None,
        audit_history: Optional[bool] = None,
    ) -> "ScenarioSpec":
        kwargs = {}
        if n_ue is not None:
            kwargs["n_ue"] = n_ue
        if duration_s is not None:
            kwargs["duration_s"] = duration_s
        if seed is not None:
            kwargs["seed"] = seed
        if audit_history is not None:
            kwargs["audit_history"] = audit_history
        return replace(self, **kwargs) if kwargs else self


def _catalog() -> Dict[str, ScenarioSpec]:
    specs = [
        ScenarioSpec(
            name="steady-city",
            description="16 level-1 regions, random-walk roaming, steady "
            "ng4T-rate session load; the baseline city.",
        ),
        ScenarioSpec(
            name="commute-wave",
            description="Morning commute: the population walks from "
            "residential tiles into the downtown level-2 region mid-run, "
            "turning background roaming into a directed cross-region "
            "handover wave.",
            mobility_model="commute",
            mobility_rate_per_ue=1.0 / 60.0,
        ),
        ScenarioSpec(
            name="stadium-flash-crowd",
            description="Flash crowd: everyone converges on one stadium "
            "tile during the event window and disperses after, "
            "concentrating attach/service load on one region's CPF pool.",
            mobility_model="flash_crowd",
            mobility_rate_per_ue=1.0 / 60.0,
            service_rate_per_ue=2.0 * _SESSION_RATE,
        ),
        ScenarioSpec(
            name="region-failover",
            description="A whole level-1 region (CTA + every CPF) crashes "
            "mid-run and recovers later; roaming UEs ride §4.2.5 recovery "
            "while the auditor checks RYW end to end.",
            fault_events=[
                (0.40, "fail", "region:index:0"),
                (0.75, "recover", "region:index:0"),
            ],
        ),
        ScenarioSpec(
            name="iot-reattach-storm",
            description="Region blackout + IoT mass re-registration: a "
            "level-1 region (CTA + every CPF) goes dark mid-run; when it "
            "recovers, the measured IoT classes re-register in an "
            "exponential-drain storm that hammers the CTA log/replay and "
            "attach paths while smartphones keep their diurnal session "
            "load.",
            traffic_model="metro-iot-reattach",
            traffic_rate_scale=4.0,
            fault_events=[
                (0.30, "fail", "region:index:0"),
                (0.50, "recover", "region:index:0"),
            ],
        ),
        ScenarioSpec(
            name="paging-storm",
            description="Paging storm: a broadcast event pages 80% of the "
            "smartphone class inside a short window, each paged UE "
            "answering with a service request on top of the measured "
            "diurnal background.",
            traffic_model="metro-paging",
            traffic_rate_scale=4.0,
        ),
        ScenarioSpec(
            name="midnight-tau-spike",
            description="Midnight TAU synchronization: IoT periodic-TAU "
            "timers aligned to a wall-clock boundary fire in one tight "
            "uniform window — the synchronized-signaling worst case of "
            "Meng et al.",
            traffic_model="metro-midnight-tau",
            traffic_rate_scale=4.0,
        ),
        ScenarioSpec(
            name="upgrade-under-commute-wave",
            description="Rolling CPF upgrade during the morning commute: "
            "the closed-loop controller drains, restarts, and re-rings "
            "every downtown CPF one at a time (state migrated away and "
            "repaired back through the placement path) while the commute "
            "wave pours handovers into exactly that level-2 parent; the "
            "auditor checks RYW across every drain.",
            mobility_model="commute",
            mobility_rate_per_ue=1.0 / 60.0,
            orch_policy={
                "tick_s": 0.05,
                "upgrade_start_frac": 0.20,
                "upgrade_drain_s": 0.10,
                "upgrade_stagger_s": 0.15,
                # the commute model's downtown level-2 parent at the
                # default topology (see tests/orch test pinning this)
                "upgrade_prefix": "12111",
            },
        ),
        ScenarioSpec(
            name="autoscale-under-flash-crowd",
            description="Hysteresis autoscale under a flash crowd: a "
            "two-region city provisioned with one CPF each, hit by the "
            "measured IoT re-attach storm (a front-loaded exponential "
            "drain that swamps a single processing core); the controller "
            "watches per-CPF outstanding load in the heartbeat feed, "
            "rings extra CPFs into hot regions while the storm drains, "
            "and rings them back out in the quiet tail — beating the "
            "fixed-capacity baseline's attach p99 without trading away "
            "consistency.",
            mobility_model="flash_crowd",
            mobility_rate_per_ue=1.0 / 60.0,
            traffic_model="metro-iot-reattach",
            traffic_rate_scale=4.0,
            # a deliberately lean city on the heavyweight-codec config:
            # the re-attach storm is sized by population fraction, and
            # concentrating it on four single-CPF regions whose cores
            # pay asn1per (de)serialization is what makes fixed
            # capacity visibly queue for the whole storm window
            l2_regions=2,
            l1_per_l2=2,
            cpfs_per_region=1,
            config="skycore",
            # migrate re-ringed keys fast enough that a scale-out
            # relieves the hot core while the storm is still draining
            rebalance_window_s=0.02,
            orch_policy={
                "tick_s": 0.05,
                # the storm front piles up hundreds of jobs within one
                # tick, so a single loaded tick is signal, not noise —
                # react in one tick, ramp every other tick, shed the
                # extra capacity only after a sustained quiet spell
                "scale_out_queue": 8.0,
                "scale_in_queue": 0.5,
                "scale_out_ticks": 1,
                "scale_in_ticks": 6,
                "cooldown_ticks": 2,
                "max_cpfs": 4,
            },
        ),
        ScenarioSpec(
            name="ring-churn",
            description="Ring membership churn: a new CTA/region joins an "
            "existing level-2 parent mid-run (its CPFs enter the siblings' "
            "level-2 ring, so replicas re-place onto it), then the region "
            "is drained and retired — consistent-hashing monotonicity "
            "keeps the moved-key set minimal.",
            l1_per_l2=3,
            churn_events=[(0.30, "add", "fill:0"), (0.65, "remove", "fill:0")],
        ),
    ]
    return {s.name: s for s in specs}


SCENARIOS: Dict[str, ScenarioSpec] = _catalog()


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            "unknown scenario %r (have: %s)" % (name, ", ".join(scenario_names()))
        )
