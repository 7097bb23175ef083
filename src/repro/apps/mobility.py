"""Mobility application experiments (paper §6.6, Figs. 12-14).

A *subject UE* streams deadline-tagged sensor/pose packets uplink while
driving across base stations (Fig. 12's geometry), executing one or
several handovers, while a population of background users loads the
control plane.  Packets that arrive after their application deadline —
because the data path was stalled by a handover, a service request, or
failure recovery — are counted as missed, exactly like the paper's edge
application does.

Substitutions (per DESIGN.md): CARLA is replaced by the deadline-tagged
packet stream (the control-plane mechanism under test is identical);
the "active users" axis maps to background control procedures at
``bg_procedures_per_user_s`` per user, scaled to the simulated slice.
A constant ``radio_interruption_s`` models the radio-layer break every
handover incurs regardless of core design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import ControlPlaneConfig
from ..core.deployment import Deployment
from ..sim.core import Simulator
from ..sim.rng import RngRegistry
from .datapath import StallInterval, count_missed_deadlines, stalls_from_outcomes

__all__ = ["MobilityAppSpec", "MobilityResult", "run_mobility_experiment"]

#: testbed CPF count, for slice scaling (see experiments.harness).
_TESTBED_CPFS = 5


@dataclass
class MobilityAppSpec:
    """One mobility-application experiment configuration."""

    #: uplink sensor stream (paper: 1 kHz).
    packet_rate_hz: float = 1000.0
    #: application deadline (self-driving: 100 ms; VR: 16 ms).
    deadline_s: float = 0.100
    #: end-to-end latency when the path is up (edge app, one-way).
    base_latency_s: float = 0.004
    #: data-access interruption per handover that is *not* the core's
    #: doing (radio re-sync, RRC reconfiguration).  [37] reports control
    #: handovers costing up to 1.9 s of data access; the core-independent
    #: share is on the order of hundreds of ms, which is why the paper's
    #: Neutrino still misses deadlines during handovers.
    radio_interruption_s: float = 0.8
    #: how long the subject UE drives (scaled stand-in for 5 min @60 mph).
    drive_duration_s: float = 4.0
    #: handovers during the drive (1 = the paper's "single HO" scenario).
    handovers: int = 1
    #: background control procedures per active user per second.
    bg_procedures_per_user_s: float = 0.3
    regions: int = 2
    cpfs_per_region: int = 1
    seed: int = 7

    def validate(self) -> None:
        if self.packet_rate_hz <= 0 or self.deadline_s <= 0:
            raise ValueError("packet rate and deadline must be positive")
        if self.handovers < 0:
            raise ValueError("handovers must be non-negative")
        if self.drive_duration_s <= 0:
            raise ValueError("drive duration must be positive")


@dataclass
class MobilityResult:
    scheme: str
    active_users: float
    missed: int
    total: int
    handovers_executed: int
    stall_time_s: float

    @property
    def miss_fraction(self) -> float:
        return self.missed / self.total if self.total else 0.0


def run_mobility_experiment(
    config: ControlPlaneConfig,
    active_users: float,
    spec: Optional[MobilityAppSpec] = None,
) -> MobilityResult:
    """Drive the subject UE under background load; count missed packets."""
    spec = spec or MobilityAppSpec()
    spec.validate()

    sim = Simulator()
    rng = RngRegistry(spec.seed)
    dep = Deployment.build_grid(
        sim,
        config,
        cpfs_per_region=spec.cpfs_per_region,
        regions=spec.regions,
        rng=rng,
    )
    n_cpfs = spec.regions * spec.cpfs_per_region

    # Background control load: active users each issuing control
    # procedures.  Injected as per-message CPU jobs directly on each
    # CPF's processing core — the queueing effect on the subject's
    # procedures is identical to full background procedures at a
    # fraction of the simulation cost (documented in DESIGN.md §4).
    per_cpf_proc_rate = active_users * spec.bg_procedures_per_user_s / _TESTBED_CPFS
    msgs_per_proc = 3.0  # service-request-like background mix
    service = config.cost_model.message_service_time(config.codec, 8)

    def background(cpf, stream):
        rate = per_cpf_proc_rate * msgs_per_proc
        if rate <= 0:
            return
        while sim.now < spec.drive_duration_s:
            yield stream.expovariate(rate)
            if cpf.up:
                cpf.server.submit(service)

    for i, cpf in enumerate(dep.cpfs.values()):
        sim.process(background(cpf, rng.stream("bg-%d" % i)), name="bg-%d" % i)

    # The subject UE ping-pongs between a region-0 and a region-1 BS.
    bs_names = sorted(dep.bss)
    region0 = dep.bss[bs_names[0]].region
    home = next(b for b in bs_names if dep.bss[b].region == region0)
    away = next(b for b in bs_names if dep.bss[b].region != region0)
    subject = dep.bootstrap_ue("subject-car", home)

    use_fast = config.proactive_georep
    ho_proc = "fast_handover" if use_fast else "handover"
    gap = spec.drive_duration_s / (spec.handovers + 1) if spec.handovers else 0.0

    def drive():
        for i in range(spec.handovers):
            yield gap
            target = away if subject.bs_name == home else home
            yield from subject.execute(ho_proc, target_bs=target)
        remaining = spec.drive_duration_s - sim.now
        if remaining > 0:
            yield remaining

    drive_proc = sim.process(drive(), name="drive")
    sim.run(until=spec.drive_duration_s + 1.0)

    subject_outcomes = [
        o
        for o in dep.outcomes
        if o.name in ("handover", "fast_handover", "re_attach")
        and o.started_at <= spec.drive_duration_s
    ]
    # Only the subject's own procedures stall its path; background UEs
    # use distinct procedure kinds only for themselves.  Filter by the
    # subject's executed procedures: it is the only UE doing handovers.
    stalls: List[StallInterval] = stalls_from_outcomes(subject_outcomes)
    stalls = [
        StallInterval(
            s.start, s.end + spec.radio_interruption_s, s.cause
        )
        for s in stalls
    ]
    missed, total = count_missed_deadlines(
        stalls,
        spec.drive_duration_s,
        spec.packet_rate_hz,
        spec.deadline_s,
        spec.base_latency_s,
    )
    return MobilityResult(
        scheme=config.name,
        active_users=active_users,
        missed=missed,
        total=total,
        handovers_executed=sum(
            1 for o in subject_outcomes if o.name in ("handover", "fast_handover")
        ),
        stall_time_s=sum(s.duration for s in stalls),
    )
