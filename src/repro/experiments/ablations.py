"""Ablations beyond the paper's factor analysis (DESIGN.md §7).

The paper ablates the sync scheme (Fig. 15) and message logging
(Fig. 16).  This module adds the remaining design choices it calls out
but does not sweep:

* ``ablate_n_backups`` — the replication factor N (§4.2.2 leaves N as a
  parameter): failure-masking probability and checkpoint traffic vs PCT.
* ``ablate_georep_level`` — replicas on the level-2 ring vs a level-3
  ring (footnote 14's future work): cross-level-2 handovers become Fast
  Handovers at the cost of longer checkpoint paths.
* ``ablate_ack_timeout`` — §4.2.4's outdated-marking timeout: how long
  un-ACKed procedures linger in the CTA log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.config import ControlPlaneConfig
from ..core.deployment import Deployment
from ..sim.core import Simulator
from ..sim.rng import RngRegistry
from .harness import RunSpec
from .parallel import SweepJob, run_jobs

__all__ = [
    "ablate_n_backups",
    "ablate_georep_level",
    "ablate_ack_timeout",
    "ablate_serialization_bandwidth",
]


def ablate_n_backups(
    backups: Sequence[int] = (1, 2, 3),
    rate: float = 60e3,
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[Dict[str, Any]]:
    """Attach PCT and failure masking as the replication factor N grows.

    More backups mean more checkpoint fan-out (sync-core work and
    inter-region bytes) but a higher chance that a synced backup
    survives a failure.
    """
    rows = []
    base_spec = spec or RunSpec(
        procedure="attach",
        regions=4,
        procedures_target=800,
        max_duration_s=0.2,
        failure_cpf_index=0,
        failure_at_frac=0.5,
    )
    configs = [
        ControlPlaneConfig.neutrino(name="n%d" % n, n_backups=n) for n in backups
    ]
    points = run_jobs(
        [SweepJob(c, rate, base_spec) for c in configs], jobs=jobs, cache=cache
    )
    for n, point in zip(backups, points):
        rows.append(
            {
                "n_backups": n,
                "p50_ms": point.p50_ms,
                "recovered": point.recovered,
                "reattached": point.reattached,
                "masked_frac": (
                    1.0 - point.reattached / point.recovered if point.recovered else 1.0
                ),
                "violations": point.violations,
            }
        )
    return rows


def ablate_georep_level(
    round_trips: int = 10,
    seed: int = 5,
) -> List[Dict[str, Any]]:
    """Level-2 vs level-3 replica placement on a 3-level deployment.

    The §4.3 benefit exists only where a replica already waits: with
    level-2 placement, backups always sit inside the home level-2
    region, so a handover *across* a level-2 boundary can never find
    local state and must fetch it over the long path.  Level-3
    placement can put the backup across that boundary, making the same
    commute a true Fast Handover — in exchange for checkpoints riding
    the longer level-3 links.  A UE commutes between its home BS and a
    BS in its backup's region; we report the fast-handover PCT and
    whether the commute crosses a level-2 boundary.
    """
    home_region = "200"

    # Pick a UE whose *level-3* placement puts the backup across the
    # level-2 boundary, then make both configurations commute that same
    # route — the only difference is where the replica waits.
    def find_crossing_ue() -> tuple:
        probe_sim = Simulator()
        probe = Deployment.build_tree(
            probe_sim,
            ControlPlaneConfig.neutrino(georep_level=3),
            depth=3,
            rng=RngRegistry(seed),
        )
        for k in range(256):
            ue_id = "commuter-%03d" % k
            probe.ensure_placement(ue_id, home_region)
            backup = probe.replicas_of(ue_id)[0]
            backup_region = probe.region_map.region_of_cpf(backup).geohash
            if not probe.region_map.shares_level2(home_region, backup_region):
                return ue_id, backup_region
        raise LookupError("no UE with a cross-level-2 backup in 256 tries")

    ue_id, away_region = find_crossing_ue()

    rows = []
    for level in (2, 3):
        sim = Simulator()
        config = ControlPlaneConfig.neutrino(
            name="level%d" % level, georep_level=level
        )
        dep = Deployment.build_tree(sim, config, depth=3, rng=RngRegistry(seed))
        ue = dep.bootstrap_ue(ue_id, "bs-%s-0" % home_region)
        backup = dep.replicas_of(ue_id)[0]
        backup_region = dep.region_map.region_of_cpf(backup).geohash

        def commute():
            for _ in range(round_trips):
                target = (
                    "bs-%s-0" % away_region
                    if ue.bs_name.startswith("bs-" + home_region)
                    else "bs-%s-0" % home_region
                )
                yield from ue.execute("fast_handover", target_bs=target)
                yield 0.05  # let checkpoints land

        sim.process(commute())
        sim.run(until=60.0)
        tally = dep.pct["fast_handover"]
        inter = dep.links["cpf_cpf_inter"]
        far = dep.links["cpf_cpf_far"]
        rows.append(
            {
                "georep_level": level,
                "backup_region": backup_region,
                "replica_waits_across_level2": not dep.region_map.shares_level2(
                    home_region, backup_region
                ),
                "fast_ho_p50_ms": tally.median * 1e3 if tally.count else None,
                "checkpoint_bytes_inter": inter.bytes_sent,
                "checkpoint_bytes_far": far.bytes_sent,
                "violations": len(dep.auditor.violations),
            }
        )
    return rows


def ablate_ack_timeout(
    timeouts_s: Sequence[float] = (0.5, 5.0, 30.0),
    seed: int = 9,
) -> List[Dict[str, Any]]:
    """§4.2.4 timeout sensitivity: log retention vs outdated marking.

    With a dead backup, un-ACKed procedure records persist until the
    scan timeout; shorter timeouts bound the log sooner but mark
    replicas outdated more eagerly (more repair traffic).
    """
    observe_at_s = 2.0
    rows = []
    for timeout_s in timeouts_s:
        sim = Simulator()
        config = ControlPlaneConfig.neutrino(
            name="ack%g" % timeout_s,
            ack_timeout_s=timeout_s,
            log_scan_interval_s=min(0.25, max(timeout_s / 2, 0.05)),
        )
        dep = Deployment.build_grid(sim, config, rng=RngRegistry(seed))
        ue = dep.bootstrap_ue("lonely", "bs-20-0")
        dep.fail_cpf(dep.replicas_of("lonely")[0])  # its ACKs never come

        def procedures():
            for _ in range(5):
                yield from ue.execute("service_request")
                yield 0.05

        sim.process(procedures())
        sim.run(until=observe_at_s)  # fixed observation point
        cta = dep.cta_of("lonely")
        rows.append(
            {
                "ack_timeout_s": timeout_s,
                "log_entries_at_%gs" % observe_at_s: cta.log.entry_count(),
                "max_log_bytes": cta.log.max_size_bytes,
                "violations": len(dep.auditor.violations),
            }
        )
    return rows


def ablate_serialization_bandwidth(
    n_procedures: int = 200,
    seed: int = 13,
) -> List[Dict[str, Any]]:
    """The §7 serialization trade-off, quantified on the wire.

    Neutrino trades encoded-message size for processing speed; the paper
    argues the bandwidth increase is acceptable.  This ablation runs the
    same workload (attach + service requests) under each codec and
    reports total control-plane bytes on each hop class, the bandwidth
    inflation factor vs ASN.1, and the median attach PCT it bought.
    """
    rows = []
    baseline_bytes = None
    for codec in ("asn1per", "flatbuffers", "flatbuffers_opt"):
        sim = Simulator()
        config = ControlPlaneConfig.neutrino(name=codec, codec=codec)
        dep = Deployment.build_grid(sim, config, rng=RngRegistry(seed))

        def workload():
            for i in range(n_procedures):
                ue = dep.new_ue("bw-%04d" % i, "bs-20-0")
                yield from ue.execute("attach")
                yield from ue.execute("service_request")

        sim.process(workload())
        sim.run(until=120.0)
        access_bytes = sum(
            dep.links[h].bytes_sent for h in ("ue_bs", "bs_cta", "cta_cpf")
        )
        replication_bytes = sum(
            dep.links[h].bytes_sent
            for h in ("cpf_cpf_intra", "cpf_cpf_inter", "cpf_cpf_far")
        )
        if baseline_bytes is None:
            baseline_bytes = access_bytes
        rows.append(
            {
                "codec": codec,
                "access_bytes": access_bytes,
                "replication_bytes": replication_bytes,
                "inflation_vs_asn1": access_bytes / baseline_bytes,
                "attach_p50_ms": (
                    dep.pct["attach"].median * 1e3 if dep.pct["attach"].count else None
                ),
            }
        )
    return rows
