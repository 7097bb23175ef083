#!/usr/bin/env python3
"""Quickstart: bring up a Neutrino deployment and run the basic procedures.

Builds the canonical 4-region edge deployment (Fig. 6 of the paper),
attaches a UE, runs a service request, an inter-region handover, and a
Fast Handover back, printing each procedure's completion time and the
resulting placement (primary CPF + level-2 backups).

Run:  python examples/quickstart.py
"""

from repro.core import ControlPlaneConfig, Deployment
from repro.sim import Simulator


def main() -> None:
    sim = Simulator()
    config = ControlPlaneConfig.neutrino()
    dep = Deployment.build_grid(sim, config, cpfs_per_region=2, regions=4)

    print("deployment: %d regions, %d CPFs, %d CTAs, %d BSs" % (
        len(dep.region_map.regions), len(dep.cpfs), len(dep.ctas), len(dep.bss)))
    print("codec: %s   sync: %s   recovery: %s" % (
        config.codec, config.sync_mode, config.recovery))
    print()

    ue = dep.new_ue("ue-quickstart", "bs-20-0")

    def session():
        for proc, target in (
            ("attach", None),
            ("service_request", None),
            ("handover", "bs-21-0"),     # inter-region, with migration
            ("fast_handover", "bs-20-1"),  # back, via the level-2 replica
        ):
            outcome = yield from ue.execute(proc, target_bs=target)
            placement = dep.placement_of(ue.ue_id)
            print(
                "%-16s pct=%7.3f ms   primary=%-10s backups=%s"
                % (proc, outcome.pct * 1e3, placement.primary, list(placement.backups))
            )

    sim.process(session())
    sim.run(until=5.0)

    print()
    print("UE state version: %d (every completed procedure is a write)" % ue.completed_version)
    print("consistency: read-your-writes held = %s (%d serves audited)" % (
        dep.auditor.read_your_writes_held, dep.auditor.serves))
    print("CTA log entries remaining after ACK pruning: %d" % sum(
        cta.log.entry_count() for cta in dep.ctas.values()))


if __name__ == "__main__":
    main()
