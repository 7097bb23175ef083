#!/usr/bin/env python3
"""Self-driving car on the cellular edge (paper §6.6, Figs. 12-13).

A car streams 1 kHz sensor data to an edge application with a ~100 ms
decision budget while driving across base stations (handover per region
crossing) under background control-plane load.  Counts the sensor
packets that miss their deadline because the data path stalled during
handovers, per control-plane design.

Run:  python examples/self_driving_edge.py
"""

from repro.apps import run_mobility_experiment, self_driving_spec
from repro.core import ControlPlaneConfig


def main() -> None:
    spec_kwargs = dict(drive_duration_s=3.0, radio_interruption_s=0.4)
    users_axis = (50e3, 200e3, 500e3)

    print("=== self-driving car: missed 100 ms deadlines per drive ===")
    print("(1 kHz sensor stream, 2 handovers, background users loading the core)\n")
    print("%-14s %12s %12s %12s" % ("scheme", *["%dK users" % (u / 1e3) for u in users_axis]))

    rows = {}
    for config in (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()):
        missed = []
        for users in users_axis:
            result = run_mobility_experiment(
                config, users, self_driving_spec(handovers=2, **spec_kwargs)
            )
            missed.append(result.missed)
        rows[config.name] = missed
        print("%-14s %12d %12d %12d" % (config.name, *missed))

    print()
    for users, epc, neutrino in zip(users_axis, rows["existing_epc"], rows["neutrino"]):
        ratio = epc / neutrino if neutrino else float("inf")
        print(
            "at %3.0fK users: EPC misses %.1fx more deadlines (paper: up to 2.8x)"
            % (users / 1e3, ratio)
        )
    print(
        "\nThe gap opens when background load pushes the EPC's handover PCT\n"
        "past the decision budget; Neutrino's Fast Handover keeps the stall\n"
        "near the radio-layer floor regardless of load."
    )


if __name__ == "__main__":
    main()
