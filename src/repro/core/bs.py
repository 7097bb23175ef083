"""Base station: serialization-aware relay between the UE and the CTA.

Neutrino's only BS change is the serialization engine (§4.1, §7): the
BS encodes uplink S1AP messages and decodes downlink ones with the
configured codec.  BSs are plentiful and never the queueing bottleneck,
so their codec work contributes latency — each step's ``bs_encode`` /
``bs_decode`` price in :mod:`repro.core.program` — but is not queued;
the node itself only counts what it relays.
"""

from __future__ import annotations

__all__ = ["BaseStation"]


class BaseStation:
    """One simulated base station (eNB/gNB)."""

    def __init__(self, dep, name: str, region: str):
        self.dep = dep
        self.name = name
        self.region = region
        self.uplink_messages = 0
        self.downlink_messages = 0
