"""Links and latency models connecting simulated network functions.

The deployment model of the paper (§4.3) places CTAs and CPFs at the
edge: radio + backhaul to the CTA is a few milliseconds, CTA to a
co-located CPF is sub-millisecond, and CPF-to-CPF replication crosses
region boundaries.  :class:`Link` captures one directed hop; a
:class:`LatencyModel` centralizes the defaults so experiments can tweak
the geometry in one place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .core import Simulator
from .node import NodeFailed

__all__ = ["Link", "LinkDown", "Transit", "LatencyModel"]


class LinkDown(NodeFailed):
    """A message was lost on a link (blackhole, partition, or exhausted
    retransmissions).

    Subclasses :class:`~repro.sim.node.NodeFailed` on purpose: a reliable
    control channel (S1AP over SCTP) that gives up retransmitting reports
    an association failure, which the protocol layer treats exactly like
    a peer death — the CTA-driven recovery machinery takes over.
    """


@dataclass(frozen=True)
class Transit:
    """Outcome of one message crossing a link.

    ``delay`` is the end-to-end delivery delay including retransmissions
    and fault-injected perturbations, or ``None`` when the message was
    lost (link down / retransmission budget exhausted).
    """

    delay: Optional[float]
    duplicated: bool = False
    reordered: bool = False
    retransmits: int = 0

    @property
    def lost(self) -> bool:
        return self.delay is None

    @property
    def perturbed(self) -> bool:
        return (
            self.delay is None
            or self.duplicated
            or self.reordered
            or self.retransmits > 0
        )


class Link:
    """A directed hop with propagation delay, optional bandwidth + jitter.

    ``send`` schedules ``deliver(*args)`` after the per-message delay;
    messages never reorder on a link (FIFO is enforced by tracking the
    last scheduled arrival), which matches a TCP/SCTP control channel —
    S1AP runs over SCTP in real deployments.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_s: float,
        bandwidth_bps: Optional[float] = None,
        jitter_frac: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
    ):
        if latency_s < 0:
            raise ValueError("negative link latency")
        if jitter_frac < 0:
            raise ValueError("negative jitter fraction")
        if jitter_frac > 0 and rng is None:
            raise ValueError("jitter requires an rng stream")
        self.sim = sim
        self.latency_s = float(latency_s)  # delay() feeds float-only process yields
        self.bandwidth_bps = bandwidth_bps
        self.jitter_frac = jitter_frac
        self.rng = rng
        self.name = name
        self.messages_sent = 0
        self.bytes_sent = 0
        self._last_arrival = 0.0
        self.up = True
        # -- fault-injection profile (all zero -> fast clean path) -----
        self.drop_p = 0.0
        self.dup_p = 0.0
        self.reorder_p = 0.0
        self.extra_delay_s = 0.0
        self.reorder_spread_s: Optional[float] = None
        self.rto_s: Optional[float] = None
        self.max_retx = 7
        self.fault_rng: Optional[random.Random] = None
        # fault counters (stable even when no faults are configured)
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.retransmits = 0

    # -- fault injection hooks (installed by repro.faults) -----------------

    def set_faults(
        self,
        drop_p: float = 0.0,
        dup_p: float = 0.0,
        reorder_p: float = 0.0,
        extra_delay_s: float = 0.0,
        rng: Optional[random.Random] = None,
        reorder_spread_s: Optional[float] = None,
        rto_s: Optional[float] = None,
        max_retx: int = 7,
    ) -> None:
        """Install a seeded perturbation profile on this link.

        Probabilities are per-message; ``rng`` must be supplied whenever
        any probability is non-zero so outcomes stay deterministic.
        """
        for p, label in ((drop_p, "drop_p"), (dup_p, "dup_p"), (reorder_p, "reorder_p")):
            if not 0.0 <= p < 1.0:
                raise ValueError("%s must be in [0, 1), got %r" % (label, p))
        if extra_delay_s < 0:
            raise ValueError("negative extra_delay_s")
        if (drop_p or dup_p or reorder_p) and rng is None:
            raise ValueError("probabilistic link faults require an rng stream")
        self.drop_p = drop_p
        self.dup_p = dup_p
        self.reorder_p = reorder_p
        self.extra_delay_s = extra_delay_s
        self.reorder_spread_s = reorder_spread_s
        self.rto_s = rto_s
        self.max_retx = max_retx
        self.fault_rng = rng

    def clear_faults(self) -> None:
        self.drop_p = self.dup_p = self.reorder_p = 0.0
        self.extra_delay_s = 0.0
        self.reorder_spread_s = None
        self.rto_s = None
        self.fault_rng = None

    @property
    def faulty(self) -> bool:
        return bool(
            self.drop_p or self.dup_p or self.reorder_p or self.extra_delay_s
        )

    def effective_rto(self) -> float:
        """Retransmission timeout: explicit, or 4 RTTs with a small floor."""
        if self.rto_s is not None:
            return self.rto_s
        return max(8.0 * self.latency_s, 1e-4)

    def transit(self, nbytes: int = 0) -> Transit:
        """Account one message and compute its (possibly faulty) fate.

        Clean path (no faults installed, link up) returns exactly
        ``Transit(self.delay(nbytes))`` — byte-identical to the historic
        ``sim.timeout(link.delay(n))`` behaviour.  A dropped message on a
        reliable control channel is retransmitted after
        :meth:`effective_rto` up to ``max_retx`` times before being
        declared lost (``delay=None``).
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if not self.up:
            self.dropped += 1
            return Transit(None)
        delay = self.delay(nbytes)
        if not self.faulty:
            return Transit(delay)
        rng = self.fault_rng
        retx = 0
        if self.drop_p and rng is not None:
            while rng.random() < self.drop_p:
                retx += 1
                if retx > self.max_retx:
                    self.dropped += 1
                    self.retransmits += self.max_retx
                    return Transit(None, retransmits=self.max_retx)
                delay += self.effective_rto()
            self.retransmits += retx
        duplicated = False
        if self.dup_p and rng is not None and rng.random() < self.dup_p:
            duplicated = True
            self.duplicated += 1
            self.messages_sent += 1  # the copy consumes link resources
            self.bytes_sent += nbytes
        reordered = False
        if self.reorder_p and rng is not None and rng.random() < self.reorder_p:
            reordered = True
            self.reordered += 1
            spread = (
                self.reorder_spread_s
                if self.reorder_spread_s is not None
                else 4.0 * self.latency_s
            )
            delay += spread * rng.random()
        if self.extra_delay_s:
            delay += self.extra_delay_s
        return Transit(delay, duplicated, reordered, retx)

    def delay(self, nbytes: int = 0) -> float:
        d = self.latency_s
        if self.bandwidth_bps and nbytes:
            d += (nbytes * 8.0) / self.bandwidth_bps
        if self.jitter_frac and self.rng is not None:
            d += self.latency_s * self.jitter_frac * self.rng.random()
        return d

    def send(self, nbytes: int, deliver: Callable[..., None], *args: Any) -> bool:
        """Schedule delivery; returns False (message lost) if link is down."""
        if not self.up:
            return False
        self.messages_sent += 1
        self.bytes_sent += nbytes
        arrival = self.sim.now + self.delay(nbytes)
        if arrival < self._last_arrival:  # preserve FIFO under jitter
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.sim.schedule(arrival - self.sim.now, deliver, *args)
        return True


@dataclass
class LatencyModel:
    """One-way latencies (seconds) for each hop class in the deployment.

    Defaults mirror the paper's *testbed* geometry (§6.1): the DPDK
    traffic generator emulating UEs/BSs sits on the same switch as the
    core servers, so the radio leg is a short emulated hop, intra-edge
    hops are tens of microseconds, and only the inter-region leg (the
    level-2 replication / migration path) is a real metro-distance hop.
    Use :meth:`edge_wan` for a geographically spread edge deployment.
    """

    ue_bs: float = 25e-6           # emulated radio leg (generator hop)
    bs_cta: float = 10e-6          # BS to nearest edge site
    cta_cpf: float = 5e-6          # CTA co-located with CPF pool (§4.3)
    cpf_cpf_intra: float = 10e-6   # CPFs within one level-1 region
    cpf_cpf_inter: float = 250e-6  # across level-1 regions (level-2 ring)
    cpf_cpf_far: float = 1.5e-3    # across level-2 regions (level-3 ring)
    cpf_upf: float = 10e-6         # S11-like session programming
    remote_core: float = 20.0e-3   # legacy centralized core, for contrast
    jitter_frac: float = 0.0

    @classmethod
    def edge_wan(cls) -> "LatencyModel":
        """A geographically spread edge deployment (cell towers/COs)."""
        return cls(
            ue_bs=2.0e-3,
            bs_cta=0.5e-3,
            cta_cpf=0.05e-3,
            cpf_cpf_intra=0.1e-3,
            cpf_cpf_inter=2.0e-3,
            cpf_cpf_far=8.0e-3,
            cpf_upf=0.2e-3,
        )

    def validate(self) -> None:
        for field_name, value in self.__dict__.items():
            if field_name == "jitter_frac":
                continue
            if value < 0:
                raise ValueError("%s must be non-negative" % field_name)

    def link(
        self,
        sim: Simulator,
        hop: str,
        rng: Optional[random.Random] = None,
        name: str = "",
    ) -> Link:
        """Build a Link for a named hop class (e.g. ``'ue_bs'``)."""
        try:
            latency = getattr(self, hop)
        except AttributeError:
            raise KeyError("unknown hop class %r" % (hop,))
        return Link(
            sim,
            latency,
            jitter_frac=self.jitter_frac,
            rng=rng if self.jitter_frac else None,
            name=name or hop,
        )
