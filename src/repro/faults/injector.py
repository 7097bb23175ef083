"""FaultInjector: executes a FaultPlan against a live deployment.

Installation (:meth:`FaultInjector.install`) sets ``dep.faults`` so the
deployment's single link choke point — :meth:`Deployment.hop` — routes
every traversal through :meth:`transit_event`:

* the link's seeded fault profile decides drop / duplicate / reorder /
  extra delay (``Link.transit``); a delivered message is just its
  delay, a message that exhausts its retransmission budget is *lost*
  and the hop is an event failed with
  :class:`~repro.sim.network.LinkDown` — which subclasses
  ``NodeFailed``, so the §4.2.5 recovery machinery handles it without
  any protocol-layer changes;
* an active partition drops messages whose endpoints sit in opposite
  region groups (endpoint-aware hops only: replication, repair, and
  replay legs pass ``src``/``dst``);
* every fault lands in the :class:`~repro.faults.trace.EventTrace`.

All randomness comes from streams derived from ``plan.seed`` alone, so
the same plan produces the same faults whatever the workload seed is.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..sim.core import Event
from ..sim.network import Link, LinkDown
from ..sim.rng import RngRegistry
from .plan import FaultEvent, FaultOp, FaultPlan, LinkPerturbation
from .trace import EventTrace

__all__ = ["FaultInjector"]


def region_of(node_name: Optional[str]) -> Optional[str]:
    """Region geohash from a node name (``cpf-20-0`` -> ``20``)."""
    if not node_name:
        return None
    parts = node_name.split("-")
    return parts[1] if len(parts) >= 2 else None


class FaultInjector:
    """Applies one plan's perturbations, timed events, and scripted ops."""

    def __init__(
        self,
        dep,
        plan: Optional[FaultPlan] = None,
        trace: Optional[EventTrace] = None,
    ):
        self.dep = dep
        self.sim = dep.sim
        self.plan = plan or FaultPlan()
        self.trace = trace if trace is not None else EventTrace()
        self.rng = RngRegistry(self.plan.seed)
        self._partition: Optional[Tuple[frozenset, frozenset]] = None
        self.messages_lost = 0
        self.partition_drops = 0
        self.ops_applied = 0
        self.ops_skipped = 0
        #: crash-detection hooks: ``fn(now, op, target)`` called after
        #: every *applied* control op.  Listeners must be passive
        #: observers (counters, detection latches) — scheduling sim work
        #: from one would perturb runs that differ only in listeners.
        self._listeners: list = []
        #: the instant of every op scheduled to fire, sorted.
        self._op_times: List[float] = []

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Claim the deployment's hop path and arm the plan."""
        if self.dep.faults is not None and self.dep.faults is not self:
            raise RuntimeError("another fault injector is already installed")
        self.dep.faults = self
        for perturbation in self.plan.perturbations:
            self._apply_perturbation(perturbation)
        self._arm(self.plan.events, self.fire)
        return self

    def mirror(self, events: Iterable[FaultEvent]) -> None:
        """Apply ``events`` bare at their instants (see :meth:`apply`)."""
        self._arm(events, self.apply)

    def _arm(self, events: Iterable[FaultEvent], fn) -> None:
        for event in events:
            self.sim.schedule(max(0.0, event.at - self.sim.now), fn, event)
            insort(self._op_times, event.at)

    def uninstall(self) -> None:
        if self.dep.faults is self:
            self.dep.faults = None
        for link in self.dep.links.values():
            link.clear_faults()
            link.up = True
        self._partition = None

    # -- hop choke point -----------------------------------------------------

    def transit_event(
        self,
        link: Link,
        nbytes: int,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> Union[float, Event]:
        """One message's fate on ``link``, decided at the send instant.

        A delivered message is its delay in seconds — a ``float`` the
        sending process yields as is; a lost one (partition, blackhole,
        exhausted retransmissions) is an ``Event`` already failed with
        :class:`~repro.sim.network.LinkDown`.
        """
        if (
            link.up
            and self._partition is None
            and not self.trace.verbose
            and not link.faulty
        ):
            # Nothing is wrong and nothing to record: Link.transit's
            # clean path without the Transit in between.
            link.messages_sent += 1
            link.bytes_sent += nbytes
            return link.delay(nbytes)
        sim = self.sim
        if self._partitioned(src, dst):
            link.messages_sent += 1
            link.bytes_sent += nbytes
            link.dropped += 1
            self.partition_drops += 1
            self.messages_lost += 1
            self.trace.record(
                sim.now, "partition_drop", hop=link.name, src=src or "?", dst=dst or "?"
            )
            ev = sim.event("faults.partition")
            ev.fail(LinkDown("partition: %s -/- %s" % (src, dst)))
            return ev
        transit = link.transit(nbytes)
        if transit.lost:
            self.messages_lost += 1
            self.trace.record(
                sim.now,
                "msg_lost",
                hop=link.name,
                nbytes=nbytes,
                retransmits=transit.retransmits,
                src=src or "?",
                dst=dst or "?",
            )
            ev = sim.event("faults.lost")
            ev.fail(LinkDown(link.name))
            return ev
        if transit.perturbed:
            self.trace.record(
                sim.now,
                "msg_perturbed",
                hop=link.name,
                nbytes=nbytes,
                dup=transit.duplicated,
                reorder=transit.reordered,
                retransmits=transit.retransmits,
            )
        elif self.trace.verbose:
            self.trace.record(sim.now, "msg", hop=link.name, nbytes=nbytes)
        return transit.delay

    def clean_until(self, link: Link, at: float) -> bool:
        """Whether a message sent on ``link`` at ``at`` takes the clean path.

        Judged now for a later send instant: the link is up and clean,
        there is no partition and no verbose trace, and no scheduled op
        falls before ``at`` (ops at the current instant count as still
        due).  Scripted ops fired by a plan driver between its own
        procedures are not scheduled, and need not be.
        """
        if not link.up or link.faulty or self._partition is not None:
            return False
        if self.trace.verbose:
            return False
        times = self._op_times
        i = bisect_left(times, self.sim.now)
        return i == len(times) or at < times[i]

    def _partitioned(self, src: Optional[str], dst: Optional[str]) -> bool:
        if self._partition is None:
            return False
        ra, rb = region_of(src), region_of(dst)
        if ra is None or rb is None:
            return False
        group_a, group_b = self._partition
        return (ra in group_a and rb in group_b) or (ra in group_b and rb in group_a)

    # -- control operations ---------------------------------------------------

    def add_listener(self, fn) -> None:
        """Register a crash-detection hook (see ``_listeners``)."""
        self._listeners.append(fn)

    def apply(self, op: FaultOp) -> bool:
        """Flip the state ``op`` names and nothing else; False if skipped.

        No counter, trace record or listener: :meth:`fire` adds those,
        and a shard mirroring an op another shard owns calls this so
        the op is counted once.
        """
        handler = getattr(self, "_op_" + op.op, None)
        if handler is None:
            raise ValueError("op %r cannot be fired by the injector" % (op.op,))
        return handler(op)

    def fire(self, op: FaultOp) -> None:
        """Apply one control op (timed event or scripted step) now."""
        if not self.apply(op):
            self.ops_skipped += 1
            self.trace.record(self.sim.now, "op_skipped", op=op.op, target=op.target)
            return
        self.ops_applied += 1
        self.trace.record(self.sim.now, "op", op=op.op, target=op.target)
        for fn in self._listeners:
            fn(self.sim.now, op.op, op.target)

    # each _op_* returns False when skipped (e.g. last-alive guard)

    def _op_fail_cpf(self, op: FaultOp) -> bool:
        cpf = self.dep.cpfs.get(op.target)
        if cpf is None or not cpf.up:
            return False
        if self.plan.guard_last_alive:
            alive = [n for n, c in self.dep.cpfs.items() if c.up]
            if len(alive) <= 1:
                return False
        self.dep.fail_cpf(op.target)
        return True

    def _op_recover_cpf(self, op: FaultOp) -> bool:
        cpf = self.dep.cpfs.get(op.target)
        if cpf is None or cpf.up:
            return False
        self.dep.recover_cpf(op.target)
        return True

    def _op_fail_cta(self, op: FaultOp) -> bool:
        cta = self.dep.ctas.get(op.target)
        if cta is None or not cta.up:
            return False
        if self.plan.guard_last_alive:
            alive = [n for n, c in self.dep.ctas.items() if c.up]
            if len(alive) <= 1:
                return False
        self.dep.fail_cta(op.target)
        return True

    def _op_recover_cta(self, op: FaultOp) -> bool:
        cta = self.dep.ctas.get(op.target)
        if cta is None or cta.up:
            return False
        self.dep.recover_cta(op.target)
        return True

    def _op_blackhole(self, op: FaultOp) -> bool:
        link = self.dep.links.get(op.target)
        if link is None or not link.up:
            return False
        link.up = False
        return True

    def _op_restore(self, op: FaultOp) -> bool:
        link = self.dep.links.get(op.target)
        if link is None or link.up:
            return False
        link.up = True
        return True

    def _op_partition(self, op: FaultOp) -> bool:
        groups = op.target.split("|")
        if len(groups) != 2:
            raise ValueError(
                "partition target must be two |-separated groups, got %r" % op.target
            )
        self._partition = (
            frozenset(g for g in groups[0].split(",") if g),
            frozenset(g for g in groups[1].split(",") if g),
        )
        return True

    def _op_heal(self, op: FaultOp) -> bool:
        if self._partition is None:
            return False
        self._partition = None
        return True

    def _op_perturb(self, op: FaultOp) -> bool:
        self._apply_perturbation(op.perturbation)
        return True

    def _op_clear_faults(self, op: FaultOp) -> bool:
        for link in self.dep.links.values():
            link.clear_faults()
        self._partition = None
        return True

    def _apply_perturbation(self, p: LinkPerturbation) -> None:
        link = self.dep.links.get(p.hop)
        if link is None:
            raise KeyError("unknown hop class %r" % (p.hop,))
        link.set_faults(
            drop_p=p.drop_p,
            dup_p=p.dup_p,
            reorder_p=p.reorder_p,
            extra_delay_s=p.extra_delay_s,
            rng=self.rng.stream("link." + p.hop),
            reorder_spread_s=p.reorder_spread_s,
            rto_s=p.rto_s,
            max_retx=p.max_retx,
        )

    # -- reporting ------------------------------------------------------------

    def fault_counters(self) -> Dict[str, int]:
        out = {
            "messages_lost": self.messages_lost,
            "partition_drops": self.partition_drops,
            "ops_applied": self.ops_applied,
            "ops_skipped": self.ops_skipped,
        }
        for name, link in sorted(self.dep.links.items()):
            if link.dropped or link.duplicated or link.reordered or link.retransmits:
                out["link.%s.dropped" % name] = link.dropped
                out["link.%s.duplicated" % name] = link.duplicated
                out["link.%s.reordered" % name] = link.reordered
                out["link.%s.retransmits" % name] = link.retransmits
        return out
