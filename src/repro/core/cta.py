"""Control Traffic Aggregator: Neutrino's new front-end node (§4.1-4.2).

The CTA (i) stamps and logs every uplink control message, (ii) load-
balances UEs onto CPFs with consistent hashing, (iii) routes responses
back, and (iv) drives failure detection and the recovery protocol: on a
primary CPF failure it either promotes an up-to-date backup (replaying
logged messages first if the backup missed part of an ongoing
procedure) or tells the UE to Re-Attach (§4.2.5).

A periodic scan implements §4.2.4: procedures whose replica ACKs are
missing past the timeout cause the laggard replicas to be marked
*outdated* and handed the list of up-to-date CPFs to repair from, after
which the log entries are dropped.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..sim.core import Event, Simulator
from ..sim.node import NodeFailed, Server
from .log import LogicalClock, MessageLog
from .program import cta_ingest_time

__all__ = ["CTA", "FailoverPlan"]


class FailoverPlan:
    """Outcome of the CTA's recovery decision for one UE."""

    __slots__ = ("action", "new_primary", "replayed")

    def __init__(self, action: str, new_primary: Optional[str], replayed: int = 0):
        if action not in ("resume", "reattach"):
            raise ValueError("unknown failover action %r" % action)
        self.action = action
        self.new_primary = new_primary
        self.replayed = replayed

    def __repr__(self) -> str:
        return "FailoverPlan(%s -> %s, replayed=%d)" % (
            self.action,
            self.new_primary,
            self.replayed,
        )


class CTA:
    """One control traffic aggregator serving a level-1 region."""

    def __init__(self, dep, name: str, region: str):
        self.dep = dep
        self.sim: Simulator = dep.sim
        self.config = dep.config
        self.name = name
        self.region = region
        self.server = Server(self.sim, cores=1, name=name)
        self.clock = LogicalClock()
        self.log = MessageLog(lambda: self.sim.now, enabled=self.config.message_logging)
        self.failovers = 0
        self.reattaches_ordered = 0
        self.outdated_marked = 0
        #: lazy scan timer: armed only while un-ACKed procedure records
        #: exist, so an idle deployment's event heap drains completely.
        self._scan_armed = False
        self.failures_detected = 0
        self._hb_miss_counts: dict = {}
        if self.config.heartbeat_interval_s > 0:
            self.sim.process(self._heartbeat_loop(), name=name + ".hb")

    @property
    def up(self) -> bool:
        return self.server.up

    # -- uplink path ------------------------------------------------------------

    def log_uplink(self, ue_id: str, msg_name: str, size_bytes: int) -> int:
        """Stamp and log one uplink message (§4.2.3 step 1), event-free.

        Returns the assigned logical clock.  Clocks are monotone per UE
        (the CTA only needs per-UE ordering), so a UE's clock domain
        survives CTA handovers.  The discrete path calls this as the
        message enters the CTA's queue, the batched lane at the same
        analytic instant — which is why the obs counters sit here and
        not in :meth:`ingest`.
        """
        clock = self.dep.next_clock(ue_id)
        self.clock.tick()
        self.log.append(clock, ue_id, msg_name, size_bytes)
        obs = self.dep.obs
        if obs is not None:
            obs.metrics.counter("cta_messages", node=self.name).inc()
            obs.metrics.gauge("cta_log_bytes", node=self.name).set(self.log.size_bytes)
        return clock

    def ingest(self, ue_id: str, msg_name: str, size_bytes: int) -> Event:
        """:meth:`log_uplink`, then queue the forwarding work.

        Returns an event whose value is the assigned logical clock; it
        fails with :class:`NodeFailed` if this CTA is down.
        """
        if not self.up:
            ev = self.sim.event(self.name + ".ingest")
            ev.fail(NodeFailed(self.name))
            return ev
        clock = self.log_uplink(ue_id, msg_name, size_bytes)
        return self.server.submit(cta_ingest_time(self.config), value=clock)

    def respond(self) -> Event:
        """Forwarding cost for routing a downlink response back to the BS."""
        if not self.up:
            ev = self.sim.event(self.name + ".respond")
            ev.fail(NodeFailed(self.name))
            return ev
        return self.server.submit(self.config.cta_forward_s)

    # -- recovery (§4.2.5) -----------------------------------------------------------

    def failover(self, ue_id: str, obs_parent=None) -> Generator:
        """Recovery decision process; returns a :class:`FailoverPlan`.

        Detection time is not modeled (the paper excludes it from PCT,
        §6.4); the decision + replay costs are.
        """
        self.failovers += 1
        if self.config.recovery == "replay":
            plan = yield from self._try_promote(ue_id, obs_parent=obs_parent)
            if plan is not None:
                return plan
        # Scenario 3 (or EPC policy): Re-Attach through a fresh primary.
        self.reattaches_ordered += 1
        new_primary = self.dep.pick_fresh_primary(ue_id)
        self.dep.reset_placement(ue_id, new_primary)
        return FailoverPlan("reattach", new_primary)

    def _try_promote(self, ue_id: str, obs_parent=None) -> Generator:
        """Scenarios 1 & 2: find a synced backup, replay the log tail."""
        obs = self.dep.obs
        for backup_name in self.dep.replicas_of(ue_id):
            backup = self.dep.cpfs.get(backup_name)
            if backup is None or not backup.up:
                continue
            entry = backup.store.current(ue_id)
            if entry is None:
                continue
            # Replay every logged message newer than the backup's
            # synced clock (empty for scenario 1).
            pending = self.log.entries_after(ue_id, entry.synced_clock)
            replayed = 0
            for log_entry in pending:
                if obs is not None and obs_parent is not None:
                    rspan = obs.tracer.begin(
                        "cta.replay", parent=obs_parent, phase="recovery",
                        node=backup_name, msg=log_entry.msg_name,
                    )
                else:
                    rspan = None
                try:
                    yield self.dep.hop(
                        self.dep.cpf_hop_from_cta(self.region, backup_name),
                        log_entry.size_bytes,
                        src=self.name,
                        dst=backup_name,
                        parent=rspan,
                    )
                    yield backup.replay_message(ue_id, log_entry.msg_name, log_entry.clock)
                except NodeFailed:
                    if rspan is not None:
                        obs.tracer.finish(rspan, status="failed")
                    break  # backup died (or replay msg lost); try the next one
                if rspan is not None:
                    obs.tracer.finish(rspan, status="ok")
                replayed += 1
            else:
                entry = backup.store.get(ue_id)
                if entry is not None:
                    entry.is_primary = True
                self.dep.promote(ue_id, backup_name)
                self.dep.auditor.record_failover_masked(ue_id, replayed)
                return FailoverPlan("resume", backup_name, replayed)
        return None

    # -- §4.2.4 scan: outdated marking, repair hints, pruning ------------------------

    def procedure_completed(self, ue_id: str, last_clock: int, replicas) -> None:
        """Record the checkpoint boundary and arm the periodic scan."""
        self.log.procedure_completed(ue_id, last_clock, replicas)
        self._arm_scan()

    def _arm_scan(self) -> None:
        if self._scan_armed or not self.log.pending_records():
            return
        self._scan_armed = True
        self.sim.schedule(self.config.log_scan_interval_s, self._scan_tick)

    def _scan_tick(self) -> None:
        self._scan_armed = False
        if not self.up:
            return
        self._scan_once()
        self._arm_scan()  # re-arm while records remain

    def _scan_once(self) -> None:
        cutoff = self.sim.now - self.config.ack_timeout_s
        for record in self.log.stale_records(older_than=cutoff):
            self._mark_outdated(record)

    def flag_concurrent_procedure(self, ue_id: str) -> None:
        """§4.2.4(4): a second procedure starts while ACKs are missing."""
        for record in self.log.unacked_for(ue_id):
            self._mark_outdated(record)

    def _mark_outdated(self, record) -> None:
        up_to_date_sources: List[str] = []
        primary = self.dep.primary_of(ue_id=record.ue_id)
        if primary is not None:
            up_to_date_sources.append(primary)
        for replica_name in record.replicas:
            if replica_name in record.acked:
                up_to_date_sources.append(replica_name)
        for replica_name in record.missing():
            replica = self.dep.cpfs.get(replica_name)
            if replica is None or not replica.up:
                continue
            replica.store.mark_outdated(record.ue_id)
            self.outdated_marked += 1
            if up_to_date_sources:
                self.sim.process(
                    self._repair(replica, record.ue_id, list(up_to_date_sources)),
                    name=self.name + ".repair",
                )
        # §4.2.4(1d): drop the procedure's messages either way.
        self.log.drop_procedure(record.ue_id, record.last_clock)

    @staticmethod
    def _repair(replica, ue_id: str, sources: List[str]) -> Generator:
        """§4.2.4(1c): the replica fetches state from an up-to-date CPF."""
        for source in sources:
            ok = yield from replica.fetch_state_from(ue_id, source)
            if ok:
                return

    # -- proactive failure detection (§4.1) ------------------------------------------

    def _heartbeat_loop(self) -> Generator:
        """Ping the region's CPFs; declare them failed after k misses.

        On detection, every UE whose primary was the dead CPF is failed
        over *proactively* — a synced backup is promoted (with log
        replay) before the UE's next request ever bounces.
        """
        interval = float(self.config.heartbeat_interval_s)
        declared: set = set()
        while True:
            yield interval
            if not self.up:
                continue
            # Re-read membership every tick: ring churn can grow, shrink,
            # or retire this region mid-run.
            region = self.dep.region_map.regions.get(self.region)
            if region is None:
                return  # region retired; the loop winds down with it
            for name in region.cpfs:
                cpf = self.dep.cpfs.get(name)
                if cpf is None:
                    continue
                if cpf.up:
                    self._hb_miss_counts[name] = 0
                    declared.discard(name)
                    continue
                misses = self._hb_miss_counts.get(name, 0) + 1
                self._hb_miss_counts[name] = misses
                if misses >= self.config.heartbeat_misses and name not in declared:
                    declared.add(name)
                    self.failures_detected += 1
                    self._proactive_failover(name)

    def _proactive_failover(self, dead_cpf: str) -> None:
        for ue_id, placement in list(self.dep.placements_items()):
            if placement.primary != dead_cpf:
                continue
            self.sim.process(
                self._proactive_failover_one(ue_id), name=self.name + ".pfo"
            )

    def _proactive_failover_one(self, ue_id: str) -> Generator:
        ue = self.dep._ues.get(ue_id)
        if ue is not None and ue.busy:
            return  # its own in-flight recovery owns the failover
        yield from self.failover(ue_id)

    # -- failure injection --------------------------------------------------------

    def fail(self) -> None:
        """Crash the CTA: clock, log, and mapping are volatile (§4.2.5 S4)."""
        self.server.fail()
        self.log = MessageLog(lambda: self.sim.now, enabled=self.config.message_logging)
        self.clock = LogicalClock()

    def recover(self) -> None:
        self.server.recover()
