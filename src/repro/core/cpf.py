"""Control Plane Function: the paper's re-architected MME/AMF+SMF.

A CPF (i) stores and updates UE state from UE/BS requests, (ii)
programs sessions on the UPF, (iii) handles registration and mobility,
and (iv) checkpoints UE state to replica CPFs on procedure completion
(§4.1).  Each CPF has one *processing* core (a queued
:class:`~repro.sim.node.Server`) and one dedicated *synchronization*
core, mirroring the paper's two-cores-per-CPF deployment (§5): shipping
checkpoints never steals processing capacity, only the brief state lock
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..messages.registry import CATALOG
from ..sim.core import Event, Simulator
from ..sim.node import NodeFailed, Server
from .state import StateEntry, StateStore, UEState

__all__ = ["CPF", "HandleResult", "SNAPSHOT_WIRE_BYTES"]

#: approximate wire size of a serialized UE state snapshot.
SNAPSHOT_WIRE_BYTES = 1200


class _ShipAbandoned(Exception):
    """Internal: a checkpoint ship leg gave up; carries the span status."""

    def __init__(self, status: str):
        super().__init__(status)
        self.status = status


@dataclass(frozen=True)
class HandleResult:
    """Outcome of the CPF processing one uplink message."""

    status: str  # "ok" | "reattach_required"
    cpf_name: str
    version: int = 0


class CPF:
    """One simulated control plane function instance."""

    def __init__(self, dep, name: str, region: str):
        self.dep = dep
        self.sim: Simulator = dep.sim
        self.config = dep.config
        self.name = name
        self.region = region
        self.server = Server(self.sim, cores=self.config.cpf_cores, name=name)
        self.sync_server = Server(self.sim, cores=1, name=name + ".sync")
        self._handle_name = name + ".handle"
        self.store = StateStore(name)
        self.checkpoints_sent = 0
        self.snapshots_applied = 0
        self.messages_handled = 0
        self.replays_applied = 0

    # -- sizing helpers -------------------------------------------------------

    @property
    def up(self) -> bool:
        return self.server.up

    def _cost(self):
        return self.config.cost_model

    def _codec(self) -> str:
        return self.config.codec

    def message_service_time(
        self, req_msg: str, resp_msg: Optional[str], extra: float = 0.0
    ) -> float:
        """CPU to decode a request, handle it, and encode the response."""
        cost = self._cost()
        service = cost.base_process_s + extra
        service += cost.deserialize_cost(self._codec(), CATALOG.element_count(req_msg))
        if resp_msg is not None:
            service += cost.serialize_cost(self._codec(), CATALOG.element_count(resp_msg))
        if self.config.sync_mode == "per_message":
            service += self.config.per_message_lock_s
        return service

    # -- uplink message handling ----------------------------------------------

    def handle_uplink(
        self,
        ue_id: str,
        msg_name: str,
        clock: int,
        resp_msg: Optional[str] = None,
        creates_state: bool = False,
        reader_version: int = 0,
        extra_service: float = 0.0,
        obs_parent: Optional[Any] = None,
    ) -> Event:
        """Process one logged uplink message for ``ue_id``.

        The returned event fires with a :class:`HandleResult`; it fails
        with :class:`NodeFailed` if this CPF dies first.
        ``reader_version`` is the UE's own count of completed writes,
        used by the consistency auditor to check Read-your-Writes.
        """
        service = self.message_service_time(msg_name, resp_msg, extra_service)
        done = self.sim.event(self._handle_name)
        obs = self.dep.obs
        if obs is not None and obs_parent is not None:
            span = obs.tracer.begin(
                "cpf.handle", parent=obs_parent, phase="cpf",
                node=self.name, msg=msg_name,
            )
        else:
            span = None

        def finish_span(status: str) -> None:
            if span is None:
                return
            # Split queueing from serving: the job spent `service`
            # seconds on a core; everything else was the queue.
            total = self.sim.now - span.start
            wait = max(0.0, total - service)
            obs.tracer.finish(
                span,
                status=status,
                phases=(("cpf_wait", wait), ("cpf_serve", total - wait)),
            )

        def process(_value: Any) -> None:
            self.messages_handled += 1
            if obs is not None:
                obs.metrics.counter("cpf_messages", node=self.name).inc()
            if creates_state:
                entry = self.store.get(ue_id)
                if entry is None or not entry.is_primary:
                    entry = self.store.create(
                        ue_id, self.dep.m_tmsi_of(ue_id), is_primary=True
                    )
            else:
                entry = self.store.get(ue_id)
                if (
                    entry is None
                    or not entry.up_to_date
                    or entry.state.version < reader_version
                ):
                    # §4.2.4(3): no up-to-date state -> force Re-Attach.
                    # The version gate is how "up-to-date" is actually
                    # checked against the request: NAS security counters
                    # reveal a CPF operating behind the UE's last
                    # completed write, closing repair/checkpoint races.
                    self.dep.auditor.record_reattach_forced(ue_id, self.name)
                    finish_span("reattach_required")
                    done.succeed(HandleResult("reattach_required", self.name))
                    return
                entry.is_primary = True
            self.dep.auditor.record_serve(
                ue_id, reader_version, entry.state.version, self.name, span=span
            )
            entry.state.apply_message()
            entry.synced_clock = max(entry.synced_clock, clock)
            if self.config.sync_mode == "per_message":
                self._checkpoint(ue_id, clock, obs_parent=span)
            finish_span("ok")
            done.succeed(HandleResult("ok", self.name, entry.state.version))

        def _on_job(ev: Event) -> None:
            if ev.ok:
                process(ev.value)
            elif not done.fired:
                finish_span("failed")
                done.fail(NodeFailed(self.name))

        job = self.server.submit(service)
        job.add_callback(_on_job)
        return done

    def peer_service_time(self, req_msg: str, resp_msg: Optional[str]) -> float:
        """CPU for a CPF<->CPF exchange leg (handover migration)."""
        return self.message_service_time(req_msg, resp_msg)

    def handle_peer(self, service: float) -> Event:
        """Inter-CPF work (migration target, state fetch) on the core."""
        return self.server.submit(service)

    # -- procedure boundaries ----------------------------------------------------

    def complete_procedure(
        self, ue_id: str, proc_name: str, last_clock: int,
        obs_parent: Optional[Any] = None,
    ) -> List[str]:
        """Commit the procedure and (maybe) checkpoint; returns replicas.

        Called by the UE driver after the final message of a procedure
        was processed here.  The list of replica names is what the CTA
        records ACK expectations against.
        """
        entry = self.store.get(ue_id)
        if entry is None:
            return []
        entry.state.complete_procedure(proc_name)
        entry.synced_clock = max(entry.synced_clock, last_clock)
        if self.config.sync_mode == "per_procedure":
            return self._checkpoint(ue_id, last_clock, obs_parent=obs_parent)
        if self.config.sync_mode == "on_idle" and not entry.state.active:
            return self._checkpoint(ue_id, last_clock, obs_parent=obs_parent)
        if self.config.sync_mode == "per_message":
            return self.dep.replicas_of(ue_id)
        return []

    # -- replication (primary side) ------------------------------------------------

    def _checkpoint(
        self, ue_id: str, last_clock: int, obs_parent: Optional[Any] = None
    ) -> List[str]:
        """Asynchronously ship a state snapshot to the backups (§4.2.2).

        Non-blocking: the snapshot is taken now (after the lock cost,
        charged to the message that triggered this) and shipped by the
        sync core; the primary continues immediately.
        """
        entry = self.store.get(ue_id)
        if entry is None:
            return []
        if self.config.broadcast_replication:
            replicas = [c for c in self.dep.cpf_names() if c != self.name]
        else:
            replicas = [r for r in self.dep.replicas_of(ue_id) if r != self.name]
        if not replicas:
            return []
        snapshot = entry.state.copy()
        self.checkpoints_sent += 1
        obs = self.dep.obs
        for replica_name in replicas:
            if obs is not None and obs_parent is not None:
                span = obs.tracer.begin(
                    "checkpoint.ship", parent=obs_parent, phase="checkpoint",
                    node=self.name, replica=replica_name,
                )
            else:
                span = None
            self.sim.process(
                self._ship(ue_id, snapshot, last_clock, replica_name, span=span),
                name="%s.ship.%s" % (self.name, ue_id),
            )
        return replicas

    def _ship(
        self,
        ue_id: str,
        snapshot: UEState,
        last_clock: int,
        replica_name: str,
        span: Optional[Any] = None,
    ):
        status = "lost"
        try:
            yield from self._ship_inner(ue_id, snapshot, last_clock, replica_name, span)
            status = "acked"
        except _ShipAbandoned as stop:
            status = stop.status
        finally:
            if span is not None:
                self.dep.obs.tracer.finish(span, status=status)

    def _ship_inner(self, ue_id, snapshot, last_clock, replica_name, span):
        cost = self._cost()
        serialize = cost.serialize_cost(self._codec(), 16)  # snapshot encode
        try:
            yield self.sync_server.submit(serialize)
        except NodeFailed:
            # we died mid-checkpoint; backups stay stale (scenario 2/3)
            raise _ShipAbandoned("primary_died")
        hop = self.dep.cpf_hop(self.name, replica_name)
        try:
            yield self.dep.hop(
                hop, SNAPSHOT_WIRE_BYTES, src=self.name, dst=replica_name, parent=span
            )
        except NodeFailed:
            # checkpoint lost in transit; ACK never arrives -> §4.2.4
            raise _ShipAbandoned("lost")
        replica = self.dep.cpfs.get(replica_name)
        if replica is None or not replica.up:
            # replica down; its ACK never arrives -> §4.2.4 timeout
            raise _ShipAbandoned("replica_down")
        applied = yield from replica.apply_snapshot(ue_id, snapshot, last_clock)
        if not applied:
            raise _ShipAbandoned("replica_died")
        # ACK back to the UE's CTA (§4.2.3 step 3).
        cta = self.dep.cta_of(ue_id)
        try:
            yield self.dep.hop(
                "cta_cpf", 64, src=replica_name, dst=cta.name if cta else None,
                parent=span,
            )
        except NodeFailed:
            # lost ACK looks like a laggard replica; scan repairs it
            raise _ShipAbandoned("ack_lost")
        if cta is not None and cta.up:
            cta.log.ack(ue_id, last_clock, replica_name)

    # -- replication (replica side) ---------------------------------------------

    def apply_snapshot(self, ue_id: str, snapshot: UEState, last_clock: int):
        """Apply a received checkpoint on the sync core; yields sim events."""
        try:
            yield self.sync_server.submit(self.config.replica_apply_s)
        except NodeFailed:
            return False
        self.store.install_snapshot(ue_id, snapshot, last_clock)
        self.snapshots_applied += 1
        return True

    def replay_message(self, ue_id: str, msg_name: str, clock: int) -> Event:
        """Re-execute one logged message during recovery (§4.2.5, S2).

        Replay consumes the same decode+handle CPU as the original on
        the *processing* core of the promoted backup.
        """
        cost = self._cost()
        service = cost.base_process_s + cost.deserialize_cost(
            self._codec(), CATALOG.element_count(msg_name)
        )
        done = self.server.submit(service)

        def apply(ev: Event) -> None:
            if not ev.ok:
                return
            entry = self.store.get(ue_id)
            if entry is None:
                entry = self.store.create(ue_id, self.dep.m_tmsi_of(ue_id), is_primary=False)
            entry.state.apply_message()
            entry.synced_clock = max(entry.synced_clock, clock)
            self.replays_applied += 1

        done.add_callback(apply)
        return done

    # -- repair (outdated replicas fetching state, §4.2.4(1c)) ----------------------

    def fetch_state_from(self, ue_id: str, source_name: str):
        """Process: pull an up-to-date copy of ``ue_id`` from ``source_name``."""
        source = self.dep.cpfs.get(source_name)
        if source is None or not source.up:
            return False
        hop = self.dep.cpf_hop(self.name, source_name)
        try:
            yield self.dep.hop(hop, 64, src=self.name, dst=source_name)  # request
        except NodeFailed:
            return False
        entry = source.store.get(ue_id)
        if entry is None or not entry.up_to_date:
            return False
        snapshot = entry.state.copy()
        clock = entry.synced_clock
        try:
            yield self.dep.hop(hop, SNAPSHOT_WIRE_BYTES, src=source_name, dst=self.name)
        except NodeFailed:
            return False
        if not self.up:
            return False
        applied = yield from self.apply_snapshot(ue_id, snapshot, clock)
        return applied

    # -- failure injection ----------------------------------------------------------

    def fail(self) -> None:
        """Crash: lose all state and queued work."""
        self.server.fail()
        self.sync_server.fail()
        self.store.clear()

    def recover(self) -> None:
        """Restart with empty state (a real NF restart)."""
        self.server.recover()
        self.sync_server.recover()
