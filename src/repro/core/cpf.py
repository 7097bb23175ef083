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

from ..sim.core import Event, Simulator
from ..sim.node import NodeFailed, Server
from .program import SNAPSHOT_WIRE_BYTES, replay_time, snapshot_encode_time
from .state import StateStore, UEState

__all__ = ["CPF", "HandleResult", "SNAPSHOT_WIRE_BYTES", "handle_phases"]


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


def handle_phases(total: float, service: float):
    """Fold of one ``cpf.handle`` span: queueing split from serving.

    The job spent ``service`` seconds on a core; everything else of the
    ``total`` seconds between submit and completion was the queue.
    """
    wait = max(0.0, total - service)
    return ("cpf_wait", wait), ("cpf_serve", total - wait)


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
        #: sync-core CPU to serialize one snapshot for shipping.
        self.snapshot_encode_s = snapshot_encode_time(self.config)
        self.store = StateStore(name)
        self.checkpoints_sent = 0
        self.snapshots_applied = 0
        self.messages_handled = 0
        self.replays_applied = 0

    @property
    def up(self) -> bool:
        return self.server.up

    # -- uplink message handling ----------------------------------------------

    def serve(
        self,
        ue_id: str,
        reader_version: int,
        clock: int,
        creates_state: bool,
        span: Optional[Any] = None,
    ) -> Optional[int]:
        """Serve one logged uplink message — only from up-to-date state.

        §4.2.4(3), synchronous and event-free: the discrete path calls
        it when the processing core finishes the message's job, the
        batched lane at the job's analytic instant (so the message is
        counted here for obs, under either).  Returns the write
        version served, or ``None`` when the UE must Re-Attach.
        ``reader_version`` is the UE's own count of completed writes,
        which the consistency auditor checks Read-your-Writes against.
        """
        self.messages_handled += 1
        obs = self.dep.obs
        if obs is not None:
            obs.metrics.counter("cpf_messages", node=self.name).inc()
        entry = self.store.get(ue_id)
        if creates_state:
            if entry is None or not entry.is_primary:
                entry = self.store.create(
                    ue_id, self.dep.m_tmsi_of(ue_id), is_primary=True
                )
        else:
            if (
                entry is None
                or not entry.up_to_date
                or entry.state.version < reader_version
            ):
                # No up-to-date state -> force Re-Attach.  The version
                # gate is how "up-to-date" is actually checked against
                # the request: NAS security counters reveal a CPF
                # operating behind the UE's last completed write,
                # closing repair/checkpoint races.
                self.dep.auditor.record_reattach_forced(ue_id, self.name)
                return None
            entry.is_primary = True
        self.dep.auditor.record_serve(
            ue_id, reader_version, entry.state.version, self.name, span=span
        )
        entry.state.apply_message()
        entry.synced_clock = max(entry.synced_clock, clock)
        return entry.state.version

    def handle_uplink(
        self,
        ue_id: str,
        msg_name: str,
        clock: int,
        service: float,
        creates_state: bool = False,
        reader_version: int = 0,
        obs_parent: Optional[Any] = None,
    ) -> Event:
        """Queue one logged uplink message for ``service`` CPU seconds.

        The returned event fires with a :class:`HandleResult` once
        :meth:`serve` ran; it fails with :class:`NodeFailed` if this CPF
        dies first.
        """
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
            if span is not None:
                obs.tracer.finish(
                    span,
                    status=status,
                    phases=handle_phases(self.sim.now - span.start, service),
                )

        def _on_job(ev: Event) -> None:
            if not ev.ok:
                if not done.fired:
                    finish_span("failed")
                    done.fail(NodeFailed(self.name))
                return
            version = self.serve(ue_id, reader_version, clock, creates_state, span)
            if version is None:
                finish_span("reattach_required")
                done.succeed(HandleResult("reattach_required", self.name))
                return
            if self.config.sync_mode == "per_message":
                replicas, snapshot = self._take_checkpoint(ue_id)
                self._ship_all(ue_id, snapshot, clock, replicas, span)
            finish_span("ok")
            done.succeed(HandleResult("ok", self.name, version))

        job = self.server.submit(service)
        job.add_callback(_on_job)
        return done

    def handle_peer(self, service: float) -> Event:
        """Inter-CPF work (migration target, state fetch) on the core."""
        return self.server.submit(service)

    # -- procedure boundaries ----------------------------------------------------

    def commit(
        self, ue_id: str, proc_name: str, last_clock: int
    ) -> Tuple[List[str], Optional[UEState]]:
        """Commit a finished procedure (§4.2.3 step 2), event-free.

        Bumps the write version, syncs the entry through ``last_clock``
        and, where the sync mode checkpoints here, snapshots the state.
        Returns ``(replicas, snapshot)``: the replica names the CTA
        records ACK expectations against, and the snapshot to ship to
        them (``None`` when nothing ships now).
        """
        entry = self.store.get(ue_id)
        if entry is None:
            return [], None
        entry.state.complete_procedure(proc_name)
        entry.synced_clock = max(entry.synced_clock, last_clock)
        mode = self.config.sync_mode
        if mode == "per_procedure" or (mode == "on_idle" and not entry.state.active):
            return self._take_checkpoint(ue_id)
        if mode == "per_message":
            return self.dep.replicas_of(ue_id), None
        return [], None

    def complete_procedure(
        self, ue_id: str, proc_name: str, last_clock: int,
        obs_parent: Optional[Any] = None,
    ) -> List[str]:
        """:meth:`commit`, then ship the checkpoint; returns the replicas.

        Called by the UE driver after the final message of a procedure
        was processed here.
        """
        replicas, snapshot = self.commit(ue_id, proc_name, last_clock)
        self._ship_all(ue_id, snapshot, last_clock, replicas, obs_parent)
        return replicas

    # -- replication (primary side) ------------------------------------------------

    def _take_checkpoint(self, ue_id: str) -> Tuple[List[str], Optional[UEState]]:
        """The replica set and a snapshot of ``ue_id``'s state (§4.2.2)."""
        entry = self.store.get(ue_id)
        if entry is None:
            return [], None
        if self.config.broadcast_replication:
            replicas = [c for c in self.dep.cpf_names() if c != self.name]
        else:
            replicas = [r for r in self.dep.replicas_of(ue_id) if r != self.name]
        if not replicas:
            return [], None
        self.checkpoints_sent += 1
        return replicas, entry.state.copy()

    def _ship_all(self, ue_id, snapshot, last_clock, replicas, obs_parent) -> None:
        """Ship ``snapshot`` (if one was taken) to every replica.

        Non-blocking: the snapshot was taken after the lock cost
        (charged to the message that triggered this) and is shipped by
        the sync core; the primary continues immediately.
        """
        if snapshot is None:
            return
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
        try:
            yield self.sync_server.submit(self.snapshot_encode_s)
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
        self.install_checkpoint(ue_id, snapshot, last_clock)
        return True

    def install_checkpoint(self, ue_id: str, snapshot: UEState, clock: int) -> None:
        """Adopt a shipped or fetched snapshot (§4.2.3 step 3), event-free.

        The store ignores a snapshot older than the copy it holds.
        """
        self.store.install_snapshot(ue_id, snapshot, clock)
        self.snapshots_applied += 1

    def replay_message(self, ue_id: str, msg_name: str, clock: int) -> Event:
        """Re-execute one logged message during recovery (§4.2.5, S2).

        Replay consumes the same decode+handle CPU as the original on
        the *processing* core of the promoted backup.
        """
        done = self.server.submit(replay_time(self.config, msg_name))

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
