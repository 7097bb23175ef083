"""The UE driver: executes control procedures end to end.

Each procedure run is a simulated process that walks the procedure's
compiled legs (:mod:`repro.core.program`) through the real component
chain — one generator frame, :meth:`UE.execute` — measuring the
procedure completion time (PCT) the way the paper's traffic generator
does: at the UE, from first request until the ``"pct"`` leg.

A server leg is a booking: the interpreter books the job on the
component's :class:`~repro.sim.node.Server` and yields it, and the
component's event-free rule (``CTA.log_uplink`` at the submit instant,
``CPF.handled`` and ``UPF.apply`` on the completion wake) runs in this
frame.  A run of pure delays — hops and the BS's radio legs — is one
wake at the run's end.

Failure handling follows §4.2.5: if the serving CPF dies mid-procedure
the UE asks the CTA for a recovery plan; a ``resume`` plan (scenarios
1/2) retries the interrupted step at the promoted, log-replayed backup;
a ``reattach`` plan (scenario 3, or the EPC's only option) runs the
Re-Attach procedure and — matching the paper's accounting (§6.4) — ends
the failed procedure's PCT when the Re-Attach completes.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Generator, Optional

from ..sim.core import Instant, Simulator
from ..sim.node import NodeFailed
from .program import REATTACH, leg_span

__all__ = ["UE", "ProcedureOutcome", "ProcedureAborted"]

_MAX_RECOVERIES = 8

#: reusable no-op context manager (nullcontext is stateless/reentrant):
#: the whole per-span cost when observability is disabled.
_NULL_SPAN = nullcontext()

#: leg kinds that only take time; a run of them is one wake.
_DELAYS = frozenset(("hop", "bs.uplink", "bs.downlink"))


def _leg_span(tracer, root, leg, actor):
    """The span bracketing timed ``leg`` performed by ``actor``.

    Parenting is explicit (never an ambient stack): sim processes
    interleave at every yield, so only the procedure's own root may
    adopt its spans.  Untraced, the shared nullcontext.
    """
    if root is None:
        return _NULL_SPAN
    phase, attrs = leg_span(leg, actor.name)
    return tracer.span(leg.kind, root, phase, **attrs)


class ProcedureAborted(Exception):
    """A procedure could not complete (e.g. repeated total failures)."""


class ProcedureOutcome:
    """What happened to one procedure run."""

    __slots__ = (
        "name",
        "pct",
        "completed",
        "recovered",
        "reattached",
        "started_at",
        "ue_id",
    )

    def __init__(self, name: str, started_at: float, ue_id: str = ""):
        self.name = name
        self.started_at = started_at
        self.ue_id = ue_id
        self.pct: Optional[float] = None
        self.completed = False
        self.recovered = False
        self.reattached = False


class UE:
    """One user equipment with its EMM-style client state."""

    def __init__(self, dep, ue_id: str, bs_name: str):
        self.dep = dep
        self.sim: Simulator = dep.sim
        self.ue_id = ue_id
        self.bs_name = bs_name
        self.attached = False
        #: the UE's own count of completed writes (RYW reader version).
        self.completed_version = 0
        self.busy = False
        #: root span of the procedure currently running (obs enabled only).
        self._obs_root = None

    # ------------------------------------------------------------------ api

    def execute(
        self,
        proc_name: str,
        target_bs: Optional[str] = None,
        outcome: Optional[ProcedureOutcome] = None,
    ) -> Generator:
        """Run one procedure (generator; spawn with ``sim.process``).

        Returns the :class:`ProcedureOutcome`.  ``target_bs`` is required
        for procedures that change CPF; with one, the UE ends on it.
        """
        dep = self.dep
        sim = self.sim
        program = dep.program_of(proc_name)
        if program.changes_cpf and target_bs is None:
            raise ValueError("%s needs a target_bs" % proc_name)
        if outcome is None:
            outcome = ProcedureOutcome(proc_name, self.sim.now, self.ue_id)
        self.busy = True
        ue_id = self.ue_id
        creates = program.creates
        obs = dep.obs
        tracer = root = None
        if obs is not None:
            # A nested Re-Attach (its own execute() call) parents under
            # the failed procedure's root, so the recovery shows up
            # inside the timeline that paid for it.
            tracer, prev_root = obs.tracer, self._obs_root
            root = tracer.begin(
                "proc." + proc_name, parent=prev_root, proc=proc_name, ue=ue_id
            )
            self._obs_root = root
        dpcm = dep.config.dpcm_mode
        last_clock = clock = recoveries = 0
        migrated_to: Optional[str] = None
        try:
            dep.ensure_placement(ue_id, dep.bss[self.bs_name].region)
            cta = dep.cta_of(ue_id)
            if cta is not None and cta.up and creates is None:
                cta.flag_concurrent_procedure(ue_id)  # §4.2.4(4)
            steps = program.steps
            step_idx = 0
            while step_idx < len(steps):
                step = steps[step_idx]
                legs = program.legs[step_idx]
                try:
                    if step.kind == "cpf_cpf":
                        # State migration to the target region's CPF,
                        # negotiated now (discrete only: never steady).
                        src_name = dep.primary_of(ue_id)
                        if src_name is None:
                            raise NodeFailed("cpf:none-alive")
                        src = dep.cpfs[src_name]
                        tgt_region = dep.bss[target_bs].region
                        tgt_name = dep.region_map.primary_for(ue_id, tgt_region)
                        tgt = dep.cpfs[tgt_name]
                        if not tgt.up:
                            alive = [
                                c for c in dep.region_map.region(tgt_region).cpfs
                                if dep.cpfs[c].up
                            ]
                            if not alive:
                                raise NodeFailed("cpf:" + tgt_region)
                            tgt_name, tgt = alive[0], dep.cpfs[alive[0]]
                        hop = dep.cpf_hop(src_name, tgt_name)
                        with _NULL_SPAN if root is None else tracer.span(
                            "cpf.migrate", root, "migrate", src=src_name, dst=tgt_name
                        ):
                            # source: snapshot + encode the relocation request
                            yield src.server.book(step.cpf_serve)
                            entry = src.store.current(ue_id)
                            if entry is None:
                                raise NodeFailed(src_name)
                            snapshot, synced = entry.snapshot(), entry.synced_clock
                            yield dep.hop(hop, step.req_size, parent=root)
                            # target: decode, install, encode the ack
                            yield tgt.server.book(step.tgt_serve)
                            tgt.store.install_snapshot(ue_id, snapshot, synced)
                            yield dep.hop(hop, step.resp_size, parent=root)
                            yield src.server.book(step.cpf_decode)
                        migrated_to = tgt_name
                    else:
                        at_target = step.at_target and target_bs is not None
                        if at_target and migrated_to is None and program.finds_target:
                            # Fast Handover (§4.3): the proactive level-2
                            # replica if its state is at least as new as
                            # the UE's last write, else a current copy
                            # fetched intra-level-2; if none is reachable,
                            # NodeFailed hands over to recovery (§4.2.5).
                            written = self.completed_version
                            tgt_name, fetch_from = dep.fast_target(
                                ue_id, dep.bss[target_bs].region, min_version=written
                            )
                            if fetch_from is not None:
                                tgt = dep.cpfs[tgt_name]
                                with _NULL_SPAN if root is None else tracer.span(
                                    "cpf.fetch", root, "migrate",
                                    src=fetch_from, dst=tgt_name,
                                ):
                                    yield from tgt.fetch_state_from(ue_id, fetch_from)
                                entry = tgt.store.get(ue_id)
                                if entry is None or entry.version < written:
                                    raise NodeFailed(tgt_name)
                            migrated_to = tgt_name
                        bs = dep.bss[target_bs if at_target else self.bs_name]
                        cpf_name = (at_target and migrated_to) or dep.primary_of(ue_id)
                        # The *serving* CTA (the one holding the UE's log)
                        # handles every message, target-side ones too,
                        # until the placement switches at completion.
                        cta = dep.cta_of(ue_id) or dep.cta_for_region(bs.region)
                        if cta is None or not cta.up:
                            raise NodeFailed("cta:" + bs.region)
                        if cpf_name is None:
                            raise NodeFailed("cpf:none-alive")
                        cpf = dep.cpfs[cpf_name]
                        if dpcm and step.kind == "cpf_upf" and not step.ends_pct:
                            # DPCM programs the user plane in parallel with
                            # the rest of the procedure (device-side state,
                            # §6.2).
                            dep.sim.process(
                                self._detached(legs, bs, cpf, tracer, root),
                                name="%s.dpcm_upf" % ue_id,
                            )
                            legs = ()
                    i, n = 0, len(legs)
                    while i < n:
                        leg = legs[i]
                        i += 1
                        kind = leg.kind
                        if kind in _DELAYS:
                            # One wake at the end of the run.  Its first
                            # hop is sent now; a later one joins only when
                            # its fate is already decided, and goes out
                            # ahead, stamped with its own send instant.
                            t, first, lost = sim.now, i, None
                            while True:
                                if kind != "hop":
                                    if kind == "bs.uplink":
                                        bs.uplink_messages += 1
                                    else:
                                        bs.downlink_messages += 1
                                    if root is not None:
                                        phase, attrs = leg_span(leg, bs.name)
                                        tracer.record(
                                            kind, root, phase, t, t + leg.price,
                                            "ok", attrs,
                                        )
                                    t += leg.price
                                elif i == first:
                                    wait = dep.hop(leg.link, leg.size, parent=root)
                                    if type(wait) is not float:
                                        lost = wait  # NodeFailed at the yield
                                        break
                                    t += wait
                                elif dep.hop_decided(leg.link, t):
                                    t += dep.hop(leg.link, leg.size, parent=root, at=t)
                                else:
                                    i -= 1  # sent on its own, after the wake
                                    break
                                if i == n or legs[i].kind not in _DELAYS:
                                    break
                                leg = legs[i]
                                i += 1
                                kind = leg.kind
                            yield Instant(t) if lost is None else lost
                            continue
                        if kind == "cpf.handle":
                            # The UE acts on the serve's outcome, ok or
                            # failed, one step after the job ends: where
                            # CPF.handle_uplink's own event put it.
                            span = None if root is None else cpf.begin_handle(
                                leg.msg, root
                            )
                            try:
                                yield cpf.server.book(leg.price)
                            except NodeFailed:
                                cpf.finish_handle(span, "failed", leg.price)
                                yield 0.0
                                raise
                            version = cpf.handled(
                                ue_id,
                                0 if creates is not None else self.completed_version,
                                clock, step_idx == creates, leg.price, span,
                            )
                            yield 0.0
                            if version is None:
                                # §4.2.4(3): treat like a primary loss — the
                                # CTA routes recovery (a synced backup or a
                                # Re-Attach).
                                raise NodeFailed(cpf.name)
                            continue
                        if kind == "pct":
                            self._mark_pct(outcome)
                            continue
                        if kind == "cta.ingest":
                            actor = cta
                            stamp = (
                                cta.log_uplink(ue_id, leg.msg, leg.size)
                                if cta.up else 0
                            )
                            job = cta.server.book(leg.price)
                        elif kind == "cta.respond":
                            actor, job = cta, cta.server.book(leg.price)
                        elif kind == "upf.program":
                            actor = dep.upf_for_region(bs.region)
                            job = actor.server.book(actor.service_s)
                        else:  # "cpf.encode", "cpf.decode"
                            actor, job = cpf, cpf.server.book(leg.price)
                        if root is None:
                            yield job
                        else:
                            with _leg_span(tracer, root, leg, actor):
                                yield job
                        if kind == "cta.ingest":
                            clock = stamp
                            if clock > last_clock:
                                last_clock = clock
                        elif kind == "upf.program":
                            actor.apply(leg.msg, ue_id, bs.name)
                except NodeFailed:
                    recoveries += 1
                    if recoveries > _MAX_RECOVERIES:
                        raise ProcedureAborted(
                            "%s for %s failed %d times" % (proc_name, ue_id, recoveries)
                        )
                    outcome.recovered = True
                    if (yield from self._recover(outcome)):
                        return outcome  # the Re-Attach ended this procedure
                    migrated_to = None
                    continue  # retry the same step at the promoted backup
                if step_idx == creates:
                    self.attached = True  # the CPF holds fresh state now
                step_idx += 1

            # Completed: switch placement first for CPF-changing
            # procedures (so the checkpoint targets the *new* backups and
            # the ACKs land at the new CTA), then commit state and
            # checkpoint (§4.2.3 steps 2-4).
            serving = dep.cpfs.get(migrated_to or dep.primary_of(ue_id))
            if target_bs is not None:
                if program.changes_cpf:
                    dep.switch_region(ue_id, migrated_to, target_bs)
                self.bs_name = target_bs
            if serving is not None and serving.up:
                if dep.config.sync_mode == "per_procedure":
                    # brief state lock on the processing core (§6.7.1)
                    with _NULL_SPAN if root is None else tracer.span(
                        "checkpoint.lock", root, "lock", node=serving.name
                    ):
                        yield serving.server.book(dep.config.checkpoint_lock_s)
                replicas = serving.complete_procedure(
                    ue_id, proc_name, last_clock, obs_parent=root
                )
                cta = dep.cta_of(ue_id)
                if cta is not None and cta.up:
                    cta.procedure_completed(ue_id, last_clock, replicas)
            if creates is not None:
                entry = serving.store.get(ue_id) if serving is not None else None
                self.completed_version = entry.version if entry is not None else 1
            else:
                self.completed_version += 1
            dep.auditor.record_write_completion(ue_id, self.completed_version)
            outcome.completed = True
            return outcome
        finally:
            if obs is not None:
                tracer.finish(
                    root,
                    status="completed" if outcome.completed else "failed",
                    recovered=outcome.recovered,
                    reattached=outcome.reattached,
                )
                self._obs_root = prev_root
            self.busy = False

    def _detached(self, legs, bs, cpf, tracer, root) -> Generator:
        """A user-plane step's legs as their own process (DPCM)."""
        dep = self.dep
        for leg in legs:
            kind = leg.kind
            if kind == "hop":
                yield dep.hop(leg.link, leg.size, parent=root)
                continue
            if kind == "upf.program":
                actor = dep.upf_for_region(bs.region)
                job = actor.server.book(actor.service_s)
            else:  # "cpf.encode", "cpf.decode"
                actor, job = cpf, cpf.server.book(leg.price)
            with _leg_span(tracer, root, leg, actor):
                yield job
            if kind == "upf.program":
                actor.apply(leg.msg, self.ue_id, bs.name)

    # ---------------------------------------------------------------- recovery

    def _recover(self, outcome) -> Generator:
        """Consult the CTA, then resume or Re-Attach (§4.2.5).

        Returns True when a Re-Attach ended the procedure: its PCT ends
        when the Re-Attach completes.
        """
        dep = self.dep
        bs = dep.bss[self.bs_name]
        cta = dep.cta_for_region(bs.region)
        if cta is None or not cta.up:
            # Scenario 4: CTA failed.  A neighbor CTA takes over; the UE
            # must Re-Attach (no mapping, no log at the new CTA).
            cta = dep.fallback_cta(bs.region)
            if cta is None:
                raise ProcedureAborted("no CTA alive for %s" % self.ue_id)
            dep.adopt_region_cta(bs.region, cta.name)
            dep.reset_placement(self.ue_id, dep.pick_fresh_primary(self.ue_id))
        else:
            root = self._obs_root
            with _NULL_SPAN if root is None else dep.obs.tracer.span(
                "recovery.failover", parent=root, phase="recovery", node=cta.name
            ) as rs:
                plan = yield from cta.failover(self.ue_id, obs_parent=rs)
            if plan.action == "resume":
                return False
        outcome.reattached = True
        self.attached = False
        self.completed_version = 0
        inner = ProcedureOutcome(REATTACH, self.sim.now, self.ue_id)
        yield from self.execute(REATTACH, outcome=inner)
        self._mark_pct(outcome)
        return True

    def _mark_pct(self, outcome: ProcedureOutcome) -> None:
        if outcome.pct is None:
            outcome.pct = self.sim.now - outcome.started_at
            self.dep.record_pct(outcome)
