"""The parent commit's event-path leg interpreter, kept as an oracle.

``reference_execute`` / ``reference_detached`` are ``UE.execute`` and
``UE._detached`` as they were before a server leg became a booking and
a run of pure delays one wake: every leg waits on its component's event
method (``CTA.ingest``, ``CPF.handle_uplink``, ``UPF.program``,
``CPF.handle_peer``, ``Server.submit``) or sleeps its own delay.  The
one edit is ``Deployment.program`` -> ``Deployment.program_of``.  Tests
patch them over ``UE`` (:func:`event_path`) to run a workload down the
event path and compare it with the live interpreter bit for bit.
"""

from typing import Generator, Optional

from repro.core.ue import (
    _MAX_RECOVERIES,
    _NULL_SPAN,
    UE,
    ProcedureAborted,
    ProcedureOutcome,
    _leg_span,
)
from repro.sim.node import NodeFailed


def event_path(patch) -> None:
    """Send every leg of every procedure down the event path."""
    patch.setattr(UE, "execute", reference_execute)
    patch.setattr(UE, "_detached", reference_detached)


def reference_execute(
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
                        yield src.handle_peer(step.cpf_serve)
                        entry = src.store.get(ue_id)
                        if entry is None or not entry.up_to_date:
                            raise NodeFailed(src_name)
                        snapshot, synced = entry.snapshot(), entry.synced_clock
                        yield dep.hop(hop, step.req_size, parent=root)
                        # target: decode, install, encode the ack
                        yield tgt.handle_peer(step.tgt_serve)
                        tgt.store.install_snapshot(ue_id, snapshot, synced)
                        yield dep.hop(hop, step.resp_size, parent=root)
                        yield src.handle_peer(step.cpf_decode)
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
                for leg in legs:
                    kind = leg.kind
                    if kind == "hop":
                        yield dep.hop(leg.link, leg.size, parent=root)
                        continue
                    if kind == "cpf.handle":
                        result = yield cpf.handle_uplink(
                            ue_id, leg.msg, clock, leg.price,
                            step_idx == creates,
                            0 if creates is not None else self.completed_version,
                            obs_parent=root,
                        )
                        if result.status == "reattach_required":
                            # §4.2.4(3): treat like a primary loss — the
                            # CTA routes recovery (a synced backup or a
                            # Re-Attach).
                            raise NodeFailed(cpf.name)
                        continue
                    if kind == "pct":
                        self._mark_pct(outcome)
                        continue
                    if kind == "bs.uplink":
                        bs.uplink_messages += 1
                        actor, wait = bs, leg.price
                    elif kind == "bs.downlink":
                        bs.downlink_messages += 1
                        actor, wait = bs, leg.price
                    elif kind == "cta.ingest":
                        actor, wait = cta, cta.ingest(ue_id, leg.msg, leg.size)
                    elif kind == "cta.respond":
                        actor, wait = cta, cta.respond()
                    elif kind == "upf.program":
                        actor = dep.upf_for_region(bs.region)
                        wait = actor.program(leg.msg, ue_id, bs.name)
                    else:  # "cpf.encode", "cpf.decode"
                        actor, wait = cpf, cpf.handle_peer(leg.price)
                    with _leg_span(tracer, root, leg, actor):
                        value = yield wait
                    if kind == "cta.ingest":
                        clock = value
                        if clock > last_clock:
                            last_clock = clock
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
                    yield serving.server.submit(dep.config.checkpoint_lock_s)
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


def reference_detached(self, legs, bs, cpf, tracer, root) -> Generator:
    """A user-plane step's legs as their own process (DPCM)."""
    dep = self.dep
    for leg in legs:
        if leg.kind == "hop":
            yield dep.hop(leg.link, leg.size, parent=root)
            continue
        if leg.kind == "upf.program":
            actor = dep.upf_for_region(bs.region)
            wait = actor.program(leg.msg, self.ue_id, bs.name)
        else:  # "cpf.encode", "cpf.decode"
            actor, wait = cpf, cpf.handle_peer(leg.price)
        with _leg_span(tracer, root, leg, actor):
            yield wait
