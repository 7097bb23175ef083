"""The UE driver: executes control procedures end to end.

Each procedure run is a simulated process that walks the procedure's
steps through the real component chain — UE radio leg, BS serialization,
CTA stamping/logging, CPF queueing/processing, UPF programming, inter-
CPF migration — measuring the procedure completion time (PCT) the way
the paper's traffic generator does: at the UE, from first request until
the step marked ``ends_pct`` delivers.

Failure handling follows §4.2.5: if the serving CPF dies mid-procedure
the UE asks the CTA for a recovery plan; a ``resume`` plan (scenarios
1/2) retries the interrupted step at the promoted, log-replayed backup;
a ``reattach`` plan (scenario 3, or the EPC's only option) runs the
Re-Attach procedure and — matching the paper's accounting (§6.4) — ends
the failed procedure's PCT when the Re-Attach completes.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Generator, Optional

from ..sim.core import Simulator
from ..sim.node import NodeFailed
from .program import PricedStep

__all__ = ["UE", "ProcedureOutcome", "ProcedureAborted"]

_MAX_RECOVERIES = 8

#: reusable no-op context manager (nullcontext is stateless/reentrant):
#: the whole per-span cost when observability is disabled.
_NULL_SPAN = nullcontext()


def _span_factory(obs, parent):
    """Per-step span context managers, parented under ``parent``.

    Parenting is explicit (never an ambient stack): sim processes
    interleave at every yield, so only the procedure's own root may
    adopt its spans.  These bracket real waits (a queued job, a radio
    leg), so they are ``begin``/``finish`` pairs; with obs disabled
    every site is a lambda returning the shared nullcontext.
    """
    if obs is None or parent is None:
        return lambda name, phase=None, **attrs: _NULL_SPAN
    return partial(obs.tracer.span, parent=parent)


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
        self.procedures_run = 0
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
        for handover procedures.
        """
        program = self.dep.program(proc_name)
        if outcome is None:
            outcome = ProcedureOutcome(proc_name, self.sim.now, self.ue_id)
        self.busy = True
        self.procedures_run += 1
        is_attach = proc_name in ("attach", "re_attach")
        try:
            yield from self._run_steps(program, target_bs, outcome, is_attach)
        finally:
            self.busy = False
        return outcome

    # ----------------------------------------------------------- procedure body

    def _run_steps(self, program, target_bs, outcome, is_attach) -> Generator:
        obs = self.dep.obs
        if obs is None:
            self._obs_root = None
            yield from self._run_steps_inner(program, target_bs, outcome, is_attach)
            return
        # Root span for the whole procedure; a nested Re-Attach (its own
        # execute() call) parents under the failed procedure's root, so
        # the recovery shows up inside the timeline that paid for it.
        prev_root = self._obs_root
        root = obs.tracer.begin(
            "proc." + program.name, parent=prev_root, proc=program.name, ue=self.ue_id
        )
        self._obs_root = root
        try:
            yield from self._run_steps_inner(program, target_bs, outcome, is_attach)
        finally:
            obs.tracer.finish(
                root,
                status="completed" if outcome.completed else "failed",
                recovered=outcome.recovered,
                reattached=outcome.reattached,
            )
            self._obs_root = prev_root

    def _run_steps_inner(self, program, target_bs, outcome, is_attach) -> Generator:
        dep = self.dep
        proc_name = program.name
        self._last_clock = 0
        self._migrated_to: Optional[str] = None
        recoveries = 0

        dep.ensure_placement(self.ue_id, dep.bss[self.bs_name].region)
        cta = dep.cta_of(self.ue_id)
        if cta is not None and cta.up and not is_attach:
            cta.flag_concurrent_procedure(self.ue_id)  # §4.2.4(4)

        steps = program.steps
        run_step = {  # step kind -> the method that executes it
            "uplink": self._uplink_exchange,
            "cpf_bs": self._cpf_bs,
            "cpf_upf": self._cpf_upf,
            "cpf_cpf": self._cpf_cpf,
        }
        step_idx = 0
        while step_idx < len(steps):
            step = steps[step_idx]
            try:
                if (
                    step.at_target
                    and self._migrated_to is None
                    and proc_name == "fast_handover"
                    and target_bs is not None
                ):
                    yield from self._resolve_fast_target(target_bs)
                yield from run_step[step.kind](step, target_bs, outcome, is_attach)
            except NodeFailed:
                recoveries += 1
                if recoveries > _MAX_RECOVERIES:
                    raise ProcedureAborted(
                        "%s for %s failed %d times" % (proc_name, self.ue_id, recoveries)
                    )
                outcome.recovered = True
                handled = yield from self._recover(outcome)
                if handled == "reattached":
                    return
                continue  # retry the same step at the promoted backup
            if step_idx == 0 and is_attach:
                # The first attach message created fresh state at the CPF.
                self.attached = True
            step_idx += 1

        # Procedure completed: switch placement first for CPF-changing
        # procedures (so the checkpoint targets the *new* backups and the
        # ACKs land at the new CTA), then commit state and checkpoint
        # (§4.2.3 steps 2-4).
        serving_name = self._migrated_to or dep.primary_of(self.ue_id)
        if program.changes_cpf and target_bs is not None:
            dep.switch_region(self.ue_id, self._migrated_to, target_bs)
            self.bs_name = target_bs
        serving = dep.cpfs.get(serving_name)
        if serving is not None and serving.up:
            span = _span_factory(dep.obs, self._obs_root)
            if dep.config.sync_mode == "per_procedure":
                # brief state lock on the processing core (§6.7.1)
                with span("checkpoint.lock", phase="lock", node=serving.name):
                    yield serving.server.submit(dep.config.checkpoint_lock_s)
            replicas = serving.complete_procedure(
                self.ue_id, proc_name, self._last_clock, obs_parent=self._obs_root
            )
            cta = dep.cta_of(self.ue_id)
            if cta is not None and cta.up:
                cta.procedure_completed(self.ue_id, self._last_clock, replicas)
        if is_attach:
            entry = serving.store.get(self.ue_id) if serving is not None else None
            self.completed_version = entry.state.version if entry is not None else 1
        else:
            self.completed_version += 1
        dep.auditor.record_write_completion(self.ue_id, self.completed_version)
        outcome.completed = True

    # ------------------------------------------------------------------- steps

    def _resolve_fast_target(self, target_bs: str) -> Generator:
        """Pick the Fast Handover serving CPF in the target region (§4.3).

        Prefers the proactive level-2 replica holding state at least as
        new as this UE's last completed write; otherwise fetches a
        current copy intra-level-2.  If no current copy is reachable,
        raises :class:`NodeFailed` so the normal recovery machinery
        (§4.2.5) takes over.
        """
        dep = self.dep
        tgt_region = dep.bss[target_bs].region
        tgt_name, fetch_from = dep.fast_target(
            self.ue_id, tgt_region, min_version=self.completed_version
        )
        if fetch_from is not None:
            span = _span_factory(dep.obs, self._obs_root)
            with span("cpf.fetch", phase="migrate", src=fetch_from, dst=tgt_name):
                yield from dep.cpfs[tgt_name].fetch_state_from(self.ue_id, fetch_from)
            entry = dep.cpfs[tgt_name].store.get(self.ue_id)
            if entry is None or entry.state.version < self.completed_version:
                raise NodeFailed(tgt_name)
        self._migrated_to = tgt_name

    def _context(self, step: PricedStep, target_bs):
        """(bs, cta, cpf) the step runs through, honoring at_target.

        The *serving* CTA (the one holding the UE's log) handles all of
        a procedure's messages, including target-side ones during a
        handover, until the placement switches at completion.
        """
        dep = self.dep
        if step.at_target and target_bs is not None:
            bs = dep.bss[target_bs]
            cpf_name = self._migrated_to or dep.primary_of(self.ue_id)
        else:
            bs = dep.bss[self.bs_name]
            cpf_name = dep.primary_of(self.ue_id)
        cta = dep.cta_of(self.ue_id) or dep.cta_for_region(bs.region)
        if cta is None or not cta.up:
            raise NodeFailed("cta:" + bs.region)
        if cpf_name is None:
            raise NodeFailed("cpf:none-alive")
        cpf = dep.cpfs[cpf_name]
        return bs, cta, cpf

    def _uplink_leg(self, step, bs, cta, cpf, msg, size, creates, is_attach) -> Generator:
        """BS encodes ``msg``; the CTA stamps + logs it; the CPF serves it."""
        dep = self.dep
        root = self._obs_root
        span = _span_factory(dep.obs, root)
        with span("bs.uplink", phase="radio", bs=bs.name, msg=msg):
            bs.uplink_messages += 1
            yield step.bs_encode
        yield dep.hop("bs_cta", size, parent=root)
        with span("cta.ingest", phase="cta", node=cta.name, msg=msg):
            clock = yield cta.ingest(self.ue_id, msg, size)
        self._last_clock = max(self._last_clock, clock)
        yield dep.hop("cta_cpf", size, parent=root)
        reader_version = 0 if is_attach else self.completed_version
        result = yield cpf.handle_uplink(
            self.ue_id, msg, clock, step.cpf_serve, creates, reader_version,
            obs_parent=root,
        )
        if result.status == "reattach_required":
            # §4.2.4(3): treat like a primary loss — the CTA will route
            # recovery (a synced backup or a Re-Attach).
            raise NodeFailed(cpf.name)

    def _downlink_leg(self, step, bs, cta, msg, size) -> Generator:
        """CPF -> CTA (forward) -> BS (decode) -> UE for one message."""
        dep = self.dep
        root = self._obs_root
        span = _span_factory(dep.obs, root)
        yield dep.hop("cta_cpf", size, parent=root)
        with span("cta.respond", phase="cta", node=cta.name):
            yield cta.respond()
        yield dep.hop("bs_cta", size, parent=root)
        with span("bs.downlink", phase="radio", bs=bs.name, msg=msg):
            bs.downlink_messages += 1
            yield step.bs_decode
        yield dep.hop("ue_bs", size, parent=root)

    def _uplink_exchange(self, step, target_bs, outcome, is_attach) -> Generator:
        bs, cta, cpf = self._context(step, target_bs)
        msg = step.request
        yield self.dep.hop("ue_bs", step.req_size, parent=self._obs_root)
        creates = is_attach and msg == "InitialUEMessage"
        yield from self._uplink_leg(
            step, bs, cta, cpf, msg, step.req_size, creates, is_attach
        )
        if step.response is not None:
            yield from self._downlink_leg(step, bs, cta, step.response, step.resp_size)
        if step.ends_pct:
            self._mark_pct(outcome)

    def _cpf_bs(self, step, target_bs, outcome, is_attach) -> Generator:
        """CPF-initiated downlink exchange (context setup, HO command)."""
        bs, cta, cpf = self._context(step, target_bs)
        span = _span_factory(self.dep.obs, self._obs_root)
        # CPF encodes and emits the downlink request.
        with span("cpf.encode", phase="cpf_serve", node=cpf.name, msg=step.request):
            yield cpf.handle_peer(step.cpf_encode)
        yield from self._downlink_leg(step, bs, cta, step.request, step.req_size)
        if step.ends_pct:
            # The accept/command reached the UE: the paper's client-side
            # PCT clock stops here.
            self._mark_pct(outcome)
        if step.response is not None:
            # BS answers uplink; it is logged and handled like any other
            # uplink control message.
            yield from self._uplink_leg(
                step, bs, cta, cpf, step.response, step.resp_size, False, is_attach
            )

    def _cpf_upf(self, step, target_bs, outcome, is_attach) -> Generator:
        dep = self.dep
        bs, _cta, cpf = self._context(step, target_bs)
        upf = dep.upf_for_region(bs.region)
        req, resp = step.request, step.response
        root = self._obs_root
        span = _span_factory(dep.obs, root)

        def leg() -> Generator:
            with span("cpf.encode", phase="cpf_serve", node=cpf.name, msg=req):
                yield cpf.handle_peer(step.cpf_encode)
            yield dep.hop("cpf_upf", step.req_size, parent=root)
            with span("upf.program", phase="upf", upf=upf.name, msg=req):
                yield upf.program(req, self.ue_id, bs.name)
            if resp:
                yield dep.hop("cpf_upf", step.resp_size, parent=root)
                with span("cpf.decode", phase="cpf_serve", node=cpf.name, msg=resp):
                    yield cpf.handle_peer(step.cpf_decode)
            if step.ends_pct:
                self._mark_pct(outcome)

        if dep.config.dpcm_mode and not step.ends_pct:
            # DPCM executes user-plane programming in parallel with the
            # rest of the procedure (device-side state, §6.2 / DPCM [37]).
            dep.sim.process(leg(), name="%s.dpcm_upf" % self.ue_id)
        else:
            yield from leg()

    def _cpf_cpf(self, step, target_bs, outcome, is_attach) -> Generator:
        """State migration leg of a handover with CPF change."""
        dep = self.dep
        if target_bs is None:
            raise ValueError("handover needs a target_bs")
        src_name = dep.primary_of(self.ue_id)
        if src_name is None:
            raise NodeFailed("cpf:none-alive")
        src = dep.cpfs[src_name]
        tgt_region = dep.bss[target_bs].region
        tgt_name = dep.region_map.primary_for(self.ue_id, tgt_region)
        tgt = dep.cpfs[tgt_name]
        if not tgt.up:
            alive = [c for c in dep.region_map.region(tgt_region).cpfs if dep.cpfs[c].up]
            if not alive:
                raise NodeFailed("cpf:" + tgt_region)
            tgt_name, tgt = alive[0], dep.cpfs[alive[0]]
        hop = dep.cpf_hop(src_name, tgt_name)
        root = self._obs_root
        span = _span_factory(dep.obs, root)

        with span("cpf.migrate", phase="migrate", src=src_name, dst=tgt_name):
            # Source: snapshot + encode the relocation request.
            yield src.handle_peer(step.cpf_serve)
            entry = src.store.get(self.ue_id)
            if entry is None or not entry.up_to_date:
                raise NodeFailed(src_name)
            snapshot, clock = entry.state.copy(), entry.synced_clock
            yield dep.hop(hop, step.req_size, parent=root)
            # Target: decode, install migrated state, encode the ack.
            yield tgt.handle_peer(step.tgt_serve)
            tgt.store.install_snapshot(self.ue_id, snapshot, clock)
            yield dep.hop(hop, step.resp_size, parent=root)
            yield src.handle_peer(step.cpf_decode)
        self._migrated_to = tgt_name

    # ---------------------------------------------------------------- recovery

    def _recover(self, outcome) -> Generator:
        """Consult the CTA, then resume or Re-Attach (§4.2.5)."""
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
            yield from self._reattach(outcome)
            return "reattached"
        obs, root = dep.obs, self._obs_root
        if obs is not None and root is not None:
            with obs.tracer.span(
                "recovery.failover", parent=root, phase="recovery", node=cta.name
            ) as rs:
                plan = yield from cta.failover(self.ue_id, obs_parent=rs)
        else:
            plan = yield from cta.failover(self.ue_id)
        if plan.action == "resume":
            self._migrated_to = None
            return "resumed"
        yield from self._reattach(outcome)
        return "reattached"

    def _reattach(self, outcome) -> Generator:
        """Run Re-Attach; the failed procedure's PCT ends at its completion."""
        outcome.reattached = True
        self.attached = False
        self.completed_version = 0
        inner = ProcedureOutcome("re_attach", self.sim.now, self.ue_id)
        yield from self.execute("re_attach", outcome=inner)
        self._mark_pct(outcome)

    def _mark_pct(self, outcome: ProcedureOutcome) -> None:
        if outcome.pct is None:
            outcome.pct = self.sim.now - outcome.started_at
            self.dep.record_pct(outcome)
