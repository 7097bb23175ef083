"""Batched cohort lane: analytic advancement of steady-state procedures.

At city scale the discrete-event path spends most of its wall-clock on
the machinery of idle-load procedures whose timing is fully
deterministic: with the Neutrino config every hop latency is a constant
(no jitter, no bandwidth term), every service time is a price in the
procedure's compiled program (:mod:`repro.core.program`), and —
whenever the servers involved are uncontended — completion instants can
be computed in closed form.

The lane is a second *scheduler* over the same program and the same
component methods ``UE.execute`` drives.  It decides only **when**; the
order of the legs is the program's (``Program.legs``), and what happens
at each instant is the owning component's own method
(``CTA.log_uplink``, ``CPF.serve``, ``UPF.apply``, ``CPF.commit``,
``CPF.install_checkpoint``).  A walk of a steady-state program
(:attr:`Program.steady_state <repro.core.program.Program.steady_state>`)
is one generator frame (:meth:`LaneRuntime.walk`: a hop is its latency,
a BS leg its price) that yields

* ``("srv", t, server, service, pre)`` — at simulated time ``t`` run the
  optional ``pre`` hook, then either book the service interval
  analytically (:meth:`~repro.sim.node.Server.reserve`, when the server
  is idle or already express-reserved) and resume the generator inline
  with the completion instant, or **spill** onto the ordinary queued
  path (``Server.submit``) and resume at the real completion — so
  contention, storm backlogs, and FIFO ordering behave exactly like the
  discrete path;
* ``("at", t)`` — resume at exactly simulated time ``t`` (effects that
  are externally observable at a precise instant: log pruning, ACKs,
  PCT marks, the completion commit).

With an :class:`~repro.obs.Observability` installed a walk also writes
the span tree ``UE.execute`` would have produced for the procedure —
same names, phases, parents, attrs, statuses and instants; only span
ids may differ — through :meth:`Tracer.record
<repro.obs.tracer.Tracer.record>`: every instant of a walk is known in
closed form (each ``srv`` resumes with the completion time, each hop
has its send time and the link latency), so nothing is bracketed and
nothing waits.  Tracing is therefore not an admission gate.

Anything the lane cannot prove safe — arrivals near a fault/churn
window, missing or outdated state, fast handovers whose fetch could
fail, every non-steady-state procedure — is simply not admitted and
runs through the discrete driver.  The cohort-vs-batched conformance
tests pin full-result equality including the verbose EventTrace digest.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

from ..core.cpf import handle_phases
from ..core.program import CONTROL_WIRE_BYTES, SNAPSHOT_WIRE_BYTES, leg_span
from ..faults.trace import TraceRecord

__all__ = ["LaneRuntime"]

#: fault ops the lane can coexist with (admissions are hazard-gated
#: around their firing times; every other op disables the lane).
SAFE_FAULT_OPS = frozenset(
    ("fail_cpf", "recover_cpf", "fail_cta", "recover_cta")
)

#: half-width of the admission exclusion window around a fault op.
FAULT_SLACK_S = 0.25
#: admission exclusion lead-in before a churn event.
CHURN_PRE_S = 0.05
#: extra tail after a churn "add" rebalance window.
CHURN_POST_S = 1.0

_SUSPENDED = object()


class _WalkAbort(Exception):
    """A lane walk hit a condition the discrete path treats as abort."""


class _Walk:
    """Mutable per-procedure walk state threaded through the step code."""

    __slots__ = (
        "i",
        "ue_id",
        "program",
        "target_bs",
        "bs",
        "tgt_bs",
        "cta",
        "cpf",
        "last_clock",
        "clock",
        "reader_version",
        "outcome",
        "fast_tgt",
        "fetch_from",
        "root",
    )

    def __init__(self, i, ue_id, program, target_bs,
                 bs, tgt_bs, cta, cpf, reader_version, outcome):
        self.i = i
        self.ue_id = ue_id
        self.program = program
        self.target_bs = target_bs
        self.bs = bs
        self.tgt_bs = tgt_bs
        self.cta = cta
        self.cpf = cpf
        self.last_clock = 0
        self.clock = 0
        self.reader_version = reader_version
        self.outcome = outcome
        self.fast_tgt = None
        self.fetch_from = None
        #: the procedure's root span (obs installed only).
        self.root = None

    def stamp(self, msg: str, size: int) -> None:
        """``srv`` pre-hook: the CTA logs ``msg`` at the submit instant."""
        self.clock = self.cta.log_uplink(self.ue_id, msg, size)
        if self.clock > self.last_clock:
            self.last_clock = self.clock


class LaneRuntime:
    """The trampoline that drives lane walks, and the walks themselves."""

    def __init__(self, dep, trace):
        self.dep = dep
        self.sim = dep.sim
        self.trace = trace
        self.verbose = trace.verbose
        self.buffered: List[TraceRecord] = []
        self.spills = 0
        self.driver = None  # set by BatchedDriver
        self._eh = None  # lazily: CPF-serve steps are time-free iff
        # the auditor keeps no history (resolved on first walk; the
        # engine sets keep_history after deployment construction)
        cfg = dep.config
        #: installed before the driver is built (``_Engine.__init__``).
        self.obs = dep.obs
        self.links = dep.links
        self._lat: Dict[str, float] = {
            name: link.latency_s for name, link in dep.links.items()
        }
        self.checkpoint_lock = cfg.checkpoint_lock_s
        self.replica_apply = cfg.replica_apply_s

    # -- trampoline ---------------------------------------------------------

    def launch(self, gen, on_abort=None) -> None:
        self._advance(gen, None, on_abort)

    def _advance(self, gen, value, on_abort) -> None:
        # Quiet-window fast path, used throughout the loop: when no
        # other callback can run before a future instant ``t`` (the
        # immediate queue is empty and the heap head is strictly later)
        # and the yield site flagged itself time-free (no submit hook,
        # resume code stamps no wall clock), whatever a scheduled
        # dispatch would do at ``t`` can be done now — world state is
        # frozen until ``t``, so every gate reads the exact state it
        # would read then, and nothing can observe the early effects.
        sim = self.sim
        imm = sim._immediate
        heap = sim._heap
        send = gen.send
        while True:
            try:
                cmd = send(value)
            except StopIteration:
                return
            except _WalkAbort:
                if on_abort is not None:
                    on_abort()
                return
            t = cmd[1]
            if cmd[0] == "at":
                if t <= sim.now:
                    value = None
                    continue
                if (
                    len(cmd) == 3
                    and cmd[2]
                    and not imm
                    and (not heap or heap[0][0] > t)
                ):
                    value = None
                    continue
                sim.schedule_at(t, self._advance, gen, None, on_abort)
                return
            if t > sim.now:
                if (
                    len(cmd) == 6
                    and cmd[5]
                    and not imm
                    and (not heap or heap[0][0] > t)
                ):
                    server = cmd[2]
                    if server.up and server.can_reserve():
                        value = server.reserve(cmd[3], at=t)
                        continue
                sim.schedule_at(t, self._dispatch, gen, cmd, on_abort)
                return
            value = self._dispatch_inline(gen, cmd, on_abort)
            if value is _SUSPENDED:
                return

    def _dispatch(self, gen, cmd, on_abort) -> None:
        value = self._dispatch_inline(gen, cmd, on_abort)
        if value is not _SUSPENDED:
            self._advance(gen, value, on_abort)

    def _dispatch_inline(self, gen, cmd, on_abort):
        # ("srv", t, server, service, pre); wall clock == t here.
        server, service, pre = cmd[2], cmd[3], cmd[4]
        if not server.up:
            self._abort(gen, on_abort)
            return _SUSPENDED
        if pre is not None:
            pre()
        if server.can_reserve():
            return server.reserve(service)
        # Real contention (submitted jobs ahead, not an express chain):
        # submit too and resume at the true completion instant.
        self.spills += 1
        ev = server.submit(service)

        def _resume(ev):
            if ev.ok:
                self._advance(gen, self.sim.now, on_abort)
            else:
                self._abort(gen, on_abort)

        ev.add_callback(_resume)
        return _SUSPENDED

    def _abort(self, gen, on_abort) -> None:
        gen.close()
        if on_abort is not None:
            on_abort()

    # -- hop accounting -----------------------------------------------------

    def _hop(self, name: str, nbytes: int, t: float, parent=None) -> float:
        """Clean-path link traversal sent at ``t``; returns the arrival.

        Matches ``Deployment.hop`` over ``FaultInjector.transit_event``'s
        clean path exactly (the lane is only enabled with no
        perturbations/partitions and all links up): counters now, the
        trace record stamped with the logical send instant (records are
        merged and time-sorted before digesting), and with obs
        installed the same ``on_hop`` call, whose span goes under
        ``parent`` (``None``: counted, not traced).
        """
        link = self.links[name]
        link.messages_sent += 1
        link.bytes_sent += nbytes
        if self.verbose:
            self.buffered.append(
                TraceRecord(t, "msg", (("hop", link.name), ("nbytes", nbytes)))
            )
        arrival = t + self._lat[name]
        if self.obs is not None:
            self.obs.on_hop(name, nbytes, t, arrival, "ok", parent)
        return arrival

    # -- span emission (obs installed only) ---------------------------------

    def close_root(self, w: "_Walk", status: str) -> None:
        """The walk's procedure span ends now (called at its last instant)."""
        if w.root is not None:
            self.obs.tracer.finish(
                w.root, status=status, recovered=False, reattached=False
            )

    def flush_trace(self) -> None:
        """Merge buffered lane records into the trace, time-ordered."""
        if self.buffered:
            self.trace.records.extend(self.buffered)
            self.trace.records.sort(key=lambda r: r.time)
            self.buffered = []

    # -- walk body ----------------------------------------------------------

    def walk(self, w: _Walk):
        """One procedure's timeline: the program's legs in closed form.

        The legs ``UE.execute`` waits on, in one frame: a hop is its
        latency, a BS leg its price, a server leg one ``srv`` command,
        the PCT mark an ``at`` — then the completion tail.
        """
        dep = self.dep
        if self._eh is None:
            self._eh = not dep.auditor.keep_history
        # CPF.serve stamps wall clock only into the causal history; with
        # history off its resume is time-free (quiet-window eligible)
        eh = self._eh
        program, ue_id = w.program, w.ue_id
        tracer = root = None
        if self.obs is not None:
            tracer = self.obs.tracer
            root = w.root = tracer.begin(
                "proc." + program.name, proc=program.name, ue=ue_id
            )
        t = self.sim.now
        migrated_to = None
        for c, legs in zip(program.steps, program.legs):
            bs, cpf = w.bs, w.cpf
            if c.at_target:
                if migrated_to is None and program.finds_target:
                    # The Fast Handover target (§4.3) was resolved at
                    # admission; the answer cannot change by the time
                    # the discrete path would resolve it: the UE's own
                    # entries only move through its own (serialized)
                    # procedures and its fully-ACKed checkpoints — the
                    # unacked-record gate rules out in-flight ships and
                    # repairs — and node/ring state is pinned by the
                    # hazard windows.
                    migrated_to = w.fast_tgt
                    if w.fetch_from is not None:
                        t = yield from self._fetch_state(
                            w, migrated_to, w.fetch_from, t
                        )
                # without a fast target, the UE's own CPF serves
                bs = w.tgt_bs
                cpf = dep.cpfs[migrated_to] if migrated_to else w.cpf
            for leg in legs:
                kind = leg.kind
                if kind == "hop":
                    t = self._hop(leg.link, leg.size, t, root)
                    continue
                t0 = t
                if kind == "cpf.handle":
                    t = yield ("srv", t, cpf.server, leg.price, None, eh)
                    span = None
                    if root is not None:
                        span = tracer.record(
                            "cpf.handle", root, "cpf", t0, t, "ok",
                            {"node": cpf.name, "msg": leg.msg},
                            handle_phases(t - t0, leg.price),
                        )
                    # Served at the job's submit instant, not its
                    # completion: every field CPF.serve touches is per-UE
                    # and the UE is busy for the whole walk, and the
                    # store ignores strictly-older clocks, so the early
                    # synced_clock bump cannot shadow a later one.
                    if cpf.serve(ue_id, w.reader_version, w.clock, False, span) is None:
                        self._gate_miss("stale entry")
                    continue
                if kind == "pct":
                    # the UE's PCT clock stops (once: a walk never
                    # retries); the resume only feeds the quantile
                    # sketches (time-free)
                    yield ("at", t, True)
                    w.outcome.pct = t - w.outcome.started_at
                    dep.record_pct(w.outcome)
                    continue
                if kind == "bs.uplink":
                    bs.uplink_messages += 1
                    actor, t = bs, t + leg.price
                elif kind == "bs.downlink":
                    bs.downlink_messages += 1
                    actor, t = bs, t + leg.price
                elif kind == "cta.ingest":
                    # the CTA logs at the submit instant (never time-free)
                    actor = w.cta
                    t = yield ("srv", t, actor.server, leg.price,
                               partial(w.stamp, leg.msg, leg.size))
                elif kind == "upf.program":
                    actor = dep.upf_for_region(bs.region)
                    t = yield ("srv", t, actor.server, actor.service_s, None, True)
                    # A steady-state program only updates the UE's own
                    # bearer, so applying it at the submit instant is
                    # unobservable.
                    actor.apply(leg.msg, ue_id, bs.name)
                else:  # "cta.respond", "cpf.encode", "cpf.decode"
                    actor = w.cta if kind == "cta.respond" else cpf
                    t = yield ("srv", t, actor.server, leg.price, None, True)
                if root is not None:
                    phase, attrs = leg_span(leg, actor.name)
                    tracer.record(kind, root, phase, t0, t, "ok", attrs)

        # Completion: switch, lock, commit + checkpoint, version, ACKs.
        yield ("at", t)
        serving_name = migrated_to or dep.primary_of(ue_id)
        if program.changes_cpf and w.target_bs is not None:
            dep.switch_region(ue_id, migrated_to, w.target_bs)
        serving = dep.cpfs.get(serving_name) if serving_name else None
        if serving is not None and serving.up:
            t0 = t
            t = yield ("srv", t, serving.server, self.checkpoint_lock, None)
            yield ("at", t)
            if root is not None:
                tracer.record("checkpoint.lock", root, "lock", t0, t, "ok",
                              {"node": serving.name})
            replicas, snapshot = serving.commit(ue_id, program.name, w.last_clock)
            for replica_name in replicas:
                span = None
                if root is not None:
                    # begun for real, like the discrete path's: it is in
                    # the root's tree when the root closes a line below
                    span = tracer.begin(
                        "checkpoint.ship", parent=root, phase="checkpoint",
                        node=serving.name, replica=replica_name,
                    )
                self.launch(self._ship(
                    serving, replica_name, ue_id, snapshot, w.last_clock, t, span,
                ))
            cta = dep.cta_of(ue_id)
            if cta is not None and cta.up:
                cta.procedure_completed(ue_id, w.last_clock, replicas)
        self.driver._lane_finish(w)

    def _gate_miss(self, why: str):
        """An admission gate lied; the witnesses pin this count at 0."""
        if self.driver is not None:
            self.driver.stats["gate_misses"] += 1
        raise _WalkAbort(why)

    def _fetch_state(self, w: _Walk, tgt_name: str, fetch_from: str, t: float):
        """``CPF.fetch_state_from`` timed analytically (§4.3 fetch leg).

        Admission verified the source CPF held an up-to-date entry at
        least as new as the UE's last write, and only the UE's own
        (serialized) procedures mutate that entry — so the re-checks
        below can only fail if a gate was unsound.
        """
        dep = self.dep
        tgt = dep.cpfs.get(tgt_name)
        src = dep.cpfs.get(fetch_from)
        if tgt is None or not tgt.up or src is None or not src.up:
            self._gate_miss("fetch target regressed")
        hop = dep.cpf_hop(tgt_name, fetch_from)
        t0 = t
        t = self._hop(hop, CONTROL_WIRE_BYTES, t)  # request
        # The source entry is read here, before the request's logical
        # arrival at ``t``; stable for the same reason the admission-time
        # fast-target resolution is (see walk()).
        entry = src.store.get(w.ue_id)
        if (
            entry is None
            or not entry.up_to_date
            or entry.state.version < w.reader_version
        ):
            self._gate_miss("fetch source stale")
        snapshot = entry.state.copy()
        clock = entry.synced_clock
        t = self._hop(hop, SNAPSHOT_WIRE_BYTES, t)
        if not tgt.up:
            self._gate_miss("fetch target died")
        t = yield ("srv", t, tgt.sync_server, self.replica_apply, None, True)
        # Early at resume: the entry is per-UE and the UE is busy for
        # the whole walk; the store ignores strictly-older clocks.
        tgt.install_checkpoint(w.ue_id, snapshot, clock)
        if w.root is not None:
            self.obs.tracer.record("cpf.fetch", w.root, "migrate", t0, t, "ok",
                                   {"src": fetch_from, "dst": tgt_name})
        return t

    def _ship(self, serving, replica_name, ue_id, snapshot, last_clock, t0,
              span=None):
        """One checkpoint shipment (``CPF._ship_inner``); aborts silent.

        All legs except the final ACK are flagged time-free for the
        quiet-window fast path: their resume code only reads frozen
        state and installs a per-UE snapshot nothing can observe before
        its instant.  The ACK stays scheduled — ``log.ack`` prunes and
        re-samples the time-weighted log-size probe at the wall clock.
        """
        dep = self.dep
        t = yield ("srv", t0, serving.sync_server, serving.snapshot_encode_s,
                   None, True)
        hop = dep.cpf_hop(serving.name, replica_name)
        t = self._hop(hop, SNAPSHOT_WIRE_BYTES, t, span)
        yield ("at", t, True)
        replica = dep.cpfs.get(replica_name)
        if replica is None or not replica.up:
            # replica down; its ACK never arrives (§4.2.4)
            if span is not None:
                self.obs.tracer.finish_at(span, t, "replica_down")
            return
        t = yield ("srv", t, replica.sync_server, self.replica_apply, None,
                   True)
        yield ("at", t, True)
        replica.install_checkpoint(ue_id, snapshot, last_clock)
        # ACK back to the UE's CTA, bound after the apply like the
        # discrete path (a concurrent switch_region retargets it).
        cta = dep.cta_of(ue_id)
        t = self._hop("cta_cpf", CONTROL_WIRE_BYTES, t, span)
        yield ("at", t)
        if cta is not None and cta.up:
            cta.log.ack(ue_id, last_clock, replica_name)
        if span is not None:
            self.obs.tracer.finish_at(span, t, "acked")


def hazard_windows(spec, plan_events) -> List[Tuple[float, float]]:
    """Admission exclusion intervals from fault + churn schedules.

    Lane walks complete within microseconds-to-milliseconds of their
    admission (no storm contention can extend them past the slack:
    storm-plus-fault scenarios disable the lane entirely), so excluding
    admissions in a generous window around every state-mutating op
    guarantees no lane walk is in flight when one fires.
    """
    windows: List[Tuple[float, float]] = []
    for event in plan_events:
        windows.append((event.at - FAULT_SLACK_S, event.at + FAULT_SLACK_S))
    for frac, kind, _tile in spec.churn_events:
        at = frac * spec.duration_s
        if kind == "remove":
            # retire time depends on evacuation progress; exclude the
            # whole remainder of the run rather than guess it.
            windows.append((at - CHURN_PRE_S, float("inf")))
        else:
            windows.append(
                (at - CHURN_PRE_S, at + spec.rebalance_window_s + CHURN_POST_S)
            )
    windows.sort()
    merged: List[Tuple[float, float]] = []
    for lo, hi in windows:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
