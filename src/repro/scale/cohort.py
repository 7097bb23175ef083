"""Aggregated-UE cohort: population state in arrays, UEs as flyweights.

Simulating 100k+ UEs as long-lived :class:`~repro.core.ue.UE` objects
costs an object (plus dict) per UE for state that is four scalars.  The
cohort keeps the whole population in flat arrays — attached flag,
completed write version (the RYW reader version), serving-BS index,
busy flag, procedures-run counter, emigrated flag — and materialises a
UE object only while one of its procedures is in flight, hydrating it
from the arrays and writing the scalars back on completion.

Which slot holds which UE is decided here and nowhere else.  A driver is
built from the **global ids it drives** — ``range(n)`` for a whole
population (slot == id, nothing stored), an ``array`` for one shard's
share — and answers ``ue_id`` / ``slot`` / ``bucket`` / ``add_slot``;
the engine is written against those and never asks which ids it got.

The hydrated shell runs the *identical* ``UE.execute`` code path, and
neither hydration nor write-back touches the simulator, so a cohort run
is bit-identical (EventTrace digest) to the same schedule driven
through N persistent UE objects — ``IndividualDriver`` exists so the
conformance test can prove exactly that.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.ue import UE, ProcedureAborted, ProcedureOutcome
from ..sim.node import NodeFailed
from .lane import SAFE_FAULT_OPS, LaneRuntime, _Walk, hazard_windows

__all__ = ["CohortDriver", "IndividualDriver", "BatchedDriver"]


class CohortDriver:
    """Array-backed population of the UEs whose global ids are ``ids``.

    ``ids[i]`` is the id of the UE in slot ``i`` — ``ue_id(i)`` embeds
    it, so a UE keeps one identity (auditor history, placements, trace)
    in every shard it visits.  ``range(n)`` drives a whole population;
    an ``array`` is one shard's share, which the driver then owns and
    appends immigrants to, so per-shard memory is O(local population).
    ``gone[i]`` marks a slot whose UE emigrated: state was torn down
    here and arrivals must skip it.

    ``bs_names`` is the (growable) list of base stations UEs may be
    assigned to; per-UE state references it by index so 100k UEs don't
    hold 100k name strings.
    """

    mode = "cohort"
    #: True when population bootstrap is deferred per UE to first use
    #: (only the batched driver ever defers).
    lazy = False
    #: the per-slot columns :meth:`add_slot` extends
    _columns = ("attached", "busy", "version", "bs_idx", "runs", "gone")

    def __init__(self, dep, bs_names: List[str], ids, prefix: str = "c"):
        self.dep = dep
        self.ids = ids
        self.n = n = len(ids)
        self.prefix = prefix
        self.bs_names: List[str] = list(bs_names)
        self._bs_index: Dict[str, int] = {b: i for i, b in enumerate(self.bs_names)}
        #: global id -> slot; a whole population needs none (slot == id)
        self._slots: Optional[Dict[int, int]] = (
            None if isinstance(ids, range) else {g: i for i, g in enumerate(ids)}
        )
        self._buckets: Dict[Tuple[int, Optional[int]], List[int]] = {}
        self.attached = bytearray(n)
        self.busy = bytearray(n)
        self.version = array("q", [0]) * n
        self.bs_idx = array("l", [0]) * n
        self.runs = array("l", [0]) * n
        self.gone = bytearray(n)
        #: called with the slot after each discrete procedure
        self.procedure_done: Optional[Callable[[int], None]] = None
        # outcome counters (bounded; the per-outcome objects are not kept)
        self.completed = 0
        self.aborted = 0
        self.recovered = 0
        self.reattached = 0

    # -- identity ----------------------------------------------------------

    def ue_id(self, i: int) -> str:
        return "%s-%07d" % (self.prefix, self.ids[i])

    def slot(self, gid: int) -> Optional[int]:
        """Slot of the UE with global id ``gid`` (None: never driven here)."""
        return gid if self._slots is None else self._slots.get(gid)

    def bucket(self, lo: int = 0, hi: Optional[int] = None) -> Sequence[int]:
        """The slots whose id is in ``[lo, hi)`` (``hi=None``: unbounded).

        Over a whole population that is ``range(lo, hi)`` itself; a
        shard's share is scanned once per distinct range and kept
        current by :meth:`add_slot`.
        """
        if self._slots is None:
            return range(lo, self.n if hi is None else hi)
        bucket = self._buckets.get((lo, hi))
        if bucket is None:
            bucket = self._buckets[(lo, hi)] = [
                i
                for i, g in enumerate(self.ids)
                if lo <= g and (hi is None or g < hi)
            ]
        return bucket

    def add_slot(self, gid: int) -> int:
        """Slot for immigrant ``gid``: its old one back, or a fresh one.

        A fresh slot extends every column and every cached bucket
        covering ``gid``, so the UE is pickable the moment it lands.
        """
        i = self.slot(gid)
        if i is None:
            i = self.n
            self.n += 1
            self.ids.append(gid)
            self._slots[gid] = i
            for name in self._columns:
                getattr(self, name).append(0)
            for (lo, hi), bucket in self._buckets.items():
                if lo <= gid and (hi is None or gid < hi):
                    bucket.append(i)
        self.gone[i] = 0
        return i

    def tombstone(self, i: int) -> None:
        """UE ``i`` emigrated: the slot stays (ids are stable) but is dead."""
        self.gone[i] = 1
        self.attached[i] = 0

    def bs_of(self, i: int) -> str:
        return self.bs_names[self.bs_idx[i]]

    def bs_index(self, bs_name: str) -> int:
        """Index of ``bs_name``, registering it if new (ring churn)."""
        idx = self._bs_index.get(bs_name)
        if idx is None:
            idx = len(self.bs_names)
            self.bs_names.append(bs_name)
            self._bs_index[bs_name] = idx
        return idx

    # -- lifecycle ---------------------------------------------------------

    def bootstrap(self, i: int, bs_name: str) -> None:
        """Warm-attach UE ``i`` at ``bs_name`` (state only, no sim events)."""
        self.version[i] = self.dep.bootstrap_state(self.ue_id(i), bs_name)
        self.attached[i] = 1
        self.bs_idx[i] = self.bs_index(bs_name)

    def _hydrate(self, i: int) -> UE:
        ue = UE(self.dep, self.ue_id(i), self.bs_of(i))
        ue.attached = bool(self.attached[i])
        ue.completed_version = self.version[i]
        ue.procedures_run = self.runs[i]
        self.dep.adopt_ue(ue)
        return ue

    def _writeback(self, i: int, ue: UE) -> None:
        self.attached[i] = 1 if ue.attached else 0
        self.version[i] = ue.completed_version
        self.runs[i] = ue.procedures_run
        self.bs_idx[i] = self.bs_index(ue.bs_name)
        self.dep.release_ue(ue.ue_id)

    # -- procedures --------------------------------------------------------

    def start_procedure(
        self, i: int, proc: str, target_bs: Optional[str] = None
    ) -> None:
        """Route one arrival: here, always a discrete kernel process."""
        self.dep.sim.process(
            self.run_procedure(i, proc, target_bs), name="scale." + proc
        )

    def lane_stats(self) -> Dict[str, int]:
        """Batched-lane execution stats (none without a lane)."""
        return {}

    def flush_trace(self) -> None:
        """Emit trace records a lane buffered (nothing to flush here)."""

    def run_procedure(
        self, i: int, proc: str, target_bs: Optional[str] = None
    ) -> Generator:
        """Process body: run one procedure for UE ``i``.

        Marks the UE busy in the cohort for the duration (the scenario
        driver skips arrivals to busy UEs), counts the outcome, and
        never raises — aborts are a counter, not a crash.
        """
        self.busy[i] = 1
        ue = self._hydrate(i)
        try:
            outcome = yield from ue.execute(proc, target_bs=target_bs)
        except (ProcedureAborted, NodeFailed, LookupError):
            self.aborted += 1
        else:
            if outcome.completed:
                self.completed += 1
            if outcome.recovered:
                self.recovered += 1
            if outcome.reattached:
                self.reattached += 1
        finally:
            self._writeback(i, ue)
            self.busy[i] = 0
        if self.procedure_done is not None:
            self.procedure_done(i)


class IndividualDriver(CohortDriver):
    """Same schedule, but N persistent UE objects (conformance witness).

    Keeps every :class:`UE` alive for the whole run the way the small
    experiment harnesses do.  Shares the cohort's arrays for busy
    bookkeeping so the scenario driver code is byte-for-byte the same;
    the only difference is where UE scalar state lives between
    procedures.
    """

    mode = "individual"

    def __init__(self, dep, bs_names: List[str], ids, prefix: str = "c"):
        super().__init__(dep, bs_names, ids, prefix)
        self._ues: Dict[int, UE] = {}

    def bootstrap(self, i: int, bs_name: str) -> None:
        ue = self.dep.new_ue(self.ue_id(i), bs_name)
        ue.attached = True
        ue.completed_version = self.dep.bootstrap_state(self.ue_id(i), bs_name)
        self._ues[i] = ue
        self.attached[i] = 1
        self.version[i] = ue.completed_version
        self.bs_idx[i] = self.bs_index(bs_name)

    def _hydrate(self, i: int) -> UE:
        return self._ues[i]

    def _writeback(self, i: int, ue: UE) -> None:
        # mirror the scalars so driver-side reads (busy checks, tile
        # lookups) see the same values in both modes
        self.attached[i] = 1 if ue.attached else 0
        self.version[i] = ue.completed_version
        self.runs[i] = ue.procedures_run
        self.bs_idx[i] = self.bs_index(ue.bs_name)


class BatchedDriver(CohortDriver):
    """Cohort driver with the batched analytic lane for steady-state load.

    Behaviour contract: identical :class:`~repro.scale.engine.ScaleResult`
    (counters, auditor verdict, PCT sketches, verbose EventTrace digest)
    as ``CohortDriver`` for the same spec and seed — the lane is a pure
    execution-speed optimisation.  Three mechanisms keep it exact:

    * **admission gates** — a procedure enters the lane only when its
      whole timeline is provably deterministic (see :meth:`_admit`);
      everything else runs through the unchanged discrete path;
    * **hazard windows** — no lane admissions near fault/churn instants,
      so no lane walk is ever in flight when node state flips;
    * **spill-on-contention** — a lane walk arriving at a genuinely busy
      server falls onto the ordinary queued path for that service and
      resumes at the true completion, so storm backlogs queue exactly.

    When the scenario has no faults, no churn, and no auditor history,
    population bootstrap is also deferred per-UE to first use (the
    arrays are filled eagerly; CPF store entries and placements
    materialise lazily) — invisible to results because bootstrap makes
    no simulator events and per-UE clocks are independent.
    """

    mode = "batched"
    _columns = CohortDriver._columns + ("_booted",)

    def __init__(self, dep, bs_names: List[str], ids, prefix: str = "c"):
        super().__init__(dep, bs_names, ids, prefix)
        self.lane: Optional[LaneRuntime] = None
        self.stats: Dict[str, int] = {
            "admitted": 0,
            "fallback": 0,
            "walk_aborts": 0,
            "gate_misses": 0,
        }
        self._booted = bytearray(self.n)
        self._hazards: List[Tuple[float, float]] = []

    # -- wiring -------------------------------------------------------------

    def setup_lane(self, engine) -> None:
        """Decide lane eligibility and lazy bootstrap for this run."""
        dep, spec = self.dep, engine.spec
        cfg = dep.config
        plan = engine.injector.plan
        self.lazy = (
            not dep.auditor.keep_history
            and not spec.fault_events
            and not spec.churn_events
            and cfg.heartbeat_interval_s == 0.0
            # a mutating orchestration policy re-places state mid-run;
            # lazy slots have no store entries to migrate
            and not engine.orch_mutating
        )
        if self.lazy:
            # Every bootstrap() call would set these same values; fill
            # them wholesale and pre-count the attach writes so
            # auditor.writes matches the eager path even for UEs never
            # touched by traffic.
            self.version[:] = array("q", [1]) * self.n
            self.attached[:] = b"\x01" * self.n
            dep.auditor.writes += self.n
        eligible = (
            cfg.sync_mode == "per_procedure"
            and not cfg.dpcm_mode
            and cfg.message_logging
            and not cfg.broadcast_replication
            and cfg.heartbeat_interval_s == 0.0
            and not plan.perturbations
            and all(e.op in SAFE_FAULT_OPS for e in plan.events)
            # a storm backlog could still be draining when a fault
            # fires, outliving any admission window — run such
            # scenarios fully discrete
            and not (spec.traffic_model and plan.events)
            # controller actions (ring changes, drains, heals) can land
            # inside any batch window; mutating policies stay discrete
            and not engine.orch_mutating
            and all(
                not link.bandwidth_bps and not link.jitter_frac
                for link in dep.links.values()
            )
        )
        if eligible:
            self.lane = LaneRuntime(dep, engine.trace)
            self.lane.driver = self
            self._hazards = hazard_windows(spec, plan.events)

    def lane_stats(self) -> Dict[str, int]:
        out = dict(self.stats)
        out["enabled"] = 1 if self.lane is not None else 0
        out["lazy_bootstrap"] = 1 if self.lazy else 0
        if self.lane is not None:
            out["spills"] = self.lane.spills
        return out

    def flush_trace(self) -> None:
        if self.lane is not None:
            self.lane.flush_trace()

    # -- lazy population bootstrap -----------------------------------------

    def bootstrap(self, i: int, bs_name: str) -> None:
        # Eager runs only.  A lazy run is never bootstrapped per UE: the
        # engine installs the placed ``bs_idx`` column wholesale,
        # version/attached/auditor.writes were prefilled in setup_lane,
        # and CPF store entries, placement and the per-UE clock
        # materialise on first use via _ensure_boot.
        super().bootstrap(i, bs_name)
        self._booted[i] = 1

    def add_slot(self, gid: int) -> int:
        i = super().add_slot(gid)
        self._booted[i] = 1  # never lazy-boot over installed state
        return i

    def _ensure_boot(self, i: int) -> None:
        if self._booted[i]:
            return
        # bootstrap_state re-counts the write that setup_lane pre-counted
        self.dep.auditor.writes -= 1
        self.dep.bootstrap_state(self.ue_id(i), self.bs_of(i))
        self._booted[i] = 1

    # -- arrivals -----------------------------------------------------------

    def start_procedure(
        self, i: int, proc: str, target_bs: Optional[str] = None
    ) -> None:
        """Route one arrival: lane when provably exact, discrete otherwise."""
        self._ensure_boot(i)
        if self.lane is not None:
            program = self.dep.program(proc)
            if (
                program.steady_state
                and not self._in_hazard()
                and self._admit(i, program, target_bs)
            ):
                return
        self.stats["fallback"] += 1
        super().start_procedure(i, proc, target_bs)

    def _in_hazard(self) -> bool:
        now = self.dep.sim.now
        for lo, hi in self._hazards:
            if lo > now:
                return False  # sorted; nothing earlier can match
            if now <= hi:
                return True
        return False

    def _admit(self, i: int, program, target_bs: Optional[str]) -> bool:
        """Try to walk ``program`` on the lane; False -> discrete fallback.

        The gates only need to be *sound* (admit nothing the lane cannot
        replay exactly); a False is never wrong, just slower.  A UE with
        unacked checkpoint records never enters the lane, so the
        concurrent-procedure flag below is a no-op for admitted walks
        and the replica-state gates see the same store the walk will.
        """
        dep = self.dep
        proc = program.name
        if self.busy[i] or not self.attached[i]:
            return False
        ue_id = self.ue_id(i)
        bs = dep.bss.get(self.bs_of(i))
        if bs is None:
            return False
        dep.ensure_placement(ue_id, bs.region)
        cta = dep.cta_of(ue_id)
        if cta is None or not cta.up:
            return False
        if cta.log.unacked_for(ue_id):
            # Starting now would make flag_concurrent_procedure spawn
            # repair traffic that interleaves event-by-event with this
            # procedure's own hops (the verbose trace records them in
            # event order); only the discrete path reproduces that.
            return False
        cta.flag_concurrent_procedure(ue_id)
        primary = dep.primary_of(ue_id)
        if primary is None:
            return False
        cpf = dep.cpfs.get(primary)
        if cpf is None or not cpf.up:
            return False
        entry = cpf.store.get(ue_id)
        if (
            entry is None
            or not entry.up_to_date
            or entry.state.version < self.version[i]
        ):
            return False
        tgt_bs = None
        if proc == "fast_handover":
            if target_bs is None:
                return False
            tgt_bs = dep.bss.get(target_bs)
            if tgt_bs is None or not self._upf_up(tgt_bs.region):
                return False
            try:
                tgt_name, fetch_from = dep.fast_target(
                    ue_id, tgt_bs.region, min_version=self.version[i]
                )
            except LookupError:
                return False
            if not dep.cpfs[tgt_name].up:
                return False
            if fetch_from is not None:
                # The lane replays the intra-level-2 fetch leg too, but
                # only when it provably succeeds: source alive and its
                # entry at least as new as the UE's last write.
                src = dep.cpfs.get(fetch_from)
                if src is None or not src.up:
                    return False
                sentry = src.store.get(ue_id)
                if (
                    sentry is None
                    or not sentry.up_to_date
                    or sentry.state.version < self.version[i]
                ):
                    return False
        else:
            if proc in ("service_request", "intra_handover") and not self._upf_up(
                bs.region
            ):
                return False
            if proc == "intra_handover":
                if target_bs is None:
                    return False
                tgt_bs = dep.bss.get(target_bs)
                if tgt_bs is None:
                    return False
        self.busy[i] = 1
        self.runs[i] += 1
        self.stats["admitted"] += 1
        walk = _Walk(
            i,
            ue_id,
            program,
            target_bs,
            bs,
            tgt_bs,
            cta,
            cpf,
            self.version[i],
            ProcedureOutcome(proc, dep.sim.now, ue_id),
        )
        if proc == "fast_handover":
            walk.fast_tgt = tgt_name
            walk.fetch_from = fetch_from
        self.lane.launch(
            self.lane.walk(walk), on_abort=lambda: self._lane_abort(walk)
        )
        return True

    def _upf_up(self, region: str) -> bool:
        try:
            return self.dep.upf_for_region(region).server.up
        except KeyError:
            return False

    # -- lane completion hooks ---------------------------------------------

    def _lane_finish(self, w: _Walk) -> None:
        i = w.i
        version = self.version[i] + 1
        self.version[i] = version
        self.dep.auditor.record_write_completion(w.ue_id, version)
        w.outcome.completed = True
        self.completed += 1
        self.lane.close_root(w, "completed")
        if w.program.changes_cpf and w.target_bs is not None:
            self.bs_idx[i] = self.bs_index(w.target_bs)
        self.busy[i] = 0

    def _lane_abort(self, w: _Walk) -> None:
        self.aborted += 1
        self.stats["walk_aborts"] += 1
        self.busy[w.i] = 0
        self.lane.close_root(w, "failed")
