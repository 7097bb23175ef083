"""Deployment: wires regions, CTAs, CPFs, UPFs, BSs and UEs together.

This is the composition root for every experiment.  It owns:

* the node instances per region (one CTA + a CPF pool + one UPF + BSs,
  Fig. 6 of the paper),
* the per-hop-class links with byte accounting,
* the *placement registry* — which CPF is primary and which are backups
  for every UE (primary by level-1 consistent hash, backups by level-2
  ring excluding the level-1 members, §4.3),
* per-UE logical clocks (monotone per UE across CTA changes),
* the consistency auditor and the PCT tallies.

``Deployment.build_grid`` constructs the canonical evaluation topology:
four level-1 regions forming one level-2 region, with ``cpfs_per_region``
CPFs each — the smallest deployment exercising inter-region replication,
Fast Handover, and multi-CTA behaviour.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..geo.regions import Region, RegionMap
from ..messages.procedures import ProcedureSpec
from ..messages.registry import CATALOG
from ..sim.core import Event, Simulator
from ..sim.monitor import Tally
from ..sim.network import Link
from ..sim.rng import RngRegistry
from .bs import BaseStation
from .config import ControlPlaneConfig
from .consistency import RYWAuditor
from .cpf import CPF
from .cta import CTA
from .program import Program, compile_procedure, encode_time, procedure_spec
from .ue import UE, ProcedureOutcome
from .upf import UPF

__all__ = ["Placement", "Deployment"]


@dataclass
class Placement:
    """Where one UE's state lives."""

    region: str
    primary: str
    backups: List[str] = field(default_factory=list)


class Deployment:
    """A fully wired simulated cellular core."""

    def __init__(
        self,
        sim: Simulator,
        config: ControlPlaneConfig,
        region_map: RegionMap,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.region_map = region_map
        self.rng = rng or RngRegistry(0)
        self.auditor = RYWAuditor(sim_now=lambda: sim.now)
        #: installed by :class:`repro.faults.FaultInjector`; when set,
        #: every link traversal routes through it (drop/dup/reorder/
        #: partition semantics + event tracing).
        self.faults = None
        #: installed by :meth:`repro.obs.Observability.install`; when
        #: set, every link traversal records a transit span and hop
        #: counters.  ``None`` (the default) keeps every instrumented
        #: site down to one attribute check.
        self.obs = None

        self.cpfs: Dict[str, CPF] = {}
        self.ctas: Dict[str, CTA] = {}
        self.upfs: Dict[str, UPF] = {}
        self.bss: Dict[str, BaseStation] = {}
        self._region_cta: Dict[str, str] = {}

        for region in region_map.regions.values():
            cta = CTA(self, region.cta, region.geohash)
            self.ctas[region.cta] = cta
            self._region_cta[region.geohash] = region.cta
            for cpf_name in region.cpfs:
                self.cpfs[cpf_name] = CPF(self, cpf_name, region.geohash)
            upf = UPF(
                sim, "upf-" + region.geohash, region.geohash, config.upf_service_s
            )
            self.upfs[region.geohash] = upf
            for bs_name in region.bss:
                self.bss[bs_name] = BaseStation(self, bs_name, region.geohash)

        jitter_rng = self.rng.stream("link-jitter")
        self.links: Dict[str, Link] = {
            hop: config.latency.link(sim, hop, rng=jitter_rng, name=hop)
            for hop in (
                "ue_bs",
                "bs_cta",
                "cta_cpf",
                "cpf_cpf_intra",
                "cpf_cpf_inter",
                "cpf_cpf_far",
                "cpf_upf",
            )
        }

        self._placements: Dict[str, Placement] = {}
        self._clocks: Dict[str, int] = {}
        self._ues: Dict[str, UE] = {}
        self._programs: Dict[str, Program] = {}
        self.pct: Dict[str, Tally] = {}
        self.outcomes: List[ProcedureOutcome] = []
        #: when set (a callable taking one ProcedureOutcome), every
        #: completed-procedure measurement is handed to it *instead of*
        #: the Tally lists and the outcomes list above.  Population-
        #: scale runs install a streaming-sketch sink here so memory
        #: stays bounded no matter how many procedures complete.
        self.outcome_sink = None

    # -- canonical topology -----------------------------------------------------

    @classmethod
    def build_grid(
        cls,
        sim: Simulator,
        config: ControlPlaneConfig,
        cpfs_per_region: int = 1,
        bss_per_region: int = 2,
        regions: int = 4,
        rng: Optional[RngRegistry] = None,
    ) -> "Deployment":
        """Four sibling level-1 regions under one level-2 region."""
        if not 1 <= regions <= 4:
            raise ValueError("grid supports 1-4 sibling regions")
        region_objs = []
        for i, suffix in enumerate("0123"[:regions]):
            gh = "2" + suffix  # shared parent "2"
            region_objs.append(
                Region(
                    geohash=gh,
                    cta="cta-" + gh,
                    cpfs=["cpf-%s-%d" % (gh, k) for k in range(cpfs_per_region)],
                    bss=["bs-%s-%d" % (gh, k) for k in range(bss_per_region)],
                )
            )
        return cls(sim, config, RegionMap(region_objs), rng)

    @classmethod
    def build_tree(
        cls,
        sim: Simulator,
        config: ControlPlaneConfig,
        depth: int = 3,
        cpfs_per_region: int = 1,
        bss_per_region: int = 1,
        rng: Optional[RngRegistry] = None,
    ) -> "Deployment":
        """A 4-ary geo-hash tree of level-1 regions, ``depth`` levels deep.

        ``depth=2`` matches :meth:`build_grid` (four siblings under one
        level-2 region); ``depth=3`` creates 16 level-1 regions in four
        level-2 regions under one level-3 region — the topology needed
        to exercise replication on rings beyond level 2 (the paper's
        footnote-14 future work, ``config.georep_level=3``).
        """
        if depth < 2 or depth > 4:
            raise ValueError("depth must be between 2 and 4")
        suffixes = [""]
        for _ in range(depth - 1):
            suffixes = [s + c for s in suffixes for c in "0123"]
        region_objs = []
        for suffix in suffixes:
            gh = "2" + suffix
            region_objs.append(
                Region(
                    geohash=gh,
                    cta="cta-" + gh,
                    cpfs=["cpf-%s-%d" % (gh, k) for k in range(cpfs_per_region)],
                    bss=["bs-%s-%d" % (gh, k) for k in range(bss_per_region)],
                )
            )
        return cls(sim, config, RegionMap(region_objs), rng)

    # -- membership churn (ring add/remove with live nodes) -------------------------

    def add_region(self, region: Region) -> None:
        """Admit a new level-1 region (CTA + CPF pool + BSs) mid-run.

        Updates the consistent-hash rings first, then brings up live
        node objects, so any placement computed after this call may land
        on the new CPFs.  Existing placements are untouched — callers
        re-place affected UEs via :meth:`stale_placements` /
        :meth:`apply_placement` (the scale engine staggers those
        fetches so the new CPFs warm up without a stampede).
        """
        self.region_map.add_region(region)
        cta = CTA(self, region.cta, region.geohash)
        self.ctas[region.cta] = cta
        self._region_cta[region.geohash] = region.cta
        for cpf_name in region.cpfs:
            self.cpfs[cpf_name] = CPF(self, cpf_name, region.geohash)
        self.upfs[region.geohash] = UPF(
            self.sim,
            "upf-" + region.geohash,
            region.geohash,
            self.config.upf_service_s,
        )
        for bs_name in region.bss:
            self.bss[bs_name] = BaseStation(self, bs_name, region.geohash)

    def add_cpf(self, region_hash: str, cpf_name: str) -> None:
        """Admit one CPF to an existing region mid-run (scale-out).

        Rings first, then the live node, mirroring :meth:`add_region`.
        Re-admitting a CPF whose node already exists (the rolling-upgrade
        re-join after a drain) reuses the node object — its store was
        emptied by the restart and refills through repair fetches.
        """
        self.region_map.add_cpf(region_hash, cpf_name)
        if cpf_name not in self.cpfs:
            self.cpfs[cpf_name] = CPF(self, cpf_name, region_hash)

    def remove_cpf(self, region_hash: str, cpf_name: str) -> None:
        """Ring one CPF out of its region (drain for scale-in / upgrade).

        The node object stays registered and up — in-flight procedures
        and repair fetches still reach it; the caller decommissions it
        (``fail``) only after draining, as :meth:`retire_region` does
        for whole regions.
        """
        self.region_map.remove_cpf(region_hash, cpf_name)

    def retire_region(self, region_hash: str) -> Region:
        """Remove a drained region from the rings and take its nodes down.

        The caller must already have re-homed every UE attached or
        placed there.  Node objects stay in the registries (marked
        failed) so any straggling reference degrades into the normal
        failure-recovery paths rather than a KeyError.
        """
        region = self.region_map.remove_region(region_hash)
        for cpf_name in region.cpfs:
            if self.cpfs[cpf_name].up:
                self.cpfs[cpf_name].fail()
        if self.ctas[region.cta].up:
            self.ctas[region.cta].fail()
        self._region_cta.pop(region_hash, None)
        return region

    def stale_placements(self) -> List[Tuple[str, "Placement", str, List[str]]]:
        """UEs whose stored placement disagrees with the current rings.

        Returns ``(ue_id, placement, desired_primary, desired_backups)``
        tuples in sorted UE order (determinism).  Only meaningful right
        after ring churn: consistent hashing guarantees the list is the
        small set of keys owned by the added/removed members, which is
        exactly what the monotonicity property tests pin.  UEs placed in
        a region that no longer exists are skipped — those need a
        re-homing handover, not a re-placement.
        """
        out = []
        for ue_id in sorted(self._placements):
            placement = self._placements[ue_id]
            try:
                desired_primary = self.region_map.primary_for(ue_id, placement.region)
            except KeyError:
                continue
            desired_backups = self.region_map.replicas_for(
                ue_id, placement.region, self.config.n_backups, self.config.georep_level
            )
            if desired_primary != placement.primary or desired_backups != placement.backups:
                out.append((ue_id, placement, desired_primary, desired_backups))
        return out

    def apply_placement(
        self, ue_id: str, region: str, primary: str, backups: List[str]
    ) -> Placement:
        """Commit a re-placement; mark state at dropped holders outdated.

        The caller is responsible for having copied up-to-date state to
        the new primary/backups first (repair fetches); this just swaps
        the registry entry and poisons the copies that fell out of the
        replica set so they can never serve a stale read.
        """
        old = self._placements.get(ue_id)
        keep = {primary, *backups}
        if old is not None:
            for name in {old.primary, *old.backups} - keep:
                cpf = self.cpfs.get(name)
                if cpf is not None:
                    cpf.store.mark_outdated(ue_id)
        placement = Placement(region, primary, list(backups))
        self._placements[ue_id] = placement
        return placement

    # -- links --------------------------------------------------------------------

    def hop(
        self,
        hop_class: str,
        nbytes: int,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        parent: Optional[Any] = None,
        at: Optional[float] = None,
    ) -> Union[float, Event]:
        """One directed link traversal, as something a process yields.

        ``src``/``dst`` name the endpoints when the caller knows them
        (replication, repair, migration legs); the fault injector uses
        them for partition decisions.  A delivered message is its delay
        in seconds (a ``float``: the cheapest wait the kernel has); a
        lost one (blackholed link, partition, exhausted
        retransmissions) is an event failed with
        :class:`~repro.sim.network.LinkDown` — which the protocol layer
        handles exactly like a peer failure.  Which of the two comes
        back is decided from link and injector state at the send
        instant.

        ``parent`` is the observability span this traversal belongs to
        (the procedure's root, a checkpoint ship, a replay).  With an
        :class:`~repro.obs.Observability` installed the return value is
        the very same — everything about the traversal is known at the
        send instant (it arrives at ``now + delay``, or it was lost
        now), so the hop span is recorded closed and nothing waits on
        it.

        ``at`` is a later send instant, for a process that sums a run of
        pure delays into one wake: only where :meth:`hop_decided` says
        the traversal's fate is already fixed, which makes it the
        delay.  The counters and the hop span are those of a message
        sent at ``at``.
        """
        link = self.links[hop_class]
        if self.faults is not None:
            wait = self.faults.transit_event(link, nbytes, src, dst)
        else:
            link.messages_sent += 1
            link.bytes_sent += nbytes
            wait = link.delay(nbytes)
        obs = self.obs
        if obs is not None:
            now = self.sim.now if at is None else at
            if type(wait) is float:
                obs.on_hop(hop_class, nbytes, now, now + wait, "ok", parent)
            else:
                obs.on_hop(hop_class, nbytes, now, now, "error", parent)
        return wait

    def hop_decided(self, hop_class: str, at: float) -> bool:
        """Whether a traversal sent at the later instant ``at`` is decided now.

        It is when sending it now draws what sending it then would: no
        jitter draw, and — with a fault injector installed — a link that
        is up and clean, no partition, no verbose trace record, and no
        fault op due before ``at`` that could change any of that.
        """
        link = self.links[hop_class]
        if link.jitter_frac:
            return False
        faults = self.faults
        return faults is None or faults.clean_until(link, at)

    def cpf_hop(self, a: str, b: str) -> str:
        ra = self.region_map.region_of_cpf(a).geohash
        rb = self.region_map.region_of_cpf(b).geohash
        if ra == rb:
            return "cpf_cpf_intra"
        if self.region_map.shares_level2(ra, rb):
            return "cpf_cpf_inter"
        return "cpf_cpf_far"

    def cpf_hop_from_cta(self, cta_region: str, cpf_name: str) -> str:
        rb = self.region_map.region_of_cpf(cpf_name).geohash
        return "cta_cpf" if rb == cta_region else "cpf_cpf_inter"

    # -- logical clocks (per UE, monotone across CTA changes) -----------------------

    def next_clock(self, ue_id: str) -> int:
        value = self._clocks.get(ue_id, 0) + 1
        self._clocks[ue_id] = value
        return value

    def clock_of(self, ue_id: str) -> int:
        """Latest RYW clock issued to ``ue_id`` (0 if it never wrote)."""
        return self._clocks.get(ue_id, 0)

    def m_tmsi_of(self, ue_id: str) -> int:
        # crc32, not hash(): str hashes differ per process, and shard
        # workers must agree on a UE's M-TMSI
        return zlib.crc32(ue_id.encode()) or 1

    # -- placement registry ----------------------------------------------------------

    def placement_of(self, ue_id: str) -> Optional[Placement]:
        return self._placements.get(ue_id)

    def drop_placement(self, ue_id: str) -> None:
        """Forget a UE's placement entirely (region retirement of a
        detached UE: there is no serving region left to re-home it to,
        and a later attach re-derives placement from its new BS)."""
        placement = self._placements.pop(ue_id, None)
        if placement is None:
            return
        for name in {placement.primary, *placement.backups}:
            cpf = self.cpfs.get(name)
            if cpf is not None:
                cpf.store.mark_outdated(ue_id)

    def placements_items(self):
        """(ue_id, Placement) pairs — used by proactive failure detection."""
        return self._placements.items()

    def ensure_placement(self, ue_id: str, region: str) -> Placement:
        placement = self._placements.get(ue_id)
        if placement is None:
            primary = self._alive_primary(ue_id, region)
            placement = Placement(
                region,
                primary,
                self.region_map.replicas_for(
                    ue_id, region, self.config.n_backups, self.config.georep_level
                ),
            )
            self._placements[ue_id] = placement
        return placement

    def _alive_primary(self, ue_id: str, region: str) -> str:
        ring = self.region_map.level1_ring(region)
        dead = [c for c in ring.members if not self.cpfs[c].up]
        alive = ring.successors(ue_id, 1, exclude=dead)
        if alive:
            return alive[0]
        # whole region down: any alive CPF in the level-2 region
        ring2 = self.region_map.level2_ring(region)
        dead2 = [c for c in ring2.members if not self.cpfs[c].up]
        alive2 = ring2.successors(ue_id, 1, exclude=dead2)
        if not alive2:
            raise LookupError("no CPF alive anywhere near region %s" % region)
        return alive2[0]

    def primary_of(self, ue_id: str) -> Optional[str]:
        placement = self._placements.get(ue_id)
        return placement.primary if placement else None

    def replicas_of(self, ue_id: str) -> List[str]:
        placement = self._placements.get(ue_id)
        return list(placement.backups) if placement else []

    def pick_fresh_primary(self, ue_id: str) -> str:
        placement = self._placements.get(ue_id)
        region = placement.region if placement else next(iter(self.region_map.regions))
        return self._alive_primary(ue_id, region)

    def reset_placement(self, ue_id: str, new_primary: str) -> None:
        """Post-failure fresh placement (Re-Attach path)."""
        placement = self._placements.get(ue_id)
        region = (
            placement.region
            if placement
            else self.region_map.region_of_cpf(new_primary).geohash
        )
        self._placements[ue_id] = Placement(
            region,
            new_primary,
            self.region_map.replicas_for(
                ue_id, region, self.config.n_backups, self.config.georep_level
            ),
        )

    def promote(self, ue_id: str, backup_name: str) -> None:
        """Scenario 1/2: a backup becomes the primary (§4.2.5)."""
        placement = self._placements.get(ue_id)
        if placement is None:
            self.reset_placement(ue_id, backup_name)
            return
        if backup_name in placement.backups:
            placement.backups.remove(backup_name)
        placement.primary = backup_name

    def switch_region(
        self, ue_id: str, new_primary: Optional[str], target_bs: str
    ) -> None:
        """Handover completion: move the UE's placement to the target region."""
        new_region = self.bss[target_bs].region
        old_cta = self.cta_of(ue_id)
        if new_primary is None:
            new_primary = self._alive_primary(ue_id, new_region)
        old_placement = self._placements.get(ue_id)
        new_backups = self.region_map.replicas_for(
            ue_id, new_region, self.config.n_backups, self.config.georep_level
        )
        # Every copy except the new primary's is now from an old epoch:
        # mark them outdated until the post-handover checkpoint (or a
        # repair fetch) refreshes them.  This is what prevents a Fast
        # Handover from adopting a stale pre-handover replica.
        stale_holders = set(new_backups)
        if old_placement is not None:
            stale_holders |= {old_placement.primary, *old_placement.backups}
        stale_holders.discard(new_primary)
        for name in stale_holders:
            cpf = self.cpfs.get(name)
            if cpf is not None:
                cpf.store.mark_outdated(ue_id)
        self._placements[ue_id] = Placement(new_region, new_primary, new_backups)
        # The old CTA's log for this UE is obsolete once the target-side
        # checkpoint lands; drop it to keep the log bounded.
        if old_cta is not None:
            old_cta.log.drop_procedure(ue_id, self._clocks.get(ue_id, 0))

    def fast_target(
        self, ue_id: str, target_region: str, min_version: int = 0
    ) -> Tuple[str, Optional[str]]:
        """Serving CPF for a Fast Handover into ``target_region``.

        Prefer a backup already in the target region holding up-to-date
        state at least as new as ``min_version`` — the version the UE
        knows it has written (the §4.3 case); otherwise the region's
        hash primary plus the name of an up-to-date CPF to fetch from
        (intra-level-2 hop).
        """
        region_cpfs = set(self.region_map.region(target_region).cpfs)
        for backup_name in self.replicas_of(ue_id):
            if backup_name in region_cpfs:
                cpf = self.cpfs[backup_name]
                if cpf.up:
                    entry = cpf.store.get(ue_id)
                    if (
                        entry is not None
                        and entry.up_to_date
                        and entry.state.version >= min_version
                    ):
                        return backup_name, None
        source = None
        primary = self.primary_of(ue_id)
        if primary and self.cpfs[primary].up:
            source = primary
        else:
            for backup_name in self.replicas_of(ue_id):
                if self.cpfs[backup_name].up:
                    source = backup_name
                    break
        return self._alive_primary(ue_id, target_region), source

    # -- CTA mapping ---------------------------------------------------------------------

    def cta_for_region(self, region: str) -> Optional[CTA]:
        name = self._region_cta.get(region)
        return self.ctas.get(name) if name else None

    def cta_of(self, ue_id: str) -> Optional[CTA]:
        placement = self._placements.get(ue_id)
        if placement is None:
            return None
        return self.cta_for_region(placement.region)

    def fallback_cta(self, region: str) -> Optional[CTA]:
        """An alive CTA in a sibling region (scenario 4 takeover)."""
        for cta in self.ctas.values():
            if cta.up:
                return cta
        return None

    def adopt_region_cta(self, region: str, cta_name: str) -> None:
        self._region_cta[region] = cta_name

    def upf_for_region(self, region: str) -> UPF:
        upf = self.upfs.get(region)
        if upf is None:  # pragma: no cover - regions always get a UPF
            raise KeyError("no UPF in region %r" % region)
        return upf

    def cpf_names(self) -> List[str]:
        return sorted(self.cpfs)

    # -- procedures -------------------------------------------------------------------------

    def spec(self, proc_name: str) -> ProcedureSpec:
        """The message flow of ``proc_name`` under this deployment's config."""
        return procedure_spec(self.config, proc_name)

    def program_of(self, proc_name: str) -> Program:
        """``proc_name`` priced for this deployment, compiled on first use."""
        program = self._programs.get(proc_name)
        if program is None:
            program = compile_procedure(self.config, self.spec(proc_name))
            self._programs[proc_name] = program
        return program

    # -- UEs & bootstrap ------------------------------------------------------------------------

    def new_ue(self, ue_id: str, bs_name: str) -> UE:
        if ue_id in self._ues:
            raise ValueError("UE %r already exists" % ue_id)
        if bs_name not in self.bss:
            raise KeyError("unknown BS %r" % bs_name)
        ue = UE(self, ue_id, bs_name)
        self._ues[ue_id] = ue
        return ue

    def ue(self, ue_id: str) -> UE:
        return self._ues[ue_id]

    def ues(self) -> List[UE]:
        return list(self._ues.values())

    def adopt_ue(self, ue: UE) -> None:
        """Register a flyweight UE shell for the duration of a procedure.

        The cohort model (``repro.scale``) keeps per-UE state in arrays
        and materialises a :class:`UE` object only while a procedure is
        in flight; unlike :meth:`new_ue` this replaces any previous
        shell for the same id.
        """
        self._ues[ue.ue_id] = ue

    def release_ue(self, ue_id: str) -> None:
        """Drop a shell registered by :meth:`adopt_ue` (idempotent)."""
        self._ues.pop(ue_id, None)

    def bootstrap_state(self, ue_id: str, bs_name: str) -> int:
        """Install attached, replicated state for a UE (no sim events).

        The network-side half of :meth:`bootstrap_ue`: placement, primary
        state, backup snapshots, and the auditor's write record.  Returns
        the UE's completed write version (its RYW reader version).  The
        cohort model calls this directly so 100k warm UEs never exist as
        objects.
        """
        region = self.bss[bs_name].region
        placement = self.ensure_placement(ue_id, region)
        clock = self.next_clock(ue_id)
        primary = self.cpfs[placement.primary]
        entry = primary.store.create(ue_id, self.m_tmsi_of(ue_id), is_primary=True)
        entry.state.complete_procedure("attach")
        entry.synced_clock = clock
        for backup_name in placement.backups:
            self.cpfs[backup_name].store.install_snapshot(
                ue_id, entry.state, clock
            )
        self.auditor.record_write_completion(ue_id, entry.state.version)
        return entry.state.version

    def install_migrated(
        self, ue_id: str, bs_name: str, version: int, carried_clock: int
    ) -> int:
        """Adopt a UE whose state was built in another shard's deployment.

        The shard runtime hands over (version, sync clock) when a full
        cross-level-2 handover moves a UE to a region another worker
        owns; this installs equivalent attached state here without
        re-running the attach — the carried write version is preserved so
        the RYW auditor's reader floor survives the process boundary.
        Raises :class:`LookupError` if the destination region has no
        alive primary (the UE then re-enters detached, exactly like an
        abort).  No ``record_write_completion``: the write was already
        counted by the shard that executed the handover.
        """
        self.drop_placement(ue_id)
        region = self.bss[bs_name].region
        # Seed the logical clock so the fresh snapshot outranks any stale
        # copy a previous visit left behind (install_snapshot keeps the
        # newer clock), then take the next tick as the sync point.
        if carried_clock > self._clocks.get(ue_id, 0):
            self._clocks[ue_id] = carried_clock
        placement = self.ensure_placement(ue_id, region)
        clock = self.next_clock(ue_id)
        primary = self.cpfs[placement.primary]
        entry = primary.store.create(ue_id, self.m_tmsi_of(ue_id), is_primary=True)
        entry.state.attached = True
        entry.state.active = False
        entry.state.version = version
        entry.synced_clock = clock
        for backup_name in placement.backups:
            self.cpfs[backup_name].store.install_snapshot(
                ue_id, entry.state, clock
            )
        return version

    def bootstrap_ue(self, ue_id: str, bs_name: str) -> UE:
        """Create a UE already attached, with state replicated (no events).

        Used to build warm pools for service-request/handover sweeps
        without simulating hundreds of thousands of attaches first.
        """
        ue = self.new_ue(ue_id, bs_name)
        ue.attached = True
        ue.completed_version = self.bootstrap_state(ue_id, bs_name)
        return ue

    # -- downlink delivery (§3.1's motivating scenario) ---------------------------------------------

    def deliver_downlink(self, ue_id: str):
        """Process: downlink data/voice arrives from the internet for a UE.

        The core must hold up-to-date control state to page the UE and
        deliver (§3.1: after a CPF failure with no synced replica, "the
        core network will not be able to send it to the UE" until the UE
        Re-Attaches).  Returns ``(delivered, served_by)``.
        """
        placement = self._placements.get(ue_id)
        candidates = []
        if placement is not None:
            candidates.append(placement.primary)
            candidates.extend(placement.backups)
        serving = None
        for name in candidates:
            cpf = self.cpfs.get(name)
            if cpf is None or not cpf.up:
                continue
            entry = cpf.store.get(ue_id)
            if entry is not None and entry.up_to_date and entry.state.attached:
                serving = cpf
                break
        if serving is None:
            return False, None  # data access disrupted (§3.1 step 4)

        # Page through every BS in the UE's tracking area (its region).
        paging_size = CATALOG.wire_size("Paging", self.config.codec)
        yield serving.handle_peer(encode_time(self.config, "Paging"))
        yield self.hop("cta_cpf", paging_size)
        yield self.hop("bs_cta", paging_size)
        yield self.hop("ue_bs", paging_size)
        ue = self._ues.get(ue_id)
        if ue is None or not ue.attached:
            return False, serving.name  # UE-side state disagrees
        return True, serving.name

    def deliver_downlink_paged(self, ue_id: str):
        """Process: the full downlink path including idle-mode paging.

        A connected UE receives data directly; an idle UE (after an S1
        Release) is paged and must complete a service request before the
        data flows — the wake-up latency web/video startup experiments
        measure (§6.6).  Returns ``(delivered, latency_s)``.
        """
        start = self.sim.now
        delivered, served_by = yield from self.deliver_downlink(ue_id)
        if not delivered:
            return False, self.sim.now - start
        entry = self.cpfs[served_by].store.get(ue_id)
        if entry is not None and not entry.state.active:
            ue = self._ues[ue_id]
            yield from ue.execute("service_request")
        return True, self.sim.now - start

    # -- measurement --------------------------------------------------------------------------------

    def record_pct(self, outcome: ProcedureOutcome) -> None:
        sink = self.outcome_sink
        if sink is not None:
            sink(outcome)
            return
        tally = self.pct.get(outcome.name)
        if tally is None:
            tally = Tally(outcome.name)
            self.pct[outcome.name] = tally
        tally.observe(outcome.pct)
        self.outcomes.append(outcome)

    def max_log_bytes(self) -> float:
        return max((cta.log.max_size_bytes for cta in self.ctas.values()), default=0.0)

    def summary(self) -> Dict[str, Any]:
        """Structured snapshot of the whole deployment's health/metrics.

        What an operator dashboard would show: per-CPF utilization and
        queue peaks, CTA log/failover counters, link byte totals,
        per-procedure PCT summaries, and the consistency audit.
        """
        return {
            "time_s": self.sim.now,
            "config": self.config.name,
            "cpfs": {
                name: {
                    "up": cpf.up,
                    "utilization": cpf.server.utilization(self.sim.now),
                    "queue_peak": cpf.server.queue_depth.max_value,
                    "messages_handled": cpf.messages_handled,
                    "checkpoints_sent": cpf.checkpoints_sent,
                    "snapshots_applied": cpf.snapshots_applied,
                    "replays_applied": cpf.replays_applied,
                    "ues_stored": len(cpf.store),
                }
                for name, cpf in sorted(self.cpfs.items())
            },
            "ctas": {
                name: {
                    "up": cta.up,
                    "log_entries": cta.log.entry_count(),
                    "log_bytes_max": cta.log.max_size_bytes,
                    "messages_logged": cta.log.appended,
                    "failovers": cta.failovers,
                    "reattaches_ordered": cta.reattaches_ordered,
                    "outdated_marked": cta.outdated_marked,
                    "failures_detected": cta.failures_detected,
                }
                for name, cta in sorted(self.ctas.items())
            },
            "links": {
                name: {"messages": link.messages_sent, "bytes": link.bytes_sent}
                for name, link in sorted(self.links.items())
            },
            "pct_ms": {
                name: {
                    "count": tally.count,
                    "p50": tally.percentile(50) * 1e3 if tally.count else None,
                    "p95": tally.percentile(95) * 1e3 if tally.count else None,
                }
                for name, tally in sorted(self.pct.items())
            },
            "consistency": {
                "serves": self.auditor.serves,
                "writes": self.auditor.writes,
                "violations": len(self.auditor.violations),
                "read_your_writes_held": self.auditor.read_your_writes_held,
                "failovers_masked": self.auditor.failovers_masked,
                "reattaches_forced": self.auditor.reattaches_forced,
            },
            "ues": len(self._ues),
        }

    # -- failure injection helpers ---------------------------------------------------------------------

    def fail_cpf(self, name: str) -> None:
        self.cpfs[name].fail()

    def recover_cpf(self, name: str) -> None:
        self.cpfs[name].recover()

    def fail_cta(self, name: str) -> None:
        self.ctas[name].fail()

    def recover_cta(self, name: str) -> None:
        self.ctas[name].recover()
        # The region the CTA serves may have been adopted by a sibling
        # (scenario 4); returning it restores the original mapping.
        self.adopt_region_cta(self.ctas[name].region, name)
