"""The city-scale scenario engine.

:func:`run_scenario` turns one :class:`~repro.scale.scenarios.ScenarioSpec`
into a deterministic simulated run:

* the city topology comes from geo-hash tiles (``repro.scale.topology``),
  so placement is entirely ring-driven;
* the population is an aggregated-UE cohort (``repro.scale.cohort``) —
  one driver process plays merged Poisson arrival streams (service,
  mobility, TAU) whose aggregate rates are ``n_ue`` times the per-UE
  rates, picking the affected UE uniformly per arrival (superposition
  of n independent Poisson processes);
* every mobility arrival consults the scenario's mobility model; a
  tile transition becomes an intra-region reselection, a Fast Handover
  (shared level-2 parent, §4.3) or a full handover;
* timed faults run through the standard :class:`FaultInjector`, ring
  churn through :meth:`Deployment.add_region` / ``retire_region`` with
  staggered replica re-placement fetches and drain-then-retire
  evacuation handovers;
* measurements stream into bounded-memory
  :class:`~repro.sim.monitor.QuantileSketch` objects keyed by
  ``(region, procedure)`` — no per-procedure list survives the run, so
  100k+ UE populations hold memory flat.

Everything is a pure function of the spec (seed included): the
:class:`EventTrace` digest is the determinism witness, and the
cohort-vs-individual conformance test pins that the flyweight model is
bit-identical to N persistent UE objects.

The engine is one class, :class:`ShardEngine`: one shard's kernel over
the full ghost topology, driving the UEs homed in the level-2 parents
its :class:`ShardMap` gives it.  An unsharded run is its one-shard case.
It ships its tallies, trace and sketches in
:meth:`~ShardEngine.finish_payload`; the epoch loop that steps it, its
hosts and the one place that builds a :class:`ScaleResult` live in
:mod:`repro.scale.shard`.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.deployment import Deployment
from ..faults.injector import FaultInjector, region_of
from ..faults.plan import FaultEvent, FaultPlan, LinkPerturbation
from ..faults.runner import config_from_name
from ..faults.trace import EventTrace
from ..geo.regions import region_for_tile
from ..sim.core import Simulator
from ..sim.monitor import QuantileSketch
from ..sim.rng import RngRegistry
from ..traffic.mobility import (
    CommuteWaveMobility,
    FlashCrowdMobility,
    MobilityModel,
    RandomWalkMobility,
)
from ..traffic.arrivals import modulated_arrivals, poisson_arrivals
from ..traffic.models import (
    Exponential,
    class_ranges,
    get_model,
    process_stream,
    storm_times,
)
from .cohort import BatchedDriver, CohortDriver, IndividualDriver
from .scenarios import ScenarioSpec, get_scenario
from .topology import (
    CHILD_ORDER,
    CityTopology,
    build_city,
    tile_adjacency,
)

__all__ = [
    "MODES",
    "Migration",
    "ScaleResult",
    "ShardEngine",
    "ShardMap",
    "run_replicates",
    "run_scenario",
    "shard_lookahead",
]

#: population models a scale run can drive.
MODES = ("cohort", "individual", "batched")

#: when a re-placement / evacuation finds the UE mid-procedure it polls
#: the busy flag at this interval, giving up after ``_BUSY_TRIES``.
_BUSY_POLL_S = 0.002
_BUSY_TRIES = 250

#: populations at or below this keep the auditor's per-UE causal
#: history (diagnostics); above it, detection-only mode (bounded memory).
_HISTORY_MAX_UES = 5000

#: per-shard auditor violation samples carried into the merged result.
_VIOLATION_SAMPLES = 5

#: wire size of one migration record on the inter-shard channel: one
#: fixed frame for gid + version + clock + completion time + serving BS
#: name.
#: The trace-link id is *not* counted: it rides the obs channel, which
#: a real deployment would ship out of band of the control plane.
_MIGRATION_WIRE_BYTES = 64


def peak_rss_kb() -> float:
    """Peak resident set size of this process in KiB (0.0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX interpreter
        return 0.0
    rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        rss /= 1024.0
    return rss


# --------------------------------------------------------------------------- result


@dataclass
class ScaleResult:
    """Everything one scale run produced (JSON/cache-round-trippable)."""

    scenario: str
    mode: str
    n_ue: int
    duration_s: float
    seed: int
    end_time_s: float
    regions_final: int
    serves: int
    writes: int
    violations: int
    completed: int
    aborted: int
    recovered: int
    reattached: int
    counters: Dict[str, int] = field(default_factory=dict)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: region -> procedure -> {count, mean, min, max, p50, p95, p99} (ms)
    region_pct_ms: Dict[str, Dict[str, Dict[str, Optional[float]]]] = field(
        default_factory=dict
    )
    digest: str = ""
    trace_events: int = 0
    #: batched-lane execution stats (admitted/fallback/spills/...).
    #: compare=False: the lane is an execution strategy, not a result —
    #: cohort-vs-batched conformance compares everything else.
    lane: Dict[str, int] = field(default_factory=dict, compare=False)
    #: shard count the run was partitioned into (1 = unsharded).
    n_shards: int = 1
    #: measured execution cost — total wall-clock seconds,
    #: ``peak_rss_kb`` (the peak RSS of this process), the critical-path
    #: shard wall and ``total_rss_kb``, the summed peak RSS of the worker
    #: processes: 0 when every shard runs in this process, so
    #: ``peak_rss_kb + total_rss_kb`` counts each process once.
    #: compare=False: wall-clock is machine-dependent, never part of the
    #: result contract.
    perf: Dict[str, float] = field(default_factory=dict, compare=False)
    #: per-shard breakdown, one row per shard (one for an unsharded
    #: run): owned parents, local UEs, migrations, wall, ``rss_kb`` —
    #: the peak RSS of the process hosting the shard —, violations
    #: sample, final health row.
    shards: List[Dict[str, Any]] = field(default_factory=list, compare=False)
    #: path of the run ledger written for this run ("" = none) — see
    #: :mod:`repro.obs.ledger`.  compare=False: an artifact pointer,
    #: not part of the simulated result.
    ledger_path: str = field(default="", compare=False)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScaleResult":
        return cls(**data)

    def format_report(self) -> str:
        head = "scenario %s  mode=%s  n_ue=%d  duration=%.3fs  seed=%d" % (
            self.scenario, self.mode, self.n_ue, self.duration_s, self.seed,
        )
        if self.n_shards > 1:
            head += "  shards=%d" % self.n_shards
        lines = [
            head,
            "consistency: serves=%d writes=%d violations=%d"
            % (self.serves, self.writes, self.violations),
            "procedures: completed=%d aborted=%d recovered=%d reattached=%d"
            % (self.completed, self.aborted, self.recovered, self.reattached),
            "regions at end: %d   trace: %d events, digest %s"
            % (self.regions_final, self.trace_events, self.digest),
        ]
        if self.perf:
            perf = "perf: wall=%.3fs peak_rss=%.1fMB" % (
                self.perf.get("wall_s", 0.0),
                self.perf.get("peak_rss_kb", 0.0) / 1024.0,
            )
            if "max_shard_wall_s" in self.perf:
                workers = self.perf.get("total_rss_kb", 0.0)
                perf += "  workers_rss=%.1fMB sum=%.1fMB  max_shard_wall=%.3fs" % (
                    workers / 1024.0,
                    (self.perf.get("peak_rss_kb", 0.0) + workers) / 1024.0,
                    self.perf["max_shard_wall_s"],
                )
            lines.append(perf)
        for shard in self.shards:
            line = (
                "  shard %d: parents=%s n_local=%d migrations=%d/%d "
                "wall=%.3fs rss=%.1fMB violations=%d"
                % (
                    shard.get("shard", 0),
                    ",".join(shard.get("parents", ())),
                    shard.get("n_local", 0),
                    shard.get("migrations_out", 0),
                    shard.get("migrations_in", 0),
                    shard.get("wall_s", 0.0),
                    shard.get("rss_kb", 0.0) / 1024.0,
                    shard.get("violations", 0),
                )
            )
            health = shard.get("health")
            if health:
                line += " events=%d completed=%d" % (
                    health.get("events", 0),
                    health.get("completed", 0),
                )
            lines.append(line)
        if self.ledger_path:
            lines.append("ledger: %s" % self.ledger_path)
        if self.counters:
            lines.append(
                "engine: "
                + " ".join(
                    "%s=%d" % (k, v) for k, v in sorted(self.counters.items())
                )
            )
        if any(self.fault_counters.values()):
            lines.append(
                "faults: "
                + " ".join(
                    "%s=%s" % (k, v) for k, v in sorted(self.fault_counters.items())
                )
            )
        lines.append(
            "%-10s %-16s %8s %9s %9s %9s"
            % ("region", "procedure", "count", "p50 ms", "p95 ms", "p99 ms")
        )
        for region in sorted(self.region_pct_ms):
            for proc in sorted(self.region_pct_ms[region]):
                s = self.region_pct_ms[region][proc]
                lines.append(
                    "%-10s %-16s %8d %9s %9s %9s"
                    % (
                        region,
                        proc,
                        int(s.get("count", 0)),
                        _fmt_ms(s.get("p50")),
                        _fmt_ms(s.get("p95")),
                        _fmt_ms(s.get("p99")),
                    )
                )
        return "\n".join(lines)


def _at_any_time(fn, *args) -> Callable[[float], None]:
    """Arrival handler ``fn(*args)`` that ignores the arrival instant."""
    return lambda _t: fn(*args)


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else "%.3f" % value


# --------------------------------------------------------------------------- engine


def _city_for(spec: ScenarioSpec) -> CityTopology:
    return build_city(
        l2_regions=spec.l2_regions,
        l1_per_l2=spec.l1_per_l2,
        cpfs_per_region=spec.cpfs_per_region,
        bss_per_region=spec.bss_per_region,
        precision=spec.precision,
    )


def _mobility_for(spec: ScenarioSpec, topo: CityTopology) -> MobilityModel:
    w0 = spec.wave_window[0] * spec.duration_s
    w1 = spec.wave_window[1] * spec.duration_s
    if spec.mobility_model == "random_walk":
        return RandomWalkMobility(topo.adjacency)
    if spec.mobility_model == "commute":
        downtown_parent = topo.parents[0]
        downtown = [t for t in topo.tiles if t.startswith(downtown_parent)]
        return CommuteWaveMobility(topo.adjacency, downtown, w0, w1)
    if spec.mobility_model == "flash_crowd":
        ordered = sorted(topo.tiles)
        venue = ordered[len(ordered) // 2]
        return FlashCrowdMobility(topo.adjacency, venue, w0, w1)
    raise ValueError("unknown mobility model %r" % (spec.mobility_model,))


def _expand_fault_events(
    spec: ScenarioSpec, topo: CityTopology
) -> List[FaultEvent]:
    """Timed FaultEvents from the spec's fractional schedule.

    ``target`` forms: a plain node/hop name (passed through with the
    spec's op verbatim), or ``region:index:<k>`` / ``region:<tile>`` with
    op ``fail``/``recover`` — expanded to the tile's CTA plus every CPF.
    """
    tiles = sorted(topo.tiles)
    events: List[FaultEvent] = []
    for frac, op, target in spec.fault_events:
        at = frac * spec.duration_s
        if not target.startswith("region:"):
            events.append(FaultEvent(op=op, target=target, at=at))
            continue
        parts = target.split(":")
        if len(parts) == 3 and parts[1] == "index":
            tile = tiles[int(parts[2])]
        else:
            tile = parts[1]
        region = region_for_tile(tile, spec.cpfs_per_region, spec.bss_per_region)
        if op not in ("fail", "recover"):
            raise ValueError("region fault op must be fail/recover, got %r" % op)
        for cpf in region.cpfs:
            events.append(FaultEvent(op=op + "_cpf", target=cpf, at=at))
        events.append(FaultEvent(op=op + "_cta", target=region.cta, at=at))
    return events


def place_population(
    spec: ScenarioSpec, mobility: MobilityModel, to_index: Callable[[str], int]
) -> array:
    """Home every UE: ``out[i] = to_index(<initial BS name of UE i>)``.

    The one consumer of the ``scale.place`` stream and a pure function
    of (spec, mobility) — which is what makes placement execution-blind:
    a lone shard's engine and the shard partitioner replay the identical
    draw sequence.  ``to_index`` is called once per distinct BS, in
    first-appearance order.
    """
    rng = RngRegistry(spec.seed).stream("scale.place")
    bss = spec.bss_per_region
    idxs: Dict[int, int] = {}
    out = array("I")
    add = out.append
    # ``MobilityModel.initial_tile`` and ``randrange(bss)`` with both
    # ``Random.randrange`` rejection loops inlined (bit-identical draw
    # sequence to ``_randbelow_with_getrandbits``), the index cache keyed
    # by one int: this loop runs once per UE, 500k+ times.
    tiles = mobility.initial_pool
    nt, kt = len(tiles), len(tiles).bit_length()
    kb = bss.bit_length()
    grb = rng.getrandbits
    for _ in range(spec.n_ue):
        r = grb(kt)
        while r >= nt:
            r = grb(kt)
        b = grb(kb)
        while b >= bss:
            b = grb(kb)
        key = r * bss + b
        idx = idxs.get(key)
        if idx is None:
            idx = idxs[key] = to_index("bs-%s-%d" % (tiles[r], b))
        add(idx)
    return out


def _region_pct_ms(
    sketches: Dict[Tuple[str, str], QuantileSketch]
) -> Dict[str, Dict[str, Dict[str, Optional[float]]]]:
    """``(region, procedure)`` sketches -> the result's millisecond table."""
    table: Dict[str, Dict[str, Dict[str, Optional[float]]]] = {}
    for (region, proc), sketch in sorted(sketches.items()):
        summary = sketch.summary()
        out = {"count": summary.get("count", 0.0)}
        for key, value in summary.items():
            if key != "count":
                out[key] = None if value is None else value * 1e3
        table.setdefault(region, {})[proc] = out
    return table


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(
            "mode must be one of %s, got %r" % (", ".join(map(repr, MODES)), mode)
        )


# --------------------------------------------------------------------------- shards


class Migration(NamedTuple):
    """One emigrated UE on the inter-shard channel."""

    dst: int  #: destination shard
    gid: int
    version: int
    clock: Any
    bs: str  #: serving BS at the destination
    t: float  #: completion instant at the source; installs at ``t + Δ``
    #: obs channel: trace-link id joining the emigrating procedure to
    #: its ``shard.install_migrated`` continuation (tracing only)
    link: Optional[str] = None


class ShardMap:
    """Deterministic ownership: contiguous level-2 parent chunks.

    ``parents`` (sorted) is split into ``shards`` contiguous chunks —
    front-loaded remainder — so geohash band contiguity keeps adjacent
    parents (where cross-parent handovers concentrate) co-sharded when
    possible.  Parents churned in *after* the split (the spare tile
    under a fresh parent) are assigned by bisecting into the initial
    chunk starts: a pure function of the name, identical on every shard.
    """

    def __init__(self, parents: List[str], shards: int):
        parents = sorted(set(parents))
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        if shards > len(parents):
            raise ValueError(
                "shards=%d exceeds the city's %d level-2 regions — the "
                "level-2 parent is the shard unit (grow l2_regions or "
                "lower --shards)" % (shards, len(parents))
            )
        self.parents = parents
        self.shards = shards
        base, extra = divmod(len(parents), shards)
        self._chunks: List[List[str]] = []
        self._owner: Dict[str, int] = {}
        start = 0
        for k in range(shards):
            size = base + (1 if k < extra else 0)
            chunk = parents[start:start + size]
            self._chunks.append(chunk)
            for parent in chunk:
                self._owner[parent] = k
            start += size
        self._starts = [chunk[0] for chunk in self._chunks]

    def owner_of_parent(self, parent: str) -> int:
        owner = self._owner.get(parent)
        if owner is None:
            owner = max(0, bisect_right(self._starts, parent) - 1)
            self._owner[parent] = owner
        return owner

    def owner_of_tile(self, tile: str) -> int:
        return self.owner_of_parent(tile[:-1])

    def owned_parents(self, shard: int) -> List[str]:
        return list(self._chunks[shard])


def shard_lookahead(spec: ScenarioSpec) -> float:
    """Conservative lookahead Δ: the minimum cross-shard link delay.

    Cross-shard context transfer rides the far inter-CPF class (the
    level-3 ring); jitter only adds on top of the base latency, so the
    base is a true minimum.  Degenerate configs (zero latency) fall
    back to epoch-synchronised windows of duration/64.
    """
    base = float(config_from_name(spec.config).latency.cpf_cpf_far)
    if base <= 0.0:
        return spec.duration_s / 64.0
    return base


class ShardEngine:
    """One shard's engine: full ghost topology, local traffic only.

    Shard ``shard_idx`` of ``shards`` drives the UEs homed in its own
    level-2 parents.  ``homes`` is None for the only shard of a run,
    which places the whole population itself.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        mode: str = "cohort",
        shard_idx: int = 0,
        shards: int = 1,
        homes: Optional[Tuple[array, array, List[str]]] = None,
        obs=None,
        verbose_trace: bool = False,
    ):
        _check_mode(mode)
        self.spec = spec
        self.mode = mode
        self.shard_idx = shard_idx
        self.n_shards = shards
        self.delta = shard_lookahead(spec)
        self.duration = spec.duration_s
        self.sim = Simulator()
        self.rngs = RngRegistry(spec.seed)
        self.topo = _city_for(spec)
        self.dep = Deployment(
            self.sim,
            config_from_name(spec.config),
            self.topo.region_map(),
            rng=self.rngs.fork("dep"),
        )
        keep = spec.audit_history
        if keep is None:
            keep = spec.n_ue <= _HISTORY_MAX_UES
        self.dep.auditor.keep_history = keep
        if obs is not None:
            obs.install(self.dep)

        self.trace = EventTrace(verbose=verbose_trace)
        plan = FaultPlan(
            seed=spec.seed,
            note="scale:" + spec.name,
            config=spec.config,
            events=_expand_fault_events(spec, self.topo),
            perturbations=[
                LinkPerturbation(hop, drop_p=drop_p)
                for hop, drop_p in spec.link_faults
            ],
        )
        self.injector = FaultInjector(self.dep, plan, trace=self.trace)

        # Orchestration state must exist before driver construction:
        # the batched lane's eligibility check reads ``orch_mutating``.
        self._obs = obs
        self.orch_policy = None
        self.orch_mutating = False
        if spec.orch_policy:
            from ..orch import OrchPolicy

            self.orch_policy = OrchPolicy.from_dict(spec.orch_policy)
            self.orch_mutating = self.orch_policy.mutating

        self.mobility = _mobility_for(spec, self.topo)
        # ``homes`` is where the UEs this engine drives live: None places
        # the whole population here; a shard is handed its share of
        # ``partition_population`` — (ids, BS-index column, BS-name table)
        self._homes = homes
        driver_cls = {
            "cohort": CohortDriver,
            "individual": IndividualDriver,
            "batched": BatchedDriver,
        }[mode]
        ids = range(spec.n_ue) if homes is None else homes[0]
        bs_names = [b for r in self.topo.regions for b in r.bss]
        self.driver = driver_cls(self.dep, bs_names, ids)
        if mode == "batched":
            self.driver.setup_lane(self)
        #: the engine's own processes; ``finish_payload`` re-raises what
        #: one died of
        self._procs: List[Any] = []
        self.counters: Dict[str, int] = {}
        self.sketches: Dict[Tuple[str, str], QuantileSketch] = {}
        self.dep.outcome_sink = self._observe_outcome

        self.shard_map = ShardMap(self.topo.parents, shards)
        if shards > 1:
            # a completed full handover may have crossed the shard boundary
            self.driver.procedure_done = self._after_procedure
            # Per-shard traffic streams: an independent fork per shard
            # index (a lone shard keeps the spec's own).  The deployment
            # already took its rng fork from the *global* registry above,
            # so ghost topologies stay identical everywhere.
            self.rngs = RngRegistry(spec.seed).fork("shard:%d" % shard_idx)
        self._outbox: List[Migration] = []
        #: deterministic trace-link allocator for migration flow events.
        self._next_link = 0
        # Partition the fault plan *after* driver construction: lane
        # eligibility and hazard windows must see the full event list.
        plan = self.injector.plan
        owned: List = []
        mirrored: List = []
        for event in plan.events:
            if event.op.endswith("_cpf") or event.op.endswith("_cta"):
                target_region = region_of(event.target) or ""
                owner = self.shard_map.owner_of_tile(target_region)
            else:
                owner = 0  # link-level ops: shard 0 owns the trace record
            (owned if owner == shard_idx else mirrored).append(event)
        plan.events = owned
        self._mirror_events = mirrored

    # -- bounded-memory measurement ---------------------------------------

    def _observe_outcome(self, outcome) -> None:
        if outcome.pct is None:
            return
        placement = self.dep.placement_of(outcome.ue_id)
        region = placement.region if placement is not None else "?"
        key = (region, outcome.name)
        sketch = self.sketches.get(key)
        if sketch is None:
            sketch = self.sketches[key] = QuantileSketch("%s/%s" % key)
        sketch.observe(outcome.pct)

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    # -- health / heartbeat feed -------------------------------------------

    def _owns_region(self, tile: str) -> bool:
        # counters and trace records for a churn event or an applied
        # orchestration action come from one shard only
        return self.shard_map.owner_of_tile(tile) == self.shard_idx

    def health_row(self) -> Dict[str, Any]:
        """Compact piggyback payload for the epoch-aligned heartbeat.

        Read-only over sim/auditor/driver state — requesting health
        never perturbs the schedule, so heartbeat-on and heartbeat-off
        runs are bit-identical (pinned by the sharded obs witness).
        With an orchestration policy active the row also carries the
        per-region ``load`` table the controller's decisions read.
        """
        sim = self.sim
        auditor = self.dep.auditor
        counters = self.counters
        row: Dict[str, Any] = {
            "shard": self.shard_idx,
            "t": sim.now,
            "events": sim._seq,
            "heap": len(sim._heap),
            "completed": self.driver.completed,
            "migrations_out": counters.get("migrations_out", 0),
            "migrations_in": counters.get("migrations_in", 0),
            "serves": auditor.serves,
            "writes": auditor.writes,
            "violations": len(auditor.violations),
        }
        if self._obs is not None and self._obs.metrics is not None:
            row["metrics"] = self._obs.metrics.snapshot()
        if self.orch_policy is not None:
            row["load"] = self._load_table()
        return row

    def _load_table(self) -> Dict[str, Dict[str, Any]]:
        """Per-owned-region CPF pool state: members, up count, queue depth.

        ``q`` is the summed outstanding load (queued + in service) over
        the region's *up* CPFs — the controller divides by ``up`` for
        the per-CPF hysteresis signal; ``down`` lists dark members (the
        auto-heal detection input).
        """
        table: Dict[str, Dict[str, Any]] = {}
        regions = self.dep.region_map.regions
        for tile in sorted(regions):
            if not self._owns_region(tile):
                continue
            up = 0
            q = 0
            down: List[str] = []
            members = regions[tile].cpfs
            for name in members:
                cpf = self.dep.cpfs.get(name)
                if cpf is None:
                    continue
                if cpf.up:
                    up += 1
                    q += cpf.server.in_system
                else:
                    down.append(name)
            table[tile] = {
                "members": list(members),
                "up": up,
                "q": q,
                "down": down,
            }
        return table

    # -- orchestration actions (repro.orch) --------------------------------
    #
    # Actions arrive from the controller at the coordinator, inside the
    # step message after its tick, and are applied at the tick instant
    # through the deployment's existing choke points (ring ops + the
    # rebalance/repair path).  *Every* shard applies every action
    # (ring/node state must flip identically in every ghost topology,
    # and re-placement of local UEs is per-shard work) but only the
    # owner of the action's region counts and traces it — exactly the
    # fault-mirroring rule.

    def apply_actions(self, actions: List[Dict[str, Any]]) -> None:
        for action in actions:
            self.apply_action(action)

    def apply_action(self, action: Dict[str, Any]) -> None:
        kind = action["kind"]
        owns = self._owns_region(action["region"])
        if kind == "scale_out":
            self._orch_scale_out(action, owns)
        elif kind == "scale_in":
            self.sim.process(self._orch_drain(action, owns), name="orch.scale_in")
        elif kind == "upgrade_begin":
            self.sim.process(self._orch_drain(action, owns), name="orch.upgrade")
        elif kind == "upgrade_replace":
            self.sim.process(
                self._orch_upgrade_replace(action, owns), name="orch.upgrade"
            )
        elif kind == "heal":
            self._orch_heal(action, owns)
        else:
            raise ValueError("unknown orchestration action %r" % (kind,))

    def _orch_trace(self, what: str, action: Dict[str, Any]) -> None:
        self.trace.record(
            self.sim.now,
            "orch",
            action=what,
            region=action["region"],
            cpf=action["cpf"],
        )

    def _orch_scale_out(self, action: Dict[str, Any], owns: bool) -> None:
        region_hash, name = action["region"], action["cpf"]
        region = self.dep.region_map.regions.get(region_hash)
        if region is None or name in region.cpfs:
            if owns:
                self._count("orch_skipped")
            return
        self.dep.add_cpf(region_hash, name)
        if owns:
            self._count("orch_scale_out")
            self._orch_trace("scale_out", action)
        self.sim.process(self._rebalance(), name="orch.rebalance")

    def _orch_drain(self, action: Dict[str, Any], owns: bool):
        """Ring a CPF out, then move every key it still holds.

        One drain for ``scale_in`` and ``upgrade_begin``; only a
        scale-in then decommissions the drained CPF.
        """
        kind = action["kind"]
        scale_in = kind == "scale_in"
        region_hash, name = action["region"], action["cpf"]
        region = self.dep.region_map.regions.get(region_hash)
        if region is None or name not in region.cpfs:
            if owns:
                self._count("orch_skipped")
            return
        try:
            self.dep.remove_cpf(region_hash, name)
        except ValueError:
            # last CPF of the region or of its level-2 parent: the ring
            # guards refuse.  A scale-in pick is dropped; a lone replica
            # cannot be drained, so the upgrade's replace phase restarts
            # it in place (brief outage, recovery path).
            if owns:
                self._count("orch_skipped" if scale_in else "orch_upgrade_undrained")
            return
        if owns:
            self._count("orch_scale_in" if scale_in else "orch_upgrade_drained")
            self._orch_trace(kind, action)
        yield from self._rebalance()
        cpf = self.dep.cpfs.get(name)
        if scale_in and cpf is not None and cpf.up:
            cpf.fail()
            if owns:
                self._count("orch_decommissioned")

    def _orch_upgrade_replace(self, action: Dict[str, Any], owns: bool):
        region_hash, name = action["region"], action["cpf"]
        cpf = self.dep.cpfs.get(name)
        if cpf is None:
            if owns:
                self._count("orch_skipped")
            return
        # restart on the new version: a real NF restart clears the
        # store (CPF.fail does exactly that); repair fetches refill it
        if cpf.up:
            cpf.fail()
        cpf.recover()
        region = self.dep.region_map.regions.get(region_hash)
        if region is not None and name not in region.cpfs:
            self.dep.add_cpf(region_hash, name)
        if owns:
            self._count("orch_upgraded")
            self._orch_trace("upgrade_replace", action)
        yield from self._rebalance()

    def _orch_heal(self, action: Dict[str, Any], owns: bool) -> None:
        """Promote a crashed CPF's orphaned primaries; optionally restart it.

        This is the controller racing the paper's reactive two-level
        recovery: any UE whose next procedure would have paid the
        on-demand §4.2.5 failover instead finds an up-to-date backup
        already promoted.  Promotion is version-guarded — a backup below
        the UE's RYW floor is never promoted, so consistency is never
        traded for capacity.
        """
        name = action["cpf"]
        cpf = self.dep.cpfs.get(name)
        if cpf is None:
            if owns:
                self._count("orch_skipped")
            return
        promotions = 0
        if not cpf.up:
            for ue_id, placement in sorted(self.dep.placements_items()):
                if placement.primary != name:
                    continue
                slot = self._slot_for(ue_id)
                if slot is None or self.driver.busy[slot]:
                    continue
                need = self.driver.version[slot]
                for backup in placement.backups:
                    bcpf = self.dep.cpfs.get(backup)
                    if bcpf is None or not bcpf.up:
                        continue
                    if bcpf.store.current(ue_id, need) is not None:
                        self.dep.promote(ue_id, backup)
                        promotions += 1
                        break
        if owns and promotions:
            self._count("orch_heal_promotions", promotions)
        if action.get("recover") and not cpf.up:
            self.dep.recover_cpf(name)
            if owns:
                self._count("orch_healed")
                self._orch_trace("heal", action)

    def _on_fault_op(self, now: float, op: str, target: str) -> None:
        """Injector listener: instant crash detection for the controller."""
        if op.startswith("fail_"):
            self._count("orch_crash_detected")

    # -- population --------------------------------------------------------

    def _bootstrap_population(self) -> None:
        driver = self.driver
        if self._homes is None:
            placed = place_population(self.spec, self.mobility, driver.bs_index)
        else:
            _ids, column, table = self._homes
            index = [driver.bs_index(name) for name in table]
            placed = array("I", map(index.__getitem__, column))
        if driver.lazy:
            # everything else was prefilled wholesale in setup_lane
            driver.bs_idx = placed
            return
        names = driver.bs_names
        for i, idx in enumerate(placed):
            driver.bootstrap(i, names[idx])

    def _spawn(self, i: int, proc: str, target_bs: Optional[str]) -> None:
        self._count("procedures_started")
        self.driver.start_procedure(i, proc, target_bs)

    # -- the merged arrival driver ------------------------------------------

    def _traffic(self):
        """Play every ``(arrival times, handler)`` stream in time order.

        The merge advances a stream only after its last arrival was
        handled, so a handler sharing its stream's RNG (mobility) draws
        before the next inter-arrival does.
        """
        sim = self.sim
        streams = (
            self._model_streams()
            if self.spec.traffic_model
            else self._poisson_streams()
        )
        handlers = [handler for _times, handler in streams]
        for t, idx in heapq.merge(
            *[zip(times, repeat(idx)) for idx, (times, _h) in enumerate(streams)]
        ):
            if t >= self.duration:
                return
            if t > sim.now:
                yield t - sim.now
            handlers[idx](t)

    def _poisson_streams(self):
        """Service / mobility / TAU as three aggregated Poisson streams.

        Aggregate rates are the driven population times the per-UE
        rates, the affected UE picked uniformly per arrival
        (superposition of n independent Poisson processes).
        """
        spec, n = self.spec, self.driver.n
        pick_rng = self.rngs.stream("scale.pick")
        move_rng = self.rngs.stream("scale.move")
        # mobility models with a wave window get a boosted rate inside
        # it; sample at the peak of the piecewise-constant intensity and
        # thin wherever the local rate sits below that peak (the
        # Lewis-Shedler candidate rate must dominate the true rate
        # everywhere — a boost < 1, a wave-window *lull*, therefore
        # samples at the base rate and thins inside the window).
        windowed = spec.mobility_model in ("commute", "flash_crowd")
        boost = spec.wave_mobility_boost if windowed else 1.0
        peak_mult = max(boost, 1.0)
        w0 = spec.wave_window[0] * self.duration
        w1 = spec.wave_window[1] * self.duration

        def move(t: float) -> None:
            # the window is decided on the arrival instant itself, not
            # on sim.now (which reaches it through a float subtraction)
            mult = boost if w0 <= t < w1 else 1.0
            # acceptance with probability mult/peak_mult; skip the draw
            # entirely at probability 1 so the boost >= 1 RNG sequence
            # (pinned by determinism witnesses) is untouched by the
            # boost < 1 fix
            if mult >= peak_mult or move_rng.random() * peak_mult < mult:
                self._count("moves_accepted")
                self._arrival_move(pick_rng, move_rng)
            else:
                self._count("moves_thinned")

        streams = [
            ("scale.svc", n * spec.service_rate_per_ue,
             _at_any_time(self._arrival_service, pick_rng)),
            ("scale.move", n * spec.mobility_rate_per_ue * peak_mult, move),
            ("scale.tau", n * spec.tau_rate_per_ue,
             _at_any_time(self._arrival_tau, pick_rng)),
        ]
        return [
            (poisson_arrivals(rate, self.duration, self.rngs.stream(name)), handler)
            for name, rate, handler in streams
            if rate > 0.0
        ]

    def _pick_idle(
        self, pick_rng, lo: int = 0, hi: Optional[int] = None
    ) -> Optional[int]:
        driver = self.driver
        bucket = driver.bucket(lo, hi)
        if not bucket:
            self._count("arrivals_no_local")
            return None
        # one draw per arrival whatever the ids: over a whole population
        # the bucket is range(lo, hi) and this consumes exactly the draw
        # randrange(lo, hi) does, so the pinned RNG sequences hold
        i = bucket[pick_rng.randrange(len(bucket))]
        if driver.gone[i]:
            self._count("arrivals_skipped_remote")
            return None
        if driver.busy[i]:
            self._count("arrivals_skipped_busy")
            return None
        return i

    def _arrival_service(self, pick_rng, lo: int = 0, hi: Optional[int] = None) -> None:
        i = self._pick_idle(pick_rng, lo, hi)
        if i is None:
            return
        if not self.driver.attached[i]:
            # a previously aborted UE re-enters via attach
            self._count("reattach_arrivals")
            self._spawn(i, "attach", None)
            return
        self._spawn(i, "service_request", None)

    def _arrival_tau(self, pick_rng, lo: int = 0, hi: Optional[int] = None) -> None:
        i = self._pick_idle(pick_rng, lo, hi)
        if i is None or not self.driver.attached[i]:
            if i is not None:
                self._count("arrivals_skipped_detached")
            return
        self._spawn(i, "tau", None)

    def _arrival_move(
        self, pick_rng, move_rng, lo: int = 0, hi: Optional[int] = None
    ) -> None:
        i = self._pick_idle(pick_rng, lo, hi)
        if i is None or not self.driver.attached[i]:
            if i is not None:
                self._count("arrivals_skipped_detached")
            return
        bs_name = self.driver.bs_of(i)
        cur = bs_name.split("-")[1]
        nxt = self.mobility.next_tile(move_rng, cur, self.sim.now)
        bss = self.spec.bss_per_region
        if nxt is None or nxt == cur:
            if bss < 2:
                self._count("moves_no_target")
                return
            cur_k = int(bs_name.split("-")[2])
            k = (cur_k + 1 + pick_rng.randrange(bss - 1)) % bss
            self._count("moves_intra")
            self._spawn(i, "intra_handover", "bs-%s-%d" % (cur, k))
            return
        target_bs = "bs-%s-%d" % (nxt, pick_rng.randrange(bss))
        if target_bs not in self.dep.bss:  # pragma: no cover - defensive
            self._count("moves_no_target")
            return
        try:
            fast = self.dep.region_map.shares_level2(cur, nxt)
        except KeyError:
            fast = False
        if fast:
            self._count("moves_fast_handover")
            self._spawn(i, "fast_handover", target_bs)
        else:
            self._count("moves_handover")
            self._spawn(i, "handover", target_bs)

    # -- the measured traffic-model driver ---------------------------------

    def _model_streams(self):
        """Build every (arrival-times, handler) stream of the spec's model.

        One named RNG stream per (class, procedure) / storm / mobility
        process, so a stream's draw sequence never depends on how the
        others interleave — the whole schedule is a pure function of
        (model, spec).  The calibration suite consumes the identical
        ``process_stream``/``storm_times`` emitters.
        """
        spec = self.spec
        model = get_model(spec.traffic_model)
        scale = spec.traffic_rate_scale
        ranges = class_ranges(model, spec.n_ue)
        streams = []
        for cls in model.classes:
            lo, hi = ranges[cls.name]
            class_n = len(self.driver.bucket(lo, hi))
            if class_n <= 0:
                continue
            pick_rng = self.rngs.stream("traffic.pick." + cls.name)
            for proc in cls.processes:
                rng = self.rngs.stream(
                    "traffic.%s.%s" % (cls.name, proc.procedure)
                )
                times = process_stream(
                    proc, class_n, self.duration, rng,
                    model=model, rate_scale=scale,
                )
                arrival = (
                    self._arrival_service
                    if proc.procedure == "service_request"
                    else self._arrival_tau
                )
                streams.append((times, _at_any_time(arrival, pick_rng, lo, hi)))
            if cls.mobility_mean_s > 0:
                move_rng = self.rngs.stream(
                    "traffic.%s.mobility" % cls.name
                )
                move_dist = Exponential(
                    cls.mobility_mean_s / (class_n * scale)
                )
                times = modulated_arrivals(
                    move_dist.sample, self.duration, move_rng
                )
                streams.append((
                    times,
                    _at_any_time(self._arrival_move, pick_rng, move_rng, lo, hi),
                ))
        for storm in model.storms:
            lo, hi = ranges[storm.device_class]
            rng = self.rngs.stream("traffic.storm." + storm.name)
            class_n = len(self.driver.bucket(lo, hi))
            times = iter(storm_times(storm, class_n, self.duration, rng))
            pick_rng = self.rngs.stream("traffic.pick." + storm.device_class)
            streams.append((
                times,
                _at_any_time(self._arrival_storm, storm, pick_rng, lo, hi),
            ))
        return streams

    def _arrival_storm(self, storm, pick_rng, lo, hi) -> None:
        self._count("storm_arrivals")
        self._count("storm_arrivals." + storm.name)
        i = self._pick_idle(pick_rng, lo, hi)
        if i is None:
            return
        proc = storm.procedure
        if proc == "attach":
            # mass re-registration: detached devices re-enter, already
            # attached ones re-register (the storm's whole point is the
            # redundant synchronized signaling)
            if not self.driver.attached[i]:
                self._count("storm_reattach")
            else:
                self._count("storm_reregister")
            self._spawn(i, "attach", None)
            return
        if not self.driver.attached[i]:
            # paged / timer-fired while detached: re-registration first
            self._count("reattach_arrivals")
            self._spawn(i, "attach", None)
            return
        self._spawn(i, proc, None)

    # -- ring churn --------------------------------------------------------

    def _refresh_mobility(self) -> None:
        self.mobility.set_adjacency(
            tile_adjacency(sorted(self.dep.region_map.regions))
        )

    def _resolve_churn_tile(self, tile_spec: str) -> str:
        if tile_spec == "spare":
            if self.topo.spare_tile is None:
                raise ValueError("scenario churns 'spare' but city has none")
            return self.topo.spare_tile
        if tile_spec.startswith("fill:"):
            parent = self.topo.parents[int(tile_spec.split(":")[1])]
            used = {t for t in self.topo.tiles if t[:-1] == parent}
            for child in CHILD_ORDER:
                if parent + child not in used:
                    return parent + child
            raise ValueError("level-2 parent %s has no free child tile" % parent)
        return tile_spec

    def _churn(self):
        for frac, kind, tile_spec in sorted(self.spec.churn_events):
            at = frac * self.duration
            if at > self.sim.now:
                yield at - self.sim.now
            tile = self._resolve_churn_tile(tile_spec)
            if kind == "add":
                yield from self._churn_add(tile)
            elif kind == "remove":
                yield from self._churn_remove(tile)
            else:
                raise ValueError("unknown churn kind %r" % (kind,))

    # Every engine applies every ring change (node state must flip
    # identically in every ghost topology, and re-placing *local* UEs
    # is per-shard work); only the owner of the tile counts the event
    # and evacuates — the rule the ``_orch_*`` actions follow.

    def _churn_add(self, tile: str):
        owns = self._owns_region(tile)
        if tile in self.dep.region_map.regions:
            if owns:
                self._count("churn_add_skipped")
            return
        self.dep.add_region(
            region_for_tile(
                tile, self.spec.cpfs_per_region, self.spec.bss_per_region
            )
        )
        if owns:
            self._count("regions_added")
        self._refresh_mobility()
        yield from self._rebalance()

    def _churn_remove(self, tile: str):
        owns = self._owns_region(tile)
        regions = self.dep.region_map.regions
        if tile not in regions:
            if owns:
                self._count("churn_remove_skipped")
            return
        # Stop steering traffic into the tile before draining it.
        remaining = [t for t in regions if t != tile]
        self.mobility.set_adjacency(tile_adjacency(remaining))
        if owns:
            # no UE lives under a foreign parent (in-flight immigrants
            # land under owned ones), so only the owner has evacuees
            neighbours = [
                t
                for t in tile_adjacency(sorted(regions)).get(tile, ())
                if t in remaining
            ]
            yield from self._evacuate(tile, neighbours or remaining)
        # Detached UEs have no serving region to hand over from; their
        # placements just dissolve (a later attach re-derives them).
        for ue_id, placement in list(self.dep.placements_items()):
            if placement.region == tile:
                self.dep.drop_placement(ue_id)
                if owns:
                    self._count("placements_dropped")
        self.dep.retire_region(tile)
        if owns:
            self._count("regions_removed")
        yield from self._rebalance()

    def _evacuees(self, tile: str) -> List[int]:
        # an emigrated slot is detached, so ``attached`` alone excludes it
        return [
            i
            for i in range(self.driver.n)
            if self.driver.attached[i]
            and self.driver.bs_of(i).split("-")[1] == tile
        ]

    def _evacuate(self, tile: str, exits: List[str]):
        """Re-home every UE served in ``tile`` via real handovers."""
        for attempt in range(3):
            evacuees = self._evacuees(tile)
            if not evacuees:
                return
            window = self.spec.rebalance_window_s
            procs = [
                self.sim.process(
                    self._rehome_one(i, tile, exits, window * j / len(evacuees)),
                    name="scale.rehome",
                )
                for j, i in enumerate(evacuees)
            ]
            for p in procs:
                yield p
        leftovers = self._evacuees(tile)
        if leftovers:  # pragma: no cover - three passes always drain
            self._count("evacuation_incomplete", len(leftovers))

    def _idle_after(self, i: int, delay: float, skipped: str):
        """Stagger by ``delay``, then poll until UE ``i`` is idle.

        Returns False — counting ``skipped`` — when the UE stayed
        mid-procedure for all ``_BUSY_TRIES`` polls.
        """
        if delay > 0.0:
            yield delay
        for _ in range(_BUSY_TRIES):
            if not self.driver.busy[i]:
                return True
            yield _BUSY_POLL_S
        self._count(skipped)
        return False

    def _rehome_one(self, i: int, tile: str, exits: List[str], delay: float):
        try:
            idle = yield from self._idle_after(i, delay, "rehome_busy_skipped")
            if not idle or not self.driver.attached[i]:
                return
            cur = self.driver.bs_of(i).split("-")[1]
            if cur != tile:  # wandered out on its own
                return
            target_tile = exits[i % len(exits)]
            target_bs = "bs-%s-%d" % (
                target_tile,
                i % self.spec.bss_per_region,
            )
            try:
                fast = self.dep.region_map.shares_level2(cur, target_tile)
            except KeyError:
                fast = False
            proc = "fast_handover" if fast else "handover"
            yield from self.driver.run_procedure(i, proc, target_bs)
            self._count("rehomed")
        except Exception:  # pragma: no cover - evacuation must not wedge
            self._count("rehome_errors")

    # -- replica re-placement after ring churn -----------------------------

    def _rebalance(self):
        """Move the (consistent-hashing-small) set of re-owned keys.

        Fetches are staggered over ``rebalance_window_s`` so a churned-in
        CTA warms up without a stampede; each UE is re-placed atomically
        while marked busy so no procedure interleaves with the copy.
        """
        changed = self.dep.stale_placements()
        self._count("replacements_planned", len(changed))
        if not changed:
            return
        window = self.spec.rebalance_window_s
        procs = [
            self.sim.process(
                self._replace_one(ue_id, window * j / len(changed)),
                name="scale.replace",
            )
            for j, (ue_id, _p, _prim, _bkps) in enumerate(changed)
        ]
        for p in procs:
            yield p

    def _slot_for(self, ue_id: str) -> Optional[int]:
        """Driver slot of a cohort UE id (None if not driven here)."""
        return self.driver.slot(int(ue_id.split("-")[-1]))

    def _replace_one(self, ue_id: str, delay: float):
        try:
            # slots are never deleted and a placement exists only for a
            # UE that has one, so the lookup cannot change over the wait
            i = self._slot_for(ue_id)
            if i is None:
                return
            idle = yield from self._idle_after(i, delay, "replace_busy_skipped")
            if not idle:
                return
            placement = self.dep.placement_of(ue_id)
            if placement is None:
                return
            try:
                primary, backups = self.dep.desired_replicas(ue_id, placement.region)
            except KeyError:
                return  # region itself went away; evacuation owns this UE
            if primary == placement.primary and backups == placement.backups:
                return  # already converged (re-checked after the stagger)
            self.driver.busy[i] = 1
            try:
                ok = yield from self._copy_state(i, ue_id, placement, primary, backups)
                if not ok:
                    self._count("replace_fetch_failed")
                    return  # keep the old placement; nothing was torn down
                self.dep.apply_placement(ue_id, placement.region, primary, backups)
                for name, is_primary in [(primary, True)] + [
                    (b, False) for b in backups
                ]:
                    entry = self.dep.cpfs[name].store.get(ue_id)
                    if entry is not None:
                        entry.is_primary = is_primary
                self._count("replaced")
            finally:
                self.driver.busy[i] = 0
        except Exception:  # pragma: no cover - re-placement must not wedge
            self._count("replace_errors")

    def _copy_state(self, i: int, ue_id: str, placement, primary: str, backups):
        """Repair-fetch up-to-date state onto every new holder."""
        need_version = self.driver.version[i]
        sources = [placement.primary] + list(placement.backups)
        for target in [primary] + list(backups):
            cpf = self.dep.cpfs.get(target)
            if cpf is None or not cpf.up:
                return False
            if cpf.store.current(ue_id, need_version) is not None:
                continue
            fetched = False
            for source in sources:
                if source == target:
                    continue
                src_cpf = self.dep.cpfs.get(source)
                if src_cpf is None or not src_cpf.up:
                    continue
                ok = yield from cpf.fetch_state_from(ue_id, source)
                if ok:
                    entry = cpf.store.get(ue_id)
                    if entry is not None and entry.version >= need_version:
                        fetched = True
                        break
            if not fetched:
                return False
        return True

    # -- run ---------------------------------------------------------------

    def prepare(self) -> None:
        """Install population, faults and arrival processes (no sim yet)."""
        self._bootstrap_population()
        self.injector.install()
        procs = self._procs
        procs.append(self.sim.process(self._traffic(), name="scale.traffic"))
        if self.spec.churn_events:
            procs.append(self.sim.process(self._churn(), name="scale.churn"))
        if self.orch_policy is not None:
            self.injector.add_listener(self._on_fault_op)
        # Node state must flip identically in every ghost topology, so a
        # foreign-owned fault op is applied bare; the owning shard alone
        # counts and records it, and the merged fault_counters and trace
        # see it exactly once.
        self.injector.mirror(self._mirror_events)
        if self.n_shards > 1:  # one shard has no boundary to count
            self._wrap_hop()

    def _wrap_hop(self) -> None:
        """Count hops whose endpoints' parents live in different shards.

        The ghost execution carries what a distributed deployment would
        ship over the inter-shard channel (cross-parent handover and
        repair legs); the wrapper makes that channel load observable.
        """
        inner = self.dep.hop
        owner_of = self.shard_map.owner_of_parent
        counters = self.counters

        def hop(hop_class, nbytes, src=None, dst=None, parent=None, at=None):
            if src is not None and dst is not None:
                rs, rd = region_of(src), region_of(dst)
                if (
                    rs is not None
                    and rd is not None
                    and rs[:-1] != rd[:-1]
                    and owner_of(rs[:-1]) != owner_of(rd[:-1])
                ):
                    counters["channel_messages"] = (
                        counters.get("channel_messages", 0) + 1
                    )
                    counters["channel_bytes"] = (
                        counters.get("channel_bytes", 0) + nbytes
                    )
            return inner(hop_class, nbytes, src, dst, parent, at)

        self.dep.hop = hop

    # -- migration protocol ------------------------------------------------

    def _after_procedure(self, i: int) -> None:
        """Emigrate UE ``i`` if its procedure left it under a foreign parent."""
        driver = self.driver
        if driver.gone[i] or not driver.attached[i]:
            return
        bs_name = driver.bs_of(i)
        dst = self.shard_map.owner_of_tile(bs_name.split("-")[1])
        if dst == self.shard_idx:
            return
        ue_id = driver.ue_id(i)
        now = self.sim.now
        link = None
        obs = self._obs
        if obs is not None and obs.mode == "trace":
            # obs channel: no sim consumer reads the link and the trace
            # records below never mention it — digest-transparent.
            link = "m%d:%d" % (self.shard_idx, self._next_link)
            self._next_link += 1
            last = obs.last_root
            span_id = (
                last[0] if last is not None and last[1] == ue_id else None
            )
            obs.note_migration_out(link, span_id, now, ue_id, dst)
        self._outbox.append(
            Migration(
                dst, driver.ids[i], driver.version[i],
                self.dep.clock_of(ue_id), bs_name, now, link,
            )
        )
        driver.tombstone(i)
        self.dep.drop_placement(ue_id)
        self._count("migrations_out")
        self._count("channel_messages")
        self._count("channel_bytes", _MIGRATION_WIRE_BYTES)
        self.trace.record(
            now,
            "shard_migrate_out",
            ue=ue_id,
            to=dst,
            bs=bs_name,
            version=driver.version[i],
        )

    def deliver(self, records: List[Migration]) -> None:
        """Schedule immigrant installs at their conservative arrival times."""
        for rec in records:
            self.sim.schedule_at(rec.t + self.delta, self._install, rec)

    def _install(self, rec: Migration) -> None:
        gid, version, bs_name = rec.gid, rec.version, rec.bs
        driver = self.driver
        i = driver.add_slot(gid)
        driver.busy[i] = 0
        driver.version[i] = version
        driver.bs_idx[i] = driver.bs_index(bs_name)
        ue_id = driver.ue_id(i)
        self._count("migrations_in")
        try:
            self.dep.install_migrated(ue_id, bs_name, version, rec.clock)
        except LookupError:
            # destination region dark at arrival: the UE re-enters
            # detached, exactly like a procedure abort mid-recovery
            driver.attached[i] = 0
            self._count("migrations_in_detached")
        else:
            driver.attached[i] = 1
        obs = self._obs
        if obs is not None and obs.mode == "trace":
            # zero-duration continuation span: the destination-side
            # anchor the stitched flow event lands on
            now = self.sim.now
            span = obs.tracer.record(
                "shard.install_migrated", None, "migrate", now, now,
                "ok" if driver.attached[i] else "detached",
                {"ue": ue_id, "bs": bs_name, "version": version},
            )
            obs.note_migration_in(rec.link, span.span_id, now, ue_id)
        self.trace.record(
            self.sim.now,
            "shard_migrate_in",
            ue=ue_id,
            bs=bs_name,
            version=version,
        )

    # -- epoch stepping ----------------------------------------------------

    def advance(self, until: float) -> None:
        self.sim.run(until=until)

    def next_event_s(self) -> float:
        """Earliest instant this shard could execute (hence emit) anything.

        ``run(until)`` drains the immediate queue before returning, so
        after an epoch step the answer is simply the heap head (or +inf
        when drained).  The coordinator uses the minimum across shards
        to fast-forward over event-free epochs, and +inf everywhere as
        its drained test — see ``_epoch_loop``.
        """
        if self.sim._immediate:
            return self.sim.now
        heap = self.sim._heap
        return heap[0][0] if heap else float("inf")

    def take_outbox(self) -> List[Migration]:
        out = self._outbox
        self._outbox = []
        return out

    def finish_payload(self) -> Dict[str, Any]:
        """This shard's tallies, trace and sketches, for the merge.

        Raises what the first of the engine's own processes to die
        raised: a run whose arrival or churn loop crashed has no result.
        The trace, the sketch table and the obs snapshot are handed
        over, not copied: the engine is freed next.
        """
        for proc in self._procs:
            proc.value  # re-raises a stored failure
        self.driver.flush_trace()
        auditor = self.dep.auditor
        driver = self.driver
        return {
            "serves": auditor.serves,
            "writes": auditor.writes,
            "violations": len(auditor.violations),
            "violations_sample": [
                {
                    "time": v.time,
                    "ue": v.ue_id,
                    "cpf": v.cpf_name,
                    "reader_version": v.reader_version,
                    "served_version": v.served_version,
                    "span": v.span_id,
                }
                for v in auditor.violations[:_VIOLATION_SAMPLES]
            ],
            "completed": driver.completed,
            "aborted": driver.aborted,
            "recovered": driver.recovered,
            "reattached": driver.reattached,
            "counters": self.counters,
            "fault_counters": self.injector.fault_counters(),
            "lane": driver.lane_stats(),
            # the instant of the last event, not the last epoch boundary
            "end_time_s": self.sim.last_event_s,
            "trace": self.trace,
            "sketches": self.sketches,
            "owned_regions": sum(
                map(self._owns_region, self.dep.region_map.regions)
            ),
            "parents": self.shard_map.owned_parents(self.shard_idx),
            # the placement column: the ids grow with immigrants
            "n_local": (
                self.spec.n_ue if self._homes is None else len(self._homes[1])
            ),
            "health": self.health_row(),
            "obs": self._obs.hand_over() if self._obs is not None else None,
        }


# --------------------------------------------------------------------------- api


def run_scenario(
    scenario,
    n_ue: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    mode: str = "cohort",
    obs=None,
    stream=None,
    verbose_trace: bool = False,
    shards: int = 1,
    shard_backend: str = "auto",
) -> ScaleResult:
    """Run one scenario (by name or :class:`ScenarioSpec`) to completion.

    Every run goes through the lockstep epoch loop of
    :mod:`repro.scale.shard`: the city is partitioned by level-2 parent
    across ``shards`` shard engines (``0`` = one per core) and the
    results merge deterministically; one shard is the unsharded run.
    ``shard_backend`` picks the vehicle: ``"process"`` runs shard 0 in
    this process and forks one worker per other shard, ``"inline"`` runs
    every engine round-robin in-process (bit-identical results — the CI
    witness path), and ``"auto"`` picks processes when more than one
    core is available.  A worker that dies or stays silent for
    :data:`~repro.scale.shard.WORKER_DEADLINE_S` fails the run with a
    ``RuntimeError`` naming its shard.

    ``obs`` (an :class:`~repro.obs.Observability` *template*: each shard
    builds its own instance from its mode and ``span_keep``) enables
    per-shard tracing or metrics; the result carries the per-shard
    snapshots as ``obs_shards`` (the input of
    :func:`~repro.obs.export.stitch_chrome_trace`) and their fold as
    ``obs_snapshot``.  ``stream`` (a
    :class:`~repro.obs.stream.HeartbeatStream`) turns on the
    epoch-aligned NDJSON heartbeat feed and its final summary row.  A
    spec with an ``orch_policy`` runs under the controller and carries
    ``orch_policy`` / ``orch_log`` / ``orch_summary``.
    """
    from .shard import coordinate

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    spec = spec.with_overrides(n_ue=n_ue, duration_s=duration_s, seed=seed)
    return coordinate(
        spec, mode, shards, shard_backend,
        obs=obs, stream=stream, verbose_trace=verbose_trace,
    )


def _replicate_task(task: Tuple[ScenarioSpec, str]) -> ScaleResult:
    """Module-level so process pools can pickle it."""
    spec, mode = task
    return run_scenario(spec, mode=mode)


def replicate_key(task: Tuple[ScenarioSpec, str]) -> Dict[str, Any]:
    spec, mode = task
    payload = asdict(spec)
    payload["mode"] = mode
    return payload


def run_replicates(
    scenario,
    seeds: List[int],
    n_ue: Optional[int] = None,
    duration_s: Optional[float] = None,
    mode: str = "cohort",
    jobs: int = 1,
    cache=None,
    report=None,
) -> List[ScaleResult]:
    """One run per seed, through the generic parallel runner + cache."""
    from ..experiments.parallel import run_tasks

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    spec = spec.with_overrides(n_ue=n_ue, duration_s=duration_s)
    tasks = [(spec.with_overrides(seed=s), mode) for s in seeds]
    return run_tasks(
        tasks,
        _replicate_task,
        jobs=jobs,
        cache=cache,
        key_fn=replicate_key,
        kind="scale.replicate",
        report=report,
    )
