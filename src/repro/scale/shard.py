"""Multi-process sharded city: one simulator kernel per level-2 region group.

The single-process harness tops out around 100k UEs on one core.  This
module partitions the city **by level-2 (CTA) parent** across shard
engines — each shard runs its own :class:`~repro.sim.core.Simulator`
with the unchanged cohort / batched-lane drivers over the *full* ghost
topology, but its driver is built from — and so drives traffic only
for — the global ids of the UEs homed in its own level-2 parents
(:func:`partition_population`; how ids map to slots is the driver's
business, see :mod:`~repro.scale.cohort`).  The level-2 parent is the
natural shard unit because the topology makes it a consistency boundary:

* Fast Handover (§4.3) requires a shared level-2 parent, so it never
  crosses shards;
* geo-replication at ``georep_level=2`` keeps every checkpoint/repair
  leg inside one parent, so replica traffic never crosses shards;
* only the **full handover** moves a UE between parents — that one
  procedure is the entire cross-shard protocol surface.

A full cross-parent handover executes *entirely inside the source
shard* against its ghost copy of the destination region (every node
exists in every shard; UE state lives only in the owning shard's
deployment).  On completion — the driver's ``procedure_done`` callback —
the UE is torn down locally, its slot tombstoned, and a small
migration record — a :class:`Migration` ``(dst, gid, version, runs,
clock, bs, t)`` — is carried over the inter-process channel and
installed in the destination shard at ``t + Δ`` via
:meth:`~repro.core.deployment.Deployment.install_migrated`, preserving
the RYW reader floor across the process boundary.

**Observability channel.** When tracing is installed, a trace-link id
rides *alongside* the migration record in its optional ``link`` field —
the obs channel.  No sim-side consumer reads ``link``, the EventTrace
records never include it, and the link allocator draws no randomness,
so the merged digest is bit-identical with or without tracing (the
sharded obs witness pins this).  At merge
time each shard exports its bounded-retention span table plus the
flow tables keyed by link id, and the coordinator stitches one
Chrome/Perfetto trace with one process per shard and flow events
joining each emigrating procedure to its ``shard.install_migrated``
continuation.  Shards also piggyback compact health rows on the
lockstep epoch replies (zero extra round trips), which the coordinator
folds into the ``--obs-stream`` NDJSON heartbeat feed.

**Conservative lookahead.** Δ is the minimum cross-shard notification
delay (one far inter-CPF hop, :func:`shard_lookahead`); link jitter
only ever *adds* latency, so Δ is a true lower bound.  All shards
advance in lockstep epochs of width Δ; a record completed during epoch
``k`` (``t ∈ ((k-1)Δ, kΔ]``) arrives at ``t + Δ > kΔ`` — never in the
destination's past — so each shard can safely simulate a whole epoch
without hearing from the others.  The run continues past the traffic
horizon until every shard's queues drain and no record is in flight.

**Determinism contract.** For a *fixed shard count*, the merged run is
bit-deterministic: each shard is a pure function of (spec, shard index)
— per-shard RNG registries are forked as ``shard:<k>`` — record routing
and install order are fixed by (shard order, emission order), and the
merged EventTrace orders records by ``(time, shard, seq)``
(:func:`~repro.faults.trace.merge_traces`).  A worker process *is* an
:class:`_InlineHost` behind a pipe, so the serial inline backend and the
multi-process backend run the identical engine call sequence by
construction and produce identical digests — which is how CI pins the
witness on single-core runners.  A sharded trajectory is *not*
identical to the unsharded one (ghost regions do not see other shards'
load); ``--shards 1`` bypasses all of this and is bit-identical to today.

Fault plans are partitioned so region-attributable ops (``*_cpf`` /
``*_cta``) are *owned* (counted + traced) by the shard owning the
target's parent and silently mirrored everywhere else — node state
flips identically in every ghost topology.  Ring churn works the same
way (``_Engine._churn_add`` / ``_churn_remove``): every shard applies
the ring change (placement rebalance is per-shard work); only the owner
runs evacuation and counts the event.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from functools import partial
from array import array
from bisect import bisect_right
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..faults.injector import region_of
from ..faults.trace import merge_traces
from ..sim.monitor import QuantileSketch
from ..sim.rng import RngRegistry
from ..experiments.parallel import (
    WorkerSpawnError,
    default_jobs,
    spawn_workers,
)
from ..faults.runner import config_from_name
from .engine import (
    ScaleResult,
    _Engine,
    _city_for,
    _mobility_for,
    _attach_orch,
    _check_mode,
    peak_rss_kb,
    place_population,
    _region_pct_ms,
    run_scenario,
)
from .scenarios import ScenarioSpec, get_scenario

__all__ = [
    "Migration",
    "ShardMap",
    "ShardEngine",
    "city_parents",
    "partition_population",
    "run_sharded",
    "shard_lookahead",
]

#: safety valve: epochs allowed past the traffic horizon before the
#: coordinator declares the run wedged (busy-polls and in-flight
#: procedures drain within a handful of epochs in practice).
_DRAIN_EPOCHS_MAX = 100_000

#: per-shard auditor violation samples carried into the merged result.
_VIOLATION_SAMPLES = 5

#: wire size of one migration record on the inter-shard channel
#: (gid + version + runs + clock + completion time + serving BS name).
#: The trace-link id is *not* counted: it rides the obs channel, which
#: a real deployment would ship out of band of the control plane.
_MIGRATION_WIRE_BYTES = 64


# ------------------------------------------------------------------ partition


class Migration(NamedTuple):
    """One emigrated UE on the inter-shard channel."""

    dst: int  #: destination shard
    gid: int
    version: int
    runs: int
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


def city_parents(spec: ScenarioSpec) -> List[str]:
    """Sorted level-2 parents of the spec's city (the shardable units)."""
    return sorted({t[:-1] for t in _city_for(spec).tiles})


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


def partition_population(
    spec: ScenarioSpec, shard_map: ShardMap
) -> List[Tuple[array, array, List[str]]]:
    """Home every UE, replaying the global placement draw sequence once.

    Places the population exactly as the single-process engine does
    (:func:`~repro.scale.engine.place_population`), then routes each
    ``(gid, bs)`` to the owner of its tile's parent.  Returns each
    shard's homes — ``(gid array, bs-name-index array, BS name table)``,
    compact enough to ship 1M homes over a pipe.
    """
    bs_names: List[str] = []

    def to_index(name: str) -> int:
        bs_names.append(name)
        return len(bs_names) - 1

    placed = place_population(spec, _mobility_for(spec, _city_for(spec)), to_index)
    owners = [shard_map.owner_of_tile(name.split("-")[1]) for name in bs_names]
    gids = [array("l") for _ in range(shard_map.shards)]
    bsidx = [array("l") for _ in range(shard_map.shards)]
    for gid, idx in enumerate(placed):
        owner = owners[idx]
        gids[owner].append(gid)
        bsidx[owner].append(idx)
    return [(g, b, bs_names) for g, b in zip(gids, bsidx)]


# ------------------------------------------------------------------ engine


class ShardEngine(_Engine):
    """One shard's engine: full ghost topology, local traffic only."""

    #: sharded runs tick at the coordinator (actions arrive in step
    #: messages); the engine-side loop must stay dormant.
    _local_controller = False
    #: the individual conformance driver is single-process by design
    modes = ("cohort", "batched")

    def __init__(
        self,
        spec: ScenarioSpec,
        mode: str,
        shard_idx: int,
        shards: int,
        homes: Tuple[array, array, List[str]],
        delta: float,
        obs=None,
        verbose_trace: bool = False,
    ):
        self.shard_idx = shard_idx
        self.n_shards = shards
        self.delta = delta
        super().__init__(
            spec, mode=mode, obs=obs, verbose_trace=verbose_trace, homes=homes
        )
        # a completed full handover may have crossed the shard boundary
        self.driver.procedure_done = self._after_procedure
        self.shard_map = ShardMap(
            sorted({t[:-1] for t in self.topo.tiles}), shards
        )
        # Per-shard traffic streams: an independent fork per shard index.
        # The deployment already took its rng fork from the *global*
        # registry above, so ghost topologies stay identical everywhere.
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

    # -- wiring ------------------------------------------------------------

    def prepare(self) -> None:
        super().prepare()
        # Node state must flip identically in every ghost topology, so a
        # foreign-owned fault op is applied bare; the owning shard alone
        # counts and records it, and the merged fault_counters and trace
        # see it exactly once.
        for event in self._mirror_events:
            self.sim.schedule(
                max(0.0, event.at - self.sim.now), self.injector.apply, event
            )
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

        def hop(hop_class, nbytes, src=None, dst=None, parent=None):
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
            return inner(hop_class, nbytes, src, dst, parent)

        self.dep.hop = hop

    def _owns_region(self, tile: str) -> bool:
        # counters and trace records for a churn event or an applied
        # orchestration action come from one shard only
        return self.shard_map.owner_of_tile(tile) == self.shard_idx

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
                dst, driver.ids[i], driver.version[i], driver.runs[i],
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
        driver.runs[i] = rec.runs
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
        """Everything the coordinator needs to merge this shard's run."""
        result = self.finish(self.sim.now)
        auditor = self.dep.auditor
        samples = [
            {
                "time": v.time,
                "ue": v.ue_id,
                "cpf": v.cpf_name,
                "reader_version": v.reader_version,
                "served_version": v.served_version,
                "span": v.span_id,
            }
            for v in auditor.violations[:_VIOLATION_SAMPLES]
        ]
        return {
            "result": result,
            "records": list(self.trace.records),
            "sketches": dict(self.sketches),
            "owned_regions": sum(
                map(self._owns_region, self.dep.region_map.regions)
            ),
            "parents": self.shard_map.owned_parents(self.shard_idx),
            "violations_sample": samples,
            # the placement column: the ids grow with immigrants
            "n_local": len(self._homes[1]),
            "end": self.sim.now,
            "health": self.health_row(),
            "obs": (
                self._obs.snapshot(include_spans=True)
                if self._obs is not None
                else None
            ),
        }


# ------------------------------------------------------------------ backends


def _shard_engine(obs_mode, span_keep, verbose_trace, *where) -> ShardEngine:
    """Build one shard's engine (the recipe of both backends).

    ``where`` is :class:`ShardEngine`'s ``(spec, mode, shard_idx,
    shards, homes, delta)``.  One Observability *per
    shard*, whichever backend hosts it, so lane eligibility (and hence
    the digest) cannot depend on the backend.
    """
    obs = None
    if obs_mode:
        from ..obs import Observability

        obs = Observability(obs_mode, span_keep=span_keep)
    return ShardEngine(*where, obs=obs, verbose_trace=verbose_trace)


class _InlineHost:
    """One shard engine plus its step/finish protocol and cost brackets.

    The coordinator drives these directly on the inline backend; on the
    process backend each worker hosts one behind its pipe
    (:func:`_shard_worker`) — one implementation, so an inline run's
    merged digest is bit-identical to a multi-process one and the
    determinism witness holds on single-core machines.
    """

    def __init__(self, make_engine):
        self._make_engine = make_engine
        self.engine: Optional[ShardEngine] = None
        self.wall = 0.0
        self.cpu = 0.0
        self._last = None

    @contextmanager
    def _timed(self):
        t0, c0 = time.perf_counter(), time.process_time()
        yield
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        with self._timed():
            self.engine = self._make_engine()
            self.engine.prepare()

    def step_send(
        self,
        until: float,
        inbox: List[Migration],
        want_health: bool,
        actions: List[dict],
    ) -> None:
        engine = self.engine
        with self._timed():
            # orchestration actions apply at the epoch boundary, before
            # this epoch's deliveries and advance — every shard sees the
            # identical action list at the identical sim state, so
            # ring/node mutations mirror deterministically
            if actions:
                engine.apply_actions(actions)
            engine.deliver(inbox)
            engine.advance(until)
            health = engine.health_row() if want_health else None
            self._last = (engine.take_outbox(), engine.next_event_s(), health)
        if health is not None:
            health["wall_s"] = self.wall

    def step_recv(self):
        """``(outbox, next_event_s, health row or None)``."""
        return self._last

    def finish(self) -> Dict[str, Any]:
        with self._timed():
            payload = self.engine.finish_payload()
        payload["wall_s"] = self.wall
        payload["cpu_s"] = self.cpu
        # the hosting process's peak: inline shards share the
        # coordinator's, where per-shard RSS is not separable
        payload["rss_kb"] = peak_rss_kb()
        return payload

    def close(self) -> None:
        pass


class _ProcessHost:
    """Coordinator-side proxy for one long-lived shard worker process."""

    def __init__(self, handle):
        self.handle = handle

    def start(self) -> None:
        pass  # prepared during spawn handshake

    def step_send(
        self,
        until: float,
        inbox: List[Migration],
        want_health: bool,
        actions: List[dict],
    ) -> None:
        self.handle.send(("step", until, inbox, want_health, actions))

    def step_recv(self):
        return self._recv()[1:]

    def finish(self) -> Dict[str, Any]:
        self.handle.send(("finish",))
        return self._recv()[1]

    def _recv(self):
        try:
            msg = self.handle.recv()
        except EOFError:
            raise RuntimeError("shard worker died mid-run")
        if msg[0] == "error":
            raise RuntimeError("shard worker failed:\n%s" % (msg[1],))
        return msg

    def close(self) -> None:
        self.handle.close()


def _shard_worker(conn, *engine_args):
    """Long-lived worker: an :class:`_InlineHost` serving epoch messages.

    Messages have fixed arity: ``("step", until, inbox, want_health,
    actions)`` -> ``("stepped", outbox, next_event_s, health)``
    and ``("finish",)`` -> ``("done", payload)``.  Any failure is
    ferried whole, as ``("error", <formatted traceback>)``.
    """
    try:
        host = _InlineHost(partial(_shard_engine, *engine_args))
        host.start()
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            if msg[0] == "step":
                host.step_send(*msg[1:])
                conn.send(("stepped",) + host.step_recv())
            elif msg[0] == "finish":
                conn.send(("done", host.finish()))
                conn.close()
                return
            else:
                raise ValueError("unknown shard message %r" % (msg[0],))
    except Exception:  # ferried to the coordinator, which raises it
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


# ------------------------------------------------------------------ merge


def _merge_sketches(payloads) -> Dict[Tuple[str, str], QuantileSketch]:
    keys = {key for p in payloads for key in p["sketches"]}
    return {
        key: QuantileSketch.merge(
            [p["sketches"].get(key) for p in payloads], name="%s/%s" % key
        )
        for key in keys
    }


def _merge_payloads(
    spec: ScenarioSpec,
    mode: str,
    shards: int,
    payloads: List[Dict[str, Any]],
    delta: float,
    epochs: int,
    backend: str,
    wall0: float,
) -> ScaleResult:
    results: List[ScaleResult] = [p["result"] for p in payloads]
    counters: Dict[str, int] = {}
    fault_counters: Dict[str, int] = {}
    lane: Dict[str, int] = {}
    for r in results:
        for k, v in r.counters.items():
            counters[k] = counters.get(k, 0) + v
        for k, v in r.fault_counters.items():
            fault_counters[k] = fault_counters.get(k, 0) + v
        for k, v in r.lane.items():
            if k in ("enabled", "lazy_bootstrap"):
                lane[k] = max(lane.get(k, 0), v)
            else:
                lane[k] = lane.get(k, 0) + v
    merged_trace = merge_traces([p["records"] for p in payloads])
    shard_rows = [
        {
            "shard": k,
            "parents": list(p["parents"]),
            "n_local": p["n_local"],
            "migrations_out": r.counters.get("migrations_out", 0),
            "migrations_in": r.counters.get("migrations_in", 0),
            "wall_s": p["wall_s"],
            "cpu_s": p["cpu_s"],
            "rss_kb": p["rss_kb"],
            "violations": r.violations,
            "violations_sample": p["violations_sample"],
            "health": p.get("health"),
        }
        for k, (p, r) in enumerate(zip(payloads, results))
    ]
    perf: Dict[str, Any] = {
        "wall_s": time.perf_counter() - wall0,
        "peak_rss_kb": peak_rss_kb(),
        "total_rss_kb": sum(p["rss_kb"] for p in payloads),
        # on a single-CPU host the workers time-slice, so a worker's
        # *elapsed* wall includes time spent descheduled while its
        # siblings ran; max_shard_cpu_s is the honest critical path —
        # what the slowest shard would take given a core of its own
        "max_shard_wall_s": max(p["wall_s"] for p in payloads),
        "max_shard_cpu_s": max(p["cpu_s"] for p in payloads),
        "lookahead_s": delta,
        "epochs": epochs,
        "backend": backend,
    }
    return ScaleResult(
        scenario=spec.name,
        mode=mode,
        n_ue=spec.n_ue,
        duration_s=spec.duration_s,
        seed=spec.seed,
        end_time_s=max(p["end"] for p in payloads),
        regions_final=sum(p["owned_regions"] for p in payloads),
        serves=sum(r.serves for r in results),
        writes=sum(r.writes for r in results),
        violations=sum(r.violations for r in results),
        completed=sum(r.completed for r in results),
        aborted=sum(r.aborted for r in results),
        recovered=sum(r.recovered for r in results),
        reattached=sum(r.reattached for r in results),
        counters=counters,
        fault_counters=fault_counters,
        region_pct_ms=_region_pct_ms(_merge_sketches(payloads)),
        digest=merged_trace.digest(),
        trace_events=len(merged_trace),
        lane=lane,
        n_shards=shards,
        perf=perf,
        shards=shard_rows,
    )


# ------------------------------------------------------------------ coordinator


def _epoch_loop(hosts, duration: float, delta: float, stream=None, orch=None) -> int:
    """Advance all shards in lockstep Δ epochs until fully drained.

    Event-free epochs are fast-forwarded: when the earliest thing any
    shard could execute — minimum heap head across shards, or the
    arrival instant of a record in flight — is ``nxt``, no shard can
    *emit* before ``nxt``, so no record can *arrive* before
    ``nxt + Δ``, and every epoch boundary strictly below ``nxt + Δ``
    is both event-free and message-free.  Skipping them executes the
    identical event sequence as strict lockstep (the boundary stays on
    the same repeated-addition Δ grid, and strictly below the earliest
    arrival so ``run(until)``'s inclusive boundary can never pull a
    same-instant event ahead of an install).  This matters because
    drain tails run tens of simulated seconds past the traffic horizon
    at Δ ≈ 1.5 ms — tens of thousands of empty round trips without it.

    ``stream`` (a :class:`~repro.obs.stream.HeartbeatStream`) turns on
    epoch-aligned live telemetry: at deterministic progress marks the
    step message asks every shard for a compact health row — riding the
    existing epoch round trip, zero extra messages — and the folded row
    goes out as one NDJSON heartbeat.  Cadence is a pure function of
    the run (progress-fraction buckets while traffic flows, every
    ``stream.drain_every`` epochs while draining), never wall clocks.

    ``orch`` (a :class:`~repro.orch.Orchestrator`) hosts the closed-loop
    controller at the coordinator: at the first epoch boundary at or
    past each ``tick_s`` multiple the step asks for health (the same
    piggyback as heartbeats), the controller decides on the folded rows,
    and the resulting actions ship *inside the next epoch's step
    message* so every shard applies them at the identical boundary.
    Fast-forward is clamped to the tick horizon — and suspended entirely
    while actions are pending — so the controller's observation times
    stay a pure function of (policy, run), never of heap contents.
    """
    for host in hosts:
        host.start()
    inboxes: List[List[Migration]] = [[] for _ in hosts]
    t = 0.0
    epochs = 0
    last_mark = 0
    last_beat = 0
    tick_s = orch.policy.tick_s if orch is not None else float("inf")
    next_tick = tick_s
    pending_actions: List[dict] = []
    max_epochs = int(duration / delta) + _DRAIN_EPOCHS_MAX
    while True:
        epochs += 1
        if epochs > max_epochs:
            raise RuntimeError(
                "sharded run failed to drain after %d epochs" % epochs
            )
        t += delta
        tick = orch is not None and next_tick <= duration and t >= next_tick
        if tick:
            while next_tick <= t:
                next_tick += tick_s
        want = False
        if stream is not None:
            if t < duration:
                mark = int((t / duration) * stream.marks)
                want = mark > last_mark
                if want:
                    last_mark = mark
            else:
                # draining: one beat at the horizon crossing, then a
                # low-rate pulse so multi-second tails stay visible
                want = (
                    last_mark < stream.marks
                    or epochs - last_beat >= stream.drain_every
                )
                if want:
                    last_mark = stream.marks
        # send every step first: process workers advance concurrently
        for host, inbox in zip(hosts, inboxes):
            host.step_send(t, inbox, want or tick, pending_actions)
        pending_actions = []
        inboxes = [[] for _ in hosts]
        nxt = float("inf")
        healths: List[Dict[str, Any]] = []
        for host in hosts:
            outbox, head, health = host.step_recv()
            if health is not None:
                healths.append(health)
            if head < nxt:
                nxt = head
            for rec in outbox:
                inboxes[rec.dst].append(rec)
                arrival = rec.t + delta
                if arrival < nxt:
                    nxt = arrival
        if want and healths:
            last_beat = epochs
            stream.heartbeat(epochs, t, duration, healths)
        if tick:
            pending_actions = orch.observe(epochs, t, healths)
        # drained: no shard has anything queued and no record is in flight
        if t >= duration and nxt == float("inf") and not pending_actions:
            return epochs
        if pending_actions:
            # actions must land at the very next boundary; skipping
            # epochs here would apply them late (and could let a shard
            # simulate past a window the actions inject events into)
            continue
        # fast-forward: leave t at the last boundary whose *successor*
        # (the next epoch's until, assigned at the top of the loop) is
        # still strictly below the earliest possible arrival — and, with
        # a controller, strictly below the next tick, so the tick fires
        # at the first grid boundary >= its schedule regardless of how
        # empty the heaps are
        horizon = (
            next_tick if (orch is not None and next_tick <= duration) else None
        )
        if nxt == float("inf"):
            while t + delta < duration and (
                horizon is None or t + delta < horizon
            ):
                t += delta
        else:
            limit = nxt + delta
            step = t + delta
            while step + delta < limit and (horizon is None or step < horizon):
                t = step
                step = t + delta


def run_sharded(
    scenario,
    n_ue: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    mode: str = "cohort",
    shards: int = 2,
    backend: str = "auto",
    obs=None,
    stream=None,
    verbose_trace: bool = False,
) -> ScaleResult:
    """Run one scenario partitioned across ``shards`` shard engines.

    ``shards=0`` means one per core (:func:`default_jobs`); ``shards=1``
    is exactly the single-process engine.  ``backend`` selects the
    execution vehicle: ``"process"`` forks one long-lived worker per
    shard, ``"inline"`` runs the same engines round-robin in-process
    (bit-identical results — the CI witness path), and ``"auto"`` picks
    processes when more than one core is available.

    ``obs`` (an :class:`~repro.obs.Observability` *template* — each
    shard builds its own instance from its mode/span_keep) enables
    per-shard tracing or metrics; trace mode runs under bounded span
    retention (``obs.span_keep``; unset, every engine applies
    :data:`~repro.scale.engine.DEFAULT_SPAN_KEEP`, sharded or not) and
    attaches the per-shard snapshots as ``result.obs_shards`` for
    :func:`~repro.obs.export.stitch_chrome_trace`.  ``stream`` (a
    :class:`~repro.obs.stream.HeartbeatStream`) turns on the
    epoch-aligned NDJSON heartbeat feed.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    spec = spec.with_overrides(n_ue=n_ue, duration_s=duration_s, seed=seed)
    if backend not in ("auto", "inline", "process"):
        raise ValueError("backend must be auto/inline/process, got %r" % backend)
    if shards == 0:
        shards = default_jobs()
    if shards < 0:
        raise ValueError("shards must be >= 0, got %d" % shards)
    if shards == 1:
        return run_scenario(
            spec, mode=mode, obs=obs, stream=stream, verbose_trace=verbose_trace
        )
    _check_mode(mode, ShardEngine.modes)
    wall0 = time.perf_counter()
    parents = city_parents(spec)
    shard_map = ShardMap(parents, shards)  # validates shards <= len(parents)
    homes = partition_population(spec, shard_map)
    delta = shard_lookahead(spec)
    orch = None
    if spec.orch_policy:
        from ..orch import Orchestrator, OrchPolicy

        orch = Orchestrator(
            OrchPolicy.from_dict(spec.orch_policy), spec.duration_s
        )
        if stream is not None:
            orch.attach_stream(stream)
    obs_mode = obs.mode if obs is not None else None
    span_keep = obs.span_keep if obs is not None else None

    # the recipe of every shard's engine, for whichever backend hosts it
    engine_args = [
        (
            obs_mode, span_keep, verbose_trace,
            spec, mode, k, shards, homes[k], delta,
        )
        for k in range(shards)
    ]
    hosts = None
    backend_used = "inline"
    if backend == "process" or (backend == "auto" and default_jobs() > 1):
        try:
            handles = spawn_workers(_shard_worker, engine_args)
        except WorkerSpawnError:
            if backend == "process":
                raise
            handles = None
        if handles is not None:
            hosts = []
            try:
                for handle in handles:
                    msg = handle.recv()
                    if msg[0] == "error":
                        raise RuntimeError(
                            "shard worker failed during startup:\n%s" % (msg[1],)
                        )
                    hosts.append(_ProcessHost(handle))
                backend_used = "process"
            except EOFError:
                # the platform forked but killed the children: fall back
                for handle in handles:
                    handle.close(timeout=1.0)
                hosts = None
                if backend == "process":
                    raise WorkerSpawnError("shard workers died during startup")
    if hosts is None:
        hosts = [_InlineHost(partial(_shard_engine, *args)) for args in engine_args]

    try:
        epochs = _epoch_loop(
            hosts, spec.duration_s, delta, stream=stream, orch=orch
        )
        payloads = [host.finish() for host in hosts]
    finally:
        for host in hosts:
            host.close()

    result = _merge_payloads(
        spec, mode, shards, payloads, delta, epochs, backend_used, wall0
    )
    snapshots = [p["obs"] for p in payloads if p["obs"] is not None]
    if snapshots:
        from ..obs.metrics import label_snapshot, merge_snapshots

        metrics = [
            label_snapshot(s.get("metrics"), shard=k)
            for k, s in enumerate(snapshots)
        ]
        summary: Dict[str, Any] = {
            "mode": obs_mode,
            "shards": len(snapshots),
            "spans_started": sum(s.get("spans_started", 0) for s in snapshots),
            "spans_finished": sum(
                s.get("spans_finished", 0) for s in snapshots
            ),
            "metrics": merge_snapshots([m for m in metrics if m is not None]),
        }
        retentions = [s.get("retention") for s in snapshots]
        if any(r is not None for r in retentions):
            summary["retention"] = {
                "limit": next(r["limit"] for r in retentions if r),
                "roots_kept": sum(
                    r.get("roots_kept", 0) for r in retentions if r
                ),
                "roots_dropped": sum(
                    r.get("roots_dropped", 0) for r in retentions if r
                ),
            }
        result.obs_snapshot = summary
        #: per-shard wire snapshots (span tables + flow tables), in
        #: shard order — the stitcher's input
        result.obs_shards = snapshots
    if orch is not None:
        _attach_orch(result, orch)
    if stream is not None:
        stream.summary(result)
    return result
