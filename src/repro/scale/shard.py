"""The city run: one simulator kernel per level-2 region group.

Every scale run, sharded or not, goes through this module's lockstep
epoch loop; an unsharded run is the one-shard case of it.  The
single-process harness tops out around 100k UEs on one core, so the
loop partitions the city **by level-2 (CTA) parent** across shard
engines (:class:`~repro.scale.engine.ShardEngine`, the one engine
class) — each shard runs its own :class:`~repro.sim.core.Simulator`
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
migration record — a :class:`Migration` ``(dst, gid, version, clock,
bs, t)`` — is carried over the inter-process channel and
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
(:func:`~repro.faults.trace.merge_traces`).  The process backend runs
k shards in k processes: the coordinator hosts shard 0 itself and one
worker process hosts each of shards 1..k−1.  Every shard, wherever it
runs, *is* an :class:`_InlineHost` (a worker's sits behind a pipe), so
the serial inline backend and the process backend run the identical
engine call sequence by construction and produce identical digests —
which is how CI pins the witness on single-core runners.  A sharded
trajectory is *not* identical to the unsharded one (ghost regions do
not see other shards' load).  One shard is the degenerate case of the
k-shard rules, and five of them reduce to nothing there (DESIGN §13):
no ``shard:0`` RNG fork, no ``shard`` key on its trace, the population
placed by the engine itself, no cross-shard hop wrapper or emigration
hook, and no collection of the freed engine.  Its run therefore equals
one uninterrupted ``Simulator.run`` of the same engine, bit for bit.

**The controller** (:class:`~repro.orch.Orchestrator`) lives at the
coordinator at every shard count.  The epoch that reaches a ``tick_s``
multiple ends exactly on it, the controller observes the shards' health
rows at that instant, and its actions ship in the next step message
and apply at that same instant.

Fault plans are partitioned so region-attributable ops (``*_cpf`` /
``*_cta``) are *owned* (counted + traced) by the shard owning the
target's parent and silently mirrored everywhere else — node state
flips identically in every ghost topology.  Ring churn works the same
way (``ShardEngine._churn_add`` / ``_churn_remove``): every shard
applies the ring change (placement rebalance is per-shard work); only
the owner runs evacuation and counts the event.

**One result.**  A shard ships its tallies, its trace and its sketch
table (:meth:`~repro.scale.engine.ShardEngine.finish_payload`), handed
over rather than copied, and :func:`_merge_payloads` builds the run's
only :class:`~repro.scale.engine.ScaleResult` from them.
"""

from __future__ import annotations

import gc
import socket
import struct
import time
import traceback
from contextlib import contextmanager
from functools import partial
from array import array
from typing import Any, Dict, List, Optional, Tuple

from ..faults.trace import merge_traces
from ..sim.monitor import QuantileSketch
from ..experiments.parallel import default_jobs, pool_context
from .engine import (
    Migration,
    ScaleResult,
    ShardEngine,
    ShardMap,
    _city_for,
    _mobility_for,
    _check_mode,
    peak_rss_kb,
    place_population,
    _region_pct_ms,
    shard_lookahead,
)
from .scenarios import ScenarioSpec

__all__ = [
    "Migration",
    "ShardMap",
    "ShardEngine",
    "WorkerSpawnError",
    "city_parents",
    "partition_population",
    "shard_lookahead",
]

#: safety valve: epochs allowed past the traffic horizon before the
#: coordinator declares the run wedged (busy-polls and in-flight
#: procedures drain within a handful of epochs in practice), at any
#: shard count.
_DRAIN_EPOCHS_MAX = 100_000

#: longest the coordinator waits for one answer from a shard worker
#: (its ready handshake, an epoch step, the finish payload) before it
#: declares the worker hung and fails the run.
WORKER_DEADLINE_S = 600.0


# ------------------------------------------------------------------ partition


def city_parents(spec: ScenarioSpec) -> List[str]:
    """Sorted level-2 parents of the spec's city (the shardable units)."""
    return _city_for(spec).parents


def partition_population(
    spec: ScenarioSpec, shard_map: ShardMap
) -> List[Tuple[array, array, List[str]]]:
    """Home every UE, replaying the global placement draw sequence once.

    Places the population exactly as a lone shard's engine does
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
    gids = [array("I") for _ in range(shard_map.shards)]
    bsidx = [array("I") for _ in range(shard_map.shards)]
    for gid, idx in enumerate(placed):
        owner = owners[idx]
        gids[owner].append(gid)
        bsidx[owner].append(idx)
    return [(g, b, bs_names) for g, b in zip(gids, bsidx)]


# ------------------------------------------------------------------ backends


def _shard_engine(
    obs_mode, span_keep, verbose_trace, spec, mode, shard_idx, shards, homes
) -> ShardEngine:
    """Build one shard's engine (the recipe of both backends).

    Everything before ``homes`` is the shard's recipe, known before the
    population is placed; a worker is forked with it and is sent its
    ``homes`` afterwards.  One Observability *per shard*, whichever
    backend hosts it, so lane eligibility (and hence the digest) cannot
    depend on the backend.
    """
    obs = None
    if obs_mode:
        from ..obs import Observability

        obs = Observability(obs_mode, span_keep=span_keep)
    return ShardEngine(
        spec, mode, shard_idx, shards, homes,
        obs=obs, verbose_trace=verbose_trace,
    )


class _InlineHost:
    """One shard engine plus its step/finish protocol and cost brackets.

    The coordinator drives these directly: every shard on the inline
    backend, shard 0 on the process backend, where each worker hosts one
    behind its pipe (:func:`_shard_worker`) — one implementation, so an
    inline run's merged digest is bit-identical to a multi-process one
    and the determinism witness holds on single-core machines.

    :meth:`step_send` only takes the step; :meth:`step_recv` runs it.
    The coordinator sends every shard its step before it collects any
    reply, so the workers advance while this process advances its own.
    ``collect`` frees the finished engine at once, for the payloads that
    follow; the only shard of a run leaves it to the collector.
    """

    def __init__(self, make_engine, collect: bool = True):
        self._make_engine = make_engine
        self._collect = collect
        self.engine: Optional[ShardEngine] = None
        self.wall = 0.0
        self.cpu = 0.0
        self._step = None

    @contextmanager
    def _timed(self):
        t0, c0 = time.perf_counter(), time.process_time()
        yield
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        with self._timed():
            self.engine = self._make_engine()
            self._make_engine = None  # the engine holds its homes now
            self.engine.prepare()

    def step_send(
        self,
        until: float,
        inbox: List[Migration],
        want_health: bool,
        actions: List[dict],
    ) -> None:
        self._step = (until, inbox, want_health, actions)

    def step_recv(self):
        """Run the step sent last: ``(outbox, next_event_s, health row or None)``."""
        until, inbox, want_health, actions = self._step
        self._step = None
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
            out = (engine.take_outbox(), engine.next_event_s(), health)
        if health is not None:
            health["wall_s"] = self.wall
        return out

    def finish(self) -> Dict[str, Any]:
        """The shard's payload, with its engine freed before anything
        copies, ships or merges it."""
        with self._timed():
            payload = self.engine.finish_payload()
            self.engine = None
            if self._collect:
                gc.collect()  # an engine is a web of cycles
        payload["wall_s"] = self.wall
        payload["cpu_s"] = self.cpu
        # the peak of the process hosting this shard: shards hosted by
        # the coordinator share its peak, where per-shard RSS is not
        # separable (a worker sends its peak again after the payload)
        payload["rss_kb"] = peak_rss_kb()
        return payload

    def close(self) -> None:
        pass


class WorkerSpawnError(RuntimeError):
    """Shard worker processes could not be started on this platform.

    Raised by :func:`spawn_workers` so that the ``auto`` backend can
    fall back to running every shard in-process instead of failing the
    run (sandboxes without fork/semaphores).
    """


class _ProcessHost:
    """Coordinator-side proxy for one long-lived shard worker process.

    It owns the worker's process and its end of their duplex pipe.  A
    worker that dies (its pipe closes) or stays silent for
    :data:`WORKER_DEADLINE_S` — during its ready handshake or mid-run —
    fails the run with a ``RuntimeError`` naming its shard.  :meth:`close`
    kills a worker that has not delivered its finish payload (it failed,
    or the run failed elsewhere) rather than waiting for it.

    The deadline is a receive timeout on the pipe's socket, so a read
    blocks as before and a silent worker's read raises
    ``BlockingIOError``.  Polling the pipe before every read puts an
    extra wake-up on the epoch critical path: it cost
    ``commute_sharded`` ~20% wall on the 2-core reference host.
    """

    def __init__(self, process, conn, shard_idx: int):
        self.process = process
        self.conn = conn
        self.shard_idx = shard_idx
        self._finished = False
        sock = socket.socket(fileno=conn.fileno())
        try:
            whole = int(WORKER_DEADLINE_S)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_RCVTIMEO,
                struct.pack("ll", whole, int((WORKER_DEADLINE_S - whole) * 1e6)),
            )
        finally:
            sock.detach()  # the pipe keeps its descriptor

    def send_homes(self, homes) -> None:
        """Hand the worker its shard's homes, its first message."""
        self._send(("homes", homes), "during startup")

    def start(self) -> None:
        """Wait for the worker to report its engine built and prepared."""
        self._recv("during startup")

    def step_send(
        self,
        until: float,
        inbox: List[Migration],
        want_health: bool,
        actions: List[dict],
    ) -> None:
        self._send(("step", until, inbox, want_health, actions))

    def step_recv(self):
        return self._recv()[1:]

    def finish(self) -> Dict[str, Any]:
        self._send(("finish",))
        payload = self._recv()[1]
        # the worker's peak read after it pickled and sent the payload
        payload["rss_kb"] = self._recv("at its finish")[1]
        self._finished = True
        return payload

    def _fail(self, what: str) -> RuntimeError:
        return RuntimeError("shard %d worker %s" % (self.shard_idx, what))

    def _send(self, msg, when: str = "mid-run") -> None:
        try:
            self.conn.send(msg)
        except OSError:  # the worker's end is gone
            raise self._fail("died " + when)

    def _recv(self, when: str = "mid-run"):
        try:
            msg = self.conn.recv()
        except BlockingIOError:
            raise self._fail("sent nothing for %g s" % WORKER_DEADLINE_S)
        except (EOFError, OSError):
            raise self._fail("died " + when)
        if msg[0] == "error":
            raise self._fail("failed %s:\n%s" % (when, msg[1]))
        return msg

    def close(self) -> None:
        """Drop the pipe and reap the process (terminate if wedged)."""
        if not self._finished:
            self.process.kill()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.process.join(5.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(5.0)


def spawn_workers(target, args_list) -> List[_ProcessHost]:
    """Start one long-lived ``target`` process per args tuple.

    The ``i``-th tuple is shard ``i + 1``'s (the coordinator hosts shard
    0).  ``target`` must be a top-level callable whose first parameter
    is the worker end of a duplex pipe; the remaining parameters come
    from the args tuple.  Either every worker starts or none does: a
    platform refusal tears down any partial set and raises
    :class:`WorkerSpawnError`.
    """
    hosts: List[_ProcessHost] = []
    try:
        ctx = pool_context()
        for k, args in enumerate(args_list, 1):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=target, args=(child_conn,) + tuple(args), daemon=True
            )
            proc.start()
            child_conn.close()
            hosts.append(_ProcessHost(proc, parent_conn, k))
    except (OSError, PermissionError, ImportError) as err:
        for host in hosts:
            host.close()
        raise WorkerSpawnError("%s: %s" % (type(err).__name__, err))
    return hosts


def _shard_worker(conn, *recipe):
    """Long-lived worker: an :class:`_InlineHost` serving epoch messages.

    The worker is forked before the population is placed, so it
    inherits no shard's homes: its first message is ``("homes",
    homes)``, its own shard's.  It then builds its engine from
    ``recipe`` and those homes and answers ``("ready",)``.  Messages
    have fixed arity: ``("step", until, inbox, want_health,
    actions)`` -> ``("stepped", outbox, next_event_s, health)``
    and ``("finish",)`` -> ``("done", payload)``, then ``("rss",
    peak_rss_kb)``: the worker's peak once the payload is sent, which
    the payload's own ``rss_kb``, read before the send, leaves out.
    Any failure is ferried whole, as ``("error", <formatted
    traceback>)``.
    """
    try:
        _tag, homes = conn.recv()
        host = _InlineHost(partial(_shard_engine, *recipe, homes))
        del homes  # the engine holds them once it is built
        host.start()
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            if msg[0] == "step":
                host.step_send(*msg[1:])
                conn.send(("stepped",) + host.step_recv())
            elif msg[0] == "finish":
                conn.send(("done", host.finish()))
                conn.send(("rss", peak_rss_kb()))
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


def _merge_payloads(
    spec: ScenarioSpec,
    mode: str,
    shards: int,
    payloads: List[Dict[str, Any]],
    delta: float,
    epochs: int,
    backend: str,
    wall0: float,
    workers_rss_kb: float,
) -> ScaleResult:
    """The run's one :class:`ScaleResult`, from its shards' payloads.

    Tallies add up.  Sketches fold in shard order into the first
    shard's table, so a cell held by one shard is that shard's sketch
    and one payload's table is the run's, moved rather than merged.
    """
    counters: Dict[str, int] = {}
    fault_counters: Dict[str, int] = {}
    lane: Dict[str, int] = {}
    sketches: Dict[Tuple[str, str], QuantileSketch] = payloads[0]["sketches"]
    for k, p in enumerate(payloads):
        for key, v in p["counters"].items():
            counters[key] = counters.get(key, 0) + v
        for key, v in p["fault_counters"].items():
            fault_counters[key] = fault_counters.get(key, 0) + v
        for key, v in p["lane"].items():
            if key in ("enabled", "lazy_bootstrap"):
                lane[key] = max(lane.get(key, 0), v)
            else:
                lane[key] = lane.get(key, 0) + v
        if k:
            for key, sketch in p["sketches"].items():
                held = sketches.get(key)
                sketches[key] = (
                    sketch if held is None
                    else QuantileSketch.merge([held, sketch], name=sketch.name)
                )
    if shards > 1:
        trace = merge_traces([p["trace"] for p in payloads])
    else:  # one shard's trace is the run's, with no ``shard`` key
        trace = payloads[0]["trace"]
    shard_rows = [
        {
            "shard": k,
            "parents": p["parents"],
            "n_local": p["n_local"],
            "migrations_out": p["counters"].get("migrations_out", 0),
            "migrations_in": p["counters"].get("migrations_in", 0),
            "wall_s": p["wall_s"],
            "cpu_s": p["cpu_s"],
            "rss_kb": p["rss_kb"],
            "violations": p["violations"],
            "violations_sample": p["violations_sample"],
            "health": p.get("health"),
        }
        for k, p in enumerate(payloads)
    ]
    perf: Dict[str, Any] = {
        "wall_s": time.perf_counter() - wall0,
        "peak_rss_kb": peak_rss_kb(),
        "total_rss_kb": workers_rss_kb,
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

    def total(key: str) -> int:
        return sum(p[key] for p in payloads)

    return ScaleResult(
        scenario=spec.name,
        mode=mode,
        n_ue=spec.n_ue,
        duration_s=spec.duration_s,
        seed=spec.seed,
        end_time_s=max(p["end_time_s"] for p in payloads),
        regions_final=total("owned_regions"),
        serves=total("serves"),
        writes=total("writes"),
        violations=total("violations"),
        completed=total("completed"),
        aborted=total("aborted"),
        recovered=total("recovered"),
        reattached=total("reattached"),
        counters=counters,
        fault_counters=fault_counters,
        region_pct_ms=_region_pct_ms(sketches),
        digest=trace.digest(),
        trace_events=len(trace),
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
    controller.  The epoch that reaches a ``tick_s`` multiple ends
    exactly on it (a shorter epoch stays within the lookahead), its step
    asks for health (the same piggyback as heartbeats), and the
    controller observes the folded rows at that instant.  The actions
    ship *inside the next epoch's step message*, so every shard applies
    them at that same instant, before it simulates past it.  Fast-forward
    stops short of the next tick and is suspended while actions are
    pending, so the tick instants are a pure function of the policy —
    the same at every shard count.

    Returns the epoch count; a run still busy :data:`_DRAIN_EPOCHS_MAX`
    epochs past its horizon raises ``RuntimeError``.
    """
    for host in hosts:
        host.start()
    inboxes: List[List[Migration]] = [[] for _ in hosts]
    t = 0.0
    epochs = 0
    ticks = 0
    last_mark = 0
    last_beat = 0
    # the tick instants are the repeated-addition multiples <= duration
    tick_s = orch.policy.tick_s if orch is not None else float("inf")
    next_tick = tick_s
    pending_actions: List[dict] = []
    max_epochs = int(duration / delta) + _DRAIN_EPOCHS_MAX
    while True:
        epochs += 1
        if epochs > max_epochs:
            raise RuntimeError("run failed to drain after %d epochs" % epochs)
        t += delta
        tick = next_tick <= duration and t >= next_tick
        if tick:
            t = next_tick
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
        # send every step first, then collect in shard order: the
        # workers advance while this process runs the shard it hosts
        # (an inline host runs its step when its reply is collected)
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
            ticks += 1
            pending_actions = orch.observe(ticks, t, healths)
        # drained: no shard has anything queued and no record is in flight
        if t >= duration and nxt == float("inf") and not pending_actions:
            return epochs
        if pending_actions:
            # actions must apply at this very instant; skipping epochs
            # here could let a shard simulate past a window the actions
            # inject events into
            continue
        # fast-forward: leave t at the last boundary whose *successor*
        # (the next epoch's until, assigned at the top of the loop) is
        # still strictly below the earliest possible arrival — and
        # strictly below the next tick, so that epoch ends on the tick
        # however empty the heaps are
        horizon = next_tick if next_tick <= duration else float("inf")
        if nxt == float("inf"):
            while t + delta < duration and t + delta < horizon:
                t += delta
        else:
            limit = nxt + delta
            step = t + delta
            while step + delta < limit and step < horizon:
                t = step
                step = t + delta


def coordinate(
    spec: ScenarioSpec,
    mode: str,
    shards: int,
    backend: str,
    obs=None,
    stream=None,
    verbose_trace: bool = False,
) -> ScaleResult:
    """The body of :func:`~repro.scale.engine.run_scenario`, the one
    entry point, which documents the arguments.

    This process always hosts shard 0.  The process backend forks one
    long-lived worker for each other shard (k shards in k processes),
    the inline backend runs every engine round-robin here, and both
    drive the identical :class:`_InlineHost` calls.  Whatever fails,
    every worker is reaped before the exception propagates.
    """
    if backend not in ("auto", "inline", "process"):
        raise ValueError("backend must be auto/inline/process, got %r" % backend)
    if shards == 0:
        shards = default_jobs()
    if shards < 0:
        raise ValueError("shards must be >= 0, got %d" % shards)
    _check_mode(mode)
    wall0 = time.perf_counter()
    parents = city_parents(spec)
    shard_map = ShardMap(parents, shards)  # validates shards <= len(parents)
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
    # the recipe of every shard's engine, bar its homes, for whichever
    # backend hosts it
    recipes = [
        (obs_mode, span_keep, verbose_trace, spec, mode, k, shards)
        for k in range(shards)
    ]
    # workers are forked before the population is placed, so that none
    # inherits another shard's homes
    workers: List[_ProcessHost] = []
    if backend == "process" or (backend == "auto" and default_jobs() > 1):
        try:
            workers = spawn_workers(_shard_worker, recipes[1:])
        except WorkerSpawnError:
            if backend == "process":
                raise
    hosts: List[Any] = list(workers)
    try:
        # a lone shard places the whole population itself
        homes = partition_population(spec, shard_map) if shards > 1 else [None]
        for worker in workers:
            worker.send_homes(homes[worker.shard_idx])
        # a host's recipe holds its homes until its engine is built
        hosts = [
            _InlineHost(
                partial(_shard_engine, *recipes[0], homes[0]),
                collect=shards > 1,
            )
        ]
        hosts += workers or [
            _InlineHost(partial(_shard_engine, *recipe, shard_homes))
            for recipe, shard_homes in zip(recipes[1:], homes[1:])
        ]
        del homes
        # _epoch_loop starts the hosts in shard order: shard 0 is built
        # here while the workers build theirs, then each worker's ready
        # is awaited under the deadline
        epochs = _epoch_loop(
            hosts, spec.duration_s, delta, stream=stream, orch=orch
        )
        # shard 0 finishes first, so its engine is freed before any
        # worker payload arrives; each worker frees its own before it
        # sends
        payloads = [host.finish() for host in hosts]
    finally:
        for host in hosts:
            host.close()

    backend_used = "process" if workers else "inline"
    result = _merge_payloads(
        spec, mode, shards, payloads, delta, epochs, backend_used, wall0,
        workers_rss_kb=sum(
            p["rss_kb"]
            for host, p in zip(hosts, payloads)
            if isinstance(host, _ProcessHost)
        ),
    )
    snapshots = [p["obs"] for p in payloads if p["obs"] is not None]
    if snapshots:
        from ..obs import fold_snapshots

        result.obs_snapshot = fold_snapshots(snapshots)
        #: per-shard wire snapshots (span tables + flow tables), in
        #: shard order — the stitcher's input
        result.obs_shards = snapshots
    if orch is not None:
        # ad-hoc result attrs, like ``obs_snapshot``: the policy echo,
        # the full action log (the golden witness) and the tick stats
        result.orch_policy = orch.policy.to_dict()
        result.orch_log = list(orch.log)
        result.orch_summary = orch.summary()
    if stream is not None:
        stream.summary(result)
    return result
