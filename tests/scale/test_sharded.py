"""Multi-process sharded city: determinism, migration, RYW under faults.

The contract under test (``repro.scale.shard``):

* **fixed-shard-count determinism** — for a given shard count the
  merged EventTrace digest is bit-stable across runs *and* across
  backends (inline vs process), pinned below like the kernel witnesses;
* ``--shards 1`` is exactly one uninterrupted kernel run of the same
  engine, and a run that never drains fails loudly at any shard count;
* the batched lane's conformance (digest-identical to the cohort
  driver) survives sharding;
* a UE whose full handover crosses the shard boundary mid-fault-window
  migrates over the inter-shard channel on the discrete path and the
  merged RYW audit stays clean;
* a hypothesis campaign rides the storm x faults harness with the city
  split in two.

The pinned digests must NEVER be regenerated to make a refactor pass;
they may only change when engine semantics intentionally change.
"""

import dataclasses
import gc
import multiprocessing
import os
import signal
import time
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.runner import config_from_name
from repro.scale import engine as en, shard as sh
from repro.scale.engine import ShardEngine, run_scenario
from repro.scale.scenarios import get_scenario
from repro.scale.shard import ShardMap, WorkerSpawnError, shard_lookahead

N = 400
DURATION_S = 0.5
SEED = 3

#: merged verbose-trace digest of steady-city (N=400, 0.5s, seed=3) at
#: shards=2, recorded when the sharded coordinator first shipped.
PINNED_SHARDED_DIGEST = "64f1e6a8a5225f1808c05a847114f600"


#: merged verbose-trace digests of ring-churn (N=2000, 1.0s, seed=1) per
#: shard count, recorded on the commit *before* ring churn was collapsed
#: from an engine copy plus a ShardEngine mirror into one
#: ownership-guarded implementation.
PINNED_CHURN_DIGESTS = {
    1: "5447e14385d21b120679f2656f3b95f2",
    2: "ca32e9b9e5d3eafb1e1ef0cd7bbd51c8",
    4: "adbd8d386292de80d787438d37165094",
}


def run2(mode="cohort", backend="inline", shards=2, seed=SEED, **kw):
    return run_scenario(
        "steady-city",
        n_ue=N,
        duration_s=DURATION_S,
        seed=seed,
        mode=mode,
        shards=shards,
        shard_backend=backend,
        verbose_trace=True,
        **kw,
    )


# ------------------------------------------------------------------ ShardMap


class TestShardMap:
    def test_contiguous_chunks_with_front_loaded_remainder(self):
        m = ShardMap(["aa", "ab", "ba", "bb", "ca"], 2)
        assert m.owned_parents(0) == ["aa", "ab", "ba"]
        assert m.owned_parents(1) == ["bb", "ca"]
        for parent in m.parents:
            assert parent in m.owned_parents(m.owner_of_parent(parent))

    def test_owner_of_tile_strips_the_level1_char(self):
        m = ShardMap(["aa", "bb"], 2)
        assert m.owner_of_tile("aa7") == 0
        assert m.owner_of_tile("bb0") == 1

    def test_fresh_churned_in_parent_is_assigned_by_bisection(self):
        # a parent that did not exist at partition time (the spare tile
        # lives under a fresh parent east of the city) must still get a
        # deterministic owner, identical on every shard
        m = ShardMap(["aa", "bb", "cc", "dd"], 2)
        assert m.owner_of_parent("ba") == 0  # falls inside chunk 0's span
        assert m.owner_of_parent("cz") == 1
        assert m.owner_of_parent("zz") == 1  # past the east edge: last
        assert m.owner_of_parent("a0") == 0  # before the west edge: first

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(["aa", "bb"], 0)
        with pytest.raises(ValueError, match="level-2"):
            ShardMap(["aa", "bb"], 3)

    def test_lookahead_is_the_far_cpf_link_floor(self, monkeypatch):
        spec = get_scenario("steady-city")
        assert shard_lookahead(spec) == pytest.approx(
            config_from_name(spec.config).latency.cpf_cpf_far
        )
        # degenerate zero-latency config: fall back to epoch windows
        real = config_from_name(spec.config)
        zero = dataclasses.replace(
            real, latency=dataclasses.replace(real.latency, cpf_cpf_far=0.0)
        )
        monkeypatch.setattr(en, "config_from_name", lambda name: zero)
        assert shard_lookahead(spec) == pytest.approx(spec.duration_s / 64.0)


# ------------------------------------------------------- determinism witness


def test_fixed_shard_count_digest_is_pinned():
    res = run2()
    assert res.violations == 0
    assert res.n_shards == 2
    assert res.trace_events > 0
    assert res.digest == PINNED_SHARDED_DIGEST, (
        "merged sharded digest moved: the fixed-shard-count trajectory "
        "is no longer bit-identical to the pinned witness"
    )


def test_sharded_runs_are_reproducible():
    a, b = run2(), run2()
    assert a == b  # dataclass eq skips the measured-cost fields (perf)
    assert a.digest == b.digest
    assert a.region_pct_ms == b.region_pct_ms


def test_shards_one_is_exactly_the_single_process_engine():
    """One shard through the epoch loop equals one uninterrupted
    ``Simulator.run`` of the same engine in every compared field: the
    end time of its last event, and a digest over a trace with no
    ``shard`` key."""
    spec = get_scenario("steady-city").with_overrides(
        n_ue=N, duration_s=DURATION_S, seed=SEED
    )
    for mode in ("cohort", "batched", "individual"):
        engine = ShardEngine(spec, mode=mode, verbose_trace=True)
        engine.prepare()
        end = engine.sim.run()
        payload = engine.finish_payload()
        # an unbounded run leaves ``last_event_s`` unset: its return
        # value is the instant of the last event
        payload.update(end_time_s=end, wall_s=0.0, cpu_s=0.0, rss_kb=0.0)
        plain = sh._merge_payloads(
            spec, mode, 1, [payload], shard_lookahead(spec), 0, "inline",
            0.0, 0.0,
        )
        one = run2(mode=mode, shards=1)
        assert one.n_shards == 1
        assert one.digest == plain.digest
        assert one == plain


def test_a_run_that_never_drains_fails_loudly(monkeypatch):
    """A process that reschedules itself forever must not spin an
    unsharded run forever: the drain guard bounds one shard too."""
    real_prepare = sh.ShardEngine.prepare

    def prepare(self):
        real_prepare(self)

        def forever():
            while True:
                yield 0.01

        self.sim.process(forever(), name="livelock")

    monkeypatch.setattr(sh.ShardEngine, "prepare", prepare)
    monkeypatch.setattr(sh, "_DRAIN_EPOCHS_MAX", 50)
    with pytest.raises(RuntimeError, match="failed to drain"):
        run2(shards=1)


def test_process_backend_matches_inline_bit_for_bit(monkeypatch):
    inline = run2(backend="inline")
    spawned = _capture_workers(monkeypatch)
    try:
        procs = run2(backend="process")
    except (WorkerSpawnError, RuntimeError) as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert procs.perf["backend"] == "process"
    assert len(spawned) == 1  # shard 0 runs in the coordinator
    assert procs == inline
    assert procs.digest == inline.digest


def test_batched_lane_conformance_survives_sharding():
    cohort = run2(mode="cohort")
    batched = run2(mode="batched")
    assert batched.digest == cohort.digest
    assert batched.lane["enabled"] == 1
    dc, db = cohort.to_dict(), batched.to_dict()
    for d in (dc, db):
        for key in ("mode", "lane", "perf", "shards"):
            d.pop(key, None)
    assert dc == db, "sharded batched diverged from sharded cohort"


def test_four_shards_partition_and_merge():
    res = run2(shards=4)
    assert res.violations == 0
    assert res.n_shards == 4
    assert len(res.shards) == 4
    assert sum(row["n_local"] for row in res.shards) == N
    # every initial level-2 parent is owned by exactly one shard
    owned = [p for row in res.shards for p in row["parents"]]
    assert sorted(owned) == sh.city_parents(
        get_scenario("steady-city").with_overrides(n_ue=N)
    )
    assert res.counters.get("migrations_out", 0) == res.counters.get(
        "migrations_in", 0
    )


# --------------------------------------------------------- sharded ring churn


def run_churn(shards, backend="inline"):
    return run_scenario(
        "ring-churn", n_ue=2000, duration_s=1.0, seed=1, verbose_trace=True,
        shards=shards, shard_backend=backend,
    )


@pytest.mark.parametrize("shards", sorted(PINNED_CHURN_DIGESTS))
def test_ring_churn_digest_is_pinned_per_shard_count(shards):
    res = run_churn(shards)
    assert res.digest == PINNED_CHURN_DIGESTS[shards]
    assert res.violations == 0
    # every shard applies the ring change; only the tile's owner counts it
    assert res.regions_final == 12
    assert res.counters["regions_added"] == 1
    assert res.counters["regions_removed"] == 1
    assert res.counters["replaced"] == res.counters["replacements_planned"] > 0


def test_ring_churn_process_backend_matches_inline():
    inline = run_churn(2)
    try:
        procs = run_churn(2, backend="process")
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert procs.perf["backend"] == "process"
    assert procs == inline
    assert procs.digest == inline.digest


# ------------------------------------------------ placement is execution-blind


@pytest.mark.parametrize("mode", ["cohort", "batched"])
@pytest.mark.parametrize(
    "scenario", ["steady-city", "commute-wave", "stadium-flash-crowd"]
)
def test_placement_is_execution_blind(scenario, mode):
    """Every UE is homed at the same BS whether the population is
    installed unsharded (eagerly per UE, or lazily as one column) or
    partitioned across 2 or 4 shards and installed there — for the
    uniform fast path (random walk, flash crowd) and the generic one
    (commute) — and the attach writes are counted once per UE."""
    spec = get_scenario(scenario).with_overrides(
        n_ue=700, seed=5, audit_history=False
    )
    engine = ShardEngine(spec, mode=mode)
    engine._bootstrap_population()
    assert engine.driver.lazy == (mode == "batched")
    want = [engine.driver.bs_of(i) for i in range(spec.n_ue)]
    assert len(set(want)) > 1
    for shards in (2, 4):
        smap = ShardMap(sh.city_parents(spec), shards)
        homes = sh.partition_population(spec, smap)
        got = {}
        for k, (gids, bsidx, names) in enumerate(homes):
            for gid, idx in zip(gids, bsidx):
                got[gid] = names[idx]
                assert smap.owner_of_tile(names[idx].split("-")[1]) == k
        assert [got[gid] for gid in range(spec.n_ue)] == want
        installed = {}
        writes = 0
        for k in range(shards):
            shard = sh.ShardEngine(spec, mode, k, shards, homes[k])
            shard._bootstrap_population()
            driver = shard.driver
            assert driver.lazy == engine.driver.lazy
            installed.update((driver.ids[i], driver.bs_of(i)) for i in range(driver.n))
            writes += shard.dep.auditor.writes
        assert [installed[gid] for gid in range(spec.n_ue)] == want
        assert writes == engine.dep.auditor.writes == spec.n_ue


# ------------------------------------------------------------ worker failures


def _capture_workers(monkeypatch):
    """The host of every worker the run spawns, for the no-orphan checks."""
    spawned = []
    real_spawn = sh.spawn_workers

    def spawn_workers(target, args_list):
        spawned.extend(real_spawn(target, args_list))
        return list(spawned)

    monkeypatch.setattr(sh, "spawn_workers", spawn_workers)
    return spawned


def test_worker_failure_arrives_whole_and_leaves_no_worker(monkeypatch):
    """A worker that raises mid-run ferries its whole traceback to the
    coordinator, which raises it and reaps every worker."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched engine reaches workers by fork only")
    real_advance = sh.ShardEngine.advance
    calls = []  # forked: every process counts its own calls

    def advance(self, until):
        calls.append(until)
        # shard 1 runs in a worker: its error crosses the ferry
        if len(calls) == 2 and self.shard_idx == 1:
            raise ZeroDivisionError("epoch two exploded")
        return real_advance(self, until)

    monkeypatch.setattr(sh.ShardEngine, "advance", advance)
    spawned = _capture_workers(monkeypatch)
    try:
        run2(backend="process")
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    except RuntimeError as err:
        message = str(err)
    else:
        pytest.fail("the worker's exception never reached the coordinator")
    assert "shard 1 worker failed mid-run" in message
    assert "ZeroDivisionError" in message
    assert "epoch two exploded" in message
    assert "in advance" in message  # the raising frame, not just the text
    assert len(spawned) == 1  # shard 0 runs in the coordinator
    assert not any(handle.process.is_alive() for handle in spawned)


def test_a_killed_worker_fails_the_run_naming_its_shard(monkeypatch):
    """A worker SIGKILLed mid-run fails the run loudly: the coordinator
    raises naming the shard and reaps every worker."""
    real_step_recv = sh._ProcessHost.step_recv
    calls = []

    def step_recv(self):
        calls.append(self.shard_idx)
        if calls.count(1) == 2 and self.shard_idx == 1:
            os.kill(self.process.pid, signal.SIGKILL)
            self.process.join(10.0)
        return real_step_recv(self)

    monkeypatch.setattr(sh._ProcessHost, "step_recv", step_recv)
    spawned = _capture_workers(monkeypatch)
    try:
        with pytest.raises(RuntimeError, match="shard 1 worker died mid-run"):
            run2(backend="process")
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert len(spawned) == 1  # shard 0 runs in the coordinator
    assert spawned[0].process.exitcode == -signal.SIGKILL
    assert not any(handle.process.is_alive() for handle in spawned)


def test_a_hung_worker_fails_the_run_at_the_deadline(monkeypatch):
    """A worker that stops answering fails the run once
    ``WORKER_DEADLINE_S`` passes, instead of hanging the coordinator;
    closing the run kills the hung worker."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched engine reaches workers by fork only")
    real_advance = sh.ShardEngine.advance
    calls = []  # forked: every worker counts its own calls

    def advance(self, until):
        calls.append(until)
        if len(calls) == 2 and self.shard_idx == 1:
            time.sleep(120.0)
        return real_advance(self, until)

    monkeypatch.setattr(sh.ShardEngine, "advance", advance)
    monkeypatch.setattr(sh, "WORKER_DEADLINE_S", 1.0)
    spawned = _capture_workers(monkeypatch)
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="shard 1 worker sent nothing for 1 s"):
            run2(backend="process")
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert time.monotonic() - t0 < 60.0
    assert len(spawned) == 1  # shard 0 runs in the coordinator
    assert not any(handle.process.is_alive() for handle in spawned)


@pytest.mark.parametrize("backend", [None, "inline", "process"])
def test_a_dead_engine_process_fails_the_run(monkeypatch, backend):
    """The arrival loop dying must not pass for a quiet run: the engine
    keeps its process handles and ``finish_payload`` re-raises — unsharded,
    inline, and from inside a worker over the error ferry."""
    if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched engine reaches workers by fork only")
    real_pick_idle = ShardEngine._pick_idle

    def pick_idle(self, pick_rng, lo=0, hi=None):
        # on the process backend shard 0 runs in the coordinator: the
        # failing shard is a worker's, so its error crosses the ferry
        if backend == "process" and self.shard_idx != 1:
            return real_pick_idle(self, pick_rng, lo, hi)
        raise IndexError("picked slot 12345 of 400")

    monkeypatch.setattr(ShardEngine, "_pick_idle", pick_idle)
    spawned = _capture_workers(monkeypatch)
    if backend is None:
        with pytest.raises(IndexError, match="slot 12345 of 400"):
            run_scenario("steady-city", n_ue=N, duration_s=DURATION_S, seed=SEED)
    elif backend == "inline":
        with pytest.raises(IndexError, match="slot 12345 of 400"):
            run2(backend="inline")
    else:
        try:
            with pytest.raises(RuntimeError, match="IndexError: picked slot 12345 of 400"):
                run2(backend="process")
        except WorkerSpawnError as err:  # pragma: no cover
            pytest.skip("no worker processes on this platform: %s" % err)
        assert len(spawned) == 1  # shard 0 runs in the coordinator
        assert not any(handle.process.is_alive() for handle in spawned)


def test_a_hosted_shard_failure_propagates_and_reaps_every_worker(monkeypatch):
    """Shard 0 runs in the coordinator: its exception propagates as it
    does on the inline backend, once every worker is reaped."""
    real_advance = sh.ShardEngine.advance
    calls = []

    def advance(self, until):
        calls.append(until)
        if len(calls) == 2 and self.shard_idx == 0:
            raise ZeroDivisionError("hosted epoch exploded")
        return real_advance(self, until)

    monkeypatch.setattr(sh.ShardEngine, "advance", advance)
    spawned = _capture_workers(monkeypatch)
    try:
        with pytest.raises(ZeroDivisionError, match="hosted epoch exploded"):
            run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert len(spawned) == 2
    assert not any(handle.process.is_alive() for handle in spawned)


# ------------------------------------------------------ k shards in k processes


def test_four_shards_run_in_four_processes(monkeypatch):
    """The coordinator hosts shard 0 and spawns a worker for each other
    shard; the merged result is the inline backend's."""
    spawned = _capture_workers(monkeypatch)
    try:
        procs = run2(backend="process", shards=4)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert procs.perf["backend"] == "process"
    assert len(spawned) == 3
    assert not any(handle.process.is_alive() for handle in spawned)
    inline = run2(backend="inline", shards=4)
    assert procs == inline
    assert procs.digest == inline.digest


#: the bytes of the run's per-shard gid arrays, the real worker, and
#: where a forked scanning worker writes what it found (set per test)
_HOMES_SCAN = {}


def _homes_scanning_worker(conn, *recipe):
    """The shard worker, writing once its engine is built which shards'
    gid arrays anything in its process still references."""
    real_start = sh._InlineHost.start

    def start(host):
        real_start(host)
        gc.collect()
        held = set()
        for obj in gc.get_objects():
            for ref in gc.get_referents(obj):
                if type(ref) is array:
                    raw = ref.tobytes()
                    held.update(
                        k for k, gids in enumerate(_HOMES_SCAN["gids"]) if raw == gids
                    )
        out = _HOMES_SCAN["dir"] / ("shard%d.txt" % host.engine.shard_idx)
        out.write_text(" ".join(map(str, sorted(held))))

    sh._InlineHost.start = start  # forked: patches this worker only
    _HOMES_SCAN["worker"](conn, *recipe)


def test_a_worker_holds_only_its_own_homes(monkeypatch, tmp_path):
    """Workers are forked before the population is placed and each is
    sent its own shard's homes: once its engine is built, nothing in a
    worker references another shard's gid array."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the scanning worker reaches workers by fork only")
    spec = get_scenario("steady-city").with_overrides(n_ue=N, seed=SEED)
    homes = sh.partition_population(spec, ShardMap(sh.city_parents(spec), 3))
    gids = [shard_gids.tobytes() for shard_gids, _bs, _names in homes]
    del homes  # this process's copies must not be what a worker finds
    monkeypatch.setitem(_HOMES_SCAN, "gids", gids)
    monkeypatch.setitem(_HOMES_SCAN, "worker", sh._shard_worker)
    monkeypatch.setitem(_HOMES_SCAN, "dir", tmp_path)
    monkeypatch.setattr(sh, "_shard_worker", _homes_scanning_worker)
    try:
        procs = run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert procs == run2(backend="inline", shards=3)
    held = [(tmp_path / ("shard%d.txt" % k)).read_text() for k in (1, 2)]
    assert held == ["1", "2"]


def test_rss_is_counted_once_per_process(monkeypatch):
    """``total_rss_kb`` sums the worker processes' peaks; a shard row's
    ``rss_kb`` is the peak of the process hosting it."""
    inline = run2(backend="inline", shards=3)
    assert inline.perf["total_rss_kb"] == 0
    assert all(
        0 < row["rss_kb"] <= inline.perf["peak_rss_kb"] for row in inline.shards
    )
    try:
        procs = run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    rows = procs.shards
    assert procs.perf["total_rss_kb"] == sum(row["rss_kb"] for row in rows[1:])
    assert all(row["rss_kb"] > 0 for row in rows)
    # the hosted shard's row is the coordinator's peak when it finished
    assert 0 < rows[0]["rss_kb"] <= procs.perf["peak_rss_kb"]


def test_a_workers_peak_covers_its_payload_send(monkeypatch):
    """A worker reads its peak again once its payload is sent: a payload
    32 MB larger than the run's own reads at least 32 MB above the peak
    the worker read before pickling it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched host reaches workers by fork only")
    ballast = 32 << 20
    real_finish = sh._InlineHost.finish

    def finish(host):
        payload = real_finish(host)
        payload["rss_before_send_kb"] = payload["rss_kb"]
        payload["ballast"] = bytes(range(256)) * (ballast // 256)
        return payload

    monkeypatch.setattr(sh._InlineHost, "finish", finish)
    received = []
    real_recv = sh._ProcessHost.finish

    def recv(host):
        payload = real_recv(host)
        received.append((payload["rss_before_send_kb"], payload["rss_kb"]))
        del payload["ballast"]
        return payload

    monkeypatch.setattr(sh._ProcessHost, "finish", recv)
    try:
        procs = run2(backend="process", shards=2)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    ((before, after),) = received
    assert after >= before + ballast / 1024, (before, after)
    assert procs.perf["total_rss_kb"] == after == procs.shards[1]["rss_kb"]


def test_a_silent_worker_fails_the_run_at_startup(monkeypatch):
    """The ready handshake has a deadline: a worker that never reports
    ready fails the run naming its shard, and nothing is left alive."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched engine reaches workers by fork only")
    real_prepare = sh.ShardEngine.prepare

    def prepare(self):
        if self.shard_idx == 1:
            time.sleep(120.0)
        return real_prepare(self)

    monkeypatch.setattr(sh.ShardEngine, "prepare", prepare)
    monkeypatch.setattr(sh, "WORKER_DEADLINE_S", 1.0)
    spawned = _capture_workers(monkeypatch)
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="shard 1 worker sent nothing for 1 s"):
            run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert time.monotonic() - t0 < 60.0
    assert len(spawned) == 2
    assert not any(handle.process.is_alive() for handle in spawned)


def test_a_worker_dead_at_startup_fails_the_run(monkeypatch):
    """A worker that exits before its ready fails the run naming its
    shard, and every other worker is reaped."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the patched engine reaches workers by fork only")
    real_prepare = sh.ShardEngine.prepare

    def prepare(self):
        if self.shard_idx == 2:
            os._exit(3)
        return real_prepare(self)

    monkeypatch.setattr(sh.ShardEngine, "prepare", prepare)
    spawned = _capture_workers(monkeypatch)
    try:
        with pytest.raises(RuntimeError, match="shard 2 worker died during startup"):
            run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert len(spawned) == 2
    assert spawned[1].process.exitcode == 3
    assert not any(handle.process.is_alive() for handle in spawned)


def test_a_failed_hosted_build_reaps_the_spawned_workers(monkeypatch):
    """Shard 0 is built in the coordinator after the workers are
    spawned; if that build raises, every worker is reaped."""
    real_prepare = sh.ShardEngine.prepare

    def prepare(self):
        if self.shard_idx == 0:
            raise ZeroDivisionError("hosted build exploded")
        return real_prepare(self)

    monkeypatch.setattr(sh.ShardEngine, "prepare", prepare)
    spawned = _capture_workers(monkeypatch)
    try:
        with pytest.raises(ZeroDivisionError, match="hosted build exploded"):
            run2(backend="process", shards=3)
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert len(spawned) == 2
    assert not any(handle.process.is_alive() for handle in spawned)


def test_rejects_unknown_mode_and_oversharding():
    with pytest.raises(ValueError, match="cohort"):
        run2(mode="flyweight")
    with pytest.raises(ValueError, match="level-2"):
        run2(shards=99)


def test_individual_mode_shards_like_the_cohort():
    """N persistent UE objects migrate across shards exactly as the
    flyweight cohort does, on both backends: an emigrant's object
    leaves its shard, and an immigrant keeps serving from the state its
    install carried (36 migrations here, immigrants serving again)."""
    spec = get_scenario("commute-wave").with_overrides(
        n_ue=2000, duration_s=3.0, seed=1
    )

    def run(mode, backend="inline"):
        return run_scenario(
            spec, mode=mode, shards=2, shard_backend=backend,
            verbose_trace=True,
        )

    cohort, individual = run("cohort"), run("individual")
    assert individual.counters.get("migrations_out", 0) >= 30
    assert individual.violations == 0
    assert individual.mode == "individual"
    assert dataclasses.replace(individual, mode="cohort") == cohort
    assert individual.digest == cohort.digest
    try:
        procs = run("individual", backend="process")
    except WorkerSpawnError as err:  # pragma: no cover
        pytest.skip("no worker processes on this platform: %s" % err)
    assert procs == individual


# ------------------------------------------- cross-shard handover under faults

#: steady-city variant: boosted roaming plus a region blackout window
#: [0.35, 0.70] x duration; seed 3 produces cross-shard migrations on
#: both shards *inside* the window (scouted, then pinned).
def _fault_window_spec(seed=3):
    return dataclasses.replace(
        get_scenario("steady-city"),
        name="cross-shard-fault",
        n_ue=240,
        duration_s=1.0,
        seed=seed,
        mobility_rate_per_ue=1.2,
        fault_events=[
            (0.35, "fail", "region:index:4"),
            (0.70, "recover", "region:index:4"),
        ],
        audit_history=True,
    )


def test_cross_shard_handover_mid_fault_window_keeps_ryw():
    spec = _fault_window_spec()
    parents = sh.city_parents(spec)
    smap = sh.ShardMap(parents, 2)
    homes = sh.partition_population(spec, smap)
    delta = sh.shard_lookahead(spec)

    def maker(k):
        return lambda: sh.ShardEngine(
            spec, mode="cohort", shard_idx=k, shards=2,
            homes=homes[k], verbose_trace=True,
        )

    hosts = [sh._InlineHost(maker(k)) for k in range(2)]
    sh._epoch_loop(hosts, spec.duration_s, delta)
    # a finished host has freed its engine: read what it shipped
    payloads = [h.finish() for h in hosts]
    counters = [p["counters"] for p in payloads]

    lo, hi = 0.35 * spec.duration_s, 0.70 * spec.duration_s
    for k, payload in enumerate(payloads):
        out = [r for r in payload["trace"].records if r.kind == "shard_migrate_out"]
        in_window = [r for r in out if lo <= r.time <= hi]
        assert in_window, "shard %d: no cross-shard handover in the window" % k
        # the full cross-level-2 handover is never lane-admitted: the
        # emigrating UE took the discrete path by construction
        assert counters[k].get("moves_handover", 0) > 0
        assert payload["violations"] == 0
        # the emigrant's state version crossed the channel intact
        assert all(dict(r.detail).get("version") is not None for r in in_window)

    # conservation: every record sent was installed somewhere
    sent = sum(c.get("migrations_out", 0) for c in counters)
    received = sum(c.get("migrations_in", 0) for c in counters)
    assert sent == received > 0

    # and the merged run is clean end to end
    merged = run_scenario(spec, shards=2, shard_backend="inline", verbose_trace=True)
    assert merged.violations == 0
    assert merged.counters.get("migrations_out", 0) == sent


def test_foreign_fault_ops_are_mirrored_bare():
    """Every shard flips the node; only the owner counts, records and
    announces the op."""
    spec = _fault_window_spec()
    smap = sh.ShardMap(sh.city_parents(spec), 2)
    homes = sh.partition_population(spec, smap)
    engines = [sh.ShardEngine(spec, "cohort", k, 2, homes[k]) for k in range(2)]
    now = 0.5 * spec.duration_s  # inside the blackout
    events = engines[0].injector.plan.events + engines[0]._mirror_events
    fired = [e for e in events if e.at <= now]
    owner = smap.owner_of_tile(sorted(engines[0].topo.tiles)[4])
    for k, engine in enumerate(engines):
        assert bool(engine.injector.plan.events) == (k == owner)
        heard = []
        engine.injector.add_listener(lambda *args, heard=heard: heard.append(args))
        engine.prepare()
        engine.advance(now)
        down = sorted(n for n, c in engine.dep.cpfs.items() if not c.up)
        assert down == sorted(e.target for e in fired if e.op == "fail_cpf") != []
        applied = engine.injector.ops_applied
        assert applied == len(heard) == (len(fired) if k == owner else 0)
        assert engine.trace.kinds().get("op", 0) == applied


def test_migrated_ue_serves_again_at_destination():
    """An immigrant is not a tombstone: after install it keeps serving
    (its slot re-enters the destination's arrival buckets)."""
    res = run_scenario(
        _fault_window_spec(), shards=2, shard_backend="inline", verbose_trace=True
    )
    assert res.counters.get("migrations_in", 0) > 0
    # channel accounting: one record per migration, plus any
    # endpoint-named legs (repair fetches) that cross shard owners
    assert (
        res.counters.get("channel_messages", 0)
        >= res.counters.get("migrations_out", 0)
        > 0
    )
    assert res.counters.get("channel_bytes", 0) >= 64 * res.counters.get(
        "migrations_out", 0
    )
    assert res.violations == 0


# ------------------------------------------------- storm x faults, sharded

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=6,
    print_blob=True,
)


@st.composite
def sharded_storm_specs(draw):
    seed = draw(st.integers(0, 2**20))
    l2_regions = draw(st.integers(2, 3))
    fault_events = []
    if draw(st.booleans()):
        fail_at = draw(st.floats(0.30, 0.50))
        recover_at = draw(st.floats(0.55, 0.70))
        victim = draw(st.integers(0, l2_regions * 2 - 1))
        fault_events = [
            (fail_at, "fail", "region:index:%d" % victim),
            (recover_at, "recover", "region:index:%d" % victim),
        ]
    link_faults = []
    if draw(st.booleans()):
        hop = draw(st.sampled_from(
            ("cpf_cpf_intra", "cpf_cpf_inter", "cpf_cpf_far")
        ))
        link_faults = [(hop, draw(st.floats(0.05, 0.30)))]
    return dataclasses.replace(
        get_scenario("iot-reattach-storm"),
        name="sharded-storm-property",
        n_ue=draw(st.integers(100, 200)),
        duration_s=1.5,
        seed=seed,
        l2_regions=l2_regions,
        l1_per_l2=2,
        cpfs_per_region=2,
        bss_per_region=2,
        traffic_rate_scale=8.0,
        fault_events=fault_events,
        link_faults=link_faults,
        audit_history=True,
    )


@given(spec=sharded_storm_specs())
@settings(**_SETTINGS)
def test_ryw_holds_through_sharded_storms(spec):
    res = run_scenario(spec, shards=2, shard_backend="inline")
    assert res.violations == 0, (
        "RYW violated across the shard boundary (seed=%d faults=%r links=%r)"
        % (spec.seed, spec.fault_events, spec.link_faults)
    )
    assert res.serves > 0 and res.writes > 0
    assert res.counters.get("storm_arrivals", 0) > 0


@given(spec=sharded_storm_specs())
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_storm_runs_are_reproducible(spec):
    a = run_scenario(spec, shards=2, shard_backend="inline", verbose_trace=True)
    b = run_scenario(spec, shards=2, shard_backend="inline", verbose_trace=True)
    assert a.digest == b.digest
    assert a == b


# ------------------------------------------------------------------ obs merge


def test_obs_metrics_snapshots_merge_across_shards():
    from repro.obs import Observability

    obs = Observability("metrics")
    res = run_scenario(
        "steady-city", n_ue=N, duration_s=DURATION_S, seed=SEED,
        shards=2, shard_backend="inline", obs=obs,
    )
    snap = res.obs_snapshot
    assert snap["shards"] == 2
    assert snap["spans_started"] == snap["spans_finished"] > 0
    counters = {c["name"]: c["value"] for c in snap["metrics"]["counters"]}
    assert counters.get("hop_messages", 0) > 0
