"""Microbenchmarks guarding the simulator-kernel and codec hot paths.

Unlike the figure benchmarks (which time whole experiment sweeps), this
file isolates the primitives every figure point is built from:

* ``Simulator.schedule`` / zero-delay fire throughput — the dominant
  operation of the DES kernel (``Event._dispatch`` and ``Process``
  wakeups are zero-delay callbacks);
* the timed-heap path (non-zero delays through the binary heap);
* the process trampoline (generator yield → timeout → resume) and the
  pure-delay sleep (generator yield → ``float`` → resume);
* the FIFO ``Server`` (submit → completion → waiter resume), where every
  queueing knee in Figs. 7–11 is spent;
* codec encode/decode on real catalog messages (ASN.1 PER bit-level,
  FlatBuffers and protobuf byte-level) — the Fig. 18–20 hot loop;
* ``Tally.observe`` — the per-sample measurement cost.

CI runs this file with ``--benchmark-json`` and compares the kernel
and codec throughput against the committed ``BENCH_baseline.json``
snapshot (see ``benchmarks/compare_baseline.py``); a >30% regression
of the guarded benchmarks fails the build.  Run a fresh snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_micro.py \
        --benchmark-json=/tmp/bench.json
    python benchmarks/compare_baseline.py /tmp/bench.json BENCH_baseline.json
"""

import pytest

pytest.importorskip("pytest_benchmark")

from repro.codec import get_codec
from repro.messages.registry import CATALOG
from repro.sim.core import Simulator
from repro.sim.monitor import Tally
from repro.sim.node import Server

# -- kernel ----------------------------------------------------------------

#: events per benchmark round; large enough that per-round setup
#: (Simulator construction) is noise.
N_EVENTS = 20_000


def _zero_delay_chain(n: int) -> int:
    """n zero-delay callbacks, each scheduling the next (dispatch chain)."""
    sim = Simulator()
    left = [n]

    def tick():
        left[0] -= 1
        if left[0]:
            sim.schedule(0.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    assert left[0] == 0
    return n


def _zero_delay_fanout(n: int) -> int:
    """n pre-scheduled zero-delay callbacks drained in seq order."""
    sim = Simulator()
    seen = [0]

    def tick():
        seen[0] += 1

    for _ in range(n):
        sim.schedule(0.0, tick)
    sim.run()
    assert seen[0] == n
    return n


def test_kernel_schedule_fire_zero_delay(benchmark):
    """Dispatch-chain latency (tracked, unguarded: noisy under load)."""
    benchmark(_zero_delay_chain, N_EVENTS)


def test_kernel_schedule_fire_fanout(benchmark):
    """THE guarded metric: bulk zero-delay schedule+fire throughput."""
    benchmark(_zero_delay_fanout, N_EVENTS)


def test_kernel_schedule_timed_heap(benchmark):
    """Non-zero delays: the binary-heap path stays the fallback."""

    def run(n):
        sim = Simulator()
        seen = [0]

        def tick():
            seen[0] += 1

        # Deterministic pseudo-random delays; no RNG dependency.
        for i in range(n):
            sim.schedule(((i * 2654435761) % 1000) * 1e-6, tick)
        sim.run()
        assert seen[0] == n

    benchmark(run, N_EVENTS)


def test_kernel_process_trampoline(benchmark):
    """Generator processes yielding timeouts: yield → fire → resume."""

    def run(n_procs, n_yields):
        sim = Simulator()
        done = [0]

        def proc():
            for _ in range(n_yields):
                yield sim.timeout(0.0)
            done[0] += 1

        for _ in range(n_procs):
            sim.process(proc())
        sim.run()
        assert done[0] == n_procs

    benchmark(run, 200, 50)


def test_kernel_process_sleep(benchmark):
    """Guarded: processes sleeping on ``float`` delays — yield → one heap
    entry → resume, what every clean hop and radio leg costs."""

    def run(n_procs, n_waits):
        sim = Simulator()
        done = [0]

        def proc(delay):
            for _ in range(n_waits):
                yield delay
            done[0] += 1

        for i in range(n_procs):
            sim.process(proc(1e-6 * (1 + i % 7)))  # interleaved wake-ups
        sim.run()
        assert done[0] == n_procs

    benchmark(run, 200, 50)


def test_kernel_server_fifo(benchmark):
    """Guarded: jobs through a 1-core FIFO server, one waiter process each."""

    def run(n_jobs):
        sim = Simulator()
        server = Server(sim, cores=1)
        done = [0]

        def waiter():
            yield server.submit(1e-4)
            done[0] += 1

        for _ in range(n_jobs):
            sim.process(waiter())
        sim.run()
        assert done[0] == n_jobs

    benchmark(run, 10_000)


def test_kernel_event_callback_fanout(benchmark):
    """One event with many waiters succeeding (dispatch burst)."""

    def run(n_events, n_waiters):
        sim = Simulator()
        seen = [0]

        def cb(_ev):
            seen[0] += 1

        for i in range(n_events):
            ev = sim.event()
            for _ in range(n_waiters):
                ev.add_callback(cb)
            sim.schedule(1e-6 * i, ev.succeed, i)
        sim.run()
        assert seen[0] == n_events * n_waiters

    benchmark(run, 500, 20)


# -- codecs ----------------------------------------------------------------

#: representative catalog messages: the biggest S1AP message, a NAS
#: message, and a mid-size context setup (the Fig. 18 x-axis spread).
_CODEC_MESSAGES = ("HandoverRequest", "AttachRequest", "InitialContextSetup")


def _codec_fixtures(codec_name):
    codec = get_codec(codec_name)
    fixtures = []
    for name in _CODEC_MESSAGES:
        schema = CATALOG.schema(name)
        sample = CATALOG.sample(name)
        fixtures.append((schema, sample, codec.encode(schema, sample)))
    return codec, fixtures


def _encode_loop(codec, fixtures, repeats):
    for _ in range(repeats):
        for schema, sample, _wire in fixtures:
            codec.encode(schema, sample)


def _decode_loop(codec, fixtures, repeats):
    for _ in range(repeats):
        for schema, _sample, wire in fixtures:
            codec.decode(schema, wire)


@pytest.mark.parametrize("codec_name", ["asn1per", "flatbuffers", "protobuf"])
def test_codec_encode(benchmark, codec_name):
    codec, fixtures = _codec_fixtures(codec_name)
    benchmark(_encode_loop, codec, fixtures, 100)


@pytest.mark.parametrize("codec_name", ["asn1per", "flatbuffers", "protobuf"])
def test_codec_decode(benchmark, codec_name):
    codec, fixtures = _codec_fixtures(codec_name)
    benchmark(_decode_loop, codec, fixtures, 100)


def test_codec_roundtrip_correctness():
    """Sanity (not timing): the benchmark fixtures round-trip."""
    for codec_name in ("asn1per", "flatbuffers", "protobuf"):
        codec, fixtures = _codec_fixtures(codec_name)
        for schema, sample, wire in fixtures:
            assert codec.decode(schema, wire) == sample


# -- monitor ---------------------------------------------------------------


def test_monitor_tally_observe(benchmark):
    """Per-sample measurement cost on the PCT hot path."""

    def run(n):
        tally = Tally("pct")
        observe = tally.observe
        for i in range(n):
            observe(i * 1e-6)
        assert tally.count == n

    benchmark(run, 50_000)
