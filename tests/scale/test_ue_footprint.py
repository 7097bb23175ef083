"""What one UE costs the simulated network, in traced bytes.

Neutrino keeps each UE's state on a primary CPF and N backups (§4.2–4.3),
so whatever one copy of that state costs, a city pays it (1 + N) times
per UE.  These guards pin the per-UE records as slotted (no instance
``__dict__``), the cost of an eager cohort bootstrap and of a lazy
batched run, the ring-hash memo as bounded rather than one entry per UE
ever placed, a UE's id string and replica set as objects its entries
share, and a shard's driver as holding its columns and no per-UE id
index.
"""

import os
import subprocess
import sys
import tracemalloc
from array import array

import pytest

import repro
from repro.core.deployment import Placement
from repro.core.state import StateEntry
from repro.core.upf import Session
from repro.geo import ring
from repro.scale.cohort import BatchedDriver, CohortDriver
from repro.scale.engine import ShardEngine
from repro.scale.scenarios import get_scenario

N = 20_000

#: traced bytes per UE an eager bootstrap may leave live: every UE's
#: state entry on its primary and backups, its placement and its id.
#: Dict-backed records with an unbounded hash memo took ~1 110 B/UE,
#: a list of backups per placement with one id string per entry
#: ~705 B/UE, and two objects per state copy ~601 B/UE; one record per
#: copy reads ~458 on CPython 3.11.  The bound is that x 1.12, rounded
#: up: CPython 3.9 read 10% above 3.11 on this bootstrap before.
BOOTSTRAP_BYTES_PER_UE_MAX = 520

#: traced bytes per UE that building one shard's driver and three id
#: buckets may allocate, its columns included.  A gid -> slot dict over
#: every slot plus one slot list per bucket took ~160-200 B/UE, and a
#: 4-byte procedure counter ~16; the columns read ~12.
SHARD_DRIVER_BYTES_PER_UE_MAX = 14

#: a lazy batched steady-city run (the bench's ``steady_batched`` path
#: at a tenth of its UEs): traced bytes per UE once the engine is
#: prepared (the population columns), and traced bytes the run adds
#: per UE it touched (its state copies, placement, clock, session and
#: the run's own tallies).  With a procedure counter column and two
#: objects per state copy these read ~31.03 and ~942 on CPython 3.11;
#: now ~27 and ~757.
LAZY_N, LAZY_DURATION_S = 50_000, 2.5
LAZY_SETUP_BYTES_PER_UE_MAX = 31
LAZY_BYTES_PER_TOUCHED_UE_MAX = 880


#: the traced bootstrap, run in a fresh interpreter: it prints the
#: bytes the bootstrap of ``argv[1]`` UEs leaves live.
_TRACED_BOOTSTRAP = """
import sys, tracemalloc
from repro.scale.engine import ShardEngine
from repro.scale.scenarios import get_scenario
spec = get_scenario("iot-reattach-storm").with_overrides(n_ue=int(sys.argv[1]))
engine = ShardEngine(spec, mode="cohort")
assert not engine.driver.lazy
tracemalloc.start()
engine._bootstrap_population()
print(tracemalloc.get_traced_memory()[0])
"""


@pytest.fixture(scope="module")
def engine():
    """An engine after the eager cohort bootstrap of N iot-reattach-storm UEs."""
    spec = get_scenario("iot-reattach-storm").with_overrides(n_ue=N)
    engine = ShardEngine(spec, mode="cohort")
    assert not engine.driver.lazy
    engine._bootstrap_population()
    return engine


def test_eager_bootstrap_bytes_per_ue():
    """Traced in a fresh interpreter.  Every UE id is interned, and the
    interpreter's one intern table grows with whatever ran before: in a
    warm process its resizes land inside the traced window (737 B/UE
    after other scale tests, against ~601 in a fresh one)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_BOOTSTRAP, str(N)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    assert int(out.stdout) / N <= BOOTSTRAP_BYTES_PER_UE_MAX


#: the traced lazy run, in a fresh interpreter for the same reason: it
#: prints the bytes live after prepare, after the run, and the number
#: of UEs the run touched.
_TRACED_LAZY_RUN = """
import sys, tracemalloc
from repro.scale.engine import ShardEngine
from repro.scale.scenarios import get_scenario
spec = get_scenario("steady-city").with_overrides(
    n_ue=int(sys.argv[1]), duration_s=float(sys.argv[2])
)
tracemalloc.start()
engine = ShardEngine(spec, mode="batched")
engine.prepare()
assert engine.driver.lazy and engine.driver.lane is not None
setup = tracemalloc.get_traced_memory()[0]
engine.advance(float("inf"))
print(setup, tracemalloc.get_traced_memory()[0], sum(engine.driver._booted))
"""


def test_lazy_batched_run_bytes_per_ue():
    """The lazy path never bootstraps eagerly, so the guard above never
    sees its columns or the state copies its touched UEs make."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_LAZY_RUN, str(LAZY_N), str(LAZY_DURATION_S)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    setup, end, touched = map(int, out.stdout.split())
    assert 0 < touched < LAZY_N // 10  # lazy: most UEs stay columns only
    assert setup / LAZY_N <= LAZY_SETUP_BYTES_PER_UE_MAX
    assert (end - setup) / touched <= LAZY_BYTES_PER_TOUCHED_UE_MAX


def test_ring_hash_memo_is_bounded(engine):
    assert len(engine.dep.placements_items()) == N
    assert ring._hash64.cache_info().currsize <= ring.HASH_MEMO_SIZE <= 4096


def test_per_ue_records_have_no_instance_dict(engine):
    ue_id, placement = next(iter(engine.dep.placements_items()))
    entry = engine.dep.cpfs[placement.primary].store.get(ue_id)
    for record in (entry, placement, StateEntry(), Session("bs"), Placement("r", "p")):
        assert not hasattr(record, "__dict__")


def test_a_ue_id_and_a_replica_set_are_held_once(engine):
    driver, dep = engine.driver, engine.dep
    assert driver.ue_id(7) is driver.ue_id(7)
    by_set = {}
    for ue_id, placement in dep.placements_items():
        assert type(placement.backups) is tuple
        by_set.setdefault(placement.backups, []).append(placement.backups)
    assert len(by_set) < N // 100  # a few replica sets for N UEs
    for backups in by_set.values():
        assert all(b is backups[0] for b in backups)
    ue_id = driver.ue_id(7)
    placement = dep.placement_of(ue_id)
    stored = next(k for k in dep.cpfs[placement.primary].store._entries if k == ue_id)
    assert stored is ue_id


@pytest.mark.parametrize("cls", [CohortDriver, BatchedDriver])
def test_a_shard_driver_holds_no_per_ue_index(cls):
    """A shard's 50k UEs cost their columns, not an id index."""
    n = 50_000
    ids = array("I", range(0, 2 * n, 2))  # one shard's ascending share
    tracemalloc.start()
    try:
        driver = cls(None, ["bs-a", "bs-b"], ids)
        buckets = [
            driver.bucket(lo, hi)
            for lo, hi in ((0, 30_000), (30_000, 70_000), (70_000, None))
        ]
        _live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, buckets)) == n
    assert peak / n <= SHARD_DRIVER_BYTES_PER_UE_MAX
