"""What one UE costs the simulated network, in traced bytes.

Neutrino keeps each UE's state on a primary CPF and N backups (§4.2–4.3),
so whatever one copy of that state costs, a city pays it (1 + N) times
per UE.  These guards pin the per-UE records as slotted (no instance
``__dict__``), the cost of an eager cohort bootstrap, the ring-hash
memo as bounded rather than one entry per UE ever placed, and a shard's
driver as holding its columns and no per-UE id index.
"""

import tracemalloc
from array import array

import pytest

from repro.core.deployment import Placement
from repro.core.state import StateEntry, UEState
from repro.geo import ring
from repro.scale.cohort import BatchedDriver, CohortDriver
from repro.scale.engine import _Engine
from repro.scale.scenarios import get_scenario

N = 20_000

#: traced bytes per UE an eager bootstrap may leave live: every UE's
#: state entry on its primary and backups, its placement and its id.
#: Dict-backed records with an unbounded hash memo took ~1 110 B/UE.
BOOTSTRAP_BYTES_PER_UE_MAX = 800

#: traced bytes per UE that building one shard's driver and three id
#: buckets may allocate, its columns included.  A gid -> slot dict over
#: every slot plus one slot list per bucket took ~160-200 B/UE.
SHARD_DRIVER_BYTES_PER_UE_MAX = 24


@pytest.fixture(scope="module")
def bootstrapped():
    """Eager cohort bootstrap of N iot-reattach-storm UEs, traced."""
    spec = get_scenario("iot-reattach-storm").with_overrides(n_ue=N)
    engine = _Engine(spec, mode="cohort")
    assert not engine.driver.lazy
    tracemalloc.start()
    try:
        engine._bootstrap_population()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return engine, live


def test_eager_bootstrap_bytes_per_ue(bootstrapped):
    _engine, live = bootstrapped
    assert live / N <= BOOTSTRAP_BYTES_PER_UE_MAX


def test_ring_hash_memo_is_bounded(bootstrapped):
    engine, _live = bootstrapped
    assert len(engine.dep.placements_items()) == N
    assert ring._hash64.cache_info().currsize <= ring.HASH_MEMO_SIZE <= 4096


def test_per_ue_records_have_no_instance_dict(bootstrapped):
    engine, _live = bootstrapped
    ue_id, placement = next(iter(engine.dep.placements_items()))
    entry = engine.dep.cpfs[placement.primary].store.get(ue_id)
    for record in (entry, entry.state, placement):
        assert not hasattr(record, "__dict__")
    for record in (UEState("u", 1), StateEntry(UEState("u", 1)), Placement("r", "p")):
        assert not hasattr(record, "__dict__")


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
