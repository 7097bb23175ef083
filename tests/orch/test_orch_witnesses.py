"""Determinism witnesses for orchestrated runs.

Three pinned facts, all on the small ``upgrade-under-commute-wave``
configuration (n_ue=300, duration=1.0, seed=11):

* the orchestrated run's merged-trace digest and its append-only
  action log are bit-stable — any change to controller decisions, to
  action application order, or to the epoch/tick alignment shows up
  here first — and the log is the same at every shard count, since the
  controller ticks at exact instants wherever the run executes;
* the inline and process shard backends produce the identical
  orchestrated run (the controller lives at the coordinator; actions
  ship inside step messages on both vehicles);
* a run with ``orch_policy=None`` and a run under the non-mutating
  no-op policy produce the *same* digest: the controller's presence
  (tick timeouts, heartbeat reads) must not perturb the simulation —
  observation is free, only actions change the run.

The short duration deliberately truncates the rolling upgrade (the
last drained CPF never gets its replace): the auditor must stay clean
even when the run ends mid-drain.
"""

import dataclasses

import pytest

from repro.scale.engine import run_scenario
from repro.scale.scenarios import get_scenario

_SMALL = dict(n_ue=300, duration_s=1.0, seed=11)

#: merged-trace digests for the orchestrated small run, per topology.
PINNED = {
    1: "0487a7a002187f517fac42a591a1567a",
    2: "10179b6b3a610736109aba8e1080505f",
    4: "72d6d884422fa9612db66e36f56df8e1",
}

#: the same spec with the controller off (or observing-only).
PINNED_OFF = {
    1: "cae66941d9efbd404e4d88758ea67670",
    2: "ebd9e809a676753384f4c2c74065eb20",
}

#: the full action log at 1, 2 and 4 shards — the golden witness for
#: controller decisions (``epoch`` is the tick index, ``t`` its instant).
GOLDEN_LOG = [
    {"kind": "upgrade_begin", "region": "121110", "cpf": "cpf-121110-0",
     "epoch": 4, "t": 0.2},
    {"kind": "upgrade_replace", "region": "121110", "cpf": "cpf-121110-0",
     "epoch": 7, "t": 0.35},
    {"kind": "upgrade_begin", "region": "121110", "cpf": "cpf-121110-1",
     "epoch": 7, "t": 0.35},
    {"kind": "upgrade_replace", "region": "121110", "cpf": "cpf-121110-1",
     "epoch": 9, "t": 0.44999999999999996},
    {"kind": "upgrade_begin", "region": "121111", "cpf": "cpf-121111-0",
     "epoch": 11, "t": 0.5499999999999999},
    {"kind": "upgrade_replace", "region": "121111", "cpf": "cpf-121111-0",
     "epoch": 12, "t": 0.6},
    {"kind": "upgrade_begin", "region": "121111", "cpf": "cpf-121111-1",
     "epoch": 13, "t": 0.65},
    {"kind": "upgrade_replace", "region": "121111", "cpf": "cpf-121111-1",
     "epoch": 15, "t": 0.7500000000000001},
    {"kind": "upgrade_begin", "region": "121112", "cpf": "cpf-121112-0",
     "epoch": 16, "t": 0.8000000000000002},
    {"kind": "upgrade_replace", "region": "121112", "cpf": "cpf-121112-0",
     "epoch": 18, "t": 0.9000000000000002},
    {"kind": "upgrade_begin", "region": "121112", "cpf": "cpf-121112-1",
     "epoch": 19, "t": 0.9500000000000003},
]


def _spec(**overrides):
    spec = get_scenario("upgrade-under-commute-wave").with_overrides(**_SMALL)
    return dataclasses.replace(spec, **overrides) if overrides else spec


def test_pinned_digest_and_action_log():
    res = run_scenario(_spec())
    assert res.violations == 0
    assert res.digest == PINNED[1]
    assert res.orch_log == GOLDEN_LOG
    assert res.orch_summary["by_kind"] == {
        "upgrade_begin": 6, "upgrade_replace": 5,
    }


@pytest.mark.parametrize("shards", [2, 4])
def test_pinned_sharded_digests(shards):
    res = run_scenario(_spec(), shards=shards, shard_backend="inline")
    assert res.violations == 0
    assert res.digest == PINNED[shards]


def test_process_backend_matches_inline_bit_for_bit():
    inline = run_scenario(_spec(), shards=2, shard_backend="inline")
    procs = run_scenario(_spec(), shards=2, shard_backend="process")
    assert procs.digest == inline.digest
    assert procs.orch_log == inline.orch_log
    assert procs.orch_summary == inline.orch_summary


@pytest.mark.parametrize("shards", [1, 2])
def test_noop_policy_matches_orch_off(shards):
    kwargs = (
        dict(shards=shards, shard_backend="inline") if shards > 1 else {}
    )
    off = run_scenario(_spec(orch_policy=None), **kwargs)
    noop = run_scenario(_spec(orch_policy={"tick_s": 0.05}), **kwargs)
    assert off.digest == PINNED_OFF[shards]
    assert noop.digest == off.digest
    # the observing controller really ran
    assert noop.orch_summary["ticks"] > 0
    assert noop.orch_log == []
    # and the controller-off run carries no orch result at all
    assert not hasattr(off, "orch_log")


def test_upgrade_order_is_shard_count_invariant():
    """The controller ticks at the exact ``tick_s`` multiples at every
    shard count, so the whole action log — kind, region, CPF, tick
    index and instant — is the golden one at 1, 2 and 4 shards."""
    for shards in (1, 2, 4):
        res = run_scenario(_spec(), shards=shards, shard_backend="inline")
        assert res.orch_log == GOLDEN_LOG, shards
