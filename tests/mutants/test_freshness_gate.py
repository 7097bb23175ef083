"""Mutant: a freshness gate that ignores the UE's own writes.

§4.2.4 rule (3) lives in one method, ``StateStore.current``, so one
patch breaks it everywhere: here the gate forgets ``min_version`` and
lets a CPF serve an up-to-date copy that is older than the UE's last
completed write.  ``freshness_gate.json`` is a schedule the
message-level-fault property test
(``tests/core/test_consistency_property.py``) found for that mutant;
the RYW auditor must report it, and must pass the unmutated tree on it.
"""

import pathlib

from repro.core.state import StateStore
from repro.faults import FaultPlan, run_plan

SCHEDULE = pathlib.Path(__file__).with_name("freshness_gate.json")


def _run():
    return run_plan(FaultPlan.load(str(SCHEDULE)))


def test_the_schedule_keeps_read_your_writes():
    result = _run()
    assert result.ok, result.violations
    assert result.dep.auditor.reattaches_forced >= 1


def test_a_gate_that_ignores_min_version_is_caught(monkeypatch):
    gate = StateStore.current

    def current(self, ue_id, min_version=0):
        return gate(self, ue_id)

    monkeypatch.setattr(StateStore, "current", current)
    result = _run()
    assert not result.ok
    assert [(v.reader_version, v.served_version) for v in result.violations][0] == (4, 3)
