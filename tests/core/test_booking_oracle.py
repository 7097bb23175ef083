"""Booking vs event path: the same run, bit for bit (house style: PR 13/21/22).

``UE.execute`` books every server leg (``Server.book``: the job is the
wait, resumed inline at its booked end, no ``Event``) and sums each run
of pure delays into one wake.  ``tests/core/reference_ue.py`` keeps the
parent commit's interpreter, where every leg waits on its component's
event method and every delay is its own sleep;
:func:`~tests.core.reference_ue.event_path` patches it over ``UE``.
Driven by the same workload the two must agree on every field a reader
of the results can see:

* the Fig. 7 rows of all four presets and the Fig. 10 row, every field
  including ``utilization`` (busy time is summed in completion order on
  both paths);
* the six regression-schedule EventTrace digests (verbose traces: the
  failure deliveries of dropped bookings, no fused hops);
* a cohort ``iot-reattach-storm``: a region blackout drops bookings
  mid-run, and the recovered region's re-registration storm runs
  through fused hops.
"""

import dataclasses

import pytest

from repro.core import ControlPlaneConfig
from repro.experiments.harness import RunSpec, run_pct_point
from repro.faults import FaultPlan, run_plan
from repro.scale.engine import run_scenario

from .reference_ue import event_path
from .test_kernel_witnesses import (
    _FIG07_SPEC,
    _FIG10_SPEC,
    CORPUS_DIR,
    EXPECTED_DIGESTS,
)


def both(run, monkeypatch):
    """``run()`` with bookings, then down the parent's event path."""
    booked = run()
    with monkeypatch.context() as patch:
        event_path(patch)
        events = run()
    return booked, events


@pytest.mark.parametrize("preset", ["existing_epc", "dpcm", "skycore", "neutrino"])
def test_fig07_rows_are_equal(preset, monkeypatch):
    config = getattr(ControlPlaneConfig, preset)()
    booked, events = both(
        lambda: run_pct_point(config, 100e3, RunSpec(**_FIG07_SPEC)), monkeypatch
    )
    assert booked.count > 0
    assert dataclasses.asdict(booked) == dataclasses.asdict(events)


def test_fig10_row_is_equal(monkeypatch):
    booked, events = both(
        lambda: run_pct_point(
            ControlPlaneConfig.neutrino(), 60e3, RunSpec(**_FIG10_SPEC)
        ),
        monkeypatch,
    )
    assert booked.recovered > 0, "the CPF kill interrupted nothing"
    assert dataclasses.asdict(booked) == dataclasses.asdict(events)


@pytest.mark.parametrize("stem", sorted(EXPECTED_DIGESTS), ids=str)
def test_corpus_digests_are_equal(stem, monkeypatch):
    plan = FaultPlan.load(str(CORPUS_DIR / ("%s.json" % stem)))
    booked, events = both(
        lambda: run_plan(plan, verbose_trace=True), monkeypatch
    )
    assert booked.digest == events.digest == EXPECTED_DIGESTS[stem]
    assert booked.dep.sim.now == events.dep.sim.now


def test_storm_cohort_is_equal(monkeypatch):
    booked, events = both(
        lambda: run_scenario(
            "iot-reattach-storm", n_ue=400, duration_s=1.0, seed=11, mode="cohort"
        ),
        monkeypatch,
    )
    assert booked.recovered > 0 or booked.reattached > 0, "no blackout hit"
    for field in ("completed", "aborted", "recovered", "reattached", "region_pct_ms"):
        assert getattr(booked, field) == getattr(events, field), field
