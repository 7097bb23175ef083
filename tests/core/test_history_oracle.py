"""Ring history vs per-UE deques: the same causal traces, in bounded memory.

``RYWAuditor`` keeps every UE's causal history as rows of one columnar
ring of ``HISTORY_EVENTS`` rows; ``tests/core/reference_auditor.py``
keeps the per-UE-deque auditor it replaced.  :class:`TeeAuditor` is the
ring auditor with every ``record_*`` call also sent to a reference, so
one run drives both.  While at most ``HISTORY_EVENTS`` events have been
noted, every UE's ``history()`` and every ``Violation.trace`` must equal
the reference's; past that, the ring keeps a suffix of it.  Driven by:

* the six regression-schedule plans;
* the Fig. 7 rows of the four presets and the Fig. 10 row;
* a cohort ``iot-reattach-storm`` (history on at n = 400);
* random call sequences with forced stale serves, against a small ring
  and against an exact model of what it must keep.

The memory guard pins what the ring is for: a Neutrino attach point
must cost at most 64 traced bytes per noted event.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ControlPlaneConfig, consistency, deployment
from repro.core.consistency import _HISTORY_LIMIT, RYWAuditor
from repro.experiments.harness import RunSpec, run_pct_point
from repro.faults import FaultPlan, run_plan
from repro.scale.engine import run_scenario

from .reference_auditor import RYWAuditor as ReferenceAuditor
from .test_kernel_witnesses import (
    _FIG07_SPEC,
    _FIG10_SPEC,
    CORPUS_DIR,
    EXPECTED_DIGESTS,
)


def same_or_suffix(ring, reference, noted):
    """The ring's history against the reference's after ``noted`` events."""
    if noted <= consistency.HISTORY_EVENTS:
        return ring == reference
    return ring == reference[len(reference) - len(ring):]


class TeeAuditor(RYWAuditor):
    """The ring auditor; every call is also sent to a reference auditor.

    The reference stamps ``sim_now()`` where the ring stamps the
    instant its caller passes, so the tee also checks that the discrete
    path passes the simulator's clock.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reference = ReferenceAuditor(sim_now=self.sim_now)
        self.noted = 0
        self.ues = set()

    def _tee(self, ue_id):
        self.reference.keep_history = self.keep_history
        if self.keep_history:
            self.noted += 1
            self.ues.add(ue_id)

    def record_write_completion(self, ue_id, version):
        self._tee(ue_id)
        super().record_write_completion(ue_id, version)
        self.reference.record_write_completion(ue_id, version)

    def record_serve(
        self, ue_id, reader_version, served_version, cpf_name, span=None, now=None
    ):
        self._tee(ue_id)
        seen = len(self.violations)
        super().record_serve(
            ue_id, reader_version, served_version, cpf_name, span, now
        )
        self.reference.record_serve(
            ue_id, reader_version, served_version, cpf_name, span
        )
        assert self.violations == self.reference.violations
        if len(self.violations) > seen:
            mine = self.violations[-1]
            theirs = self.reference.violations[-1]
            assert (mine.trace_id, mine.span_id) == (theirs.trace_id, theirs.span_id)
            assert same_or_suffix(mine.trace, theirs.trace, self.noted)

    def record_reattach_forced(self, ue_id, cpf_name, now=None):
        self._tee(ue_id)
        super().record_reattach_forced(ue_id, cpf_name, now)
        self.reference.record_reattach_forced(ue_id, cpf_name)

    def record_failover_masked(self, ue_id, replayed):
        self._tee(ue_id)
        super().record_failover_masked(ue_id, replayed)
        self.reference.record_failover_masked(ue_id, replayed)

    def check(self):
        """Every UE's history and every counter against the reference."""
        ref = self.reference
        for ue_id in self.ues:
            assert same_or_suffix(
                self.history(ue_id), ref.history(ue_id), self.noted
            ), ue_id
        for name in ("serves", "writes", "reattaches_forced",
                     "failovers_masked", "messages_replayed"):
            assert getattr(self, name) == getattr(ref, name), name


@pytest.fixture
def tees(monkeypatch):
    """Every deployment built in the test gets a :class:`TeeAuditor`."""
    made = []

    def tee(**kwargs):
        made.append(TeeAuditor(**kwargs))
        return made[-1]

    monkeypatch.setattr(deployment, "RYWAuditor", tee)
    return made


def check_all(tees):
    assert tees, "no deployment was built"
    for tee in tees:
        tee.check()
    assert sum(tee.noted for tee in tees) > 0


@pytest.mark.parametrize("stem", sorted(EXPECTED_DIGESTS), ids=str)
def test_corpus_histories_are_equal(stem, tees):
    plan = FaultPlan.load(str(CORPUS_DIR / ("%s.json" % stem)))
    assert run_plan(plan, verbose_trace=True).digest == EXPECTED_DIGESTS[stem]
    check_all(tees)


@pytest.mark.parametrize("preset", ["existing_epc", "dpcm", "skycore", "neutrino"])
def test_fig07_histories_are_equal(preset, tees):
    config = getattr(ControlPlaneConfig, preset)()
    assert run_pct_point(config, 100e3, RunSpec(**_FIG07_SPEC)).count > 0
    check_all(tees)


def test_fig10_histories_are_equal(tees):
    point = run_pct_point(
        ControlPlaneConfig.neutrino(), 60e3, RunSpec(**_FIG10_SPEC)
    )
    assert point.recovered > 0, "the CPF kill interrupted nothing"
    check_all(tees)
    assert any(tee.failovers_masked or tee.reattaches_forced for tee in tees)


def test_storm_cohort_histories_are_equal(tees):
    res = run_scenario(
        "iot-reattach-storm", n_ue=400, duration_s=1.0, seed=11, mode="cohort"
    )
    assert res.recovered > 0 or res.reattached > 0, "no blackout hit"
    (tee,) = tees
    assert tee.keep_history
    check_all(tees)


# -- random call sequences ---------------------------------------------------

_UES = ("ue-0", "ue-1", "ue-2", "ue-3")

_calls = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(_UES), st.integers(0, 50)),
        # served below the reader version half the time: a forced stale serve
        st.tuples(
            st.just("serve"), st.sampled_from(_UES), st.integers(0, 50),
            st.integers(-3, 3), st.booleans(),
        ),
        st.tuples(
            st.just("reattach"), st.sampled_from(_UES),
            st.sampled_from(("cpf-a", "cpf-b")), st.booleans(),
        ),
        st.tuples(st.just("failover"), st.sampled_from(_UES), st.integers(0, 9)),
        st.tuples(st.just("history"), st.booleans()),
    ),
    max_size=300,
)


@given(calls=_calls, ring=st.sampled_from([1, 5, 40, 100, 65_536]))
@settings(max_examples=150, deadline=None)
def test_random_sequences_match_reference_and_model(calls, ring):
    """The ring against the reference and an exact model of a ring.

    The model is the list of every noted ``(ue, event)``; a UE's history
    is its last ``_HISTORY_LIMIT`` events among the last ``ring`` rows.
    ``now`` is passed or left to ``sim_now`` at random.
    """
    clock = [0.0]
    with mock.patch.object(consistency, "HISTORY_EVENTS", ring):
        tee = TeeAuditor(sim_now=lambda: clock[0])
        log = []

        def model(ue_id):
            rows = [e for u, e in log[-ring:] if u == ue_id]
            return tuple(rows[-_HISTORY_LIMIT:])

        for call in calls:
            clock[0] += 0.001
            kind, ue_id = call[0], call[1]
            if kind == "history":
                tee.keep_history = call[1]
                continue
            seen = len(tee.violations)
            if kind == "write":
                tee.record_write_completion(ue_id, call[2])
            elif kind == "serve":
                now = clock[0] if call[4] else None
                tee.record_serve(ue_id, call[2], call[2] + call[3], "cpf-a", now=now)
            elif kind == "reattach":
                now = clock[0] if call[3] else None
                tee.record_reattach_forced(ue_id, call[2], now)
            else:
                tee.record_failover_masked(ue_id, call[2])
            if tee.keep_history:
                log.append((ue_id, tee.reference.history(ue_id)[-1]))
            if len(tee.violations) > seen:
                assert tee.violations[-1].trace == model(ue_id)
        tee.check()
        for ue_id in _UES:
            assert tee.history(ue_id) == model(ue_id)


def test_caller_instant_is_stamped():
    """A serve is stamped with the instant its caller passes, not sim_now."""
    auditor = RYWAuditor(sim_now=lambda: 9.0)
    auditor.record_serve("ue-1", 4, 3, "c", now=1.5)
    auditor.record_reattach_forced("ue-1", "c", 2.5)
    auditor.record_write_completion("ue-1", 5)
    assert auditor.violations[0].time == 1.5
    assert [e.time for e in auditor.history("ue-1")] == [1.5, 2.5, 9.0]
    assert [e.kind for e in auditor.history("ue-1")] == [
        "serve", "reattach_forced", "write",
    ]


# -- memory guard ------------------------------------------------------------

def test_history_costs_at_most_64_bytes_per_noted_event(monkeypatch):
    """A Neutrino attach point at 100K: bytes traced to consistency.py,
    live at the end of the run, per event the auditor noted (the
    per-UE-deque history cost ~437)."""
    auditors = []
    real = deployment.RYWAuditor

    def keep(**kwargs):
        auditors.append(real(**kwargs))
        return auditors[-1]

    monkeypatch.setattr(deployment, "RYWAuditor", keep)
    gc.collect()
    tracemalloc.start()
    try:
        run_pct_point(
            ControlPlaneConfig.neutrino(), 100e3,
            RunSpec(procedure="attach", procedures_target=1200),
        )
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    (auditor,) = auditors
    assert auditor.keep_history
    noted = (
        auditor.writes + auditor.serves
        + auditor.reattaches_forced + auditor.failovers_masked
    )
    assert noted > 10_000
    traced = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, consistency.__file__)]
        ).statistics("filename")
    )
    assert traced / noted <= 64, "%.0f B per noted event" % (traced / noted)
