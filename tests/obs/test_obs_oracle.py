"""Differential oracles for the span emitters (house style: PR 13/21/22).

(a) **Reference vs change, discrete path.**  The parent commit's tracer,
    ``on_hop`` and ``Deployment.hop`` obs branch live verbatim in
    ``tests/obs/reference_obs.py``.  The six regression-schedule fault
    plans and the Fig. 7 / Fig. 10 witness slices run under both and
    must produce the same canonical span forest and the same metrics
    snapshot.  This is what shows that recording a hop *closed at the
    send instant* changed nothing a reader of the trace can see — in
    particular the fold rule: a span counts toward its root's phase
    decomposition iff it ends no later than the root closes, so a hop
    still in flight when its root closes (a DPCM parallel leg, a
    checkpoint ship) must stay off-path exactly as before.

(b) **Discrete vs lane emitter.**  The same scenario under
    ``mode="cohort"`` (every procedure through ``UE.execute``) and
    ``mode="batched"`` (steady-state procedures walked analytically by
    ``scale/lane.py``), both traced with every span kept: same forest,
    same snapshot.  Span ids may differ between the emitters; nothing
    else may.

No fold sum needed a tolerance: every cell below compares with ``==``.
"""

import pytest

from repro.core import ControlPlaneConfig
from repro.core.deployment import Deployment
from repro.experiments.harness import RunSpec, run_pct_point
from repro.faults import FaultPlan, run_plan
from repro.obs import Observability
from repro.scale.lane import LaneRuntime

from tests.core.test_kernel_witnesses import (
    _FIG07_SPEC,
    _FIG10_SPEC,
    CORPUS_DIR,
    EXPECTED_DIGESTS,
)

from .conftest import LANE_CASES, run_traced
from .reference_obs import ReferenceObservability, reference_hop


def canonical_forest(tracer):
    """Span ids erased: ``{(root key, path of names): sorted span rows}``.

    A root is keyed by ``(ue, proc, start)`` — a UE runs one procedure
    at a time — and a span by the names on its path from the root.
    Rows are ``(name, phase, start, end, status, attrs)``.
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    forest = {}
    for s in spans:
        path, cur = [], s
        while cur is not None:
            path.append(cur.name)
            cur = by_id.get(cur.parent_id)
        root = by_id[s.root_id]
        key = (
            root.attrs.get("ue"), root.attrs.get("proc"), root.start,
            tuple(reversed(path)),
        )
        forest.setdefault(key, []).append(
            (s.name, s.phase, s.start, s.end, s.status,
             tuple(sorted(s.attrs.items())))
        )
    for rows in forest.values():
        rows.sort(key=repr)
    return forest


def canonical_metrics(obs):
    """Counters and gauges as they are; histogram cells as their bins.

    Bins, count, min and max are order-free functions of the samples, so
    they compare exactly across executors; the running sum does not.
    """
    snap = obs.snapshot()
    metrics = snap["metrics"]
    return {
        "spans": (snap["spans_started"], snap["spans_finished"]),
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": [
            (h["name"], h["labels"], h["count"], h["min"], h["max"], h["bins"])
            for h in metrics["histograms"]
        ],
    }


def assert_same_observation(got, want, label):
    got_forest, want_forest = canonical_forest(got.tracer), canonical_forest(want.tracer)
    assert sorted(got_forest, key=repr) == sorted(want_forest, key=repr), label
    for key, rows in want_forest.items():
        assert got_forest[key] == rows, (label, key)
    got_metrics, want_metrics = canonical_metrics(got), canonical_metrics(want)
    for section, rows in want_metrics.items():
        assert got_metrics[section] == rows, (label, section)


# ---------------------------------------------------- (a) reference vs change


def _both(run, monkeypatch):
    """``run(obs)`` under the live emitters, then under the parent's."""
    live = Observability("trace")
    live_result = run(live)
    reference = ReferenceObservability("trace")
    with monkeypatch.context() as patch:
        patch.setattr(Deployment, "hop", reference_hop)
        reference_result = run(reference)
    return live, live_result, reference, reference_result


@pytest.mark.parametrize("stem", sorted(EXPECTED_DIGESTS), ids=str)
def test_fault_plan_traces_match_the_parent_emitters(stem, monkeypatch):
    plan = FaultPlan.load(str(CORPUS_DIR / ("%s.json" % stem)))
    live, a, reference, b = _both(
        lambda obs: run_plan(plan, verbose_trace=True, obs=obs), monkeypatch
    )
    assert a.digest == b.digest == EXPECTED_DIGESTS[stem]
    assert live.tracer.started > 0
    assert_same_observation(live, reference, stem)


@pytest.mark.parametrize("preset", ["existing_epc", "dpcm", "skycore", "neutrino"])
def test_fig07_slice_traces_match_the_parent_emitters(preset, monkeypatch):
    """``dpcm`` is the fold-rule case: its user-plane leg runs beside the
    procedure and its hops can still be in flight when the root closes."""
    config = getattr(ControlPlaneConfig, preset)()
    live, a, reference, b = _both(
        lambda obs: run_pct_point(config, 100e3, RunSpec(**_FIG07_SPEC), obs=obs),
        monkeypatch,
    )
    assert (a.p50_ms, a.count) == (b.p50_ms, b.count)
    assert_same_observation(live, reference, "fig07/" + preset)


def test_fig10_slice_traces_match_the_parent_emitters(monkeypatch):
    live, _, reference, _ = _both(
        lambda obs: run_pct_point(
            ControlPlaneConfig.neutrino(), 60e3, RunSpec(**_FIG10_SPEC), obs=obs
        ),
        monkeypatch,
    )
    assert "recovery.failover" in {s.name for s in live.tracer.spans}
    assert_same_observation(live, reference, "fig10/neutrino")


# ----------------------------------------------------- (b) discrete vs lane


@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_lane_emits_the_tree_the_discrete_path_does(case, lane_runs):
    (cohort_obs, cohort), (batched_obs, batched) = (
        lane_runs[case]["cohort"], lane_runs[case]["batched"]
    )
    assert batched.digest == cohort.digest
    assert batched.lane["admitted"] > 0, "nothing exercised the lane"
    assert batched.lane["gate_misses"] == 0
    assert batched.lane["walk_aborts"] == 0
    if case == "contended":
        assert batched.lane["spills"] > 0, "no lane walk met a queued server"
    assert_same_observation(batched_obs, cohort_obs, case)


def test_commute_wave_walks_the_fetch_leg_on_the_lane(monkeypatch):
    fetched = []
    inner = LaneRuntime._fetch_state

    def counted(self, w, *args):
        fetched.append(w.ue_id)
        return inner(self, w, *args)

    monkeypatch.setattr(LaneRuntime, "_fetch_state", counted)
    obs, _ = run_traced("commute-wave", "batched")
    assert fetched
    fetch_spans = [s for s in obs.tracer.spans if s.name == "cpf.fetch"]
    assert len(fetch_spans) >= len(fetched)
