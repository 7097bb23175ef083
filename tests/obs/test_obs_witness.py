"""Schedule-transparency witnesses: obs on == obs off, bit for bit.

The tracer's determinism contract (no RNG draws, no clock advances, no
scheduled work — ``repro.obs.tracer`` docstring) is only worth anything
if it is *pinned*.  These tests re-run the kernel-witness workloads
with observability installed and require the exact pre-obs results:

* every regression-schedule EventTrace digest unchanged;
* the Fig. 7 / Fig. 10 PCT witness rows identical float-for-float in
  every field except ``obs`` itself;
* ``Simulator._seq`` at the end of a run equal with and without
  tracing: obs allocates no scheduler entry at all.
"""

import dataclasses
import math

import pytest

from repro.core import ControlPlaneConfig
from repro.experiments.harness import RunSpec, run_pct_point
from repro.faults import FaultPlan, run_plan
from repro.obs import Observability

from tests.core.test_kernel_witnesses import (
    _FIG07_SPEC,
    _FIG10_SPEC,
    CORPUS_DIR,
    EXPECTED_DIGESTS,
    _witnesses,
)


@pytest.mark.parametrize("stem", sorted(EXPECTED_DIGESTS), ids=str)
def test_tracing_leaves_corpus_digests_unchanged(stem):
    plan = FaultPlan.load(str(CORPUS_DIR / ("%s.json" % stem)))
    obs = Observability("trace")
    result = run_plan(plan, verbose_trace=True, obs=obs)
    assert result.digest == EXPECTED_DIGESTS[stem], (
        "enabling tracing perturbed the schedule for %s: the tracer broke "
        "its determinism contract" % stem
    )
    assert obs.tracer.started > 0  # the run really was traced


def _assert_identical_except_obs(point, expected, label):
    got = dataclasses.asdict(point)
    assert sorted(got) == sorted(expected), label
    for field, want in expected.items():
        have = got[field]
        if field == "obs":
            assert have is not None, (label, "obs snapshot missing")
            continue
        if isinstance(want, float) and math.isnan(want):
            assert isinstance(have, float) and math.isnan(have), (label, field)
            continue
        assert have == want, (
            "%s: field %r moved from %r to %r with obs enabled"
            % (label, field, want, have)
        )


@pytest.mark.parametrize("mode", ["metrics", "trace"])
def test_fig07_slice_row_identical_with_obs_enabled(mode):
    expected = _witnesses()["fig07"]["neutrino"]
    point = run_pct_point(
        ControlPlaneConfig.neutrino(),
        100e3,
        RunSpec(obs_mode=mode, **_FIG07_SPEC),
    )
    _assert_identical_except_obs(point, expected, "fig07/neutrino/" + mode)
    assert point.obs["mode"] == mode
    assert point.obs["spans_started"] == point.obs["spans_finished"] > 0


def test_fig10_slice_row_identical_with_obs_enabled():
    """Failure + recovery path (failover, replay, re-parenting) traced."""
    expected = _witnesses()["fig10"]["neutrino"]
    obs = Observability("trace")
    point = run_pct_point(
        ControlPlaneConfig.neutrino(), 60e3, RunSpec(**_FIG10_SPEC), obs=obs
    )
    _assert_identical_except_obs(point, expected, "fig10/neutrino")
    names = {s.name for s in obs.tracer.spans}
    assert "recovery.failover" in names  # the kill really was traced


# -- obs schedules nothing ---------------------------------------------------
#
# Digest equality says the *protocol's* callbacks kept their order; the
# stronger, structural property is that tracing allocates no scheduler
# entry at all — every span is either closed by the code that was
# waiting or recorded closed — so the kernel's seq counter ends equal.


@pytest.mark.parametrize("stem", sorted(EXPECTED_DIGESTS), ids=str)
def test_tracing_allocates_no_scheduler_entry_on_the_corpus(stem):
    plan = FaultPlan.load(str(CORPUS_DIR / ("%s.json" % stem)))
    plain = run_plan(plan, verbose_trace=True)
    traced = run_plan(plan, verbose_trace=True, obs=Observability("trace"))
    assert traced.dep.obs.tracer.started > 0
    assert traced.dep.sim._seq == plain.dep.sim._seq


def test_tracing_allocates_no_scheduler_entry_on_a_batched_city():
    from repro.scale.engine import _Engine
    from repro.scale.scenarios import get_scenario

    spec = get_scenario("steady-city").with_overrides(
        n_ue=20_000, duration_s=0.5, seed=3
    )
    seqs = {}
    for label, obs in (("plain", None), ("traced", Observability("trace"))):
        engine = _Engine(spec, mode="batched", obs=obs)
        result = engine.run()
        assert result.lane["admitted"] > 0
        seqs[label] = (engine.sim._seq, result.lane["admitted"])
    assert obs.tracer.started == obs.tracer.finished > 0
    assert seqs["traced"] == seqs["plain"]
