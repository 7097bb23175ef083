"""Property-based consistency tests (the paper's core guarantee).

Under *any* schedule of CPF/CTA failures and recoveries — and any
seeded message-level faults (drop/duplicate/reorder/extra delay) —
interleaved with any sequence of control procedures, Neutrino must
preserve Read-your-Writes: no UE request is ever served against state
older than the UE's own last completed write (§4.2.1).  Scenarios 1/2
additionally mask the failure; scenario 3 degrades to Re-Attach and
scenario 4 (CTA failure) forces a Re-Attach, but neither ever serves
stale state.

Schedules are generated directly as :class:`repro.faults.FaultPlan`
objects, so any failing example serializes to JSON
(``plan.to_json()``) and replays bit-for-bit with
``python -m repro chaos replay``.  The ``regression_schedules/``
corpus pins previously interesting schedules as permanent cases.
"""

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import FaultPlan, replay, run_plan

PROCS = ("service_request", "tau", "intra_handover", "handover", "fast_handover")
HOPS = ("ue_bs", "bs_cta", "cta_cpf", "cpf_cpf_intra", "cpf_cpf_inter")
CPFS = ("cpf-20-0", "cpf-20-1", "cpf-21-0", "cpf-21-1")
CTAS = ("cta-20", "cta-21")

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def base_plan(seed, config="neutrino"):
    plan = FaultPlan(seed=seed, config=config)
    plan.workload = {"ues": [{"id": "ue-prop", "bs": "bs-20-0"}]}
    return plan


@st.composite
def fault_plans(draw, config="neutrino", cta_faults=False, message_faults=False):
    """A random, serializable interleaving of procedures and faults.

    ``cta_faults`` adds scenario-4 CTA crash/recover steps;
    ``message_faults`` overlays seeded per-hop drop/dup/reorder/delay
    profiles.  The plan's last-alive guard keeps generated schedules
    from trivially wedging the deployment (never kills the last CPF or
    CTA), matching the guard the hand-rolled version of this test used.
    """
    plan = base_plan(draw(st.integers(0, 2**16)), config=config)
    if message_faults:
        hops = draw(st.lists(st.sampled_from(HOPS), min_size=1, max_size=3, unique=True))
        for hop in hops:
            plan.perturb(
                hop,
                drop_p=draw(st.floats(0, 0.35)),
                dup_p=draw(st.floats(0, 0.25)),
                reorder_p=draw(st.floats(0, 0.25)),
                extra_delay_s=draw(st.floats(0, 5e-4)),
            )
    kinds = ["proc", "proc", "proc", "fail_cpf", "recover_cpf", "wait"]
    if cta_faults:
        kinds += ["fail_cta", "recover_cta"]
    for _ in range(draw(st.integers(3, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "proc":
            plan.step("proc", proc=draw(st.sampled_from(PROCS)))
        elif kind == "wait":
            plan.step("wait", dt=draw(st.integers(1, 80)) / 1000.0)
        elif kind in ("fail_cpf", "recover_cpf"):
            plan.step(kind, draw(st.sampled_from(CPFS)))
        else:
            plan.step(kind, draw(st.sampled_from(CTAS)))
    return plan


@given(plan=fault_plans())
@settings(max_examples=50, **_SETTINGS)
def test_neutrino_read_your_writes_under_any_failure_schedule(plan):
    result = run_plan(plan)
    assert result.ok, (result.violations, plan.to_json())


@given(plan=fault_plans(cta_faults=True))
@settings(max_examples=40, **_SETTINGS)
def test_neutrino_read_your_writes_under_cta_failure(plan):
    """Scenario 4: the CTA's log and mapping are volatile; crashing it
    mid-schedule must still never serve stale state."""
    result = run_plan(plan)
    assert result.ok, (result.violations, plan.to_json())


@given(plan=fault_plans(cta_faults=True, message_faults=True))
@settings(max_examples=80, **_SETTINGS)
def test_neutrino_read_your_writes_under_message_level_faults(plan):
    """Lost checkpoints, lost ACKs, duplicated replays, delayed repair
    fetches — none of it may surface pre-write state to the UE."""
    result = run_plan(plan)
    assert result.ok, (result.violations, plan.to_json())


@given(plan=fault_plans(config="existing_epc"))
@settings(max_examples=35, **_SETTINGS)
def test_epc_read_your_writes_via_reattach(plan):
    # The EPC keeps RYW trivially: no replicas, failures force Re-Attach.
    result = run_plan(plan)
    assert result.ok, (result.violations, plan.to_json())


@given(plan=fault_plans())
@settings(max_examples=25, **_SETTINGS)
def test_primary_version_never_behind_reader(plan):
    """Stronger invariant: after the run, the serving CPF's committed
    version is at least the UE's completed-write count."""
    result = run_plan(plan)
    dep = result.dep
    ue = dep.ue("ue-prop")
    primary = dep.primary_of("ue-prop")
    if primary is None or not dep.cpfs[primary].up:
        return
    entry = dep.cpfs[primary].store.get("ue-prop")
    if entry is not None and ue.attached:
        assert entry.version >= ue.completed_version


@given(plan=fault_plans())
@settings(max_examples=15, **_SETTINGS)
def test_log_eventually_bounded(plan):
    """The CTA log never retains fully-ACKed procedures at quiescence."""
    result = run_plan(plan)
    for cta in result.dep.ctas.values():
        for record in cta.log.pending_records():
            assert not record.fully_acked


# ---------------------------------------------------------------------------
# Regression corpus: pinned schedules replayed on every test run.
# ---------------------------------------------------------------------------

CORPUS_DIR = pathlib.Path(__file__).parent / "regression_schedules"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def test_regression_corpus_present():
    assert len(CORPUS) >= 5, "regression_schedules corpus went missing"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_regression_schedule_replays_clean_and_deterministic(path):
    plan = FaultPlan.load(str(path))
    report = replay(plan, runs=2)
    assert report.deterministic, report.digests
    for result in report.results:
        assert result.ok, (result.violations, path.name)
