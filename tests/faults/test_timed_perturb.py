"""The timed ``perturb`` op: a link's fault profile switched on mid-run.

A plan may install a :class:`~repro.faults.LinkPerturbation` at an
absolute instant instead of from the start.  Drops on that hop must
begin at that instant and not before, and the plan must replay bit for
bit, from the object and from its JSON.
"""

from repro.faults import FaultPlan, LinkPerturbation, run_plan

HOP = "cta_cpf"
#: between the third and the fourth service request below
AT = 0.0075


def timed_perturb_plan(seed=23):
    plan = FaultPlan(seed=seed, note="cta_cpf turns lossy mid-run")
    plan.workload = {"ues": [{"id": "ue-tp", "bs": "bs-20-0"}]}
    for _ in range(6):
        plan.step("proc", proc="service_request")
        plan.step("wait", dt=0.002)
    plan.at(AT, "perturb", perturbation=LinkPerturbation(HOP, drop_p=0.5))
    return plan


def _faulted(record):
    """A message on HOP that needed a retransmission or was lost."""
    detail = dict(record.detail)
    if detail.get("hop") != HOP:
        return False
    if record.kind == "msg_lost":
        return True
    return record.kind == "msg_perturbed" and detail["retransmits"] > 0


def test_drops_start_at_the_perturb_instant_and_not_before():
    run = run_plan(timed_perturb_plan(), verbose_trace=True)
    records = run.trace.records
    (fired,) = [r for r in records if r.kind == "op"]
    assert dict(fired.detail)["op"] == "perturb" and fired.time == AT
    on_hop = [r for r in records if dict(r.detail).get("hop") == HOP]
    before = [r for r in on_hop if r.time < AT]
    after = [r for r in on_hop if r.time >= AT]
    assert before and all(r.kind == "msg" for r in before)  # clean until AT
    faulted = [r for r in after if _faulted(r)]
    assert faulted, "the perturbation never dropped a message"
    assert min(r.time for r in faulted) >= AT
    assert run.fault_counters["ops_applied"] == 1
    assert run.dep.links[HOP].retransmits > 0


def test_timed_perturb_plan_replays_bit_for_bit():
    plan = timed_perturb_plan()
    a = run_plan(plan, verbose_trace=True)
    b = run_plan(plan, verbose_trace=True)
    reloaded = run_plan(FaultPlan.from_json(plan.to_json()), verbose_trace=True)
    assert a.trace.lines() == b.trace.lines() == reloaded.trace.lines()
    assert a.digest == b.digest == reloaded.digest
    assert a.fault_counters == b.fault_counters == reloaded.fault_counters
