"""A procedure given a target BS ends on it; one that changes CPF needs one.

The intra-region path switch (LTE X2 handover): the target eNB sends the
Path Switch Request, the bearer is moved to it, and the UE is served
there afterwards — under ``UE.execute`` and under both scale drivers
(the cohort's discrete path and the batched lane).  A CPF-changing
procedure without a target is refused before any step runs: nothing is
logged at a CTA and nothing is served.
"""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.scale.engine import _Engine
from repro.scale.scenarios import get_scenario
from repro.sim import Simulator


def build():
    sim = Simulator()
    return sim, Deployment.build_grid(sim, ControlPlaneConfig.neutrino())


def test_intra_handover_moves_the_ue_and_its_bearer():
    sim, dep = build()
    ue = dep.bootstrap_ue("ue-1", "bs-20-0")
    primary = dep.primary_of("ue-1")
    outcome = sim.run_process(ue.execute("intra_handover", target_bs="bs-20-1"))
    assert outcome.completed
    assert ue.bs_name == "bs-20-1"
    assert dep.upf_for_region("20").sessions["ue-1"].bs_id == "bs-20-1"
    # the path switch went up and its ack came down through the target
    target, source = dep.bss["bs-20-1"], dep.bss["bs-20-0"]
    assert (target.uplink_messages, target.downlink_messages) == (1, 1)
    assert (source.uplink_messages, source.downlink_messages) == (0, 0)
    # same region, same CPF: only the BS changed
    assert dep.placement_of("ue-1").region == "20"
    assert dep.primary_of("ue-1") == primary


@pytest.mark.parametrize("mode", ["cohort", "batched"])
def test_scale_drivers_move_the_ue_to_the_target(mode):
    spec = get_scenario("steady-city").with_overrides(n_ue=8, seed=1)
    engine = _Engine(spec, mode=mode)
    engine._bootstrap_population()
    driver = engine.driver
    _, region, k = driver.bs_of(0).split("-")
    assert spec.bss_per_region == 2
    target = "bs-%s-%d" % (region, 1 - int(k))
    driver.start_procedure(0, "intra_handover", target)
    engine.sim.run()
    if mode == "batched":
        assert driver.stats["admitted"] == 1
    assert driver.completed == 1
    assert driver.bs_of(0) == target
    session = engine.dep.upf_for_region(region).sessions[driver.ue_id(0)]
    assert session.bs_id == target


@pytest.mark.parametrize("proc", ["handover", "fast_handover"])
def test_cpf_change_without_target_runs_nothing(proc):
    sim, dep = build()
    ue = dep.bootstrap_ue("ue-1", "bs-20-0")
    appended = sum(cta.log.appended for cta in dep.ctas.values())
    serves = dep.auditor.serves
    run = sim.process(ue.execute(proc))
    sim.run()
    assert run.fired and not run.ok
    with pytest.raises(ValueError, match="target_bs"):
        run.value
    assert sum(cta.log.appended for cta in dep.ctas.values()) == appended
    assert dep.auditor.serves == serves
    assert proc not in dep.pct
    assert (ue.bs_name, ue.busy) == ("bs-20-0", False)
