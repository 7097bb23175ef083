"""Pricing oracle: the compiled step program vs the formulas it replaced.

House style of ``tests/sim/test_server_oracle.py``: the parent's code is
kept verbatim in ``reference_pricing.py`` and every field must be
``==`` — floats bit-equal, not approximately — for every named config
and every procedure, DPCM overrides and the ``per_message`` lock term
included.
"""

import pytest

from repro.baselines.policies import DPCM_PROCEDURES, baseline_configs
from repro.codec.costs import DEFAULT_COSTS
from repro.core import ControlPlaneConfig, Deployment
from repro.core.program import (
    PricedStep,
    compile_procedure,
    procedure_spec,
    replay_time,
    snapshot_encode_time,
)
from repro.experiments.harness import estimate_procedure_cpu
from repro.messages.procedures import PROCEDURES
from repro.messages.registry import CATALOG
from repro.sim import Simulator

from . import reference_pricing as ref


def _configs():
    configs = dict(baseline_configs())
    configs["neutrino_per_message"] = ControlPlaneConfig.neutrino(
        name="neutrino_per_message", sync_mode="per_message"
    )
    configs["neutrino_on_idle"] = ControlPlaneConfig.neutrino(
        name="neutrino_on_idle", sync_mode="on_idle"
    )
    configs["neutrino_no_log"] = ControlPlaneConfig.neutrino(
        name="neutrino_no_log", message_logging=False, recovery="reattach"
    )
    for codec in sorted(set(DEFAULT_COSTS) - {"lcm"}):  # LCM cannot express S1AP
        configs["neutrino_" + codec] = ControlPlaneConfig.neutrino(
            name="neutrino_" + codec, codec=codec
        )
    return configs


CONFIGS = _configs()
CASES = [(c, p) for c in sorted(CONFIGS) for p in sorted(PROCEDURES)]


@pytest.mark.parametrize("config_name,proc", CASES)
def test_every_field_equals_the_reference(config_name, proc):
    config = CONFIGS[config_name]
    spec = procedure_spec(config, proc)
    program = compile_procedure(config, spec)
    assert (program.name, program.changes_cpf) == (spec.name, spec.changes_cpf)
    assert len(program.steps) == len(spec.steps)
    for priced, step in zip(program.steps, spec.steps):
        expected = ref.ue_step(config, step)
        assert set(expected) == set(PricedStep._fields)
        assert priced._asdict() == expected


def test_dpcm_overrides_are_what_gets_priced():
    dpcm = CONFIGS["dpcm"]
    for proc, override in DPCM_PROCEDURES.items():
        assert procedure_spec(dpcm, proc) is override
        assert procedure_spec(CONFIGS["existing_epc"], proc) is PROCEDURES[proc]
        assert len(compile_procedure(dpcm, override).steps) == len(override.steps)


def test_per_message_lock_is_in_every_serve_charge():
    locked = CONFIGS["neutrino_per_message"]
    plain = CONFIGS["neutrino"]
    for proc in sorted(PROCEDURES):
        pairs = zip(
            compile_procedure(locked, PROCEDURES[proc]).steps,
            compile_procedure(plain, PROCEDURES[proc]).steps,
        )
        for a, b in pairs:
            for field in ("cpf_serve", "tgt_serve"):
                if getattr(b, field) is not None:
                    assert getattr(a, field) == pytest.approx(
                        getattr(b, field) + locked.per_message_lock_s, rel=1e-12
                    )
            assert (a.cpf_encode, a.cpf_decode) == (b.cpf_encode, b.cpf_decode)


@pytest.mark.parametrize("config_name", ["neutrino", "neutrino_flatbuffers"])
def test_lane_tables_equal_the_program(config_name):
    """What ``LaneRuntime._compile`` tabulated, and for which procedures."""
    config = CONFIGS[config_name]
    for proc in sorted(PROCEDURES):
        spec = PROCEDURES[proc]
        program = compile_procedure(config, spec)
        compiled = ref.lane_compile(config, spec) if proc in ref.LANE_PROCS else None
        assert program.steady_state == (compiled is not None), proc
        if compiled is None:
            continue
        steps, changes_cpf = compiled
        assert changes_cpf == program.changes_cpf
        for c, p in zip(steps, program.steps):
            assert (c.at_target, c.ends_pct, c.req, c.resp) == (
                p.at_target, p.ends_pct, p.request, p.response
            )
            assert c.req_size == p.req_size
            if c.resp is not None:
                assert c.resp_size == p.resp_size
            if c.kind == 0:
                assert p.kind == "uplink"
                assert (c.up_req, c.svc_cpf, c.dn_resp) == (
                    p.bs_encode, p.cpf_serve, p.bs_decode
                )
            elif c.kind == 1:
                assert p.kind == "cpf_bs"
                assert (c.svc_encode, c.dn_req, c.up_resp, c.svc_cpf_resp) == (
                    p.cpf_encode, p.bs_decode, p.bs_encode, p.cpf_serve
                )
            else:
                assert p.kind == "cpf_upf"
                assert (c.svc_encode, c.svc_decode) == (p.cpf_encode, p.cpf_decode)
            if p.cta_ingest is not None:
                assert p.cta_ingest == ref.lane_svc_ingest(config)
            if p.cta_respond is not None:
                assert p.cta_respond == config.cta_forward_s


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_checkpoint_and_replay_prices(config_name):
    config = CONFIGS[config_name]
    assert snapshot_encode_time(config) == ref.snapshot_serialize(config)
    for spec in PROCEDURES.values():
        for msg in spec.uplink_messages:
            assert replay_time(config, msg) == ref.replay_service(config, msg)


@pytest.mark.parametrize("config_name,proc", CASES)
def test_cpu_estimate_bills_what_the_simulator_bills(config_name, proc):
    config = CONFIGS[config_name]
    spec = procedure_spec(config, proc)
    estimate = estimate_procedure_cpu(config, proc)
    parent = ref.estimate_procedure_cpu(config, spec)
    # the parent billed a migration leg `base + total(request)`; the
    # simulator (UE._cpf_cpf) bills its source twice and its target once
    cost = config.cost_model
    for step in spec.steps:
        if step.kind == "cpf_cpf":
            parent -= cost.base_process_s + cost.codec_cost(config.codec).total(
                CATALOG.element_count(step.request)
            )
            parent += (
                ref.message_service_time(config, step.request, None)
                + ref.message_service_time(config, step.request, step.response)
                + ref.downlink_delay(config, step.response or step.request)
            )
    assert estimate == pytest.approx(parent, rel=1e-12)


class TestDeploymentProgram:
    def test_compiled_once_per_deployment(self):
        dep = Deployment.build_grid(Simulator(), ControlPlaneConfig.neutrino())
        assert dep.program("attach") is dep.program("attach")
        assert dep.program("attach") == compile_procedure(
            dep.config, PROCEDURES["attach"]
        )

    def test_dpcm_deployment_runs_the_short_flow(self):
        dep = Deployment.build_grid(Simulator(), ControlPlaneConfig.dpcm())
        assert len(dep.program("attach").steps) == len(DPCM_PROCEDURES["attach"].steps)

    def test_unknown_procedure(self):
        dep = Deployment.build_grid(Simulator(), ControlPlaneConfig.neutrino())
        with pytest.raises(KeyError):
            dep.program("teleport")
