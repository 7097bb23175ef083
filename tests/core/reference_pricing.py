"""Reference pricing: the per-step formulas of PR <= 21, kept verbatim.

Test fixture only — never imported from ``src/``.  Before
``repro.core.program`` a step was priced in four places; each is copied
here with its float expression order intact (``self`` / ``dep.config``
became a ``config`` argument, nothing else changed), as the oracle for
``test_program.py``: every field of every compiled step must be ``==``
to what these formulas charged.

* ``BaseStation.uplink_delay`` / ``downlink_delay``  (``core/bs.py``)
* ``CTA.ingest`` / ``CTA.respond``                   (``core/cta.py``)
* ``CPF.message_service_time``                       (``core/cpf.py``)
* ``UE._uplink_exchange`` / ``_cpf_bs`` / ``_cpf_upf`` / ``_cpf_cpf``
                                                     (``core/ue.py``)
* ``LaneRuntime._compile``                           (``scale/lane.py``)
* ``estimate_procedure_cpu``                         (``experiments/harness.py``)
"""

from __future__ import annotations

from typing import Optional

from repro.messages.registry import CATALOG

SNAPSHOT_WIRE_BYTES = 1200


# -- core/bs.py -----------------------------------------------------------------


def uplink_delay(config, msg_name: str) -> float:
    cost = config.cost_model
    return cost.serialize_cost(config.codec, CATALOG.element_count(msg_name))


def downlink_delay(config, msg_name: str) -> float:
    cost = config.cost_model
    return cost.deserialize_cost(config.codec, CATALOG.element_count(msg_name))


# -- core/cta.py ----------------------------------------------------------------


def cta_ingest_service(config) -> float:
    service = config.cta_forward_s
    if config.message_logging:
        service += config.log_append_s
    return service


def cta_respond_service(config) -> float:
    return config.cta_forward_s


# -- core/cpf.py ----------------------------------------------------------------


def message_service_time(
    config, req_msg: str, resp_msg: Optional[str], extra: float = 0.0
) -> float:
    cost = config.cost_model
    service = cost.base_process_s + extra
    service += cost.deserialize_cost(config.codec, CATALOG.element_count(req_msg))
    if resp_msg is not None:
        service += cost.serialize_cost(config.codec, CATALOG.element_count(resp_msg))
    if config.sync_mode == "per_message":
        service += config.per_message_lock_s
    return service


def snapshot_serialize(config) -> float:
    cost = config.cost_model
    return cost.serialize_cost(config.codec, 16)  # snapshot encode


def replay_service(config, msg_name: str) -> float:
    cost = config.cost_model
    return cost.base_process_s + cost.deserialize_cost(
        config.codec, CATALOG.element_count(msg_name)
    )


# -- core/ue.py: what each step helper charged, field by field ------------------------


def ue_step(config, step) -> dict:
    """The sizes and service times ``UE._do_step`` used for ``step``."""
    cost = config.cost_model
    codec = config.codec
    req, resp = step.request, step.response
    out = dict(
        at_target=step.at_target, ends_pct=step.ends_pct,
        request=req, response=resp,
        req_size=None, resp_size=None, bs_encode=None, bs_decode=None,
        cta_ingest=None, cta_respond=None,
        cpf_serve=None, cpf_encode=None, cpf_decode=None, tgt_serve=None,
    )
    if step.kind in ("ue_exchange", "ue_message"):  # UE._uplink_exchange
        out["kind"] = "uplink"
        out["req_size"] = CATALOG.composed_wire_size(req, step.request_nas, codec)
        out["bs_encode"] = uplink_delay(config, req)
        out["cta_ingest"] = cta_ingest_service(config)
        out["cpf_serve"] = message_service_time(config, req, resp, 0.0)
        if resp is not None:
            out["resp_size"] = CATALOG.composed_wire_size(
                resp, step.response_nas, codec
            )
            out["cta_respond"] = cta_respond_service(config)
            out["bs_decode"] = downlink_delay(config, resp)
    elif step.kind == "cpf_bs":  # UE._cpf_bs
        out["kind"] = "cpf_bs"
        out["req_size"] = CATALOG.composed_wire_size(req, step.request_nas, codec)
        out["cpf_encode"] = (
            cost.base_process_s * 0.5
            + cost.serialize_cost(codec, CATALOG.element_count(req))
        )
        out["cta_respond"] = cta_respond_service(config)
        out["bs_decode"] = downlink_delay(config, req)
        if resp is not None:
            out["resp_size"] = CATALOG.wire_size(resp, codec)
            out["bs_encode"] = uplink_delay(config, resp)
            out["cta_ingest"] = cta_ingest_service(config)
            out["cpf_serve"] = message_service_time(config, resp, None, 0.0)
    elif step.kind == "cpf_upf":  # UE._cpf_upf
        out["kind"] = "cpf_upf"
        out["req_size"] = CATALOG.wire_size(req, codec)
        out["resp_size"] = CATALOG.wire_size(resp, codec) if resp else 0
        out["cpf_encode"] = (
            cost.base_process_s * 0.5
            + cost.serialize_cost(codec, CATALOG.element_count(req))
        )
        if resp:
            out["cpf_decode"] = cost.deserialize_cost(
                codec, CATALOG.element_count(resp)
            )
    else:  # UE._cpf_cpf
        out["kind"] = "cpf_cpf"
        out["req_size"] = CATALOG.wire_size(req, codec) + SNAPSHOT_WIRE_BYTES
        out["resp_size"] = CATALOG.wire_size(resp, codec) if resp else 64
        out["cpf_serve"] = message_service_time(config, req, None)
        out["tgt_serve"] = message_service_time(config, req, resp)
        out["cpf_decode"] = config.cost_model.deserialize_cost(
            codec, CATALOG.element_count(resp or req)
        )
    return out


# -- scale/lane.py ---------------------------------------------------------------


class _StepC:
    """Per-step compile-time constants (sizes and service times)."""

    __slots__ = (
        "kind",
        "at_target",
        "ends_pct",
        "req",
        "resp",
        "req_size",
        "resp_size",
        "up_req",
        "dn_req",
        "up_resp",
        "dn_resp",
        "svc_cpf",
        "svc_cpf_resp",
        "svc_encode",
        "svc_decode",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


def lane_compile(config, spec):
    """``LaneRuntime._compile``: ``None`` for a procedure the lane refused."""
    cost, codec = config.cost_model, config.codec
    ser = lambda m: cost.serialize_cost(codec, CATALOG.element_count(m))
    deser = lambda m: cost.deserialize_cost(codec, CATALOG.element_count(m))
    out = []
    for step in spec.steps:
        c = _StepC()
        c.at_target = step.at_target
        c.ends_pct = step.ends_pct
        c.req, c.resp = step.request, step.response
        if step.kind in ("ue_message", "ue_exchange"):
            c.kind = 0
            c.req_size = CATALOG.composed_wire_size(
                c.req, step.request_nas, codec
            )
            c.up_req = ser(c.req)
            # handle_uplink service (per_procedure mode: no lock term)
            c.svc_cpf = cost.base_process_s + deser(c.req)
            if c.resp is not None:
                c.svc_cpf += ser(c.resp)
                c.resp_size = CATALOG.composed_wire_size(
                    c.resp, step.response_nas, codec
                )
                c.dn_resp = deser(c.resp)
        elif step.kind == "cpf_bs":
            c.kind = 1
            c.req_size = CATALOG.composed_wire_size(
                c.req, step.request_nas, codec
            )
            c.svc_encode = cost.base_process_s * 0.5 + ser(c.req)
            c.dn_req = deser(c.req)
            if c.resp is not None:
                c.resp_size = CATALOG.wire_size(c.resp, codec)
                c.up_resp = ser(c.resp)
                c.svc_cpf_resp = cost.base_process_s + deser(c.resp)
        elif step.kind == "cpf_upf":
            if c.req != "ModifyBearerRequest":
                return None  # only bearer updates have a known effect
            c.kind = 2
            c.req_size = CATALOG.wire_size(c.req, codec)
            c.svc_encode = cost.base_process_s * 0.5 + ser(c.req)
            if c.resp is not None:
                c.resp_size = CATALOG.wire_size(c.resp, codec)
                c.svc_decode = deser(c.resp)
        else:
            return None  # cpf_cpf migration legs stay discrete
        out.append(c)
    return tuple(out), spec.changes_cpf


def lane_svc_ingest(config) -> float:
    return config.cta_forward_s + config.log_append_s


#: procedures the lane knew how to compile.
LANE_PROCS = ("service_request", "tau", "intra_handover", "fast_handover")


# -- experiments/harness.py ------------------------------------------------------------


def estimate_procedure_cpu(config, spec) -> float:
    """The parent's per-kind arithmetic over ``spec.steps``."""
    cost = config.cost_model
    codec = config.codec

    def elements(msg):
        return CATALOG.element_count(msg)

    total = 0.0
    for step in spec.steps:
        if step.kind in ("ue_exchange", "ue_message"):
            total += cost.base_process_s + cost.deserialize_cost(codec, elements(step.request))
            if step.response:
                total += cost.serialize_cost(codec, elements(step.response))
            if config.sync_mode == "per_message":
                total += config.per_message_lock_s
        elif step.kind == "cpf_bs":
            total += cost.base_process_s * 0.5 + cost.serialize_cost(codec, elements(step.request))
            if step.response:
                total += cost.base_process_s + cost.deserialize_cost(codec, elements(step.response))
                if config.sync_mode == "per_message":
                    total += config.per_message_lock_s
        elif step.kind == "cpf_upf":
            total += cost.base_process_s * 0.5 + cost.serialize_cost(codec, elements(step.request))
            if step.response:
                total += cost.deserialize_cost(codec, elements(step.response))
        elif step.kind == "cpf_cpf":
            total += cost.codec_cost(codec).total(elements(step.request))
            total += cost.base_process_s
    if config.sync_mode == "per_procedure":
        total += config.checkpoint_lock_s
    return total
