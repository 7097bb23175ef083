"""The priced step program: what every message of a procedure costs.

A :class:`~repro.messages.procedures.ProcedureSpec` says *which*
messages a procedure exchanges; :func:`compile_procedure` prices them
for one :class:`~repro.core.config.ControlPlaneConfig` — wire sizes
from the real encodings in the message catalog, service times from the
calibrated cost model — into a tuple of :class:`PricedStep`.  Prices
never change during a run, so a deployment compiles each procedure once
(:meth:`Deployment.program <repro.core.deployment.Deployment.program>`)
and both executors read the same numbers: ``UE.execute`` sleeps and
submits them event by event, the batched lane (:mod:`repro.scale.lane`)
adds them up in closed form, and
:func:`~repro.experiments.harness.estimate_procedure_cpu` folds them
into a capacity estimate.  Every formula that turns ``(codec, message)``
into seconds or bytes lives in this module and nowhere else.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..messages.procedures import PROCEDURES, ProcedureSpec
from ..messages.registry import CATALOG

__all__ = [
    "PricedStep",
    "Program",
    "compile_procedure",
    "procedure_spec",
    "SNAPSHOT_WIRE_BYTES",
]

#: approximate wire size of a serialized UE state snapshot.
SNAPSHOT_WIRE_BYTES = 1200
#: information elements a UE state snapshot is priced as when encoded.
_SNAPSHOT_ELEMENTS = 16


# -- per-message prices --------------------------------------------------------


def encode_time(config, msg_name: str) -> float:
    """CPU to build + encode one message with the configured codec."""
    return config.cost_model.serialize_cost(
        config.codec, CATALOG.element_count(msg_name)
    )


def decode_time(config, msg_name: str) -> float:
    """CPU to decode one message with the configured codec."""
    return config.cost_model.deserialize_cost(
        config.codec, CATALOG.element_count(msg_name)
    )


def serve_time(config, req_msg: str, resp_msg: Optional[str] = None) -> float:
    """CPF CPU to decode a request, handle it, and encode the response.

    ``per_message`` synchronization adds its state lock to every
    message served (§6.7.1).
    """
    service = config.cost_model.base_process_s + decode_time(config, req_msg)
    if resp_msg is not None:
        service += encode_time(config, resp_msg)
    if config.sync_mode == "per_message":
        service += config.per_message_lock_s
    return service


def emit_time(config, msg_name: str) -> float:
    """CPF CPU to originate a message (half a handling cost + encode)."""
    return config.cost_model.base_process_s * 0.5 + encode_time(config, msg_name)


def replay_time(config, msg_name: str) -> float:
    """CPU for a promoted backup to re-execute one logged message."""
    return config.cost_model.base_process_s + decode_time(config, msg_name)


def snapshot_encode_time(config) -> float:
    """Sync-core CPU to serialize one UE state snapshot for shipping."""
    return config.cost_model.serialize_cost(config.codec, _SNAPSHOT_ELEMENTS)


def cta_ingest_time(config) -> float:
    """CTA CPU to forward one uplink message (+ stamp and log it)."""
    service = config.cta_forward_s
    if config.message_logging:
        service += config.log_append_s
    return service


# -- the program -----------------------------------------------------------------


class PricedStep(NamedTuple):
    """One step of a procedure with every size and service time it uses.

    A field is ``None`` where the step kind has no such leg.  The
    ``per_message`` lock term is folded into the serve charges.
    """

    #: ``"uplink"`` (``ue_exchange`` / ``ue_message``), ``"cpf_bs"``,
    #: ``"cpf_upf"`` or ``"cpf_cpf"``.
    kind: str
    at_target: bool
    ends_pct: bool
    request: str
    response: Optional[str]
    #: bytes on the wire (``cpf_cpf``: the request carries the snapshot).
    req_size: int
    resp_size: Optional[int]
    #: BS builds + encodes the step's uplink message / decodes its
    #: downlink one (``uplink``: request up, response down; ``cpf_bs``:
    #: request down, response up).
    bs_encode: Optional[float]
    bs_decode: Optional[float]
    cta_ingest: Optional[float]
    cta_respond: Optional[float]
    #: CPF decodes + handles the step's uplink message (+ encodes the
    #: reply); ``cpf_cpf``: the source handling the relocation request.
    cpf_serve: Optional[float]
    #: CPF originates the request (``cpf_bs``, ``cpf_upf``).
    cpf_encode: Optional[float]
    #: CPF decodes the peer's answer (``cpf_upf``; ``cpf_cpf``: the ack).
    cpf_decode: Optional[float]
    #: ``cpf_cpf``: the target decodes, installs, and encodes the ack.
    tgt_serve: Optional[float]

    def cpf_cpu(self) -> float:
        """CPF processing-core seconds this step bills, all legs."""
        return sum(
            charge
            for charge in (
                self.cpf_serve, self.cpf_encode, self.cpf_decode, self.tgt_serve
            )
            if charge is not None
        )


class Program(NamedTuple):
    """A procedure compiled for one configuration."""

    name: str
    steps: Tuple[PricedStep, ...]
    #: True when the procedure migrates the UE to a different CPF.
    changes_cpf: bool
    #: True when every step only updates state the UE already has: no
    #: migration leg (``cpf_cpf``: the target CPF is negotiated while it
    #: runs) and no UPF message other than a bearer update (the others
    #: create, release, or delete the session).  What is left — service
    #: request, TAU, intra and fast handover — has a timeline that is a
    #: pure function of its prices, which is what the batched lane needs
    #: before it will walk a procedure.
    steady_state: bool


def procedure_spec(config, proc_name: str) -> ProcedureSpec:
    """The message flow ``proc_name`` follows under ``config``.

    DPCM's device-side state shortens some flows (§6.2); every other
    design runs the standard ones.
    """
    if config.dpcm_mode:
        from ..baselines.policies import DPCM_PROCEDURES

        override = DPCM_PROCEDURES.get(proc_name)
        if override is not None:
            return override
    try:
        return PROCEDURES[proc_name]
    except KeyError:
        raise KeyError("unknown procedure %r" % proc_name)


def compile_procedure(config, spec: ProcedureSpec) -> Program:
    """Price every step of ``spec`` for ``config``."""
    steps = tuple(_price(config, step) for step in spec.steps)
    steady_state = all(
        step.kind != "cpf_cpf"
        and (step.kind != "cpf_upf" or step.request == "ModifyBearerRequest")
        for step in steps
    )
    return Program(spec.name, steps, spec.changes_cpf, steady_state)


def _price(config, step) -> PricedStep:
    codec = config.codec
    req, resp = step.request, step.response
    kind = "uplink" if step.kind in ("ue_exchange", "ue_message") else step.kind
    req_size = resp_size = None
    bs_encode = bs_decode = cta_ingest = cta_respond = None
    cpf_serve = cpf_encode = cpf_decode = tgt_serve = None
    if kind == "uplink":
        req_size = CATALOG.composed_wire_size(req, step.request_nas, codec)
        bs_encode = encode_time(config, req)
        cta_ingest = cta_ingest_time(config)
        cpf_serve = serve_time(config, req, resp)
        if resp is not None:
            resp_size = CATALOG.composed_wire_size(resp, step.response_nas, codec)
            cta_respond = config.cta_forward_s
            bs_decode = decode_time(config, resp)
    elif kind == "cpf_bs":
        req_size = CATALOG.composed_wire_size(req, step.request_nas, codec)
        cpf_encode = emit_time(config, req)
        cta_respond = config.cta_forward_s
        bs_decode = decode_time(config, req)
        if resp is not None:
            # the BS's answer is logged and served like any other uplink
            resp_size = CATALOG.wire_size(resp, codec)
            bs_encode = encode_time(config, resp)
            cta_ingest = cta_ingest_time(config)
            cpf_serve = serve_time(config, resp)
    elif kind == "cpf_upf":
        req_size = CATALOG.wire_size(req, codec)
        resp_size = CATALOG.wire_size(resp, codec) if resp else 0
        cpf_encode = emit_time(config, req)
        if resp:
            cpf_decode = decode_time(config, resp)
    else:  # cpf_cpf: snapshot + relocation request out, ack back
        req_size = CATALOG.wire_size(req, codec) + SNAPSHOT_WIRE_BYTES
        resp_size = CATALOG.wire_size(resp, codec) if resp else 64
        cpf_serve = serve_time(config, req)
        tgt_serve = serve_time(config, req, resp)
        cpf_decode = decode_time(config, resp or req)
    return PricedStep(
        kind, step.at_target, step.ends_pct, req, resp, req_size, resp_size,
        bs_encode, bs_decode, cta_ingest, cta_respond,
        cpf_serve, cpf_encode, cpf_decode, tgt_serve,
    )
