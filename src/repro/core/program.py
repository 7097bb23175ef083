"""The priced step program: what every message of a procedure costs.

A :class:`~repro.messages.procedures.ProcedureSpec` says *which*
messages a procedure exchanges; :func:`compile_procedure` prices them
for one :class:`~repro.core.config.ControlPlaneConfig` — wire sizes
from the real encodings in the message catalog, service times from the
calibrated cost model — into a tuple of :class:`PricedStep`, each laid
out as the :class:`Leg`\\ s it crosses the network in.  Prices never
change during a run, so a deployment compiles each procedure once
(:meth:`Deployment.program_of <repro.core.deployment.Deployment.program_of>`)
and every executor reads the same program: ``UE.execute`` walks the
legs event by event, the batched lane (:mod:`repro.scale.lane`) in
closed form, and :func:`~repro.experiments.harness.estimate_procedure_cpu`
folds the prices into a capacity estimate.  Every formula that turns
``(codec, message)`` into seconds or bytes, and the leg order of every
step kind, lives in this module and nowhere else.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..messages.procedures import PROCEDURES, ProcedureSpec
from ..messages.registry import CATALOG

__all__ = [
    "Leg",
    "PricedStep",
    "Program",
    "compile_procedure",
    "leg_span",
    "procedure_spec",
    "CONTROL_WIRE_BYTES",
    "REATTACH",
    "SNAPSHOT_WIRE_BYTES",
]

#: approximate wire size of a serialized UE state snapshot.
SNAPSHOT_WIRE_BYTES = 1200
#: wire size of a bare control message: a checkpoint ACK, a state-fetch
#: request, a migration ack the catalog does not name.
CONTROL_WIRE_BYTES = 64
#: the procedure a UE runs when recovery cannot resume (§4.2.5).
REATTACH = "re_attach"
#: procedures that create the UE's state rather than update it; their
#: first ``InitialUEMessage`` is the serve that creates it.
_CREATES_STATE = ("attach", REATTACH)
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


#: span phase and the attribute naming who acts, per timed leg kind.
_LEG_SPANS = {
    "bs.uplink": ("radio", "bs"),
    "bs.downlink": ("radio", "bs"),
    "cta.ingest": ("cta", "node"),
    "cta.respond": ("cta", "node"),
    "cpf.encode": ("cpf_serve", "node"),
    "cpf.decode": ("cpf_serve", "node"),
    "upf.program": ("upf", "upf"),
}


class Leg(NamedTuple):
    """One crossing of a step: a kind plus what it uses.

    The kinds are ``"hop"`` (over the link class ``link``), the BS's
    encode / decode (``"bs.uplink"`` / ``"bs.downlink"``), the CTA's
    ingest / respond (``"cta.ingest"`` / ``"cta.respond"``), the CPF's
    serve / emit / decode (``"cpf.handle"`` / ``"cpf.encode"`` /
    ``"cpf.decode"``), the UPF's ``"upf.program"`` and the ``"pct"``
    mark; each timed kind is also the name of the span an executor
    records for it.  ``msg`` is the message the actor handles (``None``:
    the CTA forwards a response unread), ``size`` its bytes on the wire,
    ``price`` the actor's service time (``None``: the UPF prices itself).
    """

    kind: str
    link: Optional[str] = None
    msg: Optional[str] = None
    size: Optional[int] = None
    price: Optional[float] = None


def leg_span(leg: Leg, actor: str):
    """``(phase, attrs)`` of the span recording timed ``leg`` by ``actor``."""
    phase, key = _LEG_SPANS[leg.kind]
    if leg.msg is None:
        return phase, {key: actor}
    return phase, {key: actor, "msg": leg.msg}


class Program(NamedTuple):
    """A procedure compiled for one configuration."""

    name: str
    steps: Tuple[PricedStep, ...]
    #: the legs of each step, in order (``legs[i]`` belongs to ``steps[i]``).
    legs: Tuple[Tuple[Leg, ...], ...]
    #: True when the procedure migrates the UE to a different CPF.
    changes_cpf: bool
    #: True when the CPF change has no migration leg: the target
    #: region's replica serves from the first target-side step on
    #: (Fast Handover, §4.3).
    finds_target: bool
    #: index of the step whose CPF serve creates the UE's state; ``None``
    #: for a procedure that updates state the UE already has.
    creates: Optional[int]
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
    """Price every step of ``spec`` for ``config`` and lay out its legs."""
    steps = tuple(_price(config, step) for step in spec.steps)
    migrates = any(step.kind == "cpf_cpf" for step in steps)
    steady_state = not migrates and all(
        step.kind != "cpf_upf" or step.request == "ModifyBearerRequest"
        for step in steps
    )
    creates = None
    if spec.name in _CREATES_STATE:
        creates = next(
            i for i, step in enumerate(steps) if step.request == "InitialUEMessage"
        )
    return Program(
        spec.name, steps, tuple(_legs(step) for step in steps), spec.changes_cpf,
        spec.changes_cpf and not migrates, creates, steady_state,
    )


def _uplink(step: PricedStep, msg: str, size: int) -> List[Leg]:
    """From the BS on: encode, to the CTA (stamp + log), to the CPF (serve)."""
    return [
        Leg("bs.uplink", None, msg, size, step.bs_encode),
        Leg("hop", "bs_cta", msg, size),
        Leg("cta.ingest", None, msg, size, step.cta_ingest),
        Leg("hop", "cta_cpf", msg, size),
        Leg("cpf.handle", None, msg, size, step.cpf_serve),
    ]


def _downlink(step: PricedStep, msg: str, size: int) -> List[Leg]:
    """From the CPF on: to the CTA (forward), to the BS (decode), to the UE."""
    return [
        Leg("hop", "cta_cpf", msg, size),
        Leg("cta.respond", None, None, size, step.cta_respond),
        Leg("hop", "bs_cta", msg, size),
        Leg("bs.downlink", None, msg, size, step.bs_decode),
        Leg("hop", "ue_bs", msg, size),
    ]


def _legs(step: PricedStep) -> Tuple[Leg, ...]:
    """The crossings of one priced step, in the order they happen."""
    req, resp = step.request, step.response
    if step.kind == "cpf_cpf":
        # The migration's target CPF and link are negotiated while it
        # runs: the discrete executor runs it from the step's prices
        # (the lane never admits it).
        return ()
    if step.kind == "uplink":
        legs = [Leg("hop", "ue_bs", req, step.req_size)]
        legs += _uplink(step, req, step.req_size)
        if resp is not None:
            legs += _downlink(step, resp, step.resp_size)
    elif step.kind == "cpf_bs":
        legs = [Leg("cpf.encode", None, req, step.req_size, step.cpf_encode)]
        legs += _downlink(step, req, step.req_size)
    else:  # cpf_upf
        legs = [
            Leg("cpf.encode", None, req, step.req_size, step.cpf_encode),
            Leg("hop", "cpf_upf", req, step.req_size),
            Leg("upf.program", None, req, step.req_size),
        ]
        if resp:
            legs += [
                Leg("hop", "cpf_upf", resp, step.resp_size),
                Leg("cpf.decode", None, resp, step.resp_size, step.cpf_decode),
            ]
    if step.ends_pct:
        # a cpf_bs step's command reached the UE: the PCT clock stops
        # before the BS answers
        legs.append(Leg("pct"))
    if step.kind == "cpf_bs" and resp is not None:
        legs += _uplink(step, resp, step.resp_size)
    return tuple(legs)


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
        resp_size = CATALOG.wire_size(resp, codec) if resp else CONTROL_WIRE_BYTES
        cpf_serve = serve_time(config, req)
        tgt_serve = serve_time(config, req, resp)
        cpf_decode = decode_time(config, resp or req)
    return PricedStep(
        kind, step.at_target, step.ends_pct, req, resp, req_size, resp_size,
        bs_encode, bs_decode, cta_ingest, cta_respond,
        cpf_serve, cpf_encode, cpf_decode, tgt_serve,
    )
