"""Control procedure definitions: ordered message flows.

A *control procedure* (paper §4.2: "composed of several control
messages") is described here as an ordered list of :class:`Step`\\ s that
the simulated UE, BS, CTA and CPF interpret.  The CPF implementation in
:mod:`repro.core.cpf` supports the same four procedures the paper's CPF
does (§5) — initial attach, handover with CPF change, fast handover,
service request — plus the Re-Attach used for failure recovery and the
supporting intra-region handover, TAU, and detach flows.

Step kinds (actor perspective):

* ``ue_exchange`` — UE/BS sends an uplink S1AP message (logged at the
  CTA, processed by the primary CPF) and waits for the downlink reply.
* ``ue_message`` — uplink message with no downlink reply (still CPF work).
* ``cpf_bs`` — CPF-initiated exchange with the BS (e.g. context setup).
* ``cpf_upf`` — CPF programs the user plane (S11-like; §6.6).
* ``cpf_cpf`` — source-CPF to target-CPF exchange (state migration; this
  is the step proactive geo-replication removes for Fast Handover).

``ends_pct`` marks the step whose completion stops the procedure
completion time clock at the UE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Step", "ProcedureSpec", "PROCEDURES", "get_procedure", "procedure_names"]


@dataclass(frozen=True)
class Step:
    kind: str
    request: str
    response: Optional[str] = None
    request_nas: Optional[str] = None
    response_nas: Optional[str] = None
    ends_pct: bool = False
    #: this step runs through the target BS (and, for CPF-changing
    #: procedures, the target CPF) rather than the UE's current ones.
    at_target: bool = False

    _KINDS = ("ue_exchange", "ue_message", "cpf_bs", "cpf_upf", "cpf_cpf")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError("unknown step kind %r" % self.kind)
        if self.kind == "ue_message" and self.response is not None:
            raise ValueError("ue_message steps have no response")


@dataclass(frozen=True)
class ProcedureSpec:
    """A named control procedure and its message flow."""

    name: str
    steps: Tuple[Step, ...]
    #: True when this procedure migrates the UE to a different CPF.
    changes_cpf: bool = False

    def __post_init__(self):
        if not self.steps:
            raise ValueError("procedure %r has no steps" % self.name)
        if sum(1 for s in self.steps if s.ends_pct) != 1:
            raise ValueError("procedure %r must mark exactly one ends_pct step" % self.name)

    @property
    def uplink_messages(self) -> List[str]:
        """S1AP messages that traverse the CTA and are logged there."""
        return [
            s.request for s in self.steps if s.kind in ("ue_exchange", "ue_message")
        ]

    @property
    def cpf_processed_messages(self) -> List[str]:
        """Every message the primary CPF decodes and handles."""
        out: List[str] = []
        for s in self.steps:
            if s.kind in ("ue_exchange", "ue_message"):
                out.append(s.request)
            elif s.kind == "cpf_bs" and s.response:
                out.append(s.response)
            elif s.kind == "cpf_cpf" and s.response:
                out.append(s.response)
        return out


_ATTACH_STEPS = (
    Step(
        "ue_exchange",
        "InitialUEMessage",
        "DownlinkNASTransport",
        request_nas="AttachRequest",
        response_nas="AuthenticationRequest",
    ),
    Step(
        "ue_exchange",
        "UplinkNASTransport",
        "DownlinkNASTransport",
        request_nas="AuthenticationResponse",
        response_nas="SecurityModeCommand",
    ),
    Step(
        "ue_message",
        "UplinkNASTransport",
        request_nas="SecurityModeComplete",
    ),
    Step("cpf_upf", "CreateSessionRequest", "CreateSessionResponse"),
    Step(
        "cpf_bs",
        "InitialContextSetup",
        "InitialContextSetupResponse",
        request_nas="AttachAccept",
        ends_pct=True,
    ),
    Step(
        "ue_message",
        "UplinkNASTransport",
        request_nas="AttachComplete",
    ),
)

_SERVICE_REQUEST_STEPS = (
    Step(
        "ue_message",
        "InitialUEMessage",
        request_nas="NASServiceRequest",
    ),
    Step("cpf_upf", "ModifyBearerRequest", "ModifyBearerResponse"),
    Step(
        "cpf_bs",
        "InitialContextSetup",
        "InitialContextSetupResponse",
        ends_pct=True,
    ),
)

# S1-style handover between CPFs: the expensive middle leg is the
# state migration between source and target CPF (cpf_cpf), which the
# proactive geo-replication of §4.3 eliminates.
_HANDOVER_STEPS = (
    Step("ue_message", "HandoverRequired"),
    Step("cpf_cpf", "HandoverRequest", "HandoverRequestAcknowledge"),
    Step(
        "cpf_bs",
        "HandoverCommand",
        None,
    ),
    Step(
        "ue_message",
        "HandoverNotify",
        at_target=True,
    ),
    Step(
        "cpf_upf",
        "ModifyBearerRequest",
        "ModifyBearerResponse",
        ends_pct=True,
        at_target=True,
    ),
)

# Fast Handover (§4.3): no inter-CPF state migration — the target-region
# replica already holds the UE state via the level-2 ring.
_FAST_HANDOVER_STEPS = (
    Step("ue_message", "HandoverRequired"),
    Step("cpf_bs", "HandoverCommand", None),
    Step("ue_message", "HandoverNotify", at_target=True),
    Step(
        "cpf_upf",
        "ModifyBearerRequest",
        "ModifyBearerResponse",
        ends_pct=True,
        at_target=True,
    ),
)

# Intra-region BS change: same CPF, path switch only.  The target BS
# sends the Path Switch Request, and the bearer moves to it.
_INTRA_HANDOVER_STEPS = (
    Step("ue_message", "PathSwitchRequest", at_target=True),
    Step("cpf_upf", "ModifyBearerRequest", "ModifyBearerResponse", at_target=True),
    Step(
        "cpf_bs",
        "PathSwitchRequestAcknowledge",
        None,
        ends_pct=True,
        at_target=True,
    ),
)

_TAU_STEPS = (
    Step(
        "ue_exchange",
        "UplinkNASTransport",
        "DownlinkNASTransport",
        request_nas="TrackingAreaUpdateRequest",
        response_nas="TrackingAreaUpdateAccept",
        ends_pct=True,
    ),
)

# S1 Release (inactivity): the CPF releases the radio-side context and
# access bearers; the UE enters ECM-IDLE.  Downlink data then requires
# paging + a service request (§4.2.1's paging consistency argument).
_S1_RELEASE_STEPS = (
    Step(
        "cpf_bs",
        "UEContextReleaseCommand",
        "UEContextReleaseComplete",
        ends_pct=True,
    ),
    Step("cpf_upf", "ReleaseAccessBearersRequest", "ReleaseAccessBearersResponse"),
)

_DETACH_STEPS = (
    Step(
        "ue_message",
        "UplinkNASTransport",
        request_nas="DetachRequest",
    ),
    Step("cpf_upf", "DeleteSessionRequest", "DeleteSessionResponse"),
    Step("cpf_bs", "UEContextReleaseCommand", "UEContextReleaseComplete", ends_pct=True),
)

PROCEDURES: Dict[str, ProcedureSpec] = {
    "attach": ProcedureSpec("attach", _ATTACH_STEPS),
    "service_request": ProcedureSpec("service_request", _SERVICE_REQUEST_STEPS),
    "handover": ProcedureSpec("handover", _HANDOVER_STEPS, changes_cpf=True),
    "fast_handover": ProcedureSpec("fast_handover", _FAST_HANDOVER_STEPS, changes_cpf=True),
    "intra_handover": ProcedureSpec("intra_handover", _INTRA_HANDOVER_STEPS),
    "tau": ProcedureSpec("tau", _TAU_STEPS),
    "s1_release": ProcedureSpec("s1_release", _S1_RELEASE_STEPS),
    "detach": ProcedureSpec("detach", _DETACH_STEPS),
}

#: Re-Attach (recovery path, §4.2.5 scenarios 3/4): same flow as attach;
#: kept as a distinct name so recovery statistics are separable.
PROCEDURES["re_attach"] = ProcedureSpec("re_attach", _ATTACH_STEPS)


def get_procedure(name: str) -> ProcedureSpec:
    try:
        return PROCEDURES[name]
    except KeyError:
        raise KeyError(
            "unknown procedure %r (known: %s)" % (name, ", ".join(sorted(PROCEDURES)))
        )


def procedure_names() -> List[str]:
    return sorted(PROCEDURES)
