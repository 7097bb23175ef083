"""Neutrino's control plane: UE/BS/CTA/CPF/UPF over the simulated core.

Public surface:

* :class:`ControlPlaneConfig` — every design knob (+ the §6.2 presets).
* :class:`Deployment` — wires a RegionMap into live simulated nodes.
* :class:`UE` — the procedure driver (the paper's traffic generator role).
* :class:`CTA`, :class:`CPF`, :class:`UPF`, :class:`BaseStation` — nodes.
* :class:`RYWAuditor` — always-on Read-your-Writes verification.
"""

from .bs import BaseStation
from .config import ControlPlaneConfig
from .consistency import CausalEvent, RYWAuditor, Violation
from .cpf import CPF, HandleResult
from .cta import CTA, FailoverPlan
from .deployment import Deployment, Placement
from .log import LogEntry, LogicalClock, MessageLog, ProcedureRecord
from .state import StateEntry, StateStore
from .ue import UE, ProcedureAborted, ProcedureOutcome
from .upf import UPF, Session

__all__ = [
    "ControlPlaneConfig",
    "Deployment",
    "Placement",
    "UE",
    "ProcedureOutcome",
    "ProcedureAborted",
    "CTA",
    "FailoverPlan",
    "CPF",
    "HandleResult",
    "UPF",
    "Session",
    "BaseStation",
    "RYWAuditor",
    "CausalEvent",
    "Violation",
    "StateEntry",
    "StateStore",
    "LogicalClock",
    "MessageLog",
    "LogEntry",
    "ProcedureRecord",
]
