"""Closed-loop orchestration: day-2 operations on the sim clock.

``repro.orch`` turns the epoch-aligned heartbeat feed (``repro.obs``)
into lifecycle decisions — CPF scale-out/scale-in, rolling upgrades,
auto-heal — applied deterministically at exact tick instants through
the deployment's existing choke points.  See DESIGN.md §15.
"""

from .controller import Orchestrator, cpf_index, orch_compare, worst_attach_p99
from .policy import OrchPolicy

__all__ = [
    "OrchPolicy",
    "Orchestrator",
    "cpf_index",
    "orch_compare",
    "worst_attach_p99",
]
