"""Reference auditor: the per-UE-deque ``RYWAuditor``, kept verbatim.

Test fixture only — never imported from ``src/``.  Each UE's causal
history is its own ``deque`` of frozen :class:`CausalEvent` objects
(``maxlen=_HISTORY_LIMIT``), stamped with ``sim_now()`` when noted.
``repro.core.consistency.RYWAuditor`` replaced it with one columnar
ring shared by every UE; ``test_history_oracle.py`` tees every
``record_*`` call into both and requires equal histories and
violation traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.core.consistency import _HISTORY_LIMIT, CausalEvent, Violation


@dataclass
class RYWAuditor:
    """Always-on Read-your-Writes probe.

    Counts serves/writes/violations/forced re-attaches/masked failovers
    and keeps a bounded per-UE causal trace.  Installed by the
    deployment on construction; every ``CPF.serve`` and
    every UE write completion reports here.
    """

    sim_now: object = None  # zero-arg callable; set by the deployment
    serves: int = 0
    writes: int = 0
    violations: List[Violation] = field(default_factory=list)
    reattaches_forced: int = 0
    failovers_masked: int = 0
    messages_replayed: int = 0
    #: diagnostics switch for population-scale runs: the per-UE causal
    #: history is O(UEs) memory and exists only to annotate violation
    #: reports — detection itself is the version comparison in
    #: :meth:`record_serve`, which stays identical with history off.
    keep_history: bool = True
    _history: Dict[str, Deque[CausalEvent]] = field(default_factory=dict, repr=False)

    def _now(self) -> float:
        return self.sim_now() if self.sim_now else 0.0

    def _note(self, ue_id: str, kind: str, **detail: object) -> None:
        if not self.keep_history:
            return
        history = self._history.get(ue_id)
        if history is None:
            history = deque(maxlen=_HISTORY_LIMIT)
            self._history[ue_id] = history
        history.append(
            CausalEvent(self._now(), kind, tuple(sorted(detail.items())))
        )

    # -- write side -----------------------------------------------------------

    def record_write_completion(self, ue_id: str, version: int) -> None:
        """The UE completed a write; ``version`` is its new reader version."""
        self.writes += 1
        self._note(ue_id, "write", version=version)

    # -- read side ------------------------------------------------------------

    def record_serve(
        self,
        ue_id: str,
        reader_version: int,
        served_version: int,
        cpf_name: str,
        span: object = None,
    ) -> None:
        self.serves += 1
        self._note(
            ue_id,
            "serve",
            cpf=cpf_name,
            reader_version=reader_version,
            served_version=served_version,
        )
        if served_version < reader_version:
            self.violations.append(
                Violation(
                    self._now(),
                    ue_id,
                    cpf_name,
                    reader_version,
                    served_version,
                    trace=self.history(ue_id),
                    trace_id=getattr(span, "root_id", None),
                    span_id=getattr(span, "span_id", None),
                )
            )

    # -- recovery bookkeeping ----------------------------------------------------

    def record_reattach_forced(self, ue_id: str, cpf_name: str) -> None:
        self.reattaches_forced += 1
        self._note(ue_id, "reattach_forced", cpf=cpf_name)

    def record_failover_masked(self, ue_id: str, replayed: int) -> None:
        self.failovers_masked += 1
        self.messages_replayed += replayed
        self._note(ue_id, "failover_masked", replayed=replayed)

    # -- queries ------------------------------------------------------------------

    def history(self, ue_id: str) -> Tuple[CausalEvent, ...]:
        """The UE's recent causal events, oldest first."""
        return tuple(self._history.get(ue_id, ()))

    @property
    def read_your_writes_held(self) -> bool:
        return not self.violations

